"""End-to-end pipelines, benchmark orchestration, and model cross-checks.

Four estimator variants share one reconstruction core and differ only in
the weight matrix and measurement vector fed to it, one (weights, measure)
entry per variant in _VARIANT_TABLE. VariantPipeline.images images a frame
sequence with one batched reconstruction, and run_pipeline and benchmark
localize its rows; VariantPipeline.image serves one frame at a time for
streaming.

- ``rti``: one channel's RSS loss with the fixed-width ellipse weights.
- ``cdrti``: every (link, channel) pair treated as an independent link
  (Kaltiokallio, Bocca & Patwari, IEEE MASS 2012). C stacked copies of the
  fixed-width weights W give the Gram matrix C·WᵀW and the back-projection
  Wᵀ Σ_c s_c, so the same image comes from one copy, √C·W, fed the
  channel-summed loss Σ_c s_c / √C.
- ``flrti``: per link, the m most anti-fade channels averaged into one
  RSS-loss measurement over the fixed-width weights.
- ``msrti``: direction-resolved in-ellipse probabilities over the
  fade-level-scaled multi-scale weights.

Baseline variants image the *loss* s = −Δr so that the argmax localizer
targets attenuation for every variant.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import FadeLevelTable, calibrate
from .geometry import NodeLayout, VoxelGrid, enumerate_links
from .measurement_model import (
    HoldBuffer,
    MeasurementAssembler,
    MeasurementModelParams,
    inside_probability,
    rss_change,
)
from .reconstruction import (
    ReconstructionParams,
    build_operator,
    prior_precision_term,
    reconstruct,
)
from .simulator import (
    ScenarioSpec,
    generate_trace,
    stationary_trajectory,
)
from .spatial_model import (
    DIR_DOWN,
    EllipseModelParams,
    WeightMatrix,
    build_classic_weights,
    build_multiscale_weights,
    lambda_for,
)
from .tracking import (
    error_summary,
    init_track,
    kalman_step,
    localization_error,
    localize,
)

__all__ = [
    "VARIANTS",
    "PipelineConfig",
    "PipelineResult",
    "VariantPipeline",
    "run_pipeline",
    "benchmark",
    "crosscheck_models",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs beyond the data itself.

    Attributes:
        voxel_width: image voxel size p, meters.
        grid_margin: padding around the node bounding box; None = one
            voxel width.
        calibration_frames: person-free prefix of the trace used for
            calibration.
        classic_lambda: fixed ellipse width of the baseline weights.
        rti_channel: channel for the single-channel variant; None = first
            calibrated channel.
        flrti_m: how many most-anti-fade channels each link averages.
        ellipse / measurement / reconstruction: model parameter sets.
        kalman: smooth positions with the Kalman filter.
        kalman_q: process-noise intensity (white-noise jerk).
        kalman_r_scale: measurement variance = scale * voxel_width².
        dt: frame period in seconds (Kalman only); a Kalman step across
            a gap in k spans the k difference times dt.
    """

    voxel_width: float = 0.1524
    grid_margin: float | None = None
    calibration_frames: int = 100
    classic_lambda: float = 0.02
    rti_channel: int | None = None
    flrti_m: int = 3
    ellipse: EllipseModelParams = field(default_factory=EllipseModelParams)
    measurement: MeasurementModelParams = field(default_factory=MeasurementModelParams)
    reconstruction: ReconstructionParams = field(default_factory=ReconstructionParams)
    kalman: bool = False
    kalman_q: float = 1.0
    kalman_r_scale: float = 4.0
    dt: float = 1.0

    def __post_init__(self):
        for name, bound, ok in (  # each test is False for NaN
                ("voxel_width", "> 0", self.voxel_width > 0),
                ("calibration_frames", ">= 1", self.calibration_frames >= 1),
                ("flrti_m", ">= 1", self.flrti_m >= 1),
                ("classic_lambda", ">= 0", self.classic_lambda >= 0),
                ("kalman_q", ">= 0", self.kalman_q >= 0),
                ("kalman_r_scale", ">= 0", self.kalman_r_scale >= 0),
                ("dt", "> 0", self.dt > 0)):
            if not ok:
                raise ValueError(f"{name} must be {bound}")

    @classmethod
    def from_dict(cls, kv: dict) -> "PipelineConfig":
        """Build from flat key-value pairs (see load_key_value).

        Unknown keys raise; parameter-set keys map onto their dataclasses
        (k_lambda_minus, beta_minus, sigma_x, ...). `kalman` is not a key:
        the caller decides whether to smooth (`rtikit track --no-kalman`).
        """
        ellipse_keys = {
            "k_lambda_minus": "k_down", "b_lambda_minus": "b_down",
            "k_lambda_plus": "k_up", "b_lambda_plus": "b_up",
            "lambda_max": "lambda_max",
        }
        measurement_keys = {
            "beta_minus": "beta_minus", "k_beta_plus": "k_beta_plus",
            "b_beta_plus": "b_beta_plus",
        }
        recon_keys = {"sigma_x": "sigma_x", "sigma_n": "sigma_n",
                      "delta_c": "delta_c"}
        top_float = {"voxel_width", "grid_margin", "classic_lambda",
                     "kalman_q", "kalman_r_scale", "dt"}
        top_int = {"calibration_frames", "rti_channel", "flrti_m"}

        ellipse, measurement, recon, top = {}, {}, {}, {}
        for key, values in kv.items():
            if len(values) != 1 or len(values[0]) != 1:
                raise ValueError(f"config key {key!r} needs exactly one value")
            value = values[0][0]
            if key in ellipse_keys:
                ellipse[ellipse_keys[key]] = float(value)
            elif key in measurement_keys:
                measurement[measurement_keys[key]] = float(value)
            elif key == "hold_frames":
                measurement["hold_frames"] = int(value)
            elif key in recon_keys:
                recon[recon_keys[key]] = float(value)
            elif key in top_float:
                top[key] = float(value)
            elif key in top_int:
                top[key] = int(value)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(
            ellipse=EllipseModelParams(**ellipse),
            measurement=MeasurementModelParams(**measurement),
            reconstruction=ReconstructionParams(**recon),
            **top,
        )


def _loss(frame, fades, hold) -> np.ndarray:
    """Per-(link, channel) RSS loss s = −Δr, positive under attenuation."""
    return -np.nan_to_num(rss_change(frame, fades, hold), nan=0.0)


def _classic_weights(table, layout, grid, fades, config) -> WeightMatrix:
    return build_classic_weights(table, layout, grid, config.classic_lambda)


def _scaled_weights(table, layout, grid, fades, config) -> WeightMatrix:
    """cdrti: the fixed-width weights times √C, one row per link."""
    classic = _classic_weights(table, layout, grid, fades, config)
    root_c = np.sqrt(fades.channels.size)
    return replace(classic, band_sums=classic.band_sums * root_c)


def _multiscale_weights(table, layout, grid, fades, config) -> WeightMatrix:
    return build_multiscale_weights(table, layout, grid, fades, config.ellipse)


def _rti_channel(fades: FadeLevelTable, config: PipelineConfig) -> int:
    if config.rti_channel is None:
        return int(fades.channels[0])
    if config.rti_channel not in fades.channels:
        raise ValueError(
            f"rti_channel {config.rti_channel} is not a calibrated channel "
            f"{fades.channels.tolist()}"
        )
    return config.rti_channel


def _rti_measure(fades, config, hold):
    col = fades.channel_column(_rti_channel(fades, config))
    return lambda frame: _loss(frame, fades, hold)[:, col]


def _cdrti_measure(fades, config, hold):
    root_c = np.sqrt(fades.channels.size)
    return lambda frame: _loss(frame, fades, hold).sum(axis=1) / root_c


def _flrti_measure(fades, config, hold):
    selection = _flrti_selection(fades.values, config.flrti_m)
    return lambda frame: (_loss(frame, fades, hold) * selection).sum(axis=1)


def _msrti_measure(fades, config, hold):
    assembler = MeasurementAssembler(fades, config.measurement)
    return lambda frame: assembler(frame, hold)


# variant -> (weights(table, layout, grid, fades, config) -> WeightMatrix,
#             measure(fades, config, hold) -> (frame -> y),
#             whether the weights, hence the operator, depend on the
#             calibration beyond its channel count)
_VARIANT_TABLE = {
    "rti": (_classic_weights, _rti_measure, False),
    "cdrti": (_scaled_weights, _cdrti_measure, False),
    "flrti": (_classic_weights, _flrti_measure, False),
    "msrti": (_multiscale_weights, _msrti_measure, True),
}
VARIANTS = tuple(_VARIANT_TABLE)


class VariantPipeline:
    """One variant's frame-to-image machinery, state included.

    Construction does the expensive work (weights + operator); measurement
    and image assembly per frame are array operations. The hold buffer
    makes a pipeline single-pass — build a fresh one per trace.
    """

    def __init__(self, variant: str, fades: FadeLevelTable, layout: NodeLayout,
                 grid: VoxelGrid, config: PipelineConfig,
                 precision_term: np.ndarray | None = None,
                 operator=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        build_weights, measure, _ = _VARIANT_TABLE[variant]
        self.variant = variant
        self.fades = fades
        self.grid = grid
        self.config = config
        table = enumerate_links(layout)
        hold = HoldBuffer(table.n_links, fades.channels.size,
                          config.measurement.hold_frames)
        # the measure function validates the variant's inputs, so a bad
        # input is reported before the expensive weights and operator build
        self._measure = measure(fades, config, hold)
        if operator is None:
            weights = build_weights(table, layout, grid, fades, config)
            operator = build_operator(weights, grid, config.reconstruction,
                                      precision_term)
        self.operator = operator

    @property
    def channel(self) -> int:
        """Channel the single-channel variant (rti) images."""
        return _rti_channel(self.fades, self.config)

    def measurement(self, frame) -> np.ndarray:
        """Per-frame measurement vector in this variant's row order."""
        return self._measure(frame)

    def image(self, frame) -> np.ndarray:
        """(N,) image of one frame, for streaming use."""
        return reconstruct(self.operator, self.measurement(frame))

    def images(self, frames) -> np.ndarray:
        """(K, N) images of a frame sequence: measured in order, as the hold
        buffer is sequential, then imaged together by one batched
        `reconstruct` of the (rows, K) block, Π·Y on a short operator and
        M·(U·(S·Y)) on a tall one."""
        y = np.empty((self.operator.weights.n_rows, len(frames)))
        for i, frame in enumerate(frames):
            y[:, i] = self.measurement(frame)
        return reconstruct(self.operator, y).T


def _flrti_selection(fade_values: np.ndarray, m: int) -> np.ndarray:
    """Per-link averaging weights over each link's m most anti-fade channels.

    Returns an (L, C) matrix whose row l holds 1/m_l on the selected
    channels (m_l = min(m, #calibrated channels of link l)) and 0
    elsewhere. Links with no calibrated channel get an all-zero row.
    """
    n_links, n_channels = fade_values.shape
    selection = np.zeros((n_links, n_channels))
    for l in range(n_links):
        fades_l = fade_values[l]
        order = np.argsort(-fades_l, kind="stable")  # NaN sorts last
        order = [c for c in order if not np.isnan(fades_l[c])]
        chosen = order[:m]
        if chosen:
            selection[l, chosen] = 1.0 / len(chosen)
    return selection


@dataclass(frozen=True)
class PipelineResult:
    """run_pipeline output.

    Attributes:
        variant: which estimator produced this.
        rows: track rows (k, x_hat, y_hat) or (k, x_hat, y_hat, x_true,
            y_true, error_m) when truth was given.
        summary: error statistics dict, or None without truth.
        grid: image grid used.
        channels: channel set of the calibration.
    """

    variant: str
    rows: tuple
    summary: dict | None
    grid: VoxelGrid
    channels: tuple


def run_pipeline(variant: str, frames, layout: NodeLayout,
                 config: PipelineConfig, truth: dict | None = None,
                 fades: FadeLevelTable | None = None,
                 grid: VoxelGrid | None = None) -> PipelineResult:
    """Calibrate on the trace prefix, then localize every following frame.

    Args:
        variant: one of VARIANTS.
        frames: full trace; the first config.calibration_frames frames
            must be person-free.
        layout: node deployment.
        config: pipeline configuration.
        truth: optional k -> (x, y) ground truth; adds error columns and
            summary.
        fades: skip calibration and use these fade levels (the trace
            prefix is then not consumed).
        grid: override the default node-bounding-box grid.

    Returns:
        PipelineResult; deterministic for identical inputs.
    """
    frames = list(frames)
    if fades is None:
        if len(frames) <= config.calibration_frames:
            raise ValueError(
                f"trace has {len(frames)} frames; needs more than the "
                f"{config.calibration_frames}-frame calibration prefix"
            )
        table = enumerate_links(layout)
        fades = calibrate(frames[:config.calibration_frames], table)
        frames = frames[config.calibration_frames:]
    if grid is None:
        grid = VoxelGrid.from_layout(layout, config.voxel_width,
                                     config.grid_margin)
    pipeline = VariantPipeline(variant, fades, layout, grid, config)
    return _track(pipeline, frames, truth, config.kalman)


def _track(pipeline: VariantPipeline, frames, truth: dict | None,
           kalman: bool) -> PipelineResult:
    """Localize each row of pipeline.images(frames), optionally through the
    Kalman filter, whose step spans the k difference times config.dt.

    A frame `localize` reports as no detection (an identically zero image,
    which an outage longer than the hold window gives) keeps its NaN
    position and gets a NaN error; the summary leaves it out and the
    Kalman filter takes no update.
    """
    grid, config = pipeline.grid, pipeline.config
    estimates = [localize(image, grid, k=frame.k)
                 for frame, image in zip(frames, pipeline.images(frames))]

    nan = float("nan")
    positions = [est.xy for est in estimates]
    if kalman:
        r = config.kalman_r_scale * config.voxel_width**2
        track = None
        for i, est in enumerate(estimates):
            if not est.detected:
                continue
            if track is None:
                track = init_track(est)
            else:
                track = kalman_step(track, est, dt=(est.k - track.k) * config.dt,
                                    q=config.kalman_q, r=r)
                positions[i] = tuple(track.position)

    rows = []
    errors = []
    for frame, est, (x, y) in zip(frames, estimates, positions):
        if truth is None:
            rows.append((frame.k, x, y))
        elif frame.k in truth:
            tx, ty = truth[frame.k]
            err = localization_error((x, y), (tx, ty))
            if est.detected:
                errors.append(err)
            rows.append((frame.k, x, y, tx, ty, err))
        else:
            # keep row widths uniform when truth covers only part of the run
            rows.append((frame.k, x, y, nan, nan, nan))
    return PipelineResult(
        variant=pipeline.variant,
        rows=tuple(rows),
        summary=error_summary(errors) if errors else None,
        grid=grid,
        channels=tuple(int(c) for c in pipeline.fades.channels),
    )


def benchmark(layout: NodeLayout, positions, seeds,
              config: PipelineConfig | None = None,
              variants=("msrti", "cdrti"),
              frames_per_position: int = 10,
              scenario_name: str = "stationary-grid",
              scenario_kwargs: dict | None = None):
    """Stationary-target benchmark over seeds and estimator variants.

    For each seed, one synthetic trace places the person at every given
    position for frames_per_position frames after a calibration prefix;
    each variant then runs on the identical trace and is scored on its raw
    per-frame estimates (no Kalman). Expensive pieces that do not depend
    on the seed (grid, prior term, fixed-width operators) are shared
    across runs.

    Args:
        layout: sensor deployment.
        positions: iterable of (x, y) ground-truth positions.
        seeds: iterable of RNG seeds, one trace per seed.
        config: pipeline configuration (defaults if None).
        variants: estimator variants to compare.
        frames_per_position: person frames per position.
        scenario_name: label for the report rows.
        scenario_kwargs: extra ScenarioSpec fields (channels, noise_sigma,
            quantize, fade_sigma, ...).

    Returns:
        list of (variant, scenario_name, seed, summary) rows, seeds outer,
        variants inner.
    """
    if config is None:
        config = PipelineConfig()
    positions = [(float(x), float(y)) for x, y in positions]
    if not positions:
        raise ValueError("benchmark needs at least one position")
    scenario_kwargs = dict(scenario_kwargs or {})
    scenario_kwargs.setdefault("calibration_frames", config.calibration_frames)
    if scenario_kwargs["calibration_frames"] != config.calibration_frames:
        raise ValueError("scenario calibration_frames must match config")

    trajectory_parts = []
    k = config.calibration_frames
    for x, y in positions:
        trajectory_parts.append(stationary_trajectory((x, y), k, frames_per_position))
        k += frames_per_position
    trajectory = np.vstack(trajectory_parts)

    grid = VoxelGrid.from_layout(layout, config.voxel_width, config.grid_margin)
    precision_term = prior_precision_term(grid, config.reconstruction)
    table = enumerate_links(layout)

    # Operators whose weights do not depend on the calibration are built
    # for the first seed and reused for the rest.
    reusable = {}
    rows = []
    for seed in seeds:
        spec = ScenarioSpec(layout=layout, trajectory=trajectory,
                            seed=int(seed), **scenario_kwargs)
        trace = generate_trace(spec, ellipse=config.ellipse,
                               measurement=config.measurement)
        fades = calibrate(trace.frames[:config.calibration_frames], table)
        truth = {int(k): (x, y) for k, x, y in trace.truth}
        person_frames = trace.frames[config.calibration_frames:]
        for variant in variants:
            pipeline = VariantPipeline(variant, fades, layout, grid, config,
                                       precision_term=precision_term,
                                       operator=reusable.get(variant))
            _, _, per_calibration = _VARIANT_TABLE[variant]
            if not per_calibration:
                reusable[variant] = pipeline.operator
            result = _track(pipeline, person_frames, truth, kalman=False)
            rows.append((variant, scenario_name, int(seed), result.summary))
    return rows


def crosscheck_models(ellipse: EllipseModelParams | None = None,
                      measurement: MeasurementModelParams | None = None):
    """Evaluate the five published model anchors against the defaults.

    Returns:
        (checks, passed): checks is a list of dicts with name, computed,
        expected, tolerance, and ok fields; passed is the conjunction.
    """
    if ellipse is None:
        ellipse = EllipseModelParams()
    if measurement is None:
        measurement = MeasurementModelParams()

    def prob(delta_r, fade):
        _, p = inside_probability(delta_r, fade, measurement)
        return p

    anchors = [
        ("lambda_down(F=+8)", lambda_for(8.0, DIR_DOWN, ellipse), 0.0530, 0.0005),
        ("lambda_down(F=-8)", lambda_for(-8.0, DIR_DOWN, ellipse), 0.8413, 0.0010),
        ("p(dr=-10, F=+8)", prob(-10.0, 8.0), 0.69, 0.01),
        ("p(dr=+10, F=+8)", prob(10.0, 8.0), 0.97, 0.01),
        ("p(dr=+10, F=-8)", prob(10.0, -8.0), 0.63, 0.01),
    ]
    checks = []
    for name, computed, expected, tol in anchors:
        checks.append({
            "name": name,
            "computed": float(computed),
            "expected": expected,
            "tolerance": tol,
            "ok": abs(computed - expected) <= tol,
        })
    return checks, all(c["ok"] for c in checks)
