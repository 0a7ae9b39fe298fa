"""End-to-end pipelines, benchmark orchestration, and model cross-checks.

Four estimator variants share one reconstruction core and differ only in
the weight matrix and measurement vector fed to it, one (weights, measure)
entry per variant in _VARIANT_TABLE. VariantPipeline.images images a frame
sequence with one batched reconstruction, and one frame loop localizes
its rows for both run_pipeline, on a given trace, and benchmark, on
seeded synthetic traces of any ScenarioSpec; VariantPipeline.image serves
one frame at a time for streaming.

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

Every variant measures the (L, C) Δr of rss_change, 0 where a pair has no
value. Baseline variants image the *loss* s = −Δr so that the argmax
localizer targets attenuation for every variant.
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace

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
    PrecisionTerm,
    ReconstructionParams,
    build_operator,
    prior_precision_term,
    reconstruct,
)
from .simulator import ScenarioSpec, generate_trace
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
        inf = np.inf
        for name, bound, ok in (  # each test is False for NaN
                ("voxel_width", "finite and > 0", 0 < self.voxel_width < inf),
                ("grid_margin", "finite or None",
                 self.grid_margin is None or abs(self.grid_margin) < inf),
                ("calibration_frames", ">= 1", self.calibration_frames >= 1),
                ("flrti_m", ">= 1", self.flrti_m >= 1),
                ("classic_lambda", "finite and >= 0", 0 <= self.classic_lambda < inf),
                ("kalman_q", "finite and >= 0", 0 <= self.kalman_q < inf),
                ("kalman_r_scale", "finite and >= 0", 0 <= self.kalman_r_scale < inf),
                ("dt", "finite and > 0", 0 < self.dt < inf)):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, kv: dict) -> "PipelineConfig":
        """Build from flat key-value pairs (see load_key_value).

        The keys are the field names of PipelineConfig, except `kalman` (the
        caller decides whether to smooth: `rtikit track --no-kalman`), and
        of its three parameter sets, EllipseModelParams,
        MeasurementModelParams and ReconstructionParams. Each key takes one
        value, read as an integer for an `int` field and as a number
        otherwise; a key not given keeps its default. An unknown or
        repeated key, or a value its field cannot read, raises an error
        that names the key; a value out of range raises the field's own
        `<key> must be ..., got <value>`.
        """
        sets = {f.name: f.type for f in fields(cls) if is_dataclass(f.type)}
        # key -> (its parameter set, None for a PipelineConfig field; annotation)
        owners = {f.name: (None, f.type) for f in fields(cls)
                  if f.name not in sets and f.name != "kalman"}
        for group, params in sets.items():
            owners.update({f.name: (group, f.type) for f in fields(params)})
        settings = {group: {} for group in (None, *sets)}
        for key, values in kv.items():
            if key not in owners:
                raise ValueError(f"unknown config key {key!r}")
            if len(values) != 1:
                raise ValueError(f"config key {key!r} appears more than once")
            if len(values[0]) != 1:
                raise ValueError(f"config key {key!r} needs exactly one value")
            group, annotation = owners[key]
            cast = int if annotation in (int, int | None) else float
            try:
                settings[group][key] = cast(values[0][0])
            except ValueError:
                kind = "an integer" if cast is int else "a number"
                raise ValueError(f"config key {key!r}: {values[0][0]!r} "
                                 f"is not {kind}") from None
        return cls(**settings.pop(None), **{
            group: params(**settings[group]) for group, params in sets.items()})


def _classic_weights(table, layout, grid, fades, config) -> WeightMatrix:
    return build_classic_weights(table, layout, grid, config.classic_lambda)


def _scaled_weights(table, layout, grid, fades, config) -> WeightMatrix:
    """cdrti: the fixed-width weights times √C, one row per link."""
    classic = _classic_weights(table, layout, grid, fades, config)
    root_c = np.sqrt(fades.channels.size)
    return replace(classic, band_sums=classic.band_sums * root_c)


def _multiscale_weights(table, layout, grid, fades, config) -> WeightMatrix:
    return build_multiscale_weights(table, layout, grid, fades, config.ellipse)


def _rti_measure(fades, config):
    channel = fades.channels[0] if config.rti_channel is None else config.rti_channel
    col = np.flatnonzero(fades.channels == channel)
    if not col.size:
        raise ValueError(f"rti_channel {channel} is not a calibrated channel "
                         f"{fades.channels.tolist()}")
    return lambda delta_r: np.negative(delta_r, out=delta_r)[:, col[0]]


def _cdrti_measure(fades, config):
    root_c = np.sqrt(fades.channels.size)
    return lambda delta_r: np.negative(delta_r, out=delta_r).sum(axis=1) / root_c


def _flrti_measure(fades, config):
    selection = _flrti_selection(fades.values, config.flrti_m)
    return lambda delta_r: (np.negative(delta_r, out=delta_r) * selection).sum(axis=1)


def _msrti_measure(fades, config):
    return MeasurementAssembler(fades, config.measurement)


# variant -> (weights(table, layout, grid, fades, config) -> WeightMatrix,
#             measure(fades, config) -> (filled (L, C) Δr -> y)); a measure
#             may overwrite the Δr, which rss_change makes fresh per frame
_VARIANT_TABLE = {
    "rti": (_classic_weights, _rti_measure),
    "cdrti": (_scaled_weights, _cdrti_measure),
    "flrti": (_classic_weights, _flrti_measure),
    "msrti": (_multiscale_weights, _msrti_measure),
}
VARIANTS = tuple(_VARIANT_TABLE)


class VariantPipeline:
    """One variant's frame-to-image machinery, state included.

    Construction does the expensive work (weights + operator) unless an
    operator built for the same weights is given; measurement and image
    assembly per frame are array operations. An optional precision term
    σ_N² C_x⁻¹ for the grid and config.reconstruction, from
    `prior_precision_term`, is passed unchanged to build_operator, which
    expands it for the tall multi-scale W; the fixed-width variants build
    Π in push-through form from C_x itself, and read the term only when
    their W C_x Wᵀ + σ_N² I is too ill-conditioned for that form. The hold
    buffer makes a pipeline single-pass — build a fresh one per trace.
    """

    def __init__(self, variant: str, fades: FadeLevelTable, layout: NodeLayout,
                 grid: VoxelGrid, config: PipelineConfig,
                 precision_term: PrecisionTerm | None = None,
                 operator=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        build_weights, measure = _VARIANT_TABLE[variant]
        self.variant = variant
        self.fades = fades
        self.grid = grid
        self.config = config
        table = enumerate_links(layout)
        self._hold = HoldBuffer(table.n_links, fades.channels.size,
                                config.measurement.hold_frames)
        # the measure function validates the variant's inputs, so a bad
        # input is reported before the expensive weights and operator build
        self._measure = measure(fades, config)
        if operator is None:
            weights = build_weights(table, layout, grid, fades, config)
            operator = build_operator(weights, grid, config.reconstruction,
                                      precision_term)
        self.operator = operator

    def measurement(self, frame) -> np.ndarray:
        """Per-frame measurement vector in this variant's row order."""
        return self._measure(rss_change(frame, self.fades, self._hold))

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
    top = np.argsort(-fade_values, axis=1, kind="stable")[:, :m]  # NaN sorts last
    chosen = ~np.isnan(np.take_along_axis(fade_values, top, axis=1))
    selection = np.zeros(fade_values.shape)
    np.put_along_axis(selection, top,
                      chosen / np.maximum(chosen.sum(axis=1, keepdims=True), 1),
                      axis=1)
    return selection


@dataclass(frozen=True)
class PipelineResult:
    """run_pipeline output.

    Attributes:
        variant: which estimator produced this.
        rows: track rows (k, x_hat, y_hat) or (k, x_hat, y_hat, x_true,
            y_true, error_m) when truth was given.
        summary: error statistics dict, or None without truth.
    """

    variant: str
    rows: tuple
    summary: dict | None


def run_pipeline(variant: str, frames, layout: NodeLayout,
                 config: PipelineConfig, truth: dict | None = None,
                 fades: FadeLevelTable | None = None) -> PipelineResult:
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
    grid = VoxelGrid.from_layout(layout, config.voxel_width, config.grid_margin)
    pipeline = VariantPipeline(variant, fades, layout, grid, config)
    return _track(pipeline, frames, truth)


def _track(pipeline: VariantPipeline, frames, truth: dict | None) -> PipelineResult:
    """Localize each row of pipeline.images(frames), through the Kalman
    filter when pipeline.config.kalman is set; its step spans the k
    difference times config.dt.

    A frame `localize` reports as no detection (an identically zero image,
    which an outage longer than the hold window gives) keeps its NaN
    position and gets a NaN error; the summary leaves it out and the
    Kalman filter takes no update.
    """
    config = pipeline.config
    r = config.kalman_r_scale * config.voxel_width**2
    nan = float("nan")
    track = None
    rows = []
    errors = []
    for frame, image in zip(frames, pipeline.images(frames)):
        est = localize(image, pipeline.grid, k=frame.k)
        x, y = est.xy
        if config.kalman and est.detected:
            if track is None:
                track = init_track(est)
            else:
                track = kalman_step(track, est, dt=(est.k - track.k) * config.dt,
                                    q=config.kalman_q, r=r)
                x, y = track.position
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
    )


def benchmark(spec: ScenarioSpec, seeds, config: PipelineConfig | None = None,
              variants=("msrti", "cdrti")):
    """Score estimator variants over seeded synthetic runs of one scenario.

    For each seed, one trace of `spec` with that seed, drawn with config's
    ellipse and measurement models, is calibrated on its own person-free
    prefix; each variant then runs on the rest of that identical trace
    through the same `_track` as run_pipeline, Kalman smoothing included
    when config.kalman is set, and is scored against the trace's truth.
    Every pipeline, operator included, is built per seed; only the grid
    and, when msrti is among the variants, the precision term σ_N² C_x⁻¹
    that its tall builds read are shared across runs.

    Args:
        spec: the scenario; its trajectory must not be empty, and its seed
            is replaced by each of `seeds`.
        seeds: iterable of RNG seeds, one trace per seed.
        config: pipeline configuration (defaults if None); its
            calibration_frames is not read, the trace's prefix is.
        variants: estimator variants to compare.

    Returns:
        list of (variant, seed, summary) rows, seeds outer, variants
        inner; summary is None for a run with no detected frame.
    """
    if config is None:
        config = PipelineConfig()
    if not len(spec.trajectory):
        raise ValueError("benchmark needs a scenario with a trajectory")
    grid = VoxelGrid.from_layout(spec.layout, config.voxel_width,
                                 config.grid_margin)
    # Only the multi-scale W is tall, and only a tall build needs the term.
    # It is shared in its compact form (the four inverted mirror blocks),
    # and each build expands it into its own buffer.
    precision_term = (prior_precision_term(grid, config.reconstruction)
                      if "msrti" in variants else None)
    table = enumerate_links(spec.layout)

    rows = []
    for seed in seeds:
        trace = generate_trace(replace(spec, seed=int(seed)),
                               ellipse=config.ellipse,
                               measurement=config.measurement)
        fades = calibrate(trace.frames[:trace.calibration_frames], table)
        truth = {int(k): (x, y) for k, x, y in trace.truth}
        person_frames = trace.frames[trace.calibration_frames:]
        for variant in variants:
            pipeline = VariantPipeline(variant, fades, spec.layout, grid,
                                       config, precision_term=precision_term)
            result = _track(pipeline, person_frames, truth)
            rows.append((variant, int(seed), result.summary))
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
