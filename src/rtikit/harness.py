"""End-to-end pipelines, benchmark orchestration, and model cross-checks.

Four estimator variants share one reconstruction core and differ only in
the weight matrix and measurement vector fed to it, one (weights, measure)
entry per variant in _VARIANT_TABLE. Only msrti's weights read the fade
table, so only its operator is built per calibration; the fixed-width
operator of rti, cdrti and flrti depends only on the deployment and is
kept across calibrations. VariantPipeline.measurement is where a frame
meets its fade table, and run_pipeline, the one frame loop, where a
recording does; benchmark scores seeded traces of any ScenarioSpec through
run_pipeline, and VariantPipeline.image serves one frame at a time.

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

Every variant measures the (L, C) Δr that VariantPipeline.measurement
fills, 0 where a pair has no value. Baseline variants image the *loss*
s = −Δr so that the argmax localizer targets attenuation for every variant.
"""

import functools
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .calibration import FadeLevelTable, calibrate
from .geometry import NodeLayout, VoxelGrid, enumerate_links
from .measurement_model import (
    HoldBuffer,
    MeasurementAssembler,
    MeasurementModelParams,
    inside_probability,
)
from .reconstruction import (
    PrecisionTerm,
    ReconstructionOperator,
    ReconstructionParams,
    build_operator,
    check_precision_term,
    reconstruct,
)
from .simulator import ScenarioSpec, generate_trace
from .spatial_model import (
    DIR_DOWN,
    EllipseModelParams,
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


# How many fixed-width operators _fixed_width_operator keeps, least recently
# used dropped first: two deployments, each with the unit-scale operator of
# rti and flrti and cdrti's √C-scaled one.
_OPERATOR_MEMO_SIZE = 4


@functools.lru_cache(maxsize=_OPERATOR_MEMO_SIZE)
def _fixed_width_operator(ids: bytes, xy: bytes, grid: VoxelGrid,
                          classic_lambda: float, params: ReconstructionParams,
                          scale: float) -> ReconstructionOperator:
    """The operator of the fixed-width weights times `scale`, kept by the
    value of everything its Π reads: the layout's node ids and positions
    (as the bytes of their arrays), the grid, the ellipse width, the
    regularization parameters and the scale. Its stored array is
    read-only, as every caller is handed the same operator."""
    layout = NodeLayout(ids=np.frombuffer(ids, dtype=int),
                        xy=np.frombuffer(xy).reshape(-1, 2))
    classic = build_classic_weights(enumerate_links(layout), layout, grid,
                                    classic_lambda)
    weights = replace(classic, band_sums=classic.band_sums * scale)
    operator = build_operator(weights, grid, params)
    operator.stored.flags.writeable = False
    return operator


def _unit_scale(fades) -> float:
    return 1.0


def _root_c(fades) -> float:
    """cdrti's scale √C: C stacked copies of W have the Gram matrix of √C·W."""
    return np.sqrt(fades.channels.size)


def _rti_measure(fades, config):
    channel = fades.channels[0] if config.rti_channel is None else config.rti_channel
    col = np.flatnonzero(fades.channels == channel)
    if not col.size:
        raise ValueError(f"rti_channel {channel} is not a calibrated channel "
                         f"{fades.channels.tolist()}")
    return lambda delta_r: np.negative(delta_r, out=delta_r)[:, col[0]]


def _cdrti_measure(fades, config):
    root_c = _root_c(fades)
    return lambda delta_r: np.negative(delta_r, out=delta_r).sum(axis=1) / root_c


def _flrti_measure(fades, config):
    selection = _flrti_selection(fades.values, config.flrti_m)
    return lambda delta_r: (np.negative(delta_r, out=delta_r) * selection).sum(axis=1)


def _msrti_measure(fades, config):
    return MeasurementAssembler(fades, config.measurement)


# variant -> (scale(fades) of the fixed-width weights, whose operator is
#             kept across calibrations, or None for the multi-scale weights,
#             which read the fade table and are built on every call;
#             measure(fades, config) -> (filled (L, C) Δr -> y)); a measure
#             may overwrite the Δr, which `measurement` makes fresh per frame
_VARIANT_TABLE = {
    "rti": (_unit_scale, _rti_measure),
    "cdrti": (_root_c, _cdrti_measure),
    "flrti": (_unit_scale, _flrti_measure),
    "msrti": (None, _msrti_measure),
}
VARIANTS = tuple(_VARIANT_TABLE)


class VariantPipeline:
    """One variant's frame-to-image machinery, state included.

    Construction does the expensive work unless an operator built for the
    same weights is given: msrti builds its multi-scale weights and their
    operator from the fade table on every call, and rti, flrti and cdrti
    take their fixed-width operator from `_fixed_width_operator`, which
    builds it once per deployment (rti and flrti share one). Measurement
    and image assembly per frame are array operations. An optional
    precision term σ_N² C_x⁻¹ for the grid and config.reconstruction, from
    `prior_precision_term`, is checked (`check_precision_term`) for every
    variant and used by msrti's build; without one, msrti's build uses the
    term `prior_precision_term` keeps. The hold buffer makes a pipeline
    single-pass — build a fresh one per trace.

    Raises:
        ValueError: an unknown variant, a fade table for another number
            of links than the layout has, or an operator for another
            grid; the variant's own input checks.
    """

    def __init__(self, variant: str, fades: FadeLevelTable, layout: NodeLayout,
                 grid: VoxelGrid, config: PipelineConfig,
                 precision_term: PrecisionTerm | None = None,
                 operator=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        scale, measure = _VARIANT_TABLE[variant]
        self.variant = variant
        self.fades = fades
        self.grid = grid
        self.config = config
        table = enumerate_links(layout)
        if fades.n_links != table.n_links:
            raise ValueError(f"fade table covers {fades.n_links} links, "
                             f"table has {table.n_links}")
        if precision_term is not None:
            check_precision_term(precision_term, grid, config.reconstruction)
        if operator is not None and operator.grid != grid:
            raise ValueError(f"operator was built for grid {operator.grid}, "
                             f"not the pipeline's grid {grid}")
        self._hold = HoldBuffer(table.n_links, fades.channels.size,
                                config.measurement.hold_frames)
        # the measure function validates the variant's inputs, so a bad
        # input is reported before the expensive weights and operator build
        self._measure = measure(fades, config)
        if operator is None:
            if scale is None:
                weights = build_multiscale_weights(table, layout, grid, fades,
                                                   config.ellipse)
                operator = build_operator(weights, grid, config.reconstruction,
                                          precision_term)
            else:
                operator = _fixed_width_operator(
                    layout.ids.tobytes(), layout.xy.tobytes(), grid,
                    config.classic_lambda, config.reconstruction, scale(fades))
        self.operator = operator

    def measurement(self, frame) -> np.ndarray:
        """Per-frame measurement vector in this variant's row order, of the
        frame's Δr from the fade table's mean with its gaps (an uncalibrated
        pair's on every frame) filled by the hold buffer."""
        fades = self.fades
        if not np.array_equal(frame.channels, fades.channels):
            raise ValueError("frame channel set does not match fade table")
        if frame.rss.shape != fades.mean_rss.shape:
            raise ValueError(f"frame rss shape {frame.rss.shape} != fade table "
                             f"{fades.mean_rss.shape}")
        return self._measure(self._hold.update(frame.rss - fades.mean_rss))

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

    Each image of one VariantPipeline.images call is localized, through
    the Kalman filter when config.kalman is set, its step spanning the k
    difference times config.dt. A frame with no detection (a zero image,
    as an outage past the hold window gives) keeps its NaN position and
    error; the summary leaves it out and the Kalman filter skips it.

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
    r = config.kalman_r_scale * config.voxel_width**2
    nan = float("nan")
    track = None
    rows = []
    errors = []
    for frame, image in zip(frames, pipeline.images(frames)):
        est = localize(image, grid, k=frame.k)
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
        variant=variant,
        rows=tuple(rows),
        summary=error_summary(errors) if errors else None,
    )


def benchmark(spec: ScenarioSpec, seeds, config: PipelineConfig | None = None,
              variants=("msrti", "cdrti")):
    """Score estimator variants over seeded synthetic runs of one scenario.

    For each seed, one trace of `spec` with that seed, drawn with config's
    ellipse and measurement models, is calibrated on its own person-free
    prefix; each variant then runs on the rest of that identical trace
    through run_pipeline, given that calibration as its fades, Kalman
    smoothing included when config.kalman is set, and is scored against
    the trace's truth. Per seed, the calibration, every variant's measure
    and msrti's multi-scale weights and operator are built anew. What does
    not depend on the calibration is built once for the scenario's
    deployment: the prior precision term σ_N² C_x⁻¹ of msrti's builds
    (kept by `prior_precision_term`) and the fixed-width operators of rti,
    flrti and cdrti (kept by `_fixed_width_operator`).

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
            result = run_pipeline(variant, person_frames, spec.layout, config,
                                  truth, fades)
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
