"""Synthetic multi-channel RSS trace generator with ground truth.

Produces an empty-room calibration segment followed by person-present
frames. The forward model is deliberately simple and *synthetic* — it
exists to exercise the pipeline end to end, not to simulate physics: each
link/channel owns a fixed fade offset around the log-distance mean; when
the person stands inside a link's direction-dependent ellipse the RSS
change has sign chosen by a fade-level-dependent coin (anti-fade links
attenuate with high probability) and exponential magnitude, plus Gaussian
sensor noise and optional 1 dB quantization. Everything is deterministic
given the seed.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .calibration import RssFrame, check_channels, path_loss
from .geometry import (LinkTable, NodeLayout, check_bounds, enumerate_links,
                       excess_path_field)
from .measurement_model import MeasurementModelParams, beta_plus
from .spatial_model import DIR_DOWN, DIR_UP, EllipseModelParams, lambda_for

__all__ = [
    "DEFAULT_CHANNELS",
    "ScenarioSpec",
    "SimulatedTrace",
    "generate_trace",
    "perimeter_layout",
    "stationary_trajectory",
]

DEFAULT_CHANNELS = (11, 16, 21, 26)


def perimeter_layout(n_nodes: int, width: float, height: float) -> NodeLayout:
    """Nodes evenly spaced along the perimeter of the rectangle
    [0, width] × [0, height].

    Node ids are 1..n_nodes, walking counter-clockwise from the origin
    corner.
    """
    check_bounds(SimpleNamespace(n_nodes=n_nodes, width=width, height=height),
                 n_nodes="an integer >= 3", width="finite and > 0",
                 height="finite and > 0")
    # Walk the rectangle scaled by a power of two, which scales each step
    # exactly, so no finite rectangle's perimeter overflows; a rounding step
    # past the far side is capped at the largest float when scaled back.
    scale = math.ldexp(1.0, math.frexp(max(width, height))[1] - 1)
    width, height = width / scale, height / scale
    s = 2 * (width + height) * np.arange(n_nodes) / n_nodes
    side = [s < width, s < width + height, s < 2 * width + height]
    xy = np.column_stack((
        np.select(side, [s, width, width - (s - width - height)], 0.0),
        np.select(side, [0.0, s - width, height], height - (s - 2 * width - height))))
    xy = np.minimum(xy, math.nextafter(math.inf, 0) / scale) * scale
    return NodeLayout(ids=np.arange(1, n_nodes + 1), xy=xy)


def stationary_trajectory(positions, start_k: int, n_frames: int) -> np.ndarray:
    """(P·n_frames, 3) trajectory rows (k, x, y), k from start_k on, that
    stand n_frames frames at each of `positions`, one (x, y) or (P, 2)."""
    check_bounds(SimpleNamespace(start_k=start_k, n_frames=n_frames),
                 start_k="an integer >= 0", n_frames="an integer >= 1")
    xy = np.asarray(positions, dtype=float)
    xy = xy[np.newaxis] if xy.shape == (2,) else xy
    if xy.ndim != 2 or xy.shape[1] != 2 or not len(xy):
        raise ValueError("positions must be one (x, y) or a (P, 2) array with P >= 1")
    ks = np.arange(start_k, start_k + len(xy) * n_frames)
    return np.column_stack((ks, np.repeat(xy, n_frames, axis=0)))


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Everything that defines one synthetic recording.

    Attributes:
        layout: sensor deployment.
        channels: measured channel numbers, ascending within 11..26.
        eta: true path-loss exponent.
        p0: true loss at 1 m, dB.
        calibration_frames: person-absent frames at the start (k = 0...).
        trajectory: (T, 3) finite rows (k, x, y), whole k ascending past
            the calibration segment; empty for a person-free trace.
        fade_offsets: explicit finite (L, C) per-link/channel dB offsets,
            or None to draw them Gaussian(0, fade_sigma) from the seed.
        fade_sigma: std of generated fade offsets, dB.
        noise_sigma: sensor noise std, dB.
        quantize: round final RSS to whole dB steps.
        seed: RNG seed; the whole trace is a pure function of the spec.
    """

    layout: NodeLayout
    channels: tuple = DEFAULT_CHANNELS
    eta: float = 2.0
    p0: float = 40.0
    calibration_frames: int = 100
    trajectory: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    fade_offsets: np.ndarray | None = None
    fade_sigma: float = 5.0
    noise_sigma: float = 0.5
    quantize: bool = True
    seed: int = 0

    def __post_init__(self):
        channels = np.asarray(self.channels)
        if channels.size == 0:
            raise ValueError("need at least one channel")
        check_channels(channels)
        check_bounds(self, calibration_frames="an integer >= 1", eta="finite",
                     p0="finite", noise_sigma="finite and >= 0",
                     fade_sigma="finite and >= 0", seed="an integer >= 0")
        traj = np.asarray(self.trajectory, dtype=float)
        if traj.size and (traj.ndim != 2 or traj.shape[1] != 3):
            raise ValueError("trajectory must be (T, 3) rows of (k, x, y)")
        if traj.size:
            if not np.all(np.isfinite(traj)):
                raise ValueError("trajectory (k, x, y) values must be finite")
            if np.any(traj[:, 0] % 1):
                raise ValueError("trajectory times k must be whole numbers")
            if np.any(np.diff(traj[:, 0]) <= 0):
                raise ValueError("trajectory times must be strictly increasing")
            if traj[0, 0] < self.calibration_frames:
                raise ValueError(
                    "trajectory must start after the calibration segment"
                )
        if (self.fade_offsets is not None
                and not np.isfinite(self.fade_offsets).all()):
            raise ValueError("fade_offsets must be finite")
        object.__setattr__(self, "channels", tuple(int(c) for c in channels))
        object.__setattr__(self, "trajectory", traj.reshape(-1, 3))


@dataclass(frozen=True, eq=False)
class SimulatedTrace:
    """generate_trace output bundle.

    Attributes:
        frames: calibration frames then person frames, ascending k.
        truth: (T, 3) ground-truth rows (k, x, y) for person frames.
        fade_offsets: (L, C) true offsets (= true fade levels).
        baseline: (L, C) true noise-free empty-room RSS in dBm.
        table: link table the rows refer to.
        calibration_frames: length of the person-absent prefix.
    """

    frames: tuple
    truth: np.ndarray
    fade_offsets: np.ndarray
    baseline: np.ndarray
    table: LinkTable
    calibration_frames: int


def _sign_probability_down(fade: np.ndarray) -> np.ndarray:
    """P(RSS decreases | obstructed): logistic in fade level, slope 0.5/dB.

    Anti-fade links (F > 0) attenuate when blocked; deep-fade links mostly
    gain power.
    """
    return 1.0 / (1.0 + np.exp(-0.5 * fade))


def generate_trace(spec: ScenarioSpec,
                   ellipse: EllipseModelParams | None = None,
                   measurement: MeasurementModelParams | None = None,
                   ) -> SimulatedTrace:
    """Generate a full synthetic recording for a scenario.

    Args:
        spec: scenario definition.
        ellipse: ellipse-width model the simulated person obeys (defaults
            to the standard parameters).
        measurement: rate parameters for simulated change magnitudes
            (defaults to the standard parameters).

    Returns:
        SimulatedTrace; bit-identical for identical specs.
    """
    if ellipse is None:
        ellipse = EllipseModelParams()
    if measurement is None:
        measurement = MeasurementModelParams()
    rng = np.random.default_rng(spec.seed)
    table = enumerate_links(spec.layout)
    channels = np.asarray(spec.channels, dtype=int)
    shape = (table.n_links, channels.size)

    if spec.fade_offsets is not None:
        offsets = np.asarray(spec.fade_offsets, dtype=float)
        if offsets.shape != shape:
            raise ValueError(f"fade_offsets shape {offsets.shape} != {shape}")
    else:
        offsets = rng.normal(0.0, spec.fade_sigma, size=shape)

    baseline = (path_loss(table.lengths[:, None], channels, spec.p0, spec.eta)
                + offsets)

    p_down = _sign_probability_down(offsets)
    lam_down = lambda_for(offsets, DIR_DOWN, ellipse)
    lam_up = lambda_for(offsets, DIR_UP, ellipse)
    beta_up = beta_plus(offsets, measurement)

    def emit(k: int, delta: np.ndarray) -> RssFrame:
        rss = baseline + delta
        if spec.noise_sigma > 0:
            rss = rss + rng.normal(0.0, spec.noise_sigma, size=shape)
        if spec.quantize:
            rss = np.round(rss)
        return RssFrame(k=int(k), rss=rss, channels=channels)

    frames = []
    for k in range(spec.calibration_frames):
        frames.append(emit(k, np.zeros(shape)))

    zero = np.zeros(shape)
    for k, x, y in spec.trajectory:
        lam_p = excess_path_field(table, spec.layout, [[x, y]])[:, 0]  # (L,)
        goes_down = rng.random(shape) < p_down
        lam_model = np.where(goes_down, lam_down, lam_up)
        fires = lam_p[:, None] < lam_model
        rate = np.where(goes_down, measurement.beta_minus, beta_up)
        magnitude = rng.exponential(1.0, size=shape) / rate
        signed = np.where(goes_down, -magnitude, magnitude)
        frames.append(emit(k, np.where(fires, signed, zero)))

    return SimulatedTrace(
        frames=tuple(frames),
        truth=spec.trajectory.copy(),
        fade_offsets=offsets,
        baseline=baseline,
        table=table,
        calibration_frames=spec.calibration_frames,
    )
