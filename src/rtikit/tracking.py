"""Argmax localization, Kalman position tracking, and error metrics.

Localization picks the voxel with the maximum image value (lowest index on
ties) and reports its center; an identically zero image is no detection.
The optional Kalman filter smooths the per-frame estimates with a
constant-acceleration kinematic model per axis driven by white-noise jerk;
a no-detection estimate gives it a predict-only step. Error metrics are
plain Euclidean distances with standard order statistics.
"""

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import linalg

from .geometry import VoxelGrid, check_bounds

__all__ = [
    "PositionEstimate",
    "TrackState",
    "localize",
    "init_track",
    "kalman_step",
    "localization_error",
    "error_summary",
]


@dataclass(frozen=True)
class PositionEstimate:
    """Argmax localization result for one frame.

    Attributes:
        k: time index.
        xy: estimated position = winning voxel's center, meters; (nan, nan)
            for no detection.
        peak: image value at the winning voxel; 0.0 for no detection.
        voxel: winning voxel index; -1 for no detection.
    """

    k: int
    xy: tuple[float, float]
    peak: float
    voxel: int

    @property
    def detected(self) -> bool:
        """False for the no-detection estimate of an identically zero image."""
        return self.voxel >= 0


@dataclass(frozen=True, eq=False)
class TrackState:
    """Kalman state: (x, y, vx, vy, ax, ay) with 6x6 covariance."""

    state: np.ndarray
    covariance: np.ndarray
    k: int

    def __post_init__(self):
        if self.state.shape != (6,):
            raise ValueError("state must have shape (6,)")
        if self.covariance.shape != (6, 6):
            raise ValueError("covariance must be 6x6")

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]


def localize(image: np.ndarray, grid: VoxelGrid, k: int = 0) -> PositionEstimate:
    """Position of the maximum-value voxel; ties go to the lowest index.

    An identically zero image, which is what a frame with no measured
    change gives, is no detection: the estimate has xy = (nan, nan),
    peak 0.0 and voxel -1 (`detected` is False). It is not a position:
    `kalman_step` only predicts through it and `init_track` rejects it.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.n_voxels,):
        raise ValueError(
            f"image length {image.shape} != grid voxel count ({grid.n_voxels},)"
        )
    j = int(np.argmax(image))  # first occurrence wins on ties
    peak = float(image[j])
    if peak == 0.0 and not image.any():
        nan = float("nan")
        return PositionEstimate(k=k, xy=(nan, nan), peak=0.0, voxel=-1)
    return PositionEstimate(k=k, xy=grid.center_of(j), peak=peak, voxel=j)


def init_track(z: PositionEstimate) -> TrackState:
    """Seed a track from the first estimate: zero velocity/acceleration,
    wide diagonal covariance 10·I.

    Raises:
        ValueError: z is no detection, which has no position to start from.
    """
    if not z.detected:
        raise ValueError(f"cannot start a track from no detection at k={z.k}")
    state = np.array([z.xy[0], z.xy[1], 0.0, 0.0, 0.0, 0.0])
    return TrackState(state=state, covariance=np.eye(6) * 10.0, k=z.k)


@functools.lru_cache(maxsize=64)
def _ca_matrices(dt: float, q: float):
    """Constant-acceleration transition and white-noise-jerk process noise
    for one axis; the 6-state versions interleave x and y. Cached per
    (dt, q) and returned read-only, since every caller shares them."""
    f1 = np.array([
        [1.0, dt, 0.5 * dt**2],
        [0.0, 1.0, dt],
        [0.0, 0.0, 1.0],
    ])
    q1 = q * np.array([
        [dt**5 / 20, dt**4 / 8, dt**3 / 6],
        [dt**4 / 8, dt**3 / 3, dt**2 / 2],
        [dt**3 / 6, dt**2 / 2, dt],
    ])
    # interleaved state ordering (x, y, vx, vy, ax, ay)
    f, qm = np.kron(f1, np.eye(2)), np.kron(q1, np.eye(2))
    f.flags.writeable = qm.flags.writeable = False
    return f, qm


def kalman_step(track: TrackState, z: PositionEstimate, dt: float,
                q: float, r: float) -> TrackState:
    """One predict-update cycle against a position measurement, or a
    predict-only step when z is no detection.

    The constant-acceleration transition and noise compose over time, so
    predict-only steps followed by an update give, up to rounding, the
    state of one update step spanning their total dt.

    Args:
        track: previous state.
        z: position measurement (voxel center); with `z.detected` False the
            state and covariance are only advanced by dt, to time z.k.
        dt: time step in seconds, finite and > 0.
        q: white-noise-jerk intensity, m²/s⁵, finite and >= 0; the
            pipeline passes `PipelineConfig.kalman_q`.
        r: measurement variance per axis, m² (covariance r·I), finite and
            >= 0; the pipeline passes `kalman_r_scale`·p² for voxel width p.

    Returns:
        Updated TrackState; covariance stays symmetric PSD (Joseph-form
        update plus explicit symmetrization).

    Raises:
        ValueError: dt, q or r is outside its bound.
        LinAlgError: innovation covariance not SPD.
    """
    check_bounds(SimpleNamespace(dt=dt, q=q, r=r), dt="finite and > 0",
                 q="finite and >= 0", r="finite and >= 0")
    f, qm = _ca_matrices(float(dt), float(q))
    r = float(r)

    x = f @ track.state
    p = f @ track.covariance @ f.T + qm
    if not z.detected:
        return TrackState(state=x, covariance=0.5 * (p + p.T), k=z.k)

    # H picks the position (x, y), the first two states: the innovation
    # covariance S = H P Hᵀ + r·I is P's leading 2 × 2 block, symmetrized,
    # plus r·I, and the gain P Hᵀ S⁻¹ uses its closed-form inverse.
    s00, s11 = p[0, 0] + r, p[1, 1] + r
    s01 = 0.5 * (p[0, 1] + p[1, 0])
    det = s00 * s11 - s01 * s01
    if not (s00 > 0 and det > 0):  # False for NaN
        raise linalg.LinAlgError(
            f"innovation covariance not SPD: s00={s00}, det={det}")
    gain = p[:, :2] @ (np.array([[s11, -s01], [-s01, s00]]) / det)

    x = x + gain @ (np.asarray(z.xy) - x[:2])
    joseph = np.eye(6)
    joseph[:, :2] -= gain
    p = joseph @ p @ joseph.T + r * (gain @ gain.T)
    p = 0.5 * (p + p.T)
    return TrackState(state=x, covariance=p, k=z.k)


def localization_error(estimate, truth) -> float:
    """Euclidean distance between estimated and true positions, meters."""
    return float(np.linalg.norm(np.subtract(estimate, truth)))


def error_summary(errors) -> dict:
    """Mean/median/p95/max plus the empirical CDF of an error sequence.

    Returns:
        dict with keys mean, median, p95, max (floats) and cdf — a list of
        (error, fraction) pairs, sorted by error, final fraction 1.0.

    Raises:
        ValueError: empty input.
    """
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        raise ValueError("error_summary needs at least one error value")
    sorted_e = np.sort(errors)
    fractions = np.arange(1, errors.size + 1) / errors.size
    return {
        "mean": float(errors.mean()),
        "median": float(np.median(errors)),
        "p95": float(np.percentile(errors, 95)),
        "max": float(errors.max()),
        "cdf": list(zip(sorted_e.tolist(), fractions.tolist())),
    }
