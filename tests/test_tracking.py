"""Tracking: argmax localization, Kalman filter, error statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import linalg

from rtikit.geometry import VoxelGrid
from rtikit.tracking import (
    PositionEstimate,
    TrackState,
    error_summary,
    init_track,
    kalman_step,
    localization_error,
    localize,
)


GRID = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=6, ny=4)


def test_localize_one_hot_and_ties():
    img = np.zeros(GRID.n_voxels)
    img[7] = 1.0
    est = localize(img, GRID, k=3)
    assert est.voxel == 7
    assert est.xy == pytest.approx(GRID.center_of(7))
    assert est.peak == 1.0
    assert est.k == 3
    # constant image -> lowest index wins
    flat = localize(np.ones(GRID.n_voxels), GRID)
    assert flat.voxel == 0
    # two equal peaks -> lower index
    img[3] = 1.0
    assert localize(img, GRID).voxel == 3
    # a zero maximum over a nonzero image is still a position
    assert localize(-img, GRID).voxel == 0
    assert localize(-img, GRID).detected
    # an identically zero image is no detection
    none = localize(np.zeros(GRID.n_voxels), GRID, k=4)
    assert (none.k, none.voxel, none.peak) == (4, -1, 0.0)
    assert np.isnan(none.xy).all()
    assert not none.detected


def test_localize_scale_invariance():
    rng = np.random.default_rng(2)
    img = rng.normal(size=GRID.n_voxels)
    base = localize(img, GRID).voxel
    for c in (0.5, 2.0, 117.0):
        assert localize(c * img, GRID).voxel == base
    assert localize(img + 5.0, GRID).voxel == base
    with pytest.raises(ValueError):
        localize(img[:-1], GRID)


def test_kalman_stationary_convergence():
    # Repeated noiseless measurements of one point: position converges,
    # velocity and acceleration go to zero.
    target = (1.75, 0.75)
    z0 = PositionEstimate(k=0, xy=target, peak=1.0, voxel=0)
    track = init_track(z0)
    for k in range(1, 101):
        z = PositionEstimate(k=k, xy=target, peak=1.0, voxel=0)
        track = kalman_step(track, z, dt=0.5, q=1.0, r=1e-6)
    assert track.position == pytest.approx(target, abs=1e-6)
    assert np.abs(track.state[2:]) .max() < 1e-6
    assert track.k == 100


def test_kalman_constant_velocity_tracking():
    # Noiseless constant-velocity measurements: after burn-in the filter
    # position matches truth tightly.
    dt, v = 0.25, np.array([0.8, -0.3])
    start = np.array([0.0, 2.0])
    z0 = PositionEstimate(k=0, xy=tuple(start), peak=1.0, voxel=0)
    track = init_track(z0)
    errs = []
    for k in range(1, 200):
        truth = start + v * (k * dt)
        z = PositionEstimate(k=k, xy=tuple(truth), peak=1.0, voxel=0)
        track = kalman_step(track, z, dt=dt, q=1.0, r=1e-8)
        errs.append(np.linalg.norm(track.position - truth))
    assert np.sqrt(np.mean(np.square(errs[100:]))) < 1e-6
    # velocity estimate also locks on
    assert track.state[2:4] == pytest.approx(v, abs=1e-4)


def test_kalman_covariance_symmetric_psd():
    rng = np.random.default_rng(8)
    z0 = PositionEstimate(k=0, xy=(0.0, 0.0), peak=1.0, voxel=0)
    track = init_track(z0)
    for k in range(1, 60):
        z = PositionEstimate(k=k, xy=tuple(rng.normal(0, 1, 2)), peak=1.0, voxel=0)
        prior_trace = np.trace(track.covariance)
        track = kalman_step(track, z, dt=0.5, q=0.5, r=0.2)
        p = track.covariance
        assert np.allclose(p, p.T)
        assert np.linalg.eigvalsh(p).min() > -1e-12
    with pytest.raises(ValueError):
        kalman_step(track, z0, dt=0.0, q=0.5, r=0.2)


@pytest.mark.parametrize("detected", [True, False])
@pytest.mark.parametrize("name, bad, bound", [
    ("dt", np.nan, "finite and > 0"), ("dt", np.inf, "finite and > 0"),
    ("dt", -0.5, "finite and > 0"), ("q", np.nan, "finite and >= 0"),
    ("q", -1.0, "finite and >= 0"), ("r", -1.0, "finite and >= 0"),
    ("r", np.inf, "finite and >= 0"),
])
def test_kalman_step_bounds_dt_q_r(detected, name, bad, bound):
    """A NaN dt used to give a NaN state on a predict-only step, a NaN dt
    or q an "innovation covariance not SPD" error on an update, and a
    negative r a plausible-looking state."""
    track = init_track(PositionEstimate(k=0, xy=(1.0, 1.0), peak=1.0, voxel=0))
    z = (PositionEstimate(k=1, xy=(1.2, 1.0), peak=1.0, voxel=0) if detected
         else PositionEstimate(k=1, xy=(np.nan, np.nan), peak=0.0, voxel=-1))
    args = dict(dt=0.5, q=1.0, r=0.1) | {name: bad}
    with pytest.raises(ValueError, match=f"{name} must be {bound}, got"):
        kalman_step(track, z, **args)


def test_kalman_update_reduces_uncertainty():
    # An update with informative measurements shrinks the position block
    # relative to the predicted covariance.
    z0 = PositionEstimate(k=0, xy=(1.0, 1.0), peak=1.0, voxel=0)
    track = init_track(z0)
    stepped = kalman_step(track, PositionEstimate(k=1, xy=(1.0, 1.0), peak=1.0, voxel=0),
                          dt=0.5, q=1.0, r=0.1)
    assert stepped.covariance[0, 0] < track.covariance[0, 0]


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5),
       last=st.floats(0.01, 5.0), q=st.floats(0.01, 10.0),
       r=st.floats(1e-3, 1.0))
@example(gaps=[0.5], last=0.5, q=2.0, r=0.1)
def test_kalman_no_detection_is_predict_only(gaps, last, q, r):
    # Predict-only steps over arbitrary positive gaps, then an update,
    # equal one update spanning the summed gap.
    nan = float("nan")
    z0 = PositionEstimate(k=0, xy=(1.0, 2.0), peak=1.0, voxel=0)
    z1 = PositionEstimate(k=1, xy=(1.3, 1.9), peak=1.0, voxel=0)
    track = kalman_step(init_track(z0), z1, dt=0.5, q=q, r=r)
    chained = track
    for i, dt in enumerate(gaps):
        none = PositionEstimate(k=2 + i, xy=(nan, nan), peak=0.0, voxel=-1)
        pred = kalman_step(chained, none, dt=dt, q=q, r=r)
        assert pred.k == none.k
        pos, vel, acc = (chained.state[:2], chained.state[2:4],
                         chained.state[4:])
        want = np.concatenate((pos + vel * dt + 0.5 * acc * dt**2,
                               vel + acc * dt, acc))
        np.testing.assert_allclose(pred.state, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        p = pred.covariance
        assert np.array_equal(p, p.T)
        eigenvalues = np.linalg.eigvalsh(p)
        assert eigenvalues.min() >= -1e-12 * eigenvalues.max()
        assert np.trace(p) > np.trace(chained.covariance)
        chained = pred
    z = PositionEstimate(k=2 + len(gaps), xy=(1.8, 1.5), peak=1.0, voxel=0)
    chained = kalman_step(chained, z, dt=last, q=q, r=r)
    spanning = kalman_step(track, z, dt=sum(gaps) + last, q=q, r=r)
    assert chained.k == spanning.k == z.k
    assert _relative_error(chained.state, spanning.state) <= 1e-9
    assert _relative_error(chained.covariance, spanning.covariance) <= 1e-9
    p = chained.covariance
    assert np.array_equal(p, p.T)
    assert np.linalg.eigvalsh(p).min() >= -1e-12 * np.linalg.eigvalsh(p).max()


def reference_kalman_step(track, z, dt, q, r):
    """The filter as first written, for comparison: F and Q built with
    np.kron on every call, explicit H and R, and a Cholesky solve of the
    2 × 2 innovation covariance. Returns (state, covariance)."""
    f1 = np.array([[1.0, dt, 0.5 * dt**2], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    q1 = q * np.array([
        [dt**5 / 20, dt**4 / 8, dt**3 / 6],
        [dt**4 / 8, dt**3 / 3, dt**2 / 2],
        [dt**3 / 6, dt**2 / 2, dt],
    ])
    f, qm = np.kron(f1, np.eye(2)), np.kron(q1, np.eye(2))
    h = np.zeros((2, 6))
    h[0, 0] = h[1, 1] = 1.0
    r = np.eye(2) * r
    x = f @ track.state
    p = f @ track.covariance @ f.T + qm
    if not z.detected:
        return x, 0.5 * (p + p.T)
    s = h @ p @ h.T + r
    s = 0.5 * (s + s.T)
    gain = linalg.cho_solve(linalg.cho_factor(s), h @ p.T).T
    x = x + gain @ (np.asarray(z.xy) - h @ x)
    joseph = np.eye(6) - gain @ h
    p = joseph @ p @ joseph.T + gain @ r @ gain.T
    return x, 0.5 * (p + p.T)


_coordinate = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(state=st.lists(_coordinate, min_size=6, max_size=6),
       root=st.lists(st.floats(-2.0, 2.0), min_size=36, max_size=36),
       xy=st.tuples(_coordinate, _coordinate),
       detected=st.booleans(), dt=st.floats(0.01, 5.0),
       q=st.floats(0.01, 10.0), r=st.floats(1e-3, 1.0))
@example(state=[0.0] * 6, root=[0.0] * 36, xy=(1.0, 2.0), detected=True,
         dt=0.5, q=1.0, r=0.1)
def test_kalman_step_matches_reference(state, root, xy, detected, dt, q, r):
    root = np.reshape(root, (6, 6))
    track = TrackState(state=np.array(state),
                       covariance=root @ root.T + 1e-3 * np.eye(6), k=0)
    z = (PositionEstimate(k=1, xy=xy, peak=1.0, voxel=0) if detected else
         PositionEstimate(k=1, xy=(float("nan"),) * 2, peak=0.0, voxel=-1))
    got = kalman_step(track, z, dt=dt, q=q, r=r)
    want_state, want_covariance = reference_kalman_step(track, z, dt, q, r)
    assert got.k == 1
    for got_array, want in ((got.state, want_state),
                            (got.covariance, want_covariance)):
        assert (np.linalg.norm(got_array - want)
                <= 1e-12 * np.linalg.norm(want))
    assert np.array_equal(got.covariance, got.covariance.T)


@pytest.mark.parametrize("leading", [
    [[-1.0, 0.0], [0.0, 1.0]],  # s00 <= 0
    [[1.0, 3.0], [3.0, 1.0]],   # s00 > 0, det <= 0
    [[np.nan, 0.0], [0.0, 1.0]],
])
def test_kalman_innovation_covariance_not_spd(leading):
    covariance = np.eye(6)
    covariance[:2, :2] = leading
    track = TrackState(state=np.zeros(6), covariance=covariance, k=0)
    z = PositionEstimate(k=1, xy=(1.0, 1.0), peak=1.0, voxel=0)
    with pytest.raises(linalg.LinAlgError,
                       match="innovation covariance not SPD"):
        kalman_step(track, z, dt=1e-3, q=1e-3, r=1e-3)


def test_init_track_rejects_no_detection():
    nan = float("nan")
    with pytest.raises(ValueError, match="no detection"):
        init_track(PositionEstimate(k=5, xy=(nan, nan), peak=0.0, voxel=-1))


def test_track_state_validation():
    with pytest.raises(ValueError):
        TrackState(state=np.zeros(4), covariance=np.eye(6), k=0)
    with pytest.raises(ValueError):
        TrackState(state=np.zeros(6), covariance=np.eye(5), k=0)


def test_localization_error():
    assert localization_error((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert localization_error((1.0, 1.0), (1.0, 1.0)) == 0.0
    a, b = (0.3, -2.0), (1.1, 0.4)
    assert localization_error(a, b) == localization_error(b, a)


def test_error_summary():
    s = error_summary([1.0, 2.0, 3.0])
    assert s["mean"] == pytest.approx(2.0)
    assert s["median"] == pytest.approx(2.0)
    assert s["max"] == 3.0
    assert s["median"] <= s["p95"] <= s["max"]
    # CDF: sorted, ends at fraction 1.0
    errs, fracs = zip(*s["cdf"])
    assert list(errs) == sorted(errs)
    assert fracs[-1] == 1.0
    const = error_summary([0.7] * 10)
    assert const["mean"] == const["median"] == const["p95"] == const["max"] == 0.7
    with pytest.raises(ValueError):
        error_summary([])
