"""Tracking: argmax localization, Kalman filter, error statistics."""

import numpy as np
import pytest

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
        kalman_step(track, z0, dt=0.0)


def test_kalman_update_reduces_uncertainty():
    # An update with informative measurements shrinks the position block
    # relative to the predicted covariance.
    z0 = PositionEstimate(k=0, xy=(1.0, 1.0), peak=1.0, voxel=0)
    track = init_track(z0, initial_var=10.0)
    stepped = kalman_step(track, PositionEstimate(k=1, xy=(1.0, 1.0), peak=1.0, voxel=0),
                          dt=0.5, q=1.0, r=0.1)
    assert stepped.covariance[0, 0] < track.covariance[0, 0]


def test_kalman_matrix_r():
    z0 = PositionEstimate(k=0, xy=(0.0, 0.0), peak=1.0, voxel=0)
    track = init_track(z0)
    r = np.array([[0.2, 0.05], [0.05, 0.3]])
    out = kalman_step(track, PositionEstimate(k=1, xy=(0.5, 0.2), peak=1.0, voxel=0),
                      dt=0.5, r=r)
    assert out.state.shape == (6,)


def test_kalman_no_detection_is_predict_only():
    nan = float("nan")
    z0 = PositionEstimate(k=0, xy=(1.0, 2.0), peak=1.0, voxel=0)
    z1 = PositionEstimate(k=1, xy=(1.3, 1.9), peak=1.0, voxel=0)
    track = kalman_step(init_track(z0), z1, dt=0.5, q=2.0, r=0.1)
    none = PositionEstimate(k=3, xy=(nan, nan), peak=0.0, voxel=-1)
    pred = kalman_step(track, none, dt=1.0, q=2.0, r=0.1)
    assert pred.k == 3
    pos, vel, acc = track.state[:2], track.state[2:4], track.state[4:]
    np.testing.assert_allclose(pred.state, np.concatenate(
        (pos + vel + 0.5 * acc, vel + acc, acc)), rtol=1e-14, atol=1e-14)
    assert np.array_equal(pred.covariance, pred.covariance.T)
    assert np.trace(pred.covariance) > np.trace(track.covariance)
    # two half-steps of prediction and an update equal one spanning update
    z4 = PositionEstimate(k=4, xy=(1.8, 1.5), peak=1.0, voxel=0)
    half = kalman_step(track, PositionEstimate(k=2, xy=(nan, nan), peak=0.0,
                                               voxel=-1), dt=0.5, q=2.0, r=0.1)
    chained = kalman_step(half, z4, dt=0.5, q=2.0, r=0.1)
    spanning = kalman_step(track, z4, dt=1.0, q=2.0, r=0.1)
    np.testing.assert_allclose(chained.state, spanning.state, rtol=1e-12)
    np.testing.assert_allclose(chained.covariance, spanning.covariance,
                               rtol=1e-12, atol=1e-15)


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
