"""Simulator: determinism, forward-model behavior, calibration round-trip."""

import re

import numpy as np
import pytest

from rtikit.calibration import calibrate, path_loss
from rtikit.measurement_model import MeasurementModelParams
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import EllipseModelParams
import reference_pipeline


def test_perimeter_layout_geometry():
    layout = perimeter_layout(8, 6.0, 4.0)
    assert layout.n_nodes == 8
    # every node sits on the rectangle boundary
    for x, y in layout.xy:
        on_x = np.isclose(x, 0.0) or np.isclose(x, 6.0)
        on_y = np.isclose(y, 0.0) or np.isclose(y, 4.0)
        assert on_x or on_y
    assert np.allclose(layout.xy[0], (0.0, 0.0))
    with pytest.raises(ValueError):
        perimeter_layout(2, 6.0, 4.0)


def loop_perimeter_layout(n_nodes, width, height):
    """perimeter_layout's walk one node at a time, on the unscaled
    rectangle."""
    perim = 2 * (width + height)
    xy = np.empty((n_nodes, 2))
    for i in range(n_nodes):
        s = perim * i / n_nodes
        if s < width:
            xy[i] = (s, 0.0)
        elif s < width + height:
            xy[i] = (width, s - width)
        elif s < 2 * width + height:
            xy[i] = (width - (s - width - height), height)
        else:
            xy[i] = (0.0, height - (s - 2 * width - height))
    return xy


@pytest.mark.parametrize("n_nodes, width, height", [
    (3, 1.0, 1.0), (8, 6.0, 4.0), (30, 7.0, 7.0), (30, 8.4, 8.4),
    (10, 3.3, 8.4), (31, 12.5, 0.3), (57, 0.01, 49.9)])
def test_perimeter_layout_matches_the_walk_exactly(n_nodes, width, height):
    # (10, 3.3, 8.4) has a node that rounding puts past the far side
    np.testing.assert_array_equal(perimeter_layout(n_nodes, width, height).xy,
                                  loop_perimeter_layout(n_nodes, width, height))


def test_stationary_trajectory():
    traj = stationary_trajectory((2.0, 3.0), start_k=50, n_frames=4)
    assert traj.shape == (4, 3)
    assert list(traj[:, 0]) == [50, 51, 52, 53]
    assert np.all(traj[:, 1] == 2.0)
    with pytest.raises(ValueError):
        stationary_trajectory((0, 0), 0, 0)
    with pytest.raises(ValueError,
                       match=r"^n_frames must be an integer >= 1, got 2\.5$"):
        stationary_trajectory((0, 0), 0, 2.5)
    assert len(stationary_trajectory((0, 0), 0, np.int64(3))) == 3
    # a (P, 2) array stands at each position in turn
    lattice = stationary_trajectory([(1.0, 2.0), (3.0, 4.0)], 10, 2)
    np.testing.assert_array_equal(lattice, [[10, 1.0, 2.0], [11, 1.0, 2.0],
                                            [12, 3.0, 4.0], [13, 3.0, 4.0]])
    for bad in ([], np.zeros((0, 2)), (1.0, 2.0, 3.0), np.zeros((2, 3)),
                np.zeros((1, 1, 2))):
        with pytest.raises(ValueError, match="positions must be"):
            stationary_trajectory(bad, 0, 1)


def test_fractional_trajectory_times_are_rejected():
    """Waypoints at k = 10.2, 10.7 and 11.5 once gave frames at k = 10, 10
    and 11, while the truth kept the fractions; a fractional start_k gave
    fractional times."""
    layout = perimeter_layout(6, 5.0, 5.0)
    waypoints = np.array([[10.2, 1.0, 1.0], [10.7, 1.5, 1.0], [11.5, 2.0, 1.0]])
    with pytest.raises(ValueError, match="^trajectory times k must be whole numbers$"):
        ScenarioSpec(layout=layout, calibration_frames=5, trajectory=waypoints)
    with pytest.raises(ValueError,
                       match=r"^start_k must be an integer >= 0, got 10\.5$"):
        stationary_trajectory((1, 1), 10.5, 2)
    with pytest.raises(ValueError,
                       match=r"^start_k must be an integer >= 0, got True$"):
        stationary_trajectory((0, 0), True, True)
    with pytest.raises(ValueError,
                       match=r"^n_frames must be an integer >= 1, got True$"):
        stationary_trajectory((0, 0), 0, True)
    whole = ScenarioSpec(layout=layout, calibration_frames=5,
                         trajectory=np.floor(waypoints[::2]))
    trace = generate_trace(whole)
    assert [f.k for f in trace.frames[5:]] == [10, 11]
    np.testing.assert_array_equal(trace.truth[:, 0], [10, 11])


def test_spec_validation():
    layout = perimeter_layout(6, 5.0, 5.0)
    with pytest.raises(ValueError):
        ScenarioSpec(layout=layout, channels=())
    with pytest.raises(ValueError):
        ScenarioSpec(layout=layout, channels=(10, 11))
    with pytest.raises(ValueError, match=r"^channels must be whole numbers, "
                                         r"got \[11\.5, 16\.2\]$"):
        ScenarioSpec(layout=layout, channels=(11.5, 16.2))
    assert ScenarioSpec(layout=layout, channels=(11.0, 16.0)).channels == (11, 16)
    with pytest.raises(ValueError):
        ScenarioSpec(layout=layout, calibration_frames=0)
    with pytest.raises(ValueError):
        ScenarioSpec(layout=layout, trajectory=np.array([[5.0, 1.0, 1.0]]),
                     calibration_frames=10)  # starts inside calibration
    with pytest.raises(ValueError):
        ScenarioSpec(layout=layout, calibration_frames=2,
                     trajectory=np.array([[5.0, 1.0, 1.0], [5.0, 1.0, 2.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(layout=layout, calibration_frames=2,
                         trajectory=np.array([[5.0, 1.0, 1.0], [6.0, bad, 2.0]]))
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(layout=layout, calibration_frames=2,
                         trajectory=np.array([[5.0, 1.0, bad]]))
        offsets = np.zeros((15, 4))
        offsets[3, 2] = bad
        with pytest.raises(ValueError, match="fade_offsets must be finite"):
            ScenarioSpec(layout=layout, fade_offsets=offsets)
    for bad in (np.zeros((4, 2)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match=r"^trajectory must be \(T, 3\)"):
            ScenarioSpec(layout=layout, trajectory=bad)
    # 15 links and 4 channels: a larger table was written in part by
    # save_scenario, and a smaller one made it raise IndexError
    for shape in ((20, 5), (2, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"fade_offsets shape {shape} != (15, 4)")):
            ScenarioSpec(layout=layout, fade_offsets=np.zeros(shape))
    # kept as an array, which save_scenario indexes by (link, channel)
    listed = ScenarioSpec(layout=layout, fade_offsets=[[1, 2, 3, 4]] * 15)
    assert listed.fade_offsets.dtype == float
    np.testing.assert_array_equal(listed.fade_offsets, [[1, 2, 3, 4]] * 15)


def test_deterministic_given_seed():
    layout = perimeter_layout(6, 5.0, 5.0)
    spec = ScenarioSpec(layout=layout, calibration_frames=5,
                        trajectory=stationary_trajectory((2.5, 2.5), 5, 5),
                        seed=123)
    a = generate_trace(spec)
    b = generate_trace(spec)
    assert len(a.frames) == len(b.frames) == 10
    for fa, fb in zip(a.frames, b.frames):
        assert fa.k == fb.k
        np.testing.assert_array_equal(fa.rss, fb.rss)
    other = generate_trace(ScenarioSpec(layout=layout, calibration_frames=5,
                                        trajectory=spec.trajectory, seed=124))
    assert any(
        not np.array_equal(fa.rss, fo.rss) for fa, fo in zip(a.frames, other.frames)
    )


def test_noiseless_far_person_changes_nothing():
    # No noise, no quantization, person outside every ellipse: frames are
    # exactly the baseline.
    layout = perimeter_layout(6, 4.0, 4.0)
    spec = ScenarioSpec(
        layout=layout, channels=(11,), calibration_frames=2,
        trajectory=stationary_trajectory((100.0, 100.0), 2, 6),
        fade_offsets=np.zeros((15, 1)), noise_sigma=0.0, quantize=False,
        seed=7,
    )
    trace = generate_trace(spec)
    for f in trace.frames:
        np.testing.assert_allclose(f.rss, trace.baseline, atol=1e-12)


def test_calibration_round_trip_recovers_truth():
    # With zero fade offsets, calibrating on a person-free trace recovers
    # eta, p0 and per-pair fade levels within sample-mean tolerance.
    layout = perimeter_layout(10, 6.0, 6.0)
    n_frames, sigma = 400, 0.5
    n_links = 45
    spec = ScenarioSpec(layout=layout, channels=(11, 18, 26),
                        calibration_frames=n_frames, noise_sigma=sigma,
                        fade_offsets=np.zeros((n_links, 3)),
                        quantize=False, seed=11)
    trace = generate_trace(spec)
    fades = calibrate(trace.frames, trace.table)
    assert fades.fit.eta == pytest.approx(spec.eta, abs=0.05)
    assert fades.fit.p0 == pytest.approx(spec.p0, abs=0.3)
    # 3*sigma/sqrt(n) per-pair sample bound plus slack for the pooled
    # fit's own (much smaller) noise-induced error.
    tol = 3 * sigma / np.sqrt(n_frames) + 0.05
    assert np.max(np.abs(fades.values - trace.fade_offsets)) < tol


def test_calibration_round_trip_with_offsets_tracks_fit_residuals():
    # With nonzero fade offsets the fitted model shifts slightly, so fade
    # levels recover offset + (true path loss - fitted path loss), not the
    # raw offset. Check against that exact decomposition.
    rng = np.random.default_rng(31)
    layout = perimeter_layout(10, 6.0, 6.0)
    offsets = rng.normal(0, 5.0, size=(45, 3))
    spec = ScenarioSpec(layout=layout, channels=(11, 18, 26),
                        calibration_frames=400, noise_sigma=0.5,
                        fade_offsets=offsets, quantize=False, seed=11)
    trace = generate_trace(spec)
    fades = calibrate(trace.frames, trace.table)
    for ci, c in enumerate((11, 18, 26)):
        true_p = np.array([
            path_loss(d, c, spec.p0, spec.eta) for d in trace.table.lengths
        ])
        fit = fades.fit
        fitted_p = np.array([
            path_loss(d, c, fit.p0, fit.eta) for d in trace.table.lengths
        ])
        want = offsets[:, ci] + true_p - fitted_p
        np.testing.assert_allclose(fades.values[:, ci], want, atol=0.15)


def test_antifade_link_attenuates_on_average():
    # A strongly anti-fade link crossed by the person sees negative-mean
    # delta over many frames.
    layout = perimeter_layout(4, 4.0, 4.0)
    offsets = np.full((6, 1), 8.0)
    # person on the midpoint of the link between nodes 1 and 2
    spec = ScenarioSpec(
        layout=layout, channels=(11,), calibration_frames=50,
        trajectory=stationary_trajectory((2.0, 0.0), 50, 300),
        fade_offsets=offsets, noise_sigma=0.0, quantize=False, seed=3,
    )
    trace = generate_trace(spec)
    link = trace.table.link_index(1, 2)
    deltas = np.array([
        f.rss[link, 0] - trace.baseline[link, 0]
        for f in trace.frames[50:]
    ])
    assert np.mean(deltas) < -1.0
    # sign statistics follow the logistic coin: overwhelmingly negative at F=8
    assert np.mean(deltas < 0) > 0.9


def test_magnitudes_follow_configured_rates():
    # With the gain direction forced (deep fade, F very negative) the
    # exponential magnitude mean approximates 1/beta_plus(F).
    layout = perimeter_layout(4, 4.0, 4.0)
    offsets = np.full((6, 1), -12.0)
    mm = MeasurementModelParams()
    spec = ScenarioSpec(
        layout=layout, channels=(11,), calibration_frames=10,
        trajectory=stationary_trajectory((2.0, 0.0), 10, 2000),
        fade_offsets=offsets, noise_sigma=0.0, quantize=False, seed=19,
    )
    trace = generate_trace(spec, measurement=mm)
    link = trace.table.link_index(1, 2)
    deltas = np.array([
        f.rss[link, 0] - trace.baseline[link, 0] for f in trace.frames[10:]
    ])
    ups = deltas[deltas > 0]
    assert ups.size > 1500  # gain direction dominates at F = -12
    want_mean = 1.0 / (mm.b_beta_plus * np.exp(-12.0 / mm.k_beta_plus))
    assert np.mean(ups) == pytest.approx(want_mean, rel=0.1)


def test_person_inside_thin_ellipse_only():
    # Person close to one link line fires that link but not a distant one.
    layout = perimeter_layout(4, 6.0, 6.0)
    offsets = np.zeros((6, 1))
    spec = ScenarioSpec(
        layout=layout, channels=(11,), calibration_frames=20,
        trajectory=stationary_trajectory((3.0, 0.05), 20, 200),
        fade_offsets=offsets, noise_sigma=0.0, quantize=False, seed=5,
    )
    trace = generate_trace(spec)
    near = trace.table.link_index(1, 2)  # along y=0
    far = trace.table.link_index(3, 4)   # along y=6
    lam_p = reference_pipeline.excess(layout, [[3.0, 0.05]])[:, 0]
    params = EllipseModelParams()
    assert lam_p[near] < min(params.b_lambda_minus, params.b_lambda_plus)
    assert lam_p[far] > params.lambda_max
    post = trace.frames[20:]
    near_changes = sum(f.rss[near, 0] != trace.baseline[near, 0] for f in post)
    far_changes = sum(f.rss[far, 0] != trace.baseline[far, 0] for f in post)
    assert near_changes == len(post)  # inside both ellipses: always fires
    assert far_changes == 0


def test_quantization_step():
    layout = perimeter_layout(6, 5.0, 5.0)
    spec = ScenarioSpec(layout=layout, channels=(11,), calibration_frames=3,
                        noise_sigma=0.4, quantize=True, seed=2)
    trace = generate_trace(spec)
    for f in trace.frames:
        np.testing.assert_array_equal(f.rss, np.round(f.rss))


def test_truth_matches_trajectory():
    layout = perimeter_layout(6, 5.0, 5.0)
    traj = np.array([[10.0, 1.0, 1.0], [11.0, 1.2, 1.1], [13.0, 1.4, 1.3]])
    spec = ScenarioSpec(layout=layout, calibration_frames=10, trajectory=traj)
    trace = generate_trace(spec)
    np.testing.assert_array_equal(trace.truth, traj)
    ks = [f.k for f in trace.frames]
    assert ks == list(range(10)) + [10, 11, 13]
