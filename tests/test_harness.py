import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import blas

from rtikit import harness
from rtikit.calibration import FadeLevelTable, PathLossFit, RssFrame, calibrate
from rtikit.geometry import VoxelGrid, enumerate_links
from rtikit.harness import (
    VARIANTS,
    PipelineConfig,
    VariantPipeline,
    _flrti_selection,
    benchmark,
    crosscheck_models,
    run_pipeline,
)
from rtikit.measurement_model import HoldBuffer, rss_change
from rtikit.reconstruction import build_operator, reconstruct
from rtikit.tracking import PositionEstimate, init_track, kalman_step, localize
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import (
    EllipseModelParams,
    WeightMatrix,
)
from weight_reference import (
    assert_same_csr,
    classic_reference,
    multiscale_reference,
)


def _small_trace(seed=3, calibration_frames=40, n_nodes=10, side=4.0):
    layout = perimeter_layout(n_nodes, side, side)
    traj = np.vstack([
        stationary_trajectory((side / 2, side / 2), calibration_frames, 6),
        stationary_trajectory((1.0, side - 1.0), calibration_frames + 6, 6),
    ])
    spec = ScenarioSpec(layout=layout, trajectory=traj, seed=seed,
                        calibration_frames=calibration_frames)
    return layout, generate_trace(spec)


def _uniform_fades(table, channels, fade=0.0):
    n_links = table.n_links
    channels = np.asarray(channels, dtype=int)
    fit = PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=n_links, rmse=0.0)
    values = np.full((n_links, channels.size), float(fade))
    mean = np.zeros((n_links, channels.size))
    return FadeLevelTable(values=values, mean_rss=mean, channels=channels,
                          fit=fit)


def test_run_pipeline_deterministic():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    truth = {int(k): (x, y) for k, x, y in trace.truth}
    a = run_pipeline("msrti", trace.frames, layout, config, truth=truth)
    b = run_pipeline("msrti", trace.frames, layout, config, truth=truth)
    assert a.rows == b.rows
    assert a.summary == b.summary


def test_run_pipeline_row_shapes():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    truth = {int(k): (x, y) for k, x, y in trace.truth}
    with_truth = run_pipeline("rti", trace.frames, layout, config, truth=truth)
    without = run_pipeline("rti", trace.frames, layout, config)
    assert all(len(r) == 6 for r in with_truth.rows)
    assert with_truth.summary is not None
    assert all(len(r) == 3 for r in without.rows)
    assert without.summary is None
    assert len(with_truth.rows) == trace.truth.shape[0]


def test_run_pipeline_needs_frames_beyond_prefix():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=len(trace.frames))
    with pytest.raises(ValueError, match="calibration prefix"):
        run_pipeline("rti", trace.frames, layout, config)


def test_unknown_variant_rejected():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    with pytest.raises(ValueError, match="variant"):
        run_pipeline("blended", trace.frames, layout, config)


def test_measurement_length_matches_operator_rows():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    table = enumerate_links(layout)
    from rtikit.calibration import calibrate

    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    frame = trace.frames[-1]
    for variant in VARIANTS:
        pipe = VariantPipeline(variant, fades, layout, grid, config)
        y = pipe.measurement(frame)
        assert y.shape == (pipe.operator.weights.matrix.shape[0],)
        img = pipe.image(frame)
        assert img.shape == (grid.n_voxels,)


def test_cdrti_matches_stacked_reference():
    # cdrti treats each (link, channel) pair as its own link; the reference
    # stacks C copies of the fixed-width weights, channel-major, and feeds
    # them the per-channel losses in the same order
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    values, mean_rss = fades.values.copy(), fades.mean_rss.copy()
    values[5, 1] = mean_rss[5, 1] = np.nan  # one uncalibrated pair
    fades = FadeLevelTable(values=values, mean_rss=mean_rss,
                           channels=fades.channels, fit=fades.fit)
    grid = VoxelGrid.from_layout(layout, 0.2)
    rng = np.random.default_rng(5)
    frames = []
    for f in trace.frames[trace.calibration_frames:]:
        rss = np.where(rng.random(f.rss.shape) < 0.2, np.nan, f.rss)
        frames.append(RssFrame(k=f.k, rss=rss, channels=f.channels))

    classic = classic_reference(table, layout, grid, config.classic_lambda)
    n_channels = fades.channels.size
    stacked = sparse.vstack([classic] * n_channels, format="csr")
    reference_op = build_operator(
        WeightMatrix(bands=stacked.T.tocsr(),
                     band_sums=sparse.identity(stacked.shape[0], format="csr"),
                     row_keys=tuple(range(stacked.shape[0]))),
        grid, config.reconstruction)
    hold = HoldBuffer(table.n_links, n_channels,
                      config.measurement.hold_frames)
    y = np.column_stack([
        -np.nan_to_num(rss_change(f, fades, hold), nan=0.0).T.reshape(-1)
        for f in frames])
    reference = reconstruct(reference_op, y).T

    pipe = VariantPipeline("cdrti", fades, layout, grid, config)
    assert pipe.operator.pi.shape == (grid.n_voxels, table.n_links)
    images = pipe.images(frames)
    scale = np.abs(reference).max()
    assert scale > 0
    np.testing.assert_allclose(images, reference, rtol=0, atol=1e-9 * scale)
    # the weights are √C·W, and their band factors back-project like it
    weights = pipe.operator.weights
    scaled = classic * np.sqrt(n_channels)
    assert_same_csr(weights.matrix, scaled)
    z = rng.standard_normal((table.n_links, 3))
    back = scaled.T @ z
    np.testing.assert_allclose(weights.back_project(z), back, rtol=0,
                               atol=1e-12 * np.abs(back).max())


def test_rti_channel_selection():
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    from rtikit.calibration import calibrate
    from rtikit.measurement_model import rss_change

    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, 0.2)
    chan = int(fades.channels[2])
    config = PipelineConfig(calibration_frames=trace.calibration_frames,
                            rti_channel=chan)
    pipe = VariantPipeline("rti", fades, layout, grid, config)
    assert pipe.channel == chan
    frame = trace.frames[-1]
    delta = rss_change(frame, fades)
    np.testing.assert_allclose(pipe.measurement(frame),
                               -np.nan_to_num(delta[:, 2]))
    default = VariantPipeline(
        "rti", fades, layout, grid,
        PipelineConfig(calibration_frames=trace.calibration_frames))
    assert default.channel == int(fades.channels[0])


def test_rti_channel_outside_calibrated_set_is_rejected(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("operator built before the channel was checked")

    # the channel is rejected before any operator is built
    monkeypatch.setattr(harness, "build_operator", no_build)
    layout, _ = _small_trace()
    fades = _uniform_fades(enumerate_links(layout), (11, 16))
    grid = VoxelGrid.from_layout(layout, 0.4)
    with pytest.raises(ValueError, match=r"rti_channel 12 .*\[11, 16\]"):
        VariantPipeline("rti", fades, layout, grid,
                        PipelineConfig(rti_channel=12))


def test_flrti_selection_all_channels_when_m_large():
    values = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    sel = _flrti_selection(values, m=7)
    np.testing.assert_allclose(sel, np.full((2, 3), 1.0 / 3.0))


def test_flrti_selection_ranks_by_descending_fade():
    values = np.array([[1.0, 3.0, -4.0, 2.0]])
    sel = _flrti_selection(values, m=2)
    np.testing.assert_allclose(sel[0], [0.0, 0.5, 0.0, 0.5])


def test_flrti_selection_skips_uncalibrated():
    values = np.array([[np.nan, 2.0, 1.0], [np.nan, np.nan, np.nan]])
    sel = _flrti_selection(values, m=3)
    np.testing.assert_allclose(sel[0], [0.0, 0.5, 0.5])
    np.testing.assert_allclose(sel[1], 0.0)


def test_flrti_m1_matches_rti_when_one_channel_dominates():
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    channels = (11, 16, 21, 26)
    # fade ranking puts channel 21 first for every link
    values = np.zeros((table.n_links, 4))
    values[:, 2] = 5.0
    fades = _uniform_fades(table, channels)
    fades = FadeLevelTable(values=values, mean_rss=fades.mean_rss,
                           channels=fades.channels, fit=fades.fit)
    grid = VoxelGrid.from_layout(layout, 0.2)
    frame = trace.frames[-1]
    fl = VariantPipeline(
        "flrti", fades, layout, grid,
        PipelineConfig(flrti_m=1))
    single = VariantPipeline(
        "rti", fades, layout, grid,
        PipelineConfig(rti_channel=21))
    np.testing.assert_allclose(fl.measurement(frame),
                               single.measurement(frame))


def test_images_match_per_frame_images_with_missing_samples():
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, 0.2)
    config = PipelineConfig(calibration_frames=trace.calibration_frames)
    rng = np.random.default_rng(8)
    frames = []
    for i, f in enumerate(trace.frames[trace.calibration_frames:]):
        rss = np.where(rng.random(f.rss.shape) < 0.2, np.nan, f.rss)
        rss[:3] = np.nan  # an outage longer than the hold window
        if i < 2:
            rss[:3] = f.rss[:3]
        frames.append(RssFrame(k=f.k, rss=rss, channels=f.channels))
    for variant in VARIANTS:
        batch = VariantPipeline(variant, fades, layout, grid, config)
        single = VariantPipeline(variant, fades, layout, grid, config,
                                 operator=batch.operator)
        images = batch.images(frames)
        assert images.shape == (len(frames), grid.n_voxels)
        np.testing.assert_allclose(
            images, np.array([single.image(f) for f in frames]),
            rtol=0, atol=1e-12, err_msg=variant)
    assert batch.images([]).shape == (0, grid.n_voxels)


def test_kalman_step_spans_dropped_frames():
    layout = perimeter_layout(12, 4.0, 4.0)
    t = np.arange(60)
    traj = np.column_stack((100 + t, 2.0 + 1.2 * np.sin(t / 9),
                            2.0 + 1.2 * np.cos(t / 7)))
    trace = generate_trace(ScenarioSpec(layout=layout, trajectory=traj,
                                        seed=3, calibration_frames=100))
    frames = [f for f in trace.frames if not 120 <= f.k <= 139]
    config = PipelineConfig(calibration_frames=100, kalman=True, dt=0.5)
    raw = run_pipeline("msrti", frames, layout,
                       PipelineConfig(calibration_frames=100)).rows
    smooth = run_pipeline("msrti", frames, layout, config).rows
    assert [r[0] for r in smooth] == [r[0] for r in raw]

    r = config.kalman_r_scale * config.voxel_width**2
    estimates = [PositionEstimate(k=k, xy=(x, y), peak=0.0, voxel=0)
                 for k, x, y in raw]
    track = init_track(estimates[0])
    expected = {estimates[0].k: estimates[0].xy}
    for est in estimates[1:]:
        dt = 21 * config.dt if est.k == 140 else config.dt
        track = kalman_step(track, est, dt=dt, q=config.kalman_q, r=r)
        expected[est.k] = tuple(track.position)
    row = next(row for row in smooth if row[0] == 140)
    assert row[1:] == expected[140]
    assert {row[0]: row[1:] for row in smooth} == expected


def _outage_walk():
    """A 12-node walk, k = 100-139, with every sample of k = 108-115 lost.
    The hold window (5 frames) covers k = 108-112; after it y = 0 and the
    image is identically zero."""
    layout = perimeter_layout(12, 4.0, 4.0)
    t = np.arange(40)
    traj = np.column_stack((100 + t, 2.0 + 1.2 * np.sin(t / 9),
                            2.0 + 1.2 * np.cos(t / 7)))
    trace = generate_trace(ScenarioSpec(layout=layout, trajectory=traj,
                                        seed=3, calibration_frames=100))
    frames = [RssFrame(k=f.k, rss=np.full_like(f.rss, np.nan),
                       channels=f.channels) if 108 <= f.k <= 115 else f
              for f in trace.frames]
    truth = {int(k): (x, y) for k, x, y in trace.truth}
    return layout, frames, truth


def test_outage_beyond_hold_window_is_no_detection():
    # A zero image is no detection, not a confident position at voxel 0.
    layout, frames, truth = _outage_walk()
    config = PipelineConfig(calibration_frames=100, kalman=True, dt=0.5)
    raw = run_pipeline("msrti", frames, layout,
                       PipelineConfig(calibration_frames=100), truth=truth)
    smooth = run_pipeline("msrti", frames, layout, config, truth=truth)
    for result in (raw, smooth):
        assert [r[0] for r in result.rows] == list(range(100, 140))
        for k, x, y, tx, ty, err in result.rows:
            lost = 113 <= k <= 115
            assert np.isnan([x, y, err]).all() == lost
            assert (tx, ty) == truth[k]
        errors = [r[5] for r in result.rows if not 113 <= r[0] <= 115]
        assert result.summary["mean"] == pytest.approx(np.mean(errors))
        assert len(result.summary["cdf"]) == 37

    # the Kalman filter skips k = 113-115 and steps from 112 to 116
    r = config.kalman_r_scale * config.voxel_width**2
    detected = [PositionEstimate(k=k, xy=(x, y), peak=0.0, voxel=0)
                for k, x, y, *_ in raw.rows if not np.isnan(x)]
    track = init_track(detected[0])
    expected = {detected[0].k: detected[0].xy}
    for est in detected[1:]:
        dt = 4 * config.dt if est.k == 116 else config.dt
        track = kalman_step(track, est, dt=dt, q=config.kalman_q, r=r)
        expected[est.k] = tuple(track.position)
    row = next(row for row in smooth.rows if row[0] == 116)
    assert row[1:3] == expected[116]
    assert {r[0]: r[1:3] for r in smooth.rows if r[0] in expected} == expected


def test_streaming_outage_beyond_hold_window_is_no_detection():
    # The same walk handed over one frame at a time, image then localize.
    layout, frames, _ = _outage_walk()
    config = PipelineConfig(calibration_frames=100)
    fades = calibrate(frames[:100], enumerate_links(layout))
    raw = run_pipeline("msrti", frames[100:], layout, config, fades=fades)
    pipeline = VariantPipeline("msrti", fades, layout, raw.grid, config)
    for frame, row in zip(frames[100:], raw.rows):
        est = localize(pipeline.image(frame), raw.grid, k=frame.k)
        assert est.k == frame.k
        if 113 <= frame.k <= 115:
            assert (est.voxel, est.peak) == (-1, 0.0)
            assert np.isnan(est.xy).all()
            assert not est.detected
        else:
            assert est.xy == row[1:3]
            assert est.detected


def test_streaming_kalman_predicts_through_no_detection():
    # One frame at a time through image -> localize -> kalman_step, every
    # estimate passed on: k = 113-115 are predict-only steps, and at every
    # detected frame the track equals the batched one, which skips them
    # and spans the gap with one step.
    layout, frames, _ = _outage_walk()
    config = PipelineConfig(calibration_frames=100, kalman=True, dt=0.5)
    smooth = run_pipeline("msrti", frames, layout, config)
    fades = calibrate(frames[:100], enumerate_links(layout))
    pipeline = VariantPipeline("msrti", fades, layout, smooth.grid, config)
    r = config.kalman_r_scale * config.voxel_width**2
    track = None
    for frame, (k, x, y) in zip(frames[100:], smooth.rows):
        est = localize(pipeline.image(frame), smooth.grid, k=frame.k)
        track = (init_track(est) if track is None else
                 kalman_step(track, est, dt=config.dt, q=config.kalman_q,
                             r=r))
        assert track.k == k
        assert np.isfinite(track.state).all()
        assert np.isfinite(track.covariance).all()
        if 113 <= k <= 115:
            assert not est.detected
            assert np.isnan([x, y]).all()
        else:
            np.testing.assert_allclose(track.position, (x, y), rtol=0,
                                       atol=1e-9)


# The deployments and grids of the benchmark's three workloads: side of
# the square perimeter of 30 nodes, and the grid or the voxel width of a
# grid over the nodes' bounding box.
WORKLOAD_GRIDS = {
    "recalibrate": (7.0, 0.1524),
    "stream": (8.4, VoxelGrid(origin=(-0.15, -0.15), p=0.1524, nx=55, ny=55)),
    "files": (7.0, 0.3),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_GRIDS))
def test_tall_images_match_per_frame_and_csr_back_projection(workload):
    side, grid = WORKLOAD_GRIDS[workload]
    layout = perimeter_layout(30, side, side)
    if not isinstance(grid, VoxelGrid):
        grid = VoxelGrid.from_layout(layout, grid)
    t = np.arange(12)
    traj = np.column_stack((100 + t, side / 2 + side / 3 * np.sin(t / 2),
                            side / 2 + side / 3 * np.cos(t / 3)))
    trace = generate_trace(ScenarioSpec(layout=layout, trajectory=traj,
                                        seed=1, calibration_frames=100))
    fades = calibrate(trace.frames[:100], enumerate_links(layout))
    frames = trace.frames[100:]
    config = PipelineConfig(calibration_frames=100)
    batch = VariantPipeline("msrti", fades, layout, grid, config)
    op = batch.operator
    assert op.tall
    images = batch.images(frames)

    def fresh():
        return VariantPipeline("msrti", fades, layout, grid, config,
                               operator=op)

    single = fresh()
    per_frame = np.array([single.image(f) for f in frames])
    measure = fresh()
    y = np.array([measure.measurement(f) for f in frames]).T
    reference = multiscale_reference(enumerate_links(layout), layout, grid,
                                     fades, config.ellipse)
    assert_same_csr(op.weights.matrix, reference)
    csr = blas.dsymm(1.0, op.stored, reference.T @ y, lower=1).T
    scale = np.abs(csr).max()
    for got in (images, per_frame):
        np.testing.assert_allclose(got, csr, rtol=0, atol=1e-12 * scale)
        assert np.array_equal(got.argmax(axis=1), csr.argmax(axis=1))


def test_never_observed_pairs_get_zero_rows():
    # Pairs with no calibration sample keep their two multi-scale rows, all
    # zero. Their columns of Π are then zero and every other column equals
    # that of an operator built from W with those rows dropped.
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    n_cal = trace.calibration_frames
    lost = [(0, 0), (3, 1), (7, 2), (12, 0), (20, 3), (33, 1)]
    rng = np.random.default_rng(5)
    frames = []
    for f in trace.frames:
        rss = f.rss.copy()
        if f.k < n_cal:
            for l, c in lost:
                rss[l, c] = np.nan
        else:
            rss[rng.random(rss.shape) < 0.15] = np.nan
        frames.append(RssFrame(k=f.k, rss=rss, channels=f.channels))
    fades = calibrate(frames[:n_cal], table)
    assert {tuple(p) for p in np.argwhere(np.isnan(fades.values))} == set(lost)
    person = frames[n_cal:]
    grid = VoxelGrid.from_layout(layout, 0.3)
    config = PipelineConfig(calibration_frames=n_cal)
    pipeline = VariantPipeline("msrti", fades, layout, grid, config)
    weights = pipeline.operator.weights
    n_links, n_channels = fades.values.shape
    assert weights.n_rows == 2 * n_channels * n_links
    dead = {(int(fades.channels[c]), l) for l, c in lost}
    keep = [i for i, (c, l, _) in enumerate(weights.row_keys)
            if (c, l) not in dead]
    assert len(keep) == weights.n_rows - 2 * len(lost)
    w = multiscale_reference(table, layout, grid, fades, config.ellipse)
    assert_same_csr(weights.matrix, w)
    nnz = np.diff(w.indptr)
    assert all(nnz[i] == 0 for i in set(range(weights.n_rows)) - set(keep))

    reference = build_operator(
        WeightMatrix(bands=w[keep].T.tocsr(),
                     band_sums=sparse.identity(len(keep), format="csr"),
                     row_keys=tuple(weights.row_keys[i] for i in keep)),
        grid, config.reconstruction)
    replay = VariantPipeline("msrti", fades, layout, grid, config,
                             operator=pipeline.operator)
    y = np.column_stack([replay.measurement(f) for f in person])
    images = pipeline.images(person)
    expected = reconstruct(reference, y[keep]).T
    np.testing.assert_allclose(images, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


def test_benchmark_rows_and_reuse():
    layout = perimeter_layout(10, 4.0, 4.0)
    config = PipelineConfig(calibration_frames=30)
    rows = benchmark(layout, [(1.5, 2.0), (2.5, 2.5)], seeds=(1, 2),
                     config=config, frames_per_position=4,
                     scenario_kwargs={"calibration_frames": 30})
    assert [(r[0], r[2]) for r in rows] == [
        ("msrti", 1), ("cdrti", 1), ("msrti", 2), ("cdrti", 2)]
    assert all(r[1] == "stationary-grid" for r in rows)
    assert all(np.isfinite(r[3]["mean"]) for r in rows)


def test_benchmark_rejects_mismatched_calibration():
    layout = perimeter_layout(8, 4.0, 4.0)
    config = PipelineConfig(calibration_frames=30)
    with pytest.raises(ValueError, match="calibration_frames"):
        benchmark(layout, [(2.0, 2.0)], seeds=(1,), config=config,
                  scenario_kwargs={"calibration_frames": 10})


def test_benchmark_multiscale_beats_stacked_baseline():
    layout = perimeter_layout(12, 5.0, 5.0)
    config = PipelineConfig(calibration_frames=40)
    rows = benchmark(layout, [(1.5, 1.5), (2.5, 3.5), (3.5, 2.0)],
                     seeds=(1, 2, 3), config=config, frames_per_position=5,
                     scenario_kwargs={"calibration_frames": 40})
    means = {}
    for variant, _, seed, summary in rows:
        means.setdefault(variant, []).append(summary["mean"])
    assert np.mean(means["msrti"]) <= np.mean(means["cdrti"])


def test_kalman_smoothing_keeps_rows_aligned():
    layout, trace = _small_trace()
    truth = {int(k): (x, y) for k, x, y in trace.truth}
    base = PipelineConfig(calibration_frames=trace.calibration_frames)
    smooth = PipelineConfig(calibration_frames=trace.calibration_frames,
                            kalman=True)
    raw = run_pipeline("msrti", trace.frames, layout, base, truth=truth)
    kf = run_pipeline("msrti", trace.frames, layout, smooth, truth=truth)
    assert [r[0] for r in raw.rows] == [r[0] for r in kf.rows]
    # first estimate initializes the filter
    assert kf.rows[0][1:3] == raw.rows[0][1:3]
    assert any(a[1:3] != b[1:3] for a, b in zip(raw.rows[1:], kf.rows[1:]))


def test_crosscheck_defaults_pass():
    checks, ok = crosscheck_models()
    assert ok
    assert len(checks) == 5
    assert all(c["ok"] for c in checks)


def test_crosscheck_detects_perturbed_scale_model():
    bad = EllipseModelParams(b_down=0.2112 * 1.1)
    checks, ok = crosscheck_models(ellipse=bad)
    assert not ok
    by_name = {c["name"]: c for c in checks}
    assert not by_name["lambda_down(F=+8)"]["ok"]
    assert not by_name["lambda_down(F=-8)"]["ok"]
    # probability anchors do not involve the ellipse scale model
    assert by_name["p(dr=+10, F=+8)"]["ok"]


def test_config_from_dict_roundtrip():
    kv = {
        "voxel_width": [["0.2"]],
        "calibration_frames": [["60"]],
        "flrti_m": [["2"]],
        "k_lambda_minus": [["-5.0"]],
        "b_lambda_minus": [["0.25"]],
        "lambda_max": [["2.5"]],
        "beta_minus": [["0.2"]],
        "hold_frames": [["8"]],
        "sigma_x": [["0.05"]],
        "delta_c": [["3.0"]],
    }
    config = PipelineConfig.from_dict(kv)
    assert config.voxel_width == 0.2
    assert config.calibration_frames == 60
    assert config.flrti_m == 2
    assert config.ellipse.k_down == -5.0
    assert config.ellipse.b_down == 0.25
    assert config.ellipse.lambda_max == 2.5
    assert config.measurement.beta_minus == 0.2
    assert config.measurement.hold_frames == 8
    assert config.reconstruction.sigma_x == 0.05
    assert config.reconstruction.delta_c == 3.0


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        PipelineConfig.from_dict({"sigma_z": [["1.0"]]})
    with pytest.raises(ValueError, match="unknown config key 'hold'"):
        PipelineConfig.from_dict({"hold": [["0"]]})
    with pytest.raises(ValueError, match="unknown config key 'dead_zone_db'"):
        PipelineConfig.from_dict({"dead_zone_db": [["0"]]})
    with pytest.raises(ValueError, match="unknown config key 'kalman'"):
        PipelineConfig.from_dict({"kalman": [["true"]]})
    with pytest.raises(ValueError, match="exactly one value"):
        PipelineConfig.from_dict({"sigma_x": [["1.0", "2.0"]]})


@pytest.mark.parametrize("key, value", [
    ("dt", "0"), ("dt", "-1"), ("dt", "nan"), ("kalman_q", "-1"),
    ("kalman_q", "nan"), ("kalman_r_scale", "-2"), ("kalman_r_scale", "nan"),
    ("voxel_width", "nan"), ("classic_lambda", "nan"),
])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        PipelineConfig.from_dict({key: [[value]]})


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(voxel_width=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(flrti_m=0)
    with pytest.raises(ValueError):
        PipelineConfig(calibration_frames=0)
