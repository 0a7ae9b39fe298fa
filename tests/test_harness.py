import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import blas

from rtikit import harness, reconstruction
from rtikit.calibration import FadeLevelTable, PathLossFit, RssFrame, calibrate
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.harness import (
    VARIANTS,
    PipelineConfig,
    VariantPipeline,
    _flrti_selection,
    benchmark,
    crosscheck_models,
    run_pipeline,
)
from rtikit.measurement_model import MeasurementModelParams
from rtikit.reconstruction import ReconstructionParams
from rtikit.tracking import PositionEstimate, init_track, kalman_step, localize
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import DIR_DOWN, DIR_UP, EllipseModelParams
import reference_pipeline
from reference_pipeline import assert_same_weights, row


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
    fit = PathLossFit(p0=40.0, eta=2.0, n_pairs=n_links, rmse=0.0)
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
    # pipeline stacks C copies of the fixed-width weights, channel-major,
    # and feeds them the per-channel losses in the same order
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

    reference = reference_pipeline.images("cdrti", frames, layout, grid,
                                          fades, config)

    pipe = VariantPipeline("cdrti", fades, layout, grid, config)
    assert pipe.operator.pi.shape == (grid.n_voxels, table.n_links)
    images = pipe.images(frames)
    scale = np.abs(reference).max()
    assert scale > 0
    np.testing.assert_allclose(images, reference, rtol=0, atol=1e-9 * scale)
    # the weights are √C·W, and their band factors back-project like it
    weights = pipe.operator.weights
    scaled = reference_pipeline.classic_weights(
        layout, grid, config.classic_lambda) * np.sqrt(fades.channels.size)
    assert_same_weights(weights, scaled)
    z = rng.standard_normal((table.n_links, 3))
    back = scaled.T @ z
    np.testing.assert_allclose(weights.back_project(z), back, rtol=0,
                               atol=1e-12 * np.abs(back).max())


def test_rti_channel_selection():
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    from rtikit.calibration import calibrate

    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, 0.2)
    chan = int(fades.channels[2])
    config = PipelineConfig(calibration_frames=trace.calibration_frames,
                            rti_channel=chan)
    pipe = VariantPipeline("rti", fades, layout, grid, config)
    frame = trace.frames[-1]
    default = VariantPipeline(
        "rti", fades, layout, grid,
        PipelineConfig(calibration_frames=trace.calibration_frames))
    for got in (pipe, default):
        want = reference_pipeline.measurements("rti", [frame], fades,
                                               got.config)
        np.testing.assert_array_equal(got.measurement(frame), want[0])


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


# Largest difference allowed between a pipeline's images and the reference
# pipeline's, relative to the largest reference value. Both compute
# Π = (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ by backward-stable dense factorizations, so
# each is within about cond·eps of it: cond(C_x) stays below about 1e5 on
# these grids (2e-11), and the push-through form is used only below an
# estimated condition of 1e4. A modelling fault (a row, a channel, a sign
# or a held sample out of place) moves an image by a share of its peak.
IMAGE_BOUND = 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 10),
       nx=st.integers(3, 14), ny=st.integers(3, 14),
       n_channels=st.integers(1, 4), variant=st.sampled_from(VARIANTS),
       hold_frames=st.integers(0, 3), nan_rate=st.sampled_from([0.0, 0.2]))
# a tall msrti W (120 rows over N = 49) and a short one (24 over 196)
@example(seed=1, n_nodes=6, nx=7, ny=7, n_channels=4, variant="msrti",
         hold_frames=2, nan_rate=0.2)
@example(seed=2, n_nodes=4, nx=14, ny=14, n_channels=2, variant="msrti",
         hold_frames=1, nan_rate=0.2)
def test_images_and_positions_match_reference_pipeline(
        seed, n_nodes, nx, ny, n_channels, variant, hold_frames, nan_rate):
    """Random deployments, not only perimeters, on odd, even and
    non-square grids, with uncalibrated pairs, missing samples, an outage
    longer than the hold window, RSS changes of exactly 0 and gaps in k:
    `VariantPipeline.images` equals the reference pipeline's images within
    IMAGE_BOUND, and `localize` picks the reference's voxel wherever the
    top two reference values are further apart than the two images may
    differ."""
    rng = np.random.default_rng(seed)
    grid = VoxelGrid(origin=(0.0, 0.0), p=rng.uniform(0.2, 0.6), nx=nx, ny=ny)
    extent = grid.p * np.array([nx, ny])
    layout = NodeLayout(ids=rng.permutation(100)[:n_nodes] + 1,
                        xy=rng.uniform(0.0, 1.0, size=(n_nodes, 2)) * extent)
    n_links = n_nodes * (n_nodes - 1) // 2
    shape = (n_links, n_channels)
    channels = np.sort(rng.choice(np.arange(11, 27), n_channels,
                                  replace=False))
    uncalibrated = rng.random(shape) < nan_rate
    fades = FadeLevelTable(
        values=np.where(uncalibrated, np.nan, rng.uniform(-15, 15, shape)),
        mean_rss=np.where(uncalibrated, np.nan, rng.uniform(-80, -40, shape)),
        channels=channels,
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=1, rmse=0.0))
    n_frames = int(rng.integers(1, 13))
    ks = 100 + np.cumsum(rng.integers(1, 4, size=n_frames))
    change = rng.normal(0.0, 6.0, size=(n_frames, *shape))
    change[rng.random(change.shape) < 0.2] = 0.0
    change[rng.random(change.shape) < nan_rate] = np.nan
    outage = rng.random(shape) < 0.3
    start = int(rng.integers(n_frames))
    change[start:start + hold_frames + 2, outage] = np.nan
    frames = [RssFrame(k=k, rss=fades.mean_rss + dr, channels=channels)
              for k, dr in zip(ks, change)]
    config = PipelineConfig(
        classic_lambda=float(rng.choice([0.02, 0.3, 1.0])),
        rti_channel=None if rng.random() < 0.5 else int(rng.choice(channels)),
        flrti_m=int(rng.integers(1, 4)),
        measurement=MeasurementModelParams(hold_frames=hold_frames))

    images = VariantPipeline(variant, fades, layout, grid, config).images(frames)
    want = reference_pipeline.images(variant, frames, layout, grid, fades,
                                     config)
    bound = IMAGE_BOUND * np.abs(want).max()
    np.testing.assert_allclose(images, want, rtol=0, atol=bound)
    centres = reference_pipeline.centres(grid)
    for frame, image, reference in zip(frames, images, want):
        est = localize(image, grid, k=frame.k)
        assert est.k == frame.k
        voxel = reference_pipeline.argmax(reference)
        second, first = np.sort(reference)[-2:]
        if voxel < 0:
            assert not est.detected
        elif first - second > 2 * bound:
            assert (est.voxel, est.xy) == (voxel, tuple(centres[voxel]))


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
    grid = VoxelGrid.from_layout(layout, config.voxel_width, config.grid_margin)
    pipeline = VariantPipeline("msrti", fades, layout, grid, config)
    for frame, row in zip(frames[100:], raw.rows):
        est = localize(pipeline.image(frame), grid, k=frame.k)
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
    grid = VoxelGrid.from_layout(layout, config.voxel_width, config.grid_margin)
    pipeline = VariantPipeline("msrti", fades, layout, grid, config)
    r = config.kalman_r_scale * config.voxel_width**2
    track = None
    for frame, (k, x, y) in zip(frames[100:], smooth.rows):
        est = localize(pipeline.image(frame), grid, k=frame.k)
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
    reference = reference_pipeline.multiscale_weights(layout, grid, fades,
                                                      config.ellipse)
    assert_same_weights(op.weights, reference)
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
    dead = {row(c, d, l, n_links) for l, c in lost for d in (DIR_UP, DIR_DOWN)}
    keep = sorted(set(range(weights.n_rows)) - dead)
    w = reference_pipeline.multiscale_weights(layout, grid, fades,
                                              config.ellipse)
    assert_same_weights(weights, w)
    assert not w[sorted(dead)].any()

    pi = reference_pipeline.pi(w[keep], grid, config.reconstruction)
    replay = VariantPipeline("msrti", fades, layout, grid, config,
                             operator=pipeline.operator)
    y = np.column_stack([replay.measurement(f) for f in person])
    images = pipeline.images(person)
    expected = (pi @ y[keep]).T
    np.testing.assert_allclose(images, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


def _lattice_spec(layout, positions, calibration_frames, frames_per_position):
    trajectory = stationary_trajectory(positions, calibration_frames,
                                       frames_per_position)
    return ScenarioSpec(layout=layout, calibration_frames=calibration_frames,
                        trajectory=trajectory)


def test_benchmark_rows_and_reuse():
    layout = perimeter_layout(10, 4.0, 4.0)
    config = PipelineConfig(calibration_frames=30)
    spec = _lattice_spec(layout, [(1.5, 2.0), (2.5, 2.5)], 30, 4)
    rows = benchmark(spec, seeds=(1, 2), config=config)
    assert [(r[0], r[1]) for r in rows] == [
        ("msrti", 1), ("cdrti", 1), ("msrti", 2), ("cdrti", 2)]
    assert all(np.isfinite(r[2]["mean"]) for r in rows)
    # variants is read once per seed, so an iterator must give every seed's rows
    assert benchmark(spec, iter((1, 2)), config=config,
                     variants=iter(("msrti", "cdrti"))) == rows


@pytest.mark.parametrize("kalman", [False, True])
def test_benchmark_rows_are_run_pipeline_summaries(kalman):
    """benchmark scores a walking scenario, Kalman smoothing included, as
    run_pipeline scores the same seeded trace."""
    layout = perimeter_layout(10, 4.0, 4.0)
    spec = ScenarioSpec(layout=layout, calibration_frames=30,
                        trajectory=np.array([(30, 1.0, 1.0), (31, 1.4, 1.3),
                                             (33, 2.0, 2.0), (34, 2.6, 2.4),
                                             (35, 3.0, 3.1), (38, 2.5, 3.0)]))
    config = PipelineConfig(calibration_frames=30, kalman=kalman)
    rows = benchmark(spec, seeds=(4, 5), config=config,
                     variants=("msrti", "rti"))
    assert [(r[0], r[1]) for r in rows] == [
        ("msrti", 4), ("rti", 4), ("msrti", 5), ("rti", 5)]
    for variant, seed, summary in rows:
        trace = generate_trace(replace(spec, seed=seed))
        truth = {int(k): (x, y) for k, x, y in trace.truth}
        expected = run_pipeline(variant, trace.frames, layout, config, truth)
        assert summary == expected.summary


def test_benchmark_needs_a_trajectory():
    spec = ScenarioSpec(layout=perimeter_layout(8, 4.0, 4.0))
    with pytest.raises(ValueError, match="trajectory"):
        benchmark(spec, seeds=(1,))


@pytest.mark.parametrize("seeds, variants, message", [
    # int() used to truncate 1.5, so seed 1 ran twice as two rows of seed 1
    ((1, 1.5), ("msrti",), "seed must be an integer >= 0, got 1.5"),
    ((1, -1), ("msrti",), "seed must be an integer >= 0, got -1"),
    ((1,), ("msrti", "nope"),
     "unknown variant 'nope'; pick from ('rti', 'cdrti', 'flrti', 'msrti')"),
])
def test_benchmark_checks_seeds_and_variants_before_any_trace(
        monkeypatch, seeds, variants, message):
    monkeypatch.setattr(harness, "generate_trace",
                        lambda *a, **kw: pytest.fail("a trace was made"))
    spec = _lattice_spec(perimeter_layout(8, 4.0, 4.0), [(2.0, 2.0)], 30, 2)
    with pytest.raises(ValueError) as info:
        benchmark(spec, seeds, variants=variants)
    assert str(info.value) == message


def test_benchmark_shares_precision_term_only_with_msrti(monkeypatch):
    """The term is computed cold (its mirror blocks formed) once per (grid,
    params) across seeds and benchmarks when msrti, whose W is tall, is
    among the variants, and not at all for fixed-width variants alone."""
    calls = []
    mirror_blocks = reconstruction._mirror_blocks
    monkeypatch.setattr(reconstruction, "_mirror_blocks",
                        lambda *args: calls.append(args) or mirror_blocks(*args))
    layout = perimeter_layout(8, 4.0, 4.0)
    # 10 × 10 voxels, so that msrti's W, 2 × 28 rows per channel, is tall
    config = PipelineConfig(calibration_frames=30, voxel_width=0.5)
    other = replace(config, reconstruction=ReconstructionParams(delta_c=2.0))
    for variants, run_config, expected in (
            (("cdrti", "rti"), config, 0),
            (("msrti", "cdrti"), config, 1),
            (("msrti",), config, 0),  # the term is kept
            (("msrti",), other, 1)):
        calls.clear()
        rows = benchmark(_lattice_spec(layout, [(2.0, 2.0)], 30, 2),
                         seeds=(1, 2), config=run_config, variants=variants)
        assert len(rows) == 2 * len(variants)
        assert len(calls) == expected


def _two_calibrations():
    """One deployment, the 10-node layout of _small_trace, calibrated on two
    seeded traces: (layout, traces, fade tables)."""
    traces, fades = [], []
    for seed in (3, 4):
        layout, trace = _small_trace(seed=seed)
        traces.append(trace)
        fades.append(calibrate(trace.frames[:trace.calibration_frames],
                               enumerate_links(layout)))
    return layout, traces, fades


def _clear_memos():
    reconstruction._precision_term.cache_clear()
    harness._fixed_width_operator.cache_clear()


def test_fixed_width_operator_is_kept_across_calibrations():
    """rti, flrti and cdrti take one operator per deployment whatever the
    calibration, rti and flrti the same one, and its stored array is
    read-only; msrti builds its M from each fade table."""
    layout, _, fades = _two_calibrations()
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    ops = {variant: [VariantPipeline(variant, f, layout, grid, config).operator
                     for f in fades] for variant in VARIANTS}
    for variant in ("rti", "flrti", "cdrti"):
        first, second = ops[variant]
        assert first is second
        assert not first.stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.stored[0, 0] = 1.0
    assert ops["flrti"][0] is ops["rti"][0]
    assert ops["cdrti"][0] is not ops["rti"][0]
    first, second = ops["msrti"]
    assert first.tall and second.tall
    assert not np.array_equal(first.stored, second.stored)


def test_fixed_width_operator_is_keyed_by_every_input_of_its_pi():
    """Equal values in new objects find the kept operator; a change to any
    one input of Π builds a new one, which differs from the kept one."""
    layout, _, (fades, _) = _two_calibrations()
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    table = enumerate_links(layout)

    def operator(variant="rti", layout=layout, grid=grid, config=config,
                 fades=fades):
        return VariantPipeline(variant, fades, layout, grid, config).operator

    kept = operator()
    assert operator(layout=NodeLayout(ids=layout.ids.copy(),
                                      xy=layout.xy.copy()),
                    grid=replace(grid), config=replace(config)) is kept
    moved = layout.xy.copy()
    moved[0] += 0.05
    renamed = layout.ids.copy()
    renamed[0] = 100
    params = config.reconstruction
    changes = {
        "node xy": dict(layout=NodeLayout(ids=layout.ids, xy=moved)),
        "node id": dict(layout=NodeLayout(ids=renamed, xy=layout.xy)),
        "grid": dict(grid=replace(grid, p=0.29)),
        "classic_lambda": dict(config=replace(config, classic_lambda=0.05)),
        **{f"reconstruction.{name}": dict(config=replace(
            config, reconstruction=replace(params, **{name: value})))
           for name, value in (("sigma_x", 0.05), ("sigma_n", 1.0),
                               ("delta_c", 2.0))},
    }
    for name, change in changes.items():
        new = operator(**change)
        assert new is not kept, name
        assert not np.array_equal(new.stored, kept.stored), name
    three, four = (_uniform_fades(table, range(11, 11 + c)) for c in (3, 4))
    cdrti = operator("cdrti", fades=four)
    assert operator("cdrti", fades=three) is not cdrti
    assert operator("cdrti", fades=four) is cdrti
    assert operator("rti", fades=three) is operator("rti", fades=four)


@pytest.mark.parametrize("variant", VARIANTS)
def test_kept_builds_image_as_a_cold_build(variant):
    """After a build on another calibration of the deployment has filled
    the memos, images and run_pipeline rows are those of a cold build."""
    layout, traces, fades = _two_calibrations()
    trace = traces[1]
    config = PipelineConfig(calibration_frames=trace.calibration_frames,
                            voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    frames = trace.frames[trace.calibration_frames:]
    truth = {int(k): (x, y) for k, x, y in trace.truth}

    def images():
        return VariantPipeline(variant, fades[1], layout, grid,
                               config).images(frames)

    def rows():
        return run_pipeline(variant, trace.frames, layout, config,
                            truth=truth).rows

    VariantPipeline(variant, fades[0], layout, grid, config)
    kept = images(), rows()
    _clear_memos()
    cold_images = images()
    _clear_memos()
    cold_rows = rows()
    assert np.array_equal(kept[0], cold_images)
    assert kept[1] == cold_rows


def test_fixed_width_memo_stays_within_its_bound():
    """Over more deployments than the bound, the memo holds the bound's
    number of operators, and the oldest deployment's is built again."""
    bound = harness._OPERATOR_MEMO_SIZE
    config = PipelineConfig(voxel_width=0.3)

    def operator(side):
        layout = perimeter_layout(8, side, side)
        fades = _uniform_fades(enumerate_links(layout), (11, 12))
        grid = VoxelGrid.from_layout(layout, config.voxel_width)
        return VariantPipeline("rti", fades, layout, grid, config).operator

    first = operator(3.0)
    for i in range(1, bound + 2):
        operator(3.0 + 0.1 * i)
        assert harness._fixed_width_operator.cache_info().currsize <= bound
    assert harness._fixed_width_operator.cache_info().currsize == bound
    assert operator(3.0) is not first


@pytest.mark.parametrize("variant", VARIANTS)
def test_fade_table_from_another_layout_is_rejected_at_construction(variant):
    """Fades of an 8-node layout (28 links) on a 10-node one (45 links) are
    rejected before any weights or operator are built."""
    small, trace = _small_trace(n_nodes=8)
    fades = calibrate(trace.frames[:trace.calibration_frames],
                      enumerate_links(small))
    layout = perimeter_layout(10, 4.0, 4.0)
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    with pytest.raises(ValueError,
                       match="fade table covers 28 links, table has 45"):
        VariantPipeline(variant, fades, layout, grid, config)
    assert harness._fixed_width_operator.cache_info().currsize == 0
    assert reconstruction._precision_term.cache_info().currsize == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_operator_for_another_grid_is_rejected_at_construction(variant):
    """An operator built on one grid, given with a grid of the same shape
    moved 1 m in x, is rejected, naming both grids, before any build."""
    layout, _, (fades, _) = _two_calibrations()
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    operator = VariantPipeline(variant, fades, layout, grid, config).operator
    moved = replace(grid, origin=(grid.origin[0] + 1.0, grid.origin[1]))
    _clear_memos()
    with pytest.raises(ValueError, match=re.escape(
            f"operator was built for grid {grid}, not the pipeline's grid {moved}")):
        VariantPipeline(variant, fades, layout, moved, config, operator=operator)
    assert harness._fixed_width_operator.cache_info().currsize == 0
    assert reconstruction._precision_term.cache_info().currsize == 0
    assert VariantPipeline(variant, fades, layout, grid, config,
                           operator=operator).operator is operator


@pytest.mark.parametrize("built, given", [
    *(("msrti", fixed) for fixed in ("rti", "cdrti", "flrti")),
    *((fixed, "msrti") for fixed in ("rti", "cdrti", "flrti"))])
def test_operator_for_another_variants_rows_is_rejected_at_construction(built, given):
    """An msrti operator given to a fixed-width pipeline, or a fixed-width
    one to msrti, has another number of rows than the pipeline measures
    (2·C·L against L) and is rejected, naming both, before any build."""
    layout, _, (fades, _) = _two_calibrations()
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    operator = VariantPipeline(built, fades, layout, grid, config).operator
    n_links = fades.n_links
    rows = 2 * fades.channels.size * n_links if given == "msrti" else n_links
    _clear_memos()
    with pytest.raises(ValueError, match=re.escape(
            f"operator has {operator.weights.n_rows} rows, "
            f"not the {rows} that {given} measures")):
        VariantPipeline(given, fades, layout, grid, config, operator=operator)
    assert harness._fixed_width_operator.cache_info().currsize == 0
    assert reconstruction._precision_term.cache_info().currsize == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_given_precision_term_is_checked_whether_the_memo_hits(variant):
    layout, _, (fades, _) = _two_calibrations()
    config = PipelineConfig(voxel_width=0.3)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    params = config.reconstruction
    for memo in ("cold", "kept"):
        for term, error, match in (
                (reconstruction.prior_precision_term(replace(grid, nx=3), params),
                 ValueError, "precision_term is for VoxelGrid"),
                (reconstruction.prior_precision_term(
                    grid, replace(params, delta_c=2.0)),
                 ValueError, "precision_term is for ReconstructionParams"),
                (np.zeros((grid.n_voxels, grid.n_voxels)),
                 TypeError, "must be a PrecisionTerm")):
            with pytest.raises(error, match=match):
                VariantPipeline(variant, fades, layout, grid, config,
                                precision_term=term)
        VariantPipeline(variant, fades, layout, grid, config,
                        precision_term=reconstruction.prior_precision_term(
                            grid, params))


def test_benchmark_multiscale_beats_stacked_baseline():
    layout = perimeter_layout(12, 5.0, 5.0)
    config = PipelineConfig(calibration_frames=40)
    spec = _lattice_spec(layout, [(1.5, 1.5), (2.5, 3.5), (3.5, 2.0)], 40, 5)
    rows = benchmark(spec, seeds=(1, 2, 3), config=config)
    means = {}
    for variant, seed, summary in rows:
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
    bad = EllipseModelParams(b_lambda_minus=0.2112 * 1.1)
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
        "grid_margin": [["0.5"]],
        "calibration_frames": [["60"]],
        "rti_channel": [["16"]],
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
    assert config.grid_margin == 0.5
    assert config.calibration_frames == 60
    assert config.rti_channel == 16 and type(config.rti_channel) is int
    assert config.flrti_m == 2
    assert config.ellipse.k_lambda_minus == -5.0
    assert config.ellipse.b_lambda_minus == 0.25
    assert config.ellipse.lambda_max == 2.5
    assert config.measurement.beta_minus == 0.2
    assert config.measurement.hold_frames == 8
    assert config.reconstruction.sigma_x == 0.05
    assert config.reconstruction.delta_c == 3.0


def _defaulted_fields():
    """(parameter set or None, field name) for each config field whose
    default is not None, kalman excepted."""
    default = PipelineConfig()
    out = []
    for f in fields(PipelineConfig):
        value = getattr(default, f.name)
        if is_dataclass(value):
            out += [(f.name, g.name) for g in fields(value)]
        elif value is not None and f.name != "kalman":
            out.append((None, f.name))
    return out


@pytest.mark.parametrize("group, key", _defaulted_fields())
def test_config_keys_are_the_field_names(group, key):
    """Twice a field's default is in range and minus it is not, for every
    field; a key sets its own field, read as the default's type, and only
    that field."""
    default = PipelineConfig()
    owner = default if group is None else getattr(default, group)
    value = getattr(owner, key)
    config = PipelineConfig.from_dict({key: [[repr(2 * value)]]})
    changed = replace(owner, **{key: 2 * value})
    assert config == (changed if group is None
                      else replace(default, **{group: changed}))
    read = getattr(config if group is None else getattr(config, group), key)
    assert type(read) is type(value)
    with pytest.raises(ValueError, match=f"^{key} must be "):
        PipelineConfig.from_dict({key: [[repr(-value)]]})


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        PipelineConfig.from_dict({"sigma_z": [["1.0"]]})
    with pytest.raises(ValueError, match="unknown config key 'hold'"):
        PipelineConfig.from_dict({"hold": [["0"]]})
    with pytest.raises(ValueError, match="unknown config key 'dead_zone_db'"):
        PipelineConfig.from_dict({"dead_zone_db": [["0"]]})
    with pytest.raises(ValueError, match="unknown config key 'kalman'"):
        PipelineConfig.from_dict({"kalman": [["true"]]})
    with pytest.raises(ValueError, match="'sigma_x' needs exactly one value"):
        PipelineConfig.from_dict({"sigma_x": [["1.0", "2.0"]]})
    with pytest.raises(ValueError, match="'sigma_x' needs exactly one value"):
        PipelineConfig.from_dict({"sigma_x": [[]]})
    with pytest.raises(ValueError, match="'sigma_x' appears more than once"):
        PipelineConfig.from_dict({"sigma_x": [["1.0"], ["2.0"]]})


@pytest.mark.parametrize("key, value", [
    ("dt", "0"), ("dt", "-1"), ("dt", "nan"), ("kalman_q", "-1"),
    ("kalman_q", "nan"), ("kalman_r_scale", "-2"), ("kalman_r_scale", "nan"),
    ("voxel_width", "nan"), ("classic_lambda", "nan"),
    ("voxel_width", "inf"), ("grid_margin", "inf"), ("grid_margin", "-inf"),
    ("grid_margin", "nan"), ("classic_lambda", "inf"), ("kalman_q", "inf"),
    ("kalman_r_scale", "inf"), ("dt", "inf"),
])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        PipelineConfig.from_dict({key: [[value]]})


@pytest.mark.parametrize("key, bound", [
    ("b_lambda_minus", "finite and > 0"),
    ("b_lambda_plus", "finite and > 0"),
    ("k_lambda_minus", "finite and < 0"),
    ("k_lambda_plus", "finite and > 0"),
    ("lambda_max", "finite and > 0"),
    ("sigma_x", "finite and > 0"),
    ("sigma_n", "finite and > 0"),
    ("delta_c", "finite and > 0"),
    ("beta_minus", "finite and > 0"),
    ("k_beta_plus", "finite and > 0"),
    ("b_beta_plus", "finite and > 0"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_model_parameters(key, bound, value):
    with pytest.raises(ValueError) as info:
        PipelineConfig.from_dict({key: [[value]]})
    assert str(info.value) == f"{key} must be {bound}, got {float(value)!r}"


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(voxel_width=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(flrti_m=0)
    with pytest.raises(ValueError):
        PipelineConfig(calibration_frames=0)
