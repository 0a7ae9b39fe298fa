import numpy as np
import pytest

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
from rtikit.tracking import PositionEstimate, init_track, kalman_step
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import EllipseModelParams


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


def test_cdrti_measurement_is_channel_major_stack():
    layout, trace = _small_trace()
    config = PipelineConfig(calibration_frames=trace.calibration_frames,
                            hold=False)
    table = enumerate_links(layout)
    from rtikit.calibration import calibrate
    from rtikit.measurement_model import rss_change

    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    pipe = VariantPipeline("cdrti", fades, layout, grid, config)
    frame = trace.frames[-1]
    y = pipe.measurement(frame)
    delta = rss_change(frame, fades)
    for ci in range(fades.channels.size):
        block = y[ci * table.n_links:(ci + 1) * table.n_links]
        np.testing.assert_allclose(block, -np.nan_to_num(delta[:, ci]))
    # row keys agree with the stacking order
    assert pipe.operator.weights.row_keys[table.n_links] == (
        int(fades.channels[1]), 0)


def test_rti_channel_selection():
    layout, trace = _small_trace()
    table = enumerate_links(layout)
    from rtikit.calibration import calibrate
    from rtikit.measurement_model import rss_change

    fades = calibrate(trace.frames[:trace.calibration_frames], table)
    grid = VoxelGrid.from_layout(layout, 0.2)
    chan = int(fades.channels[2])
    config = PipelineConfig(calibration_frames=trace.calibration_frames,
                            rti_channel=chan, hold=False)
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
        PipelineConfig(flrti_m=1, hold=False))
    single = VariantPipeline(
        "rti", fades, layout, grid,
        PipelineConfig(rti_channel=21, hold=False))
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
        "kalman": [["true"]],
        "hold": [["0"]],
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
    assert config.kalman is True
    assert config.hold is False
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
    with pytest.raises(ValueError, match="exactly one value"):
        PipelineConfig.from_dict({"sigma_x": [["1.0", "2.0"]]})


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(voxel_width=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(flrti_m=0)
    with pytest.raises(ValueError):
        PipelineConfig(calibration_frames=0)
