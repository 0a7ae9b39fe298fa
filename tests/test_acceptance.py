"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import time

import numpy as np

from rtikit.calibration import (
    FadeLevelTable,
    PathLossFit,
    calibrate,
    calibrate_means,
    channel_frequency,
    normalized_tx_power,
)
from rtikit.geometry import VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, benchmark, crosscheck_models
from rtikit.ingest import (
    load_fade_table,
    load_ground_truth,
    load_image,
    load_layout,
    load_scenario,
    load_trace,
    load_track_csv,
    save_fade_table,
    save_ground_truth,
    save_image,
    save_layout,
    save_scenario,
    save_trace,
    save_track_csv,
)
from rtikit.measurement_model import MeasurementModelParams, inside_probability
from rtikit.reconstruction import ReconstructionParams, build_operator, reconstruct
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import (
    EllipseModelParams,
    build_classic_weights,
    build_multiscale_weights,
)
from rtikit.tracking import PositionEstimate, init_track, kalman_step, localize
import reference_pipeline


def _synthetic_fades(table, channels=(11, 16, 21, 26), sigma=5.0, seed=0):
    rng = np.random.default_rng(seed)
    channels = np.asarray(channels, dtype=int)
    values = rng.normal(0.0, sigma, size=(table.n_links, channels.size))
    fit = PathLossFit(p0=40.0, eta=2.0,
                      n_pairs=table.n_links * channels.size, rmse=0.0)
    return FadeLevelTable(values=values, mean_rss=np.zeros_like(values),
                          channels=channels, fit=fit)


def test_criterion_1_model_anchors():
    t0 = time.perf_counter()
    checks, passed = crosscheck_models()
    elapsed = time.perf_counter() - t0
    assert passed, [c for c in checks if not c["ok"]]
    assert len(checks) == 5
    for c in checks:
        assert abs(c["computed"] - c["expected"]) <= c["tolerance"], c
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: five model anchors within tolerance "
          f"({elapsed * 1e3:.1f} ms)")


def test_criterion_2_channel_frequencies():
    assert channel_frequency(11) == 2405.0
    assert channel_frequency(26) == 2480.0
    print("\nPASS criterion 2: channel frequencies 2405/2480 MHz exact")


def test_criterion_3_reconstruction_oracle():
    t0 = time.perf_counter()
    layout = perimeter_layout(8, 3.0, 3.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.3, nx=10, ny=10)
    fades = _synthetic_fades(table, seed=3)
    weights = build_multiscale_weights(table, layout, grid, fades)
    params = ReconstructionParams()
    op = build_operator(weights, grid, params)

    # independent dense route: the reference pipeline's W, C_x and solve
    a = reference_pipeline.multiscale_weights(layout, grid, fades,
                                              EllipseModelParams())
    pi_ref = reference_pipeline.pi(a, grid, params)
    max_err = np.max(np.abs(op.pi - pi_ref))
    assert max_err <= 1e-8, max_err

    rng = np.random.default_rng(7)
    y1 = rng.normal(size=a.shape[0])
    y2 = rng.normal(size=a.shape[0])
    lin = reconstruct(op, 2.5 * y1 - 0.75 * y2)
    ref = 2.5 * reconstruct(op, y1) - 0.75 * reconstruct(op, y2)
    assert np.max(np.abs(lin - ref)) <= 1e-12
    assert np.max(np.abs(reconstruct(op, 3.0 * y1) - 3.0 * reconstruct(op, y1))) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: operator matches dense oracle "
          f"(max err {max_err:.1e}), linear to 1e-12 ({elapsed:.2f} s)")


def test_criterion_4_calibration_recovery():
    # noiseless: exact log-distance data in, parameters out
    layout = perimeter_layout(12, 5.0, 5.0)
    table = enumerate_links(layout)
    channels = np.array([11, 16, 21, 26])
    eta_true, p0_true = 2.3, 38.0
    mean_rss = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        mean_rss[:, ci] = (normalized_tx_power(c) - p0_true
                           - 10.0 * eta_true * np.log10(table.lengths))
    fades = calibrate_means(mean_rss, channels, table)
    assert abs(fades.fit.eta - eta_true) <= 1e-9
    assert abs(fades.fit.p0 - p0_true) <= 1e-9
    assert np.max(np.abs(fades.values)) <= 1e-9

    # noisy: simulator trace, 500 calibration frames, sigma = 0.5 dB
    n_frames, sigma = 500, 0.5
    spec = ScenarioSpec(
        layout=layout, channels=tuple(channels), eta=eta_true, p0=p0_true,
        calibration_frames=n_frames,
        trajectory=stationary_trajectory((2.5, 2.5), n_frames, 1),
        fade_offsets=np.zeros((table.n_links, channels.size)),
        noise_sigma=sigma, seed=11,
    )
    trace = generate_trace(spec)
    noisy = calibrate(trace.frames[:n_frames], table)
    tol = 3.0 * sigma / np.sqrt(n_frames)
    frac = np.mean(np.abs(noisy.values) <= tol)
    assert frac >= 0.95, frac
    print(f"\nPASS criterion 4: noiseless fit exact to 1e-9; "
          f"{frac * 100:.1f}% of pairs within 3 sigma/sqrt(500)")


def test_criterion_5_end_to_end_localization():
    t0 = time.perf_counter()
    layout = perimeter_layout(30, 7.0, 7.0)
    config = PipelineConfig(calibration_frames=100)
    side = np.linspace(0.2 * 7.0, 0.8 * 7.0, 5)
    positions = [(x, y) for y in side for x in side]
    spec = ScenarioSpec(layout=layout, calibration_frames=100,
                        trajectory=stationary_trajectory(positions, 100, 10))
    rows = benchmark(spec, seeds=range(1, 11), config=config,
                     variants=("msrti", "cdrti"))
    ms = np.array([r[2]["mean"] for r in rows if r[0] == "msrti"])
    cd = np.array([r[2]["mean"] for r in rows if r[0] == "cdrti"])
    elapsed = time.perf_counter() - t0
    assert ms.size == 10 and cd.size == 10
    limit = 2.0 * config.voxel_width
    assert ms.mean() <= limit, (ms.mean(), limit)
    assert ms.mean() <= cd.mean(), (ms.mean(), cd.mean())
    assert elapsed < 120.0
    print(f"\nPASS criterion 5: msrti mean {ms.mean():.3f} m <= {limit:.4f} m "
          f"and <= cdrti {cd.mean():.3f} m over 10 seeds ({elapsed:.1f} s)")


def test_criterion_6_tracking_convergence():
    dt, q, r = 0.5, 1.0, 0.01
    velocity = np.array([0.7, -0.3])
    start = np.array([1.0, 2.0])
    track = init_track(PositionEstimate(k=0, xy=tuple(start), peak=1.0, voxel=0))
    errors = []
    for k in range(1, 301):
        z = start + velocity * (k * dt)
        est = PositionEstimate(k=k, xy=(z[0], z[1]), peak=1.0, voxel=0)
        track = kalman_step(track, est, dt=dt, q=q, r=r)
        errors.append(np.linalg.norm(np.asarray(track.position) - z))
        cov = track.covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10
    rmse = float(np.sqrt(np.mean(np.square(errors[200:]))))
    assert rmse <= 1e-6, rmse
    print(f"\nPASS criterion 6: noiseless CV stream RMSE {rmse:.2e} m, "
          f"covariance symmetric PSD for 300 steps")


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(21)
    layout = perimeter_layout(8, 4.0, 4.0)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, 0.25)

    # a fixed-width weight row's voxels grow monotonically with the width
    for _ in range(20):
        link = int(rng.integers(table.n_links))
        lam1, lam2 = sorted(rng.uniform(0.0, 2.0, size=2))
        inner = build_classic_weights(table, layout, grid, lam1).matrix[link]
        outer = build_classic_weights(table, layout, grid, lam2).matrix[link]
        assert set(inner.indices) <= set(outer.indices)

    # multi-scale rows carry the constant weight 1/(n p^2) on their support
    fades = _synthetic_fades(table, seed=5)
    weights = build_multiscale_weights(table, layout, grid, fades)
    matrix = weights.matrix.tocsr()
    for row in range(matrix.shape[0]):
        values = matrix.data[matrix.indptr[row]:matrix.indptr[row + 1]]
        if values.size:
            np.testing.assert_allclose(
                values, 1.0 / (values.size * grid.p**2), rtol=1e-12)

    # probabilities live in [0, 1) with exclusive direction occupancy
    params = MeasurementModelParams()
    for _ in range(200):
        delta_r = float(rng.uniform(-25.0, 25.0))
        fade = float(rng.uniform(-12.0, 12.0))
        direction, p = inside_probability(delta_r, fade, params)
        assert 0.0 <= p < 1.0
        assert direction in ("+", "-")
    assert inside_probability(0.0, 5.0, params) == ("-", 0.0)

    # argmax localization is invariant to positive rescaling
    image = rng.random(grid.n_voxels)
    base = localize(image, grid)
    for scale in (0.25, 3.0, 1e4):
        assert localize(scale * image, grid).voxel == base.voxel

    # file formats round-trip
    save_layout(layout, tmp_path / "layout.txt")
    assert np.allclose(load_layout(tmp_path / "layout.txt").xy, layout.xy)

    spec = ScenarioSpec(layout=layout, calibration_frames=20,
                        trajectory=stationary_trajectory((2.0, 2.0), 20, 4),
                        seed=9)
    trace = generate_trace(spec)
    save_trace(trace.frames, table, tmp_path / "trace.txt")
    back = load_trace(tmp_path / "trace.txt", table)
    assert len(back) == len(trace.frames)
    np.testing.assert_allclose(back[-1].rss, trace.frames[-1].rss)

    truth = {int(k): (x, y) for k, x, y in trace.truth}
    save_ground_truth(truth, tmp_path / "truth.txt")
    assert load_ground_truth(tmp_path / "truth.txt") == truth

    cal = calibrate(trace.frames[:20], table)
    save_fade_table(cal, table, tmp_path / "fades.txt")
    cal_back = load_fade_table(tmp_path / "fades.txt", table)
    np.testing.assert_allclose(cal_back.values, cal.values)

    save_image(image, grid, tmp_path / "image.txt")
    image_back, grid_back = load_image(tmp_path / "image.txt")
    np.testing.assert_allclose(image_back, image)
    assert (grid_back.nx, grid_back.ny) == (grid.nx, grid.ny)

    rows = [(0, 1.0, 2.0), (1, 1.5, 2.5)]
    save_track_csv(rows, tmp_path / "track.csv", with_truth=False)
    assert load_track_csv(tmp_path / "track.csv") == rows

    save_scenario(spec, tmp_path / "scenario.txt")
    spec_back = load_scenario(tmp_path / "scenario.txt", layout)
    assert spec_back.seed == spec.seed
    np.testing.assert_allclose(spec_back.trajectory, spec.trajectory)

    print("\nPASS criterion 7: geometry/weight/probability/localization "
          "properties and file round-trips hold")


def test_criterion_8_performance_sanity():
    layout = perimeter_layout(30, 8.4, 8.4)
    table = enumerate_links(layout)
    assert table.n_links == 435
    grid = VoxelGrid(origin=(-0.15, -0.15), p=0.1524, nx=55, ny=55)
    assert abs(grid.n_voxels - 3000) <= 100
    fades = _synthetic_fades(table, seed=1)

    t0 = time.perf_counter()
    weights = build_multiscale_weights(table, layout, grid, fades)
    op = build_operator(weights, grid)
    build_time = time.perf_counter() - t0
    assert build_time <= 60.0, build_time

    rng = np.random.default_rng(2)
    y = rng.random(weights.matrix.shape[0])
    reconstruct(op, y)  # warm-up
    times = []
    for _ in range(20):
        t1 = time.perf_counter()
        reconstruct(op, y)
        times.append(time.perf_counter() - t1)
    per_frame = float(np.mean(times))
    assert per_frame <= 0.050, per_frame
    print(f"\nPASS criterion 8: operator build {build_time:.1f} s "
          f"(L=435, C=4, N={grid.n_voxels}); reconstruct "
          f"{per_frame * 1e3:.1f} ms/frame")
