"""The benchmark's three workloads.

Each workload makes its inputs with rtikit.simulator outside every timed
region, repeats whole rounds of the same operations until at least
MIN_ROUNDS rounds and `seconds` of timed work are done, reads its peak
resident memory, and only then checks the outputs of its last round.
"""

import contextlib
import io
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rtikit import (
    calibration,
    cli,
    geometry,
    harness,
    ingest,
    reconstruction,
    simulator,
    spatial_model,
    tracking,
)

import checks

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
CAL_FRAMES = 100
REPLAY_PASSES = 6


@dataclass
class RunResult:
    """One run of a workload.

    Attributes:
        round_seconds: timed seconds of each whole round run.
        attempted: person frames the program localized.
        failed: frames without a finite position.
        problems: failed output checks; empty when all pass.
        metrics: end-to-end metric name -> value.
        reference: figures printed for reference only (frame p99).
    """

    round_seconds: list
    attempted: int
    failed: int
    problems: list
    metrics: dict
    reference: dict


def _repeat(seconds, run_round, tracer) -> list:
    """Call run_round(i) -> timed seconds inside tracer.round(i) until
    enough rounds and time are done; returns each round's timed seconds."""
    times = []
    while len(times) < MIN_ROUNDS or sum(times) < seconds:
        with tracer.round(len(times)):
            times.append(run_round(len(times)))
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _frame_metrics(latencies) -> tuple:
    p50, p90, p99 = np.percentile(np.asarray(latencies) * 1e3, [50, 90, 99])
    return ({"frame_ms_p50": float(p50), "frame_ms_p90": float(p90)},
            {"frame_ms_p99": float(p99), "frames_timed": len(latencies)})


def _nonfinite(positions) -> int:
    return int(np.count_nonzero(~np.isfinite(np.asarray(positions)).all(axis=1)))


def _walk(rng, n, start_k, center, amplitude, loops) -> np.ndarray:
    """(n, 3) rows (k, x, y) of a closed Lissajous walk about `center` with
    `loops` periods per axis. The seed only picks the starting point, so
    every seed visits the same positions."""
    t = 2 * np.pi * (np.arange(n) + rng.integers(n)) / n
    x = center + amplitude * np.sin(loops[0] * t)
    y = center + amplitude * np.sin(loops[1] * t + np.pi / 4)
    return np.column_stack((start_k + np.arange(n), x, y))


def _build_msrti(frames, table, layout, grid, config):
    """Calibrate, then weights, prior and operator for msrti, one layer call
    each, so a traced round sees every step."""
    fades = calibration.calibrate(frames, table)
    weights = spatial_model.build_multiscale_weights(table, layout, grid, fades,
                                                     config.ellipse)
    precision = reconstruction.prior_precision_term(grid, config.reconstruction)
    operator = reconstruction.build_operator(weights, grid,
                                             config.reconstruction, precision)
    return fades, precision, operator


def _stream_frames(pipeline, frames, grid, config, latencies) -> list:
    """Hand frames over one at a time: image -> localize -> Kalman.
    Appends each frame's latency; returns the track positions."""
    r = config.kalman_r_scale * config.voxel_width**2
    track, xy = None, []
    for frame in frames:
        a = time.perf_counter()
        est = tracking.localize(pipeline.image(frame), grid, k=frame.k)
        track = (tracking.init_track(est) if track is None else
                 tracking.kalman_step(track, est, dt=config.dt,
                                      q=config.kalman_q, r=r))
        latencies.append(time.perf_counter() - a)
        xy.append(track.position)
    return xy


def recalibrate(seed, seconds, tracer) -> RunResult:
    """Criterion-5 deployment: a fresh calibration and operator per seed.

    Round i simulates seed 1000*seed + i: 100 empty-room frames, then 25
    stationary positions x 10 frames, scored raw (no Kalman) through msrti
    and cdrti.
    """
    layout = simulator.perimeter_layout(30, 7.0, 7.0)
    config = harness.PipelineConfig(calibration_frames=CAL_FRAMES)
    table = geometry.enumerate_links(layout)
    grid = geometry.VoxelGrid.from_layout(layout, config.voxel_width,
                                          config.grid_margin)
    side = np.linspace(0.2 * 7.0, 0.8 * 7.0, 5)
    positions = [(x, y) for y in side for x in side]
    trajectory = np.vstack([
        simulator.stationary_trajectory(p, CAL_FRAMES + 10 * i, 10)
        for i, p in enumerate(positions)
    ])
    setups, latencies, ms_errors, problems = [], [], [], []
    counts = {"frames": 0, "failed": 0}
    last = {}

    def run_round(i):
        last.clear()
        trace = simulator.generate_trace(simulator.ScenarioSpec(
            layout=layout, trajectory=trajectory,
            calibration_frames=CAL_FRAMES, seed=seed * 1000 + i))
        person = trace.frames[CAL_FRAMES:]
        t0 = time.perf_counter()
        fades, precision, operator = _build_msrti(
            trace.frames[:CAL_FRAMES], table, layout, grid, config)
        pipelines = {
            "msrti": harness.VariantPipeline(
                "msrti", fades, layout, grid, config,
                precision_term=precision, operator=operator),
            "cdrti": harness.VariantPipeline(
                "cdrti", fades, layout, grid, config,
                precision_term=precision),
        }
        t1 = time.perf_counter()
        estimates = {}
        for variant, pipeline in pipelines.items():
            out = estimates[variant] = []
            for frame in person:
                a = time.perf_counter()
                est = tracking.localize(pipeline.image(frame), grid, k=frame.k)
                b = time.perf_counter()
                out.append(est.xy)
                if variant == "msrti":
                    latencies.append(b - a)
        t2 = time.perf_counter()
        setups.append(t1 - t0)
        means = {}
        for variant, xy in estimates.items():
            counts["frames"] += len(xy)
            counts["failed"] += _nonfinite(xy)
            err = np.hypot(*(np.asarray(xy) - trajectory[:, 1:]).T)
            means[variant] = float(err.mean())
            if variant == "msrti":
                ms_errors.extend(err)
        if not (means["msrti"] <= 2 * config.voxel_width
                and means["msrti"] <= means["cdrti"]):
            problems.append(
                f"seed {seed * 1000 + i}: msrti mean {means['msrti']:.3f} m "
                f"not <= 2 voxels ({2 * config.voxel_width:.4f} m) and "
                f"<= cdrti {means['cdrti']:.3f} m")
        last.update(pipelines)
        return t2 - t0

    times = _repeat(seconds, run_round, tracer)
    peak = _peak_rss_mb()
    with tracer.paused():
        rng = np.random.default_rng(seed)
        for pipeline in last.values():
            problems += checks.operator_identity(pipeline.operator,
                                                 config.reconstruction, rng)
    frame, reference = _frame_metrics(latencies)
    metrics = {
        "setup_s": float(np.median(setups)),
        "frames_per_s": counts["frames"] / sum(times),
        **frame,
        "mean_error_m": float(np.mean(ms_errors)),
        "peak_rss_mb": peak,
    }
    return RunResult(times, counts["frames"], counts["failed"], problems,
                     metrics, reference)


def stream(seed, seconds, tracer) -> RunResult:
    """Criterion-8 deployment: one calibration and build per round, then
    1000 frames of a walking target handed over one at a time through
    VariantPipeline.image -> localize -> kalman_step. Every round replays
    the same seeded trace."""
    layout = simulator.perimeter_layout(30, 8.4, 8.4)
    table = geometry.enumerate_links(layout)
    grid = geometry.VoxelGrid(origin=(-0.15, -0.15), p=0.1524, nx=55, ny=55)
    config = harness.PipelineConfig(calibration_frames=CAL_FRAMES)
    trajectory = _walk(np.random.default_rng(seed), 1000, CAL_FRAMES,
                       center=4.2, amplitude=2.8, loops=(5, 7))
    spec = simulator.ScenarioSpec(layout=layout, trajectory=trajectory,
                                  calibration_frames=CAL_FRAMES, seed=seed)
    setups, latencies, tracks = [], [], []
    last = {}

    def run_round(i):
        last.clear()
        trace = simulator.generate_trace(spec)
        t0 = time.perf_counter()
        fades, precision, operator = _build_msrti(
            trace.frames[:CAL_FRAMES], table, layout, grid, config)
        pipeline = harness.VariantPipeline(
            "msrti", fades, layout, grid, config,
            precision_term=precision, operator=operator)
        t1 = time.perf_counter()
        xy = _stream_frames(pipeline, trace.frames[CAL_FRAMES:], grid, config,
                            latencies)
        t2 = time.perf_counter()
        setups.append(t1 - t0)
        tracks.append(np.array(xy))
        last["operator"] = operator
        return t2 - t0

    times = _repeat(seconds, run_round, tracer)
    peak = _peak_rss_mb()
    problems = []
    with tracer.paused():
        problems += checks.operator_identity(last["operator"],
                                             config.reconstruction,
                                             np.random.default_rng(seed))
    if not all(np.array_equal(t, tracks[0]) for t in tracks):
        problems.append("rounds on identical input gave different tracks")
    errors = np.hypot(*(tracks[0] - trajectory[:, 1:]).T)
    if not errors.mean() <= 2 * config.voxel_width:
        problems.append(f"mean track error {errors.mean():.3f} m > 2 voxels")
    frame, reference = _frame_metrics(latencies)
    n_frames = sum(len(t) for t in tracks)
    metrics = {
        "setup_s": float(np.median(setups)),
        "frames_per_s": n_frames / sum(times),
        **frame,
        "mean_error_m": float(errors.mean()),
        "peak_rss_mb": peak,
    }
    return RunResult(times, n_frames, sum(_nonfinite(t) for t in tracks),
                     problems, metrics, reference)


def _cli(argv) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rtikit {' '.join(argv)} exited {code}: "
                           f"{out.getvalue()}")


def files(seed, seconds, tracer) -> RunResult:
    """The offline CLI path on the criterion-5 layout.

    A round writes an empty-room recording (100 frames) and a walking
    recording (150 frames, 2 % of samples dropped as NA), runs
    `rtikit calibrate` on the first and `rtikit track --fades --truth` with
    0.3 m voxels on the second. Outside the timed job it replays the same
    walking frames REPLAY_PASSES times, one at a time, through a pipeline
    built from the CLI's fade table, which gives the per-frame latency.
    Every round repeats the same seeded inputs.
    """
    layout = simulator.perimeter_layout(30, 7.0, 7.0)
    table = geometry.enumerate_links(layout)
    rng = np.random.default_rng(seed)
    trajectory = _walk(rng, 150, CAL_FRAMES, center=3.5, amplitude=2.3,
                       loops=(2, 3))
    spec = simulator.ScenarioSpec(layout=layout, trajectory=trajectory,
                                  calibration_frames=CAL_FRAMES, seed=seed)
    dropped = rng.random((len(trajectory), table.n_links,
                          len(spec.channels))) < 0.02
    truth = {int(k): (x, y) for k, x, y in trajectory}

    work = OUT_DIR / f"files-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    path = {name: str(work / name) for name in (
        "layout.txt", "truth.txt", "config.txt", "empty.txt", "walk.txt",
        "fades.txt", "track.csv")}
    ingest.save_layout(layout, path["layout.txt"])
    ingest.save_ground_truth(trajectory, path["truth.txt"])
    with open(path["config.txt"], "w") as fh:
        fh.write("voxel_width 0.3\n")
    config = harness.PipelineConfig.from_dict(
        ingest.load_key_value(path["config.txt"]))
    grid = geometry.VoxelGrid.from_layout(layout, config.voxel_width,
                                          config.grid_margin)
    setups, latencies = [], []
    counts = {"frames": 0, "attempted": 0, "failed": 0}
    last = {}

    def run_round(i):
        trace = simulator.generate_trace(spec)
        empty = list(trace.frames[:CAL_FRAMES])
        walk = [calibration.RssFrame(k=f.k, rss=np.where(d, np.nan, f.rss),
                                     channels=f.channels)
                for f, d in zip(trace.frames[CAL_FRAMES:], dropped)]
        t0 = time.perf_counter()
        ingest.save_trace(empty, table, path["empty.txt"])
        ingest.save_trace(walk, table, path["walk.txt"])
        t1 = time.perf_counter()
        with tracer.span("cli.calibrate"):
            _cli(["calibrate", "--layout", path["layout.txt"],
                  "--trace", path["empty.txt"], "--out", path["fades.txt"]])
        t2 = time.perf_counter()
        with tracer.span("cli.track"):
            _cli(["track", "--layout", path["layout.txt"],
                  "--trace", path["walk.txt"], "--fades", path["fades.txt"],
                  "--truth", path["truth.txt"], "--config", path["config.txt"],
                  "--out", path["track.csv"]])
        t3 = time.perf_counter()
        # Untraced, so per-layer figures on files cover only the CLI job.
        # Several passes, so the short replay samples more of the round.
        with tracer.paused():
            fades = ingest.load_fade_table(path["fades.txt"], table)
            operator, xy = None, []
            for _ in range(REPLAY_PASSES):
                pipeline = harness.VariantPipeline("msrti", fades, layout, grid,
                                                   config, operator=operator)
                operator = pipeline.operator
                xy += _stream_frames(pipeline, walk, grid, config, latencies)
        setups.append(t2 - t1)
        rows = np.loadtxt(path["track.csv"], delimiter=",", skiprows=1,
                          ndmin=2)
        counts["frames"] += len(rows)
        counts["attempted"] += len(rows) + len(xy)
        counts["failed"] += _nonfinite(rows[:, 1:3]) + _nonfinite(xy)
        last.update(empty=empty, walk=walk, error_m=rows[:, 5])
        return t3 - t0

    try:
        times = _repeat(seconds, run_round, tracer)
        peak = _peak_rss_mb()
        problems = []
        with tracer.paused():
            problems += checks.frames_equal(
                ingest.load_trace(path["empty.txt"], table), last["empty"],
                "empty-room recording")
            problems += checks.frames_equal(
                ingest.load_trace(path["walk.txt"], table), last["walk"],
                "walking recording")
            problems += checks.fade_tables_match(
                ingest.load_fade_table(path["fades.txt"], table),
                calibration.calibrate(last["empty"], table))
            problems += checks.track_csv(path["track.csv"],
                                         [f.k for f in last["walk"]], truth)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    frame, reference = _frame_metrics(latencies)
    metrics = {
        "setup_s": float(np.median(setups)),
        "frames_per_s": counts["frames"] / sum(times),
        **frame,
        "mean_error_m": float(np.mean(last["error_m"])),
        "peak_rss_mb": peak,
    }
    return RunResult(times, counts["attempted"], counts["failed"], problems,
                     metrics, reference)


WORKLOADS = {"recalibrate": recalibrate, "stream": stream, "files": files}
