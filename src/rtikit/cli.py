"""Command-line front end.

Subcommands:
    calibrate    fit the path-loss model and fade levels from an empty-room trace
    reconstruct  dump per-frame attenuation images for one variant
    track        localize every frame and write a track CSV
    simulate     generate a synthetic trace from a scenario file
    benchmark    compare variants over seeded synthetic runs
    crosscheck   verify model constants against their published anchors

All file formats are the plain-text ones in rtikit.ingest. The optional
--config file is flat `key value` text (see PipelineConfig.from_dict for
the key set).
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .calibration import RssFrame, calibrate
from .geometry import VoxelGrid, enumerate_links
from .harness import (VARIANTS, PipelineConfig, VariantPipeline, benchmark,
                      crosscheck_models, run_pipeline)
from .ingest import (
    load_fade_table,
    load_ground_truth,
    load_key_value,
    load_layout,
    load_scenario,
    load_trace,
    save_benchmark_csv,
    save_fade_table,
    save_ground_truth,
    save_image,
    save_trace,
    save_track_csv,
)
from .simulator import generate_trace

__all__ = ["main"]


def _parse_channels(text: str) -> tuple:
    try:
        channels = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise SystemExit(f"bad --channels value {text!r}: expected e.g. 11,16,21,26")
    if not channels:
        raise SystemExit("--channels needs at least one channel")
    return channels


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise SystemExit(f"bad --seeds value {text!r}: expected e.g. 1,2,3")
    if not seeds:
        raise SystemExit("--seeds needs at least one seed")
    return seeds


def _load_config(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        return PipelineConfig.from_dict(load_key_value(path))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config error: {exc}")


def _channel_columns(have, channels, what) -> list:
    """Columns of the given channels (order as given) among those `what` has."""
    have = [int(c) for c in have]
    missing = [c for c in channels if c not in have]
    if missing:
        raise SystemExit(f"{what} lacks channels {missing}; it has {have}")
    return [have.index(c) for c in channels]


def _subset_frames(frames, channels):
    """Restrict every frame to the given channels (order as given)."""
    if not frames:
        return frames
    cols = _channel_columns(frames[0].channels, channels, "trace")
    chan = np.asarray(channels, dtype=int)
    return [RssFrame(k=f.k, rss=f.rss[:, cols], channels=chan) for f in frames]


def _subset_fades(fades, channels):
    """Restrict a fade table to the given channels (order as given)."""
    cols = _channel_columns(fades.channels, channels, "fade table")
    return replace(fades, values=fades.values[:, cols],
                   mean_rss=fades.mean_rss[:, cols],
                   channels=np.asarray(channels, dtype=int))


def _cmd_calibrate(args) -> int:
    layout = load_layout(args.layout)
    table = enumerate_links(layout)
    frames = load_trace(args.trace, table)
    if args.channels:
        frames = _subset_frames(frames, _parse_channels(args.channels))
    if not frames:
        raise SystemExit(f"no frames in {args.trace}")
    fades = calibrate(frames, table, d0=args.d0)
    save_fade_table(fades, table, args.out)
    fit = fades.fit
    print(f"calibrated {fit.n_pairs} (link, channel) pairs over "
          f"{len(frames)} frames")
    print(f"path loss: eta={fit.eta:.4f} p0={fit.p0:.4f} dB "
          f"(d0={fit.d0:g} m, rmse={fit.rmse:.4f} dB)")
    print(f"fade table written to {args.out}")
    return 0


def _load_run_inputs(args, config):
    """(layout, fades, frames to image) for reconstruct and track: fades
    from --fades, or calibrated on the trace prefix, which is then dropped."""
    layout = load_layout(args.layout)
    table = enumerate_links(layout)
    frames = load_trace(args.trace, table)
    channels = _parse_channels(args.channels) if args.channels else None
    if channels:
        frames = _subset_frames(frames, channels)
    if args.fades:
        fades = load_fade_table(args.fades, table)
        if channels:
            fades = _subset_fades(fades, channels)
        return layout, fades, frames
    if len(frames) <= config.calibration_frames:
        raise SystemExit(
            f"trace has {len(frames)} frames but the first "
            f"{config.calibration_frames} are needed for calibration; "
            "pass --fades to use every frame"
        )
    fades = calibrate(frames[:config.calibration_frames], table)
    return layout, fades, frames[config.calibration_frames:]


def _cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    layout, fades, frames = _load_run_inputs(args, config)
    grid = VoxelGrid.from_layout(layout, config.voxel_width, config.grid_margin)
    pipeline = VariantPipeline(args.variant, fades, layout, grid, config)

    os.makedirs(args.out_dir, exist_ok=True)
    for frame, image in zip(frames, pipeline.images(frames)):
        save_image(image, grid, os.path.join(args.out_dir, f"image_{frame.k:06d}.txt"))
    print(f"wrote {len(frames)} images ({grid.nx}x{grid.ny} voxels) to {args.out_dir}")
    return 0


def _cmd_track(args) -> int:
    config = replace(_load_config(args.config), kalman=not args.no_kalman)
    layout, fades, frames = _load_run_inputs(args, config)
    truth = load_ground_truth(args.truth) if args.truth else None
    result = run_pipeline(args.variant, frames, layout, config,
                          truth=truth, fades=fades)
    save_track_csv(result.rows, args.out, with_truth=truth is not None)
    print(f"tracked {len(result.rows)} frames with {args.variant} "
          f"(kalman {'on' if config.kalman else 'off'})")
    if result.summary is not None:
        s = result.summary
        print(f"error: mean={s['mean']:.3f} m median={s['median']:.3f} m "
              f"p95={s['p95']:.3f} m max={s['max']:.3f} m")
    print(f"track written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    layout = load_layout(args.layout)
    spec = load_scenario(args.scenario, layout)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    trace = generate_trace(spec)
    save_trace(trace.frames, trace.table, args.out_trace)
    print(f"simulated {len(trace.frames)} frames "
          f"({spec.calibration_frames} calibration) with seed {spec.seed}")
    print(f"trace written to {args.out_trace}")
    if args.out_truth:
        save_ground_truth(trace.truth, args.out_truth)
        print(f"truth written to {args.out_truth}")
    return 0


def _cmd_benchmark(args) -> int:
    layout = load_layout(args.layout)
    config = _load_config(args.config)
    variants = tuple(v for v in args.variants.split(",") if v)
    for v in variants:
        if v not in VARIANTS:
            raise SystemExit(f"unknown variant {v!r}; pick from {VARIANTS}")
    seeds = _parse_seeds(args.seeds)

    xy = layout.xy
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    inset = args.inset
    side = np.linspace(inset, 1.0 - inset, args.positions)
    positions = [(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
                 for fy in side for fx in side]

    scenario_kwargs = {"calibration_frames": config.calibration_frames}
    if args.channels:
        scenario_kwargs["channels"] = _parse_channels(args.channels)
    rows = benchmark(layout, positions, seeds, config=config,
                     variants=variants,
                     frames_per_position=args.frames_per_position,
                     scenario_kwargs=scenario_kwargs)
    save_benchmark_csv(rows, args.out)
    for variant in variants:
        means = [r[3]["mean"] for r in rows if r[0] == variant]
        print(f"{variant}: mean error {np.mean(means):.3f} m "
              f"over {len(seeds)} seeds x {len(positions)} positions")
    print(f"benchmark written to {args.out}")
    return 0


def _cmd_crosscheck(args) -> int:
    config = _load_config(args.config)
    checks, passed = crosscheck_models(ellipse=config.ellipse,
                                       measurement=config.measurement)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{status} {c['name']}: computed={c['computed']:.4f} "
              f"expected={c['expected']:.4f} tol={c['tolerance']:.4f}")
    print("crosscheck " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtikit",
        description="RSS-based device-free localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, variant=True, fades=False):
        p.add_argument("--layout", required=True, help="node layout file")
        p.add_argument("--trace", required=True, help="RSS trace file")
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--channels", help="comma-separated channel subset")
        if variant:
            p.add_argument("--variant", default="msrti", choices=VARIANTS)
        if fades:
            p.add_argument("--fades", help="precomputed fade table "
                           "(skips the calibration prefix)")

    p = sub.add_parser("calibrate", help="fit path loss and fade levels")
    p.add_argument("--layout", required=True)
    p.add_argument("--trace", required=True, help="empty-room RSS trace")
    p.add_argument("--channels", help="comma-separated channel subset")
    p.add_argument("--d0", type=float, default=1.0, help="reference distance, m")
    p.add_argument("--out", required=True, help="fade table output path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reconstruct", help="write per-frame images")
    add_common(p, fades=True)
    p.add_argument("--out-dir", required=True, help="image output directory")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("track", help="localize every frame")
    add_common(p, fades=True)
    p.add_argument("--truth", help="ground-truth file (adds error columns)")
    p.add_argument("--no-kalman", action="store_true",
                   help="report raw per-frame estimates")
    p.add_argument("--out", required=True, help="track CSV output path")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("simulate", help="generate a synthetic trace")
    p.add_argument("--layout", required=True)
    p.add_argument("--scenario", required=True, help="scenario description file")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-truth")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="compare variants on synthetic scenes")
    p.add_argument("--layout", required=True)
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--channels", help="comma-separated channels to simulate")
    p.add_argument("--variants", default="msrti,cdrti",
                   help="comma-separated variants to compare")
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    p.add_argument("--positions", type=int, default=5, metavar="R",
                   help="R x R lattice of target positions")
    p.add_argument("--inset", type=float, default=0.2,
                   help="lattice inset as a fraction of the deployment box")
    p.add_argument("--frames-per-position", type=int, default=10)
    p.add_argument("--out", required=True, help="benchmark CSV output path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("crosscheck", help="verify model constants")
    p.add_argument("--config", help="key-value config file")
    p.set_defaults(func=_cmd_crosscheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
