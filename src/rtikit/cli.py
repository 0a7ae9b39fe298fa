"""Command-line front end.

Subcommands:
    calibrate    fit the path-loss model and fade levels from an empty-room trace
    reconstruct  dump per-frame attenuation images for one variant
    track        localize every frame and write a track CSV
    simulate     generate a synthetic trace from a scenario file, seed included
    benchmark    compare variants over seeded runs of a scenario file
    crosscheck   verify model constants against their published anchors

All file formats are the plain-text ones in rtikit.ingest. The optional
--config file is flat `key value` text; its keys are the field names of
PipelineConfig, except `kalman`, and of its three parameter sets
(EllipseModelParams, MeasurementModelParams, ReconstructionParams).
--channels picks the channels a run reads, and rti images the first.
reconstruct and track load their files and cut them to --channels here;
harness.calibrated_pipeline then calibrates on the trace's person-free
prefix, unless --fades gives a fade table, and builds the pipeline.

Exit codes: 0 on success, 1 when crosscheck finds an anchor off, and 2 on
bad input (a file, flag or config value), with an `error:` line on stderr.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .calibration import (CHANNEL_MAX, CHANNEL_MIN, RssFrame, calibrate,
                          check_channels)
from .geometry import enumerate_links
from .harness import (VARIANTS, PipelineConfig, benchmark, calibrated_pipeline,
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


def _parse_ints(text: str, flag: str) -> tuple:
    """The integers of a comma-separated --channels or --seeds value."""
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        example = {"--channels": "11,16,21,26", "--seeds": "1,2,3"}[flag]
        raise ValueError(
            f"bad {flag} value {text!r}: expected e.g. {example}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one {flag[2:-1]}")
    return values


def _parse_channels(text: str) -> tuple:
    """The channels of a --channels value, which must ascend within 11..26."""
    channels = _parse_ints(text, "--channels")
    try:
        check_channels(np.array(channels))
    except ValueError:
        raise ValueError(f"--channels must be strictly ascending channels in "
                         f"[{CHANNEL_MIN}, {CHANNEL_MAX}], got {text}") from None
    return channels


def _load_config(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        return PipelineConfig.from_dict(load_key_value(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _channel_columns(have, channels, what) -> list:
    """Columns of the given ascending channels among those `what` has."""
    have = [int(c) for c in have]
    missing = [c for c in channels if c not in have]
    if missing:
        raise ValueError(f"{what} lacks channels {missing}; it has {have}")
    return [have.index(c) for c in channels]


def _subset_frames(frames, channels):
    """Restrict every frame to the given ascending channels."""
    if not frames:
        return frames
    cols = _channel_columns(frames[0].channels, channels, "trace")
    chan = np.asarray(channels, dtype=int)
    return [RssFrame(k=f.k, rss=f.rss[:, cols], channels=chan) for f in frames]


def _subset_fades(fades, channels):
    """Restrict a fade table to the given ascending channels."""
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
        raise ValueError(f"no frames in {args.trace}")
    fades = calibrate(frames, table)
    save_fade_table(fades, table, args.out)
    fit = fades.fit
    print(f"calibrated {fit.n_pairs} (link, channel) pairs over "
          f"{len(frames)} frames")
    print(f"path loss: eta={fit.eta:.4f} p0={fit.p0:.4f} dB at 1 m "
          f"(rmse={fit.rmse:.4f} dB)")
    print(f"fade table written to {args.out}")
    return 0


def _load_run_inputs(args):
    """(layout, fades from --fades or None, frames) for reconstruct and
    track, each cut to --channels when it is given."""
    layout = load_layout(args.layout)
    table = enumerate_links(layout)
    frames = load_trace(args.trace, table)
    channels = _parse_channels(args.channels) if args.channels else None
    if channels:
        frames = _subset_frames(frames, channels)
    fades = load_fade_table(args.fades, table) if args.fades else None
    if channels and fades is not None:
        fades = _subset_fades(fades, channels)
    return layout, fades, frames


def _cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    layout, fades, frames = _load_run_inputs(args)
    pipeline, frames = calibrated_pipeline(args.variant, frames, layout,
                                           config, fades)
    grid = pipeline.grid
    os.makedirs(args.out_dir, exist_ok=True)
    for frame, image in zip(frames, pipeline.images(frames)):
        save_image(image, grid, os.path.join(args.out_dir, f"image_{frame.k:06d}.txt"))
    print(f"wrote {len(frames)} images ({grid.nx}x{grid.ny} voxels) to {args.out_dir}")
    return 0


def _cmd_track(args) -> int:
    config = replace(_load_config(args.config), kalman=not args.no_kalman)
    layout, fades, frames = _load_run_inputs(args)
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
    spec = load_scenario(args.scenario, layout)
    variants = tuple(v for v in args.variants.split(",") if v)
    if not variants:
        raise ValueError("--variants needs at least one variant")
    seeds = _parse_ints(args.seeds, "--seeds")
    rows = benchmark(spec, seeds, config=config, variants=variants)
    save_benchmark_csv(rows, args.out)
    for variant in variants:
        summaries = [r[2] for r in rows if r[0] == variant]
        means = [s["mean"] for s in summaries if s is not None]
        mean = f"{np.mean(means):.3f} m" if means else "n/a"
        left_out = len(summaries) - len(means)
        print(f"{variant}: mean error {mean} "
              f"over {len(seeds)} seeds x {len(spec.trajectory)} frames"
              + (f" ({left_out} of {len(summaries)} seeds left out: "
                 f"no detection)" if left_out else ""))
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
    p.add_argument("--scenario", required=True,
                   help="scenario description file, its seed included")
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-truth")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="compare variants on synthetic scenes")
    p.add_argument("--layout", required=True)
    p.add_argument("--scenario", required=True,
                   help="scenario description file; --seeds replaces its seed")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--variants", default="msrti,cdrti",
                   help="comma-separated variants to compare")
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
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
