"""Run one benchmark workload once and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

With --trace 0 the workload runs untraced and the last line of standard
output is a JSON object with the end-to-end metrics. With --trace 1 the
odd rounds run traced and the even ones untraced; the JSON then holds the
per-layer metrics of the traced rounds and the tracing overhead measured
between the two kinds of round, and the spans are written to
perfbench/out/spans-<workload>-<seed>.json.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("recalibrate", "stream", "files")
END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "mean_error_m": "m",
    "peak_rss_mb": "MB",
}
# Fixed before the interpreter and numpy start, so run.py re-executes
# itself once with them. One BLAS thread: on a shared 2-core machine a
# second OpenBLAS thread made the small per-frame Π·y alternate between
# about 2 and 6 ms, so p90 measured the scheduler. A fixed mmap threshold:
# with glibc's sliding one, what earlier rounds left in the heap moved
# peak RSS between 400 and 443 MB for the same work.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "65536",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rtikit" / "__init__.py").is_file():
        print(f"error: rtikit sources not found in {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        os.environ.update(RUN_ENV)
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if not args.trace:
        result = workload(args.seed, args.seconds, spans.NullTracer())
        metrics = {name: (result.metrics[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        tracer = spans.Tracer()
        result = workload(args.seed, args.seconds, tracer)
        layers = spans.layer_metrics(tracer, result.round_seconds)
        metrics = {name: (layers[name], unit)
                   for name, unit in spans.PER_LAYER_UNITS.items()}
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(out)
        print(f"{len(tracer.spans)} spans of rounds {tracer.traced_rounds} "
              f"written to {out}")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result.round_seconds)} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for name, value in result.reference.items():
        print(f"  (reference) {name}: {value:.6g}")
    print(f"  attempted: {result.attempted} failed: {result.failed}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
