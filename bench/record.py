"""Record the benchmark's end-to-end metrics over a fixed set of seeds.

Run from anywhere, with the interpreter whose numpy and scipy are to be
recorded:

    python3 bench/record.py --tag 38 --seeds 1,2,3

For each workload that BENCHMARK.json declares and each seed, this runs
`perfbench/run.py --workload W --seed S --seconds 0` in a subprocess and
reads the JSON object on the last line of its output; a run that exits
nonzero, is not correct or failed a frame stops the recording, and nothing
is written. At --seconds 0 a run does exactly the workload's minimum number
of rounds, so mean_error_m and peak_rss_mb do not depend on the host's
speed; the timings do. So the recording also holds a fixed host probe: the
median of PROBE_REPEATS timings each of one 1024² dgemm and of one dsymv
over a 3025² lower triangle (the `stream` grid's M), run in a subprocess
with the workloads' environment (one BLAS thread). A timing compared across
recordings can then be quoted both raw and divided by the probe's ratio.
The result is BENCH_<tag>.json at the repository root: for each workload
and end-to-end metric, the runs in seed order, their median and their
quartiles, with the probe, the git revision, os.cpu_count() and the numpy
and scipy versions.

Errors (a malformed or repeated seed, a failed run) print one `error:` line
on standard error and write no file: exit 2 for bad arguments, 1 for a
failed run.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PROBE_REPEATS = 21
PROBE = f"""
import json, time
import numpy as np
from scipy.linalg import blas

rng = np.random.default_rng(0)
a, b = (np.asfortranarray(rng.standard_normal((1024, 1024)))
        for _ in range(2))
m = np.asfortranarray(np.tril(rng.standard_normal((3025, 3025))))
x = rng.standard_normal(3025)

def median(call):
    call()
    times = []
    for _ in range({PROBE_REPEATS}):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times))

print(json.dumps({{
    "dgemm_1024_s": median(lambda: blas.dgemm(1.0, a, b)),
    "dsymv_3025_s": median(lambda: blas.dsymv(1.0, m, x, lower=1)),
}}))
"""


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _run_env() -> dict:
    """The environment perfbench/run.py fixes for its workloads (one BLAS
    thread, a fixed mmap threshold), read from run.py itself."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return dict(os.environ, **run.RUN_ENV)


def run_once(workload: str, seed: int) -> dict:
    """The JSON result of one `--seconds 0` run of a workload; RuntimeError
    for a run that exits nonzero, is not correct or failed a frame."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: perfbench/run.py exited "
                           f"{done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise RuntimeError(f"{workload} seed {seed}: correct "
                           f"{result['correct']}, failed {result['failed']}")
    return result


def probe() -> dict:
    """Median seconds of one 1024² dgemm and of one dsymv over a 3025²
    lower triangle, timed in a subprocess with the workloads' environment."""
    done = subprocess.run([sys.executable, "-c", PROBE], env=_run_env(),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"host probe exited {done.returncode}")
    return {**json.loads(done.stdout.splitlines()[-1]),
            "repeats": PROBE_REPEATS}


def record(seeds, workloads=None) -> dict:
    """The recording of the given workloads (by default every one that
    BENCHMARK.json declares) over the given seeds."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workloads is None:
        workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    recorded = {}
    for workload in workloads:
        runs = {name: [] for name in metrics}
        for seed in seeds:
            result = run_once(workload, seed)["metrics"]
            for name in metrics:
                runs[name].append(result[name]["value"])
        recorded[workload] = {}
        for name, unit in metrics.items():
            q1, median, q3 = np.percentile(runs[name], [25, 50, 75])
            recorded[workload][name] = {
                "unit": unit, "runs": runs[name], "median": float(median),
                "q1": float(q1), "q3": float(q3)}
    return {
        "revision": _git("rev-parse", "HEAD"),
        "tracked_files_modified": bool(_git("status", "--porcelain",
                                            "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "probe": probe(),
        "seconds": 0,
        "seeds": list(seeds),
        "workloads": recorded,
    }


def parse_seeds(text: str) -> list:
    """Distinct integer seeds from a comma-separated list; ValueError naming
    the value otherwise."""
    seeds = []
    for field in text.split(","):
        try:
            seed = int(field)
        except ValueError:
            raise ValueError(f"--seeds {text!r}: {field!r} is not an "
                             f"integer") from None
        if seed in seeds:
            raise ValueError(f"--seeds {text!r}: seed {seed} appears more "
                             f"than once")
        seeds.append(seed)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated distinct integer seeds, "
                             "e.g. 1,2,3")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = record(seeds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
