"""Record the benchmark's end-to-end metrics over a fixed set of seeds.

Run from anywhere, with the interpreter whose numpy and scipy are to be
recorded:

    python3 bench/record.py --tag 37 --seeds 1,2,3

For each workload that BENCHMARK.json declares and each seed, this runs
`perfbench/run.py --workload W --seed S --seconds 0` in a subprocess and
reads the JSON object on the last line of its output; a run that is not
correct or that failed a frame stops the recording, and nothing is
written. At --seconds 0 a run does exactly the workload's minimum number
of rounds, so mean_error_m and peak_rss_mb do not depend on the host's
speed; the timings do. The result is BENCH_<tag>.json at the repository
root: for each workload and end-to-end metric, the runs in seed order,
their median and their quartiles, with the git revision, os.cpu_count()
and the numpy and scipy versions.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(workload: str, seed: int) -> dict:
    """The JSON result of one `--seconds 0` run of a workload; RuntimeError
    for a run that is not correct or that failed a frame."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0"]
    out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise RuntimeError(f"{workload} seed {seed}: correct "
                           f"{result['correct']}, failed {result['failed']}")
    return result


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
        "seconds": 0,
        "seeds": list(seeds),
        "workloads": recorded,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated integer seeds, e.g. 1,2,3")
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
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
