"""bench/record.py, the recorder of the benchmark's end-to-end metrics."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _record_module():
    spec = importlib.util.spec_from_file_location(
        "record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_keeps_each_metric_of_a_workload_run():
    """One `files` run at --seconds 0 on one seed: every end-to-end metric
    of BENCHMARK.json, its one run and its median and quartiles, and the
    host and revision keys."""
    result = _record_module().record([1], ["files"])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"revision", "tracked_files_modified", "cpu_count",
                           "numpy", "scipy", "seconds", "seeds", "workloads"}
    assert (result["seconds"], result["seeds"]) == (0, [1])
    assert list(result["workloads"]) == ["files"]
    metrics = result["workloads"]["files"]
    assert list(metrics) == [m["name"] for m in benchmark["end_to_end"]]
    for spec in benchmark["end_to_end"]:
        metric = metrics[spec["name"]]
        assert set(metric) == {"unit", "runs", "median", "q1", "q3"}
        assert metric["unit"] == spec["unit"]
        [run] = metric["runs"]
        assert metric["q1"] == metric["median"] == metric["q3"] == run


@pytest.mark.parametrize("last_line", [
    '{"correct": false, "attempted": 150, "failed": 0, "metrics": {}}',
    '{"correct": true, "attempted": 150, "failed": 2, "metrics": {}}',
])
def test_record_stops_at_a_run_that_is_not_correct_or_failed(monkeypatch,
                                                             last_line):
    record = _record_module()
    monkeypatch.setattr(record.subprocess, "run", lambda *a, **kw:
                        subprocess.CompletedProcess(a, 0, f"log\n{last_line}\n"))
    with pytest.raises(RuntimeError, match=r"^files seed 4: correct "):
        record.record([4], ["files"])
