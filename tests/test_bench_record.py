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
    """One `files` run at --seconds 0 on one seed: the host and revision
    keys, and for the workload the host probe's two median timings and
    every end-to-end metric of BENCHMARK.json, its one run and its median
    and quartiles."""
    result = _record_module().record([1], ["files"])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"revision", "tracked_files_modified", "cpu_count",
                           "numpy", "scipy", "seconds", "seeds", "workloads"}
    assert (result["seconds"], result["seeds"]) == (0, [1])
    assert list(result["workloads"]) == ["files"]
    assert list(result["workloads"]["files"]) == ["probe", "metrics"]
    probe = result["workloads"]["files"]["probe"]
    assert set(probe) == {"dgemm_1024_s", "dsymv_3025_s", "repeats"}
    assert probe["repeats"] == 21
    assert 0 < probe["dsymv_3025_s"] and 0 < probe["dgemm_1024_s"]
    metrics = result["workloads"]["files"]["metrics"]
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
    monkeypatch.setattr(record, "probe", lambda: {})
    monkeypatch.setattr(record.subprocess, "run", lambda *a, **kw:
                        subprocess.CompletedProcess(a, 0, f"log\n{last_line}\n"))
    with pytest.raises(RuntimeError, match=r"^files seed 4: correct "):
        record.record([4], ["files"])


@pytest.mark.parametrize("seeds, message", [
    ("1,,2", "error: --seeds '1,,2': '' is not an integer"),
    ("1,x", "error: --seeds '1,x': 'x' is not an integer"),
    ("1,1", "error: --seeds '1,1': seed 1 appears more than once"),
])
def test_main_rejects_a_malformed_or_repeated_seed(monkeypatch, capsys,
                                                   seeds, message):
    """A malformed or repeated seed is one error line and exit 2, before
    any run, and no file is written."""
    record = _record_module()
    monkeypatch.setattr(record, "record", lambda *a, **kw: pytest.fail(
        "recorded with bad seeds"))
    assert record.main(["--tag", "never", "--seeds", seeds]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [message])
    assert not (ROOT / "BENCH_never.json").exists()


def test_main_reports_a_failed_run(monkeypatch, capsys):
    """A run.py that exits nonzero is one error line naming the workload,
    the seed and the exit code, exit 1, and no file is written."""
    record = _record_module()
    monkeypatch.setattr(record, "probe", lambda: {})
    monkeypatch.setattr(record.subprocess, "run", lambda *a, **kw:
                        subprocess.CompletedProcess(a, 3, "", "Traceback\n"))
    assert record.main(["--tag", "never", "--seeds", "4"]) == 1
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == (
        "", ["error: recalibrate seed 4: perfbench/run.py exited 3"])
    assert not (ROOT / "BENCH_never.json").exists()
