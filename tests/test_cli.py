from dataclasses import replace

import numpy as np
import pytest

from rtikit.calibration import RssFrame
from rtikit.cli import main
from rtikit.geometry import VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, VariantPipeline
from rtikit.ingest import (
    load_fade_table,
    load_image,
    load_track_csv,
    load_trace,
    save_layout,
)
from rtikit.simulator import perimeter_layout


@pytest.fixture
def workspace(tmp_path):
    layout = perimeter_layout(10, 4.0, 4.0)
    layout_path = tmp_path / "layout.txt"
    save_layout(layout, layout_path)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "channels 11 16 21 26\n"
        "calibration_frames 30\n"
        "seed 5\n"
        "stationary 2.0 2.0 30 8\n"
    )
    config = tmp_path / "config.txt"
    config.write_text("calibration_frames 30\n")
    return tmp_path, layout, layout_path, scenario, config


def _simulate(ws, extra=()):
    tmp_path, _, layout_path, scenario, _ = ws
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario),
               "--out-trace", str(tmp_path / "trace.txt"),
               "--out-truth", str(tmp_path / "truth.txt"), *extra])
    assert rc == 0
    return tmp_path / "trace.txt", tmp_path / "truth.txt"


def test_simulate_calibrate_track_round_trip(workspace):
    tmp_path, layout, layout_path, _, config = workspace
    trace_path, truth_path = _simulate(workspace)

    rc = main(["calibrate", "--layout", str(layout_path),
               "--trace", str(trace_path),
               "--out", str(tmp_path / "fades.txt")])
    assert rc == 0
    fades = load_fade_table(tmp_path / "fades.txt", enumerate_links(layout))
    assert fades.channels.tolist() == [11, 16, 21, 26]

    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--truth", str(truth_path),
               "--config", str(config), "--variant", "msrti",
               "--out", str(tmp_path / "track.csv")])
    assert rc == 0
    rows = load_track_csv(tmp_path / "track.csv")
    assert len(rows) == 8
    assert all(len(r) == 6 and np.isfinite(r[5]) for r in rows)


def test_track_without_truth_writes_three_columns(workspace):
    tmp_path, _, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(config),
               "--no-kalman", "--out", str(tmp_path / "track.csv")])
    assert rc == 0
    rows = load_track_csv(tmp_path / "track.csv")
    assert all(len(r) == 3 for r in rows)


def test_reconstruct_writes_loadable_images(workspace):
    tmp_path, _, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    out_dir = tmp_path / "imgs"
    rc = main(["reconstruct", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(config),
               "--variant", "cdrti", "--out-dir", str(out_dir)])
    assert rc == 0
    images = sorted(out_dir.iterdir())
    assert len(images) == 8
    image, grid = load_image(images[0])
    assert image.shape == (grid.n_voxels,)


def test_reconstruct_with_fades_images_every_frame(workspace):
    tmp_path, layout, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    fades_path = tmp_path / "fades.txt"
    assert main(["calibrate", "--layout", str(layout_path),
                 "--trace", str(trace_path), "--out", str(fades_path)]) == 0
    out_dir = tmp_path / "imgs"
    rc = main(["reconstruct", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(config),
               "--fades", str(fades_path), "--channels", "11,21",
               "--variant", "flrti", "--out-dir", str(out_dir)])
    assert rc == 0
    table = enumerate_links(layout)
    cols, channels = [0, 2], np.array([11, 21])
    frames = [RssFrame(k=f.k, rss=f.rss[:, cols], channels=channels)
              for f in load_trace(trace_path, table)]
    fades = load_fade_table(fades_path, table)
    fades = replace(fades, values=fades.values[:, cols],
                    mean_rss=fades.mean_rss[:, cols], channels=channels)
    assert len(list(out_dir.iterdir())) == len(frames) == 38
    grid = VoxelGrid.from_layout(layout, PipelineConfig().voxel_width)
    pipeline = VariantPipeline("flrti", fades, layout, grid,
                               PipelineConfig(calibration_frames=30))
    for frame, expected in zip(frames, pipeline.images(frames)):
        image, image_grid = load_image(out_dir / f"image_{frame.k:06d}.txt")
        assert (image_grid.nx, image_grid.ny) == (grid.nx, grid.ny)
        np.testing.assert_array_equal(image, expected)


def test_rti_channel_outside_calibrated_set_is_an_error(workspace, capsys):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    config = tmp_path / "rti.txt"
    config.write_text("calibration_frames 30\nrti_channel 12\n")
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(config),
               "--channels", "11,16", "--variant", "rti",
               "--out", str(tmp_path / "track.csv")])
    assert rc == 2
    assert "error: rti_channel 12" in capsys.readouterr().err


def test_simulate_seed_override_changes_trace(workspace):
    tmp_path, layout, layout_path, scenario, _ = workspace
    a, _ = _simulate(workspace)
    table = enumerate_links(layout)
    frames_a = load_trace(a, table)
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario), "--seed", "99",
               "--out-trace", str(tmp_path / "trace_b.txt")])
    assert rc == 0
    frames_b = load_trace(tmp_path / "trace_b.txt", table)
    assert len(frames_a) == len(frames_b)
    assert not np.array_equal(frames_a[-1].rss, frames_b[-1].rss)


def test_benchmark_csv(workspace):
    tmp_path, _, layout_path, _, config = workspace
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", "--layout", str(layout_path),
               "--config", str(config), "--seeds", "1,2",
               "--positions", "2", "--frames-per-position", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variant,scenario,seed,mean_m,median_m,p95_m,max_m"
    assert len(lines) == 1 + 2 * 2  # two variants x two seeds
    assert lines[1].startswith("msrti,stationary-grid,1,")


def test_benchmark_rows_without_detection(workspace, monkeypatch, capsys):
    # A run with no detected frame has summary None: its CSV row carries
    # nan errors and the printed mean leaves it out, saying so.
    tmp_path, _, layout_path, _, config = workspace

    def summary(mean):
        return {"mean": mean, "median": mean, "p95": mean, "max": mean,
                "cdf": []}

    rows = [("msrti", "stationary-grid", 1, summary(0.2)),
            ("cdrti", "stationary-grid", 1, None),
            ("msrti", "stationary-grid", 2, summary(0.4)),
            ("cdrti", "stationary-grid", 2, None)]
    monkeypatch.setattr("rtikit.cli.benchmark", lambda *a, **kw: rows)
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", "--layout", str(layout_path),
               "--config", str(config), "--seeds", "1,2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[2] == "cdrti,stationary-grid,1,nan,nan,nan,nan"
    assert lines[3].startswith("msrti,stationary-grid,2,0.4,")
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("msrti: mean error 0.300 m over 2 seeds")
    assert "left out" not in printed[0]
    assert printed[1].startswith("cdrti: mean error n/a over 2 seeds")
    assert printed[1].endswith("(2 of 2 seeds left out: no detection)")


def test_crosscheck_exit_codes(tmp_path, capsys):
    assert main(["crosscheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    bad = tmp_path / "bad.txt"
    bad.write_text("b_lambda_minus 0.24\n")
    assert main(["crosscheck", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "crosscheck FAILED" in out


def test_channel_subset_must_exist(workspace):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    with pytest.raises(SystemExit):
        main(["calibrate", "--layout", str(layout_path),
              "--trace", str(trace_path), "--channels", "12",
              "--out", str(tmp_path / "fades.txt")])


def test_bad_config_key_reported(workspace):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    bad = tmp_path / "bad.txt"
    bad.write_text("sigma_q 1.0\n")
    with pytest.raises(SystemExit, match="config error"):
        main(["track", "--layout", str(layout_path),
              "--trace", str(trace_path), "--config", str(bad),
              "--out", str(tmp_path / "t.csv")])


@pytest.mark.parametrize("line", [
    "dt 0", "kalman_q -1", "kalman_r_scale nan", "voxel_width nan",
    "kalman true",
])
def test_bad_config_value_reported(workspace, line):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    bad = tmp_path / "bad.txt"
    bad.write_text(f"calibration_frames 30\n{line}\n")
    with pytest.raises(SystemExit, match="config error"):
        main(["track", "--layout", str(layout_path),
              "--trace", str(trace_path), "--config", str(bad),
              "--out", str(tmp_path / "t.csv")])


def test_empty_grid_is_an_error(workspace, capsys):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    bad = tmp_path / "bad.txt"
    bad.write_text("calibration_frames 30\ngrid_margin -5\n")
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(bad),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "empty box" in capsys.readouterr().err


def test_bad_scenario_quantize_reported(workspace, capsys):
    tmp_path, _, layout_path, scenario, _ = workspace
    scenario.write_text(scenario.read_text() + "quantize maybe\n")
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario),
               "--out-trace", str(tmp_path / "trace.txt"),
               "--out-truth", str(tmp_path / "truth.txt")])
    assert rc == 2
    assert "is not one of" in capsys.readouterr().err


def test_missing_file_is_an_error_not_a_crash(tmp_path, capsys):
    rc = main(["calibrate", "--layout", str(tmp_path / "nope.txt"),
               "--trace", str(tmp_path / "nope2.txt"),
               "--out", str(tmp_path / "f.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_calibrate_reports_fit(workspace, capsys):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    main(["calibrate", "--layout", str(layout_path),
          "--trace", str(trace_path), "--out", str(tmp_path / "fades.txt")])
    out = capsys.readouterr().out
    assert "eta=" in out and "p0=" in out
