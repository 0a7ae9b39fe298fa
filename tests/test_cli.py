import re
import shlex
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from rtikit.calibration import RssFrame, calibrate
from rtikit.cli import main
from rtikit.geometry import VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, VariantPipeline, benchmark, run_pipeline
from rtikit.ingest import (
    load_fade_table,
    load_layout,
    load_image,
    load_scenario,
    load_track_csv,
    load_trace,
    save_benchmark_csv,
    save_layout,
    save_trace,
)
from rtikit.simulator import (ScenarioSpec, generate_trace, perimeter_layout,
                              stationary_trajectory)


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


def test_rti_images_the_first_channel_that_channels_names(workspace):
    tmp_path, layout, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    out = tmp_path / "track.csv"
    assert main(["track", "--layout", str(layout_path), "--trace", str(trace_path),
                 "--config", str(config), "--channels", "16", "--variant", "rti",
                 "--out", str(out)]) == 0
    table = enumerate_links(layout)
    frames = load_trace(trace_path, table)
    fades = calibrate(frames[:30], table)
    cut = [RssFrame(k=f.k, rss=f.rss[:, [1]], channels=np.array([16]))
           for f in frames]
    fades = replace(fades, values=fades.values[:, [1]],
                    mean_rss=fades.mean_rss[:, [1]], channels=np.array([16]))
    want = run_pipeline("rti", cut[30:], layout,
                        PipelineConfig(calibration_frames=30, kalman=True),
                        fades=fades).rows
    np.testing.assert_array_equal(load_track_csv(out), want)


@pytest.mark.parametrize("command, out", [("track", "--out"),
                                          ("reconstruct", "--out-dir")])
def test_trace_no_longer_than_the_prefix_exits_2(workspace, capsys, command, out):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    config = tmp_path / "prefix.txt"
    config.write_text("calibration_frames 38\n")
    assert main([command, "--layout", str(layout_path), "--trace", str(trace_path),
                 "--config", str(config), out, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: trace has 38 frames; needs more than the 38-frame "
        "calibration prefix\n")


def test_sigma_x_is_no_config_key(tmp_path, capsys):
    config = tmp_path / "c.txt"
    config.write_text("sigma_x 0.05\n")
    assert main(["crosscheck", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: unknown config key 'sigma_x'\n")


def test_removed_rti_channel_key_and_seed_flag_are_errors(workspace, capsys):
    tmp_path, _, layout_path, scenario, _ = workspace
    trace_path, _ = _simulate(workspace)
    config = tmp_path / "rti.txt"
    config.write_text("calibration_frames 30\nrti_channel 16\n")
    assert main(["track", "--layout", str(layout_path), "--trace", str(trace_path),
                 "--config", str(config), "--variant", "rti",
                 "--out", str(tmp_path / "track.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: unknown config key 'rti_channel'\n")
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--layout", str(layout_path), "--scenario", str(scenario),
              "--seed", "9", "--out-trace", str(tmp_path / "trace.txt")])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_fades_of_other_channels_than_the_trace_is_an_error(workspace, capsys,
                                                           monkeypatch):
    """Rejected before msrti's weights are built."""
    tmp_path, _, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    fades_path = tmp_path / "fades.txt"
    assert main(["calibrate", "--layout", str(layout_path),
                 "--trace", str(trace_path), "--channels", "11,16",
                 "--out", str(fades_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("rtikit.harness.build_multiscale_weights",
                        lambda *a, **kw: pytest.fail("weights were built"))
    rc = main(["track", "--layout", str(layout_path), "--trace", str(trace_path),
               "--fades", str(fades_path), "--config", str(config),
               "--out", str(tmp_path / "track.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: frame k=0 has channels [11, 16, 21, 26] over 45 links, not the "
        "channels [11, 16] over 45 links of the fade table\n")


@pytest.mark.parametrize("command", ["track", "reconstruct"])
def test_repeated_k_among_frames_to_image_is_an_error(workspace, capsys,
                                                      monkeypatch, command):
    """A trace file cannot repeat a k, as load_trace groups its records by
    k, so the frames it gives are edited to: the repeat is rejected before
    msrti's weights are built, and nothing is written."""
    tmp_path, _, layout_path, _, config = workspace
    trace_path, _ = _simulate(workspace)
    frames = load_trace(trace_path, enumerate_links(load_layout(layout_path)))
    frames[32] = replace(frames[32], k=frames[31].k)
    monkeypatch.setattr("rtikit.cli.load_trace", lambda path, table: frames)
    monkeypatch.setattr("rtikit.harness.build_multiscale_weights",
                        lambda *a, **kw: pytest.fail("weights were built"))
    out = tmp_path / "out"
    rc = main([command, "--layout", str(layout_path), "--trace", str(trace_path),
               "--config", str(config), "--variant", "msrti",
               "--out" if command == "track" else "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: frame k=31 follows k=31; k must strictly ascend\n")
    assert not out.exists()


def test_negative_seed_names_the_file(workspace, capsys):
    tmp_path, _, layout_path, scenario, _ = workspace
    argv = ["simulate", "--layout", str(layout_path), "--scenario", str(scenario),
            "--out-trace", str(tmp_path / "trace.txt")]
    scenario.write_text(scenario.read_text().replace("seed 5", "seed -1"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: seed must be an integer >= 0, got -1\n")


@pytest.mark.parametrize("key", ["fade_sigma", "noise_sigma"])
def test_nan_sigma_in_scenario_is_rejected(workspace, capsys, key):
    """A NaN sigma once wrote a trace of NA records (fade_sigma) or one
    with no noise (noise_sigma), and exited 0."""
    tmp_path, _, layout_path, scenario, _ = workspace
    scenario.write_text(scenario.read_text() + f"{key} nan\n")
    out = tmp_path / "trace.txt"
    assert main(["simulate", "--layout", str(layout_path), "--scenario", str(scenario),
                 "--out-trace", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: {key} must be finite and >= 0, got nan\n")
    assert not out.exists()


def test_benchmark_csv(workspace):
    # The CSV holds exactly harness.benchmark's rows on the scenario file's
    # spec, with config's models and each of --seeds for the file's seed 5.
    tmp_path, layout, layout_path, _, _ = workspace
    scenario = tmp_path / "lattice.txt"
    scenario.write_text("calibration_frames 30\nseed 5\n"
                        "stationary 1.5 2.0 30 3\nstationary 2.5 2.5 33 3\n")
    config = tmp_path / "config.txt"
    config.write_text("voxel_width 0.25\n")
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", "--layout", str(layout_path),
               "--scenario", str(scenario), "--config", str(config),
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    rows = benchmark(load_scenario(scenario, layout), (1, 2),
                     config=PipelineConfig(voxel_width=0.25))
    assert [(r[0], r[1]) for r in rows] == [
        ("msrti", 1), ("cdrti", 1), ("msrti", 2), ("cdrti", 2)]
    expected = tmp_path / "expected.csv"
    save_benchmark_csv(rows, expected)
    assert out.read_text() == expected.read_text()


def test_benchmark_takes_the_scenario_spec(workspace, monkeypatch):
    # The scenario's channels and trajectory reach harness.benchmark as
    # load_scenario reads them; harness.benchmark replaces its seed.
    tmp_path, layout, layout_path, scenario, _ = workspace
    calls = []
    monkeypatch.setattr("rtikit.cli.benchmark",
                        lambda spec, seeds, **kw: calls.append((spec, seeds)) or [])
    for channels in ("11 16 21 26", "11 26"):
        scenario.write_text(f"channels {channels}\ncalibration_frames 30\n"
                            "stationary 2.0 2.0 30 8\n")
        assert main(["benchmark", "--layout", str(layout_path),
                     "--scenario", str(scenario), "--seeds", "3,4",
                     "--out", str(tmp_path / "bench.csv")]) == 0
        spec, seeds = calls.pop()
        assert spec.channels == tuple(map(int, channels.split()))
        assert seeds == (3, 4)
        np.testing.assert_array_equal(
            spec.trajectory, load_scenario(scenario, layout).trajectory)


def test_benchmark_rows_without_detection(workspace, monkeypatch, capsys):
    # A run with no detected frame has summary None: its CSV row carries
    # nan errors and the printed mean leaves it out, saying so.
    tmp_path, _, layout_path, scenario, config = workspace

    def summary(mean):
        return {"mean": mean, "median": mean, "p95": mean, "max": mean,
                "cdf": []}

    rows = [("msrti", 1, summary(0.2)), ("cdrti", 1, None),
            ("msrti", 2, summary(0.4)), ("cdrti", 2, None)]
    monkeypatch.setattr("rtikit.cli.benchmark", lambda *a, **kw: rows)
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", "--layout", str(layout_path),
               "--scenario", str(scenario), "--config", str(config),
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[2] == "cdrti,1,nan,nan,nan,nan"
    assert lines[3].startswith("msrti,2,0.4,")
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


def test_channel_subset_must_exist(workspace, capsys):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    rc = main(["calibrate", "--layout", str(layout_path),
               "--trace", str(trace_path), "--channels", "12",
               "--out", str(tmp_path / "fades.txt")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: trace lacks channels [12]; it has [11, 16, 21, 26]\n")


def test_bad_config_key_reported(workspace, capsys):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    bad = tmp_path / "bad.txt"
    bad.write_text("sigma_q 1.0\n")
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(bad),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: unknown config key 'sigma_q'\n")


@pytest.mark.parametrize("line", [
    "dt 0", "kalman_q -1", "kalman_r_scale nan", "voxel_width nan",
    "kalman true", "b_lambda_minus nan", "b_lambda_plus nan", "lambda_max nan",
    "sigma_n nan", "delta_c nan", "beta_minus nan",
    "k_beta_plus nan", "b_beta_plus nan", "k_lambda_minus nan",
    "k_lambda_plus nan", "b_lambda_minus inf", "b_lambda_plus inf",
    "lambda_max inf", "k_lambda_minus -inf", "k_lambda_plus inf",
    "sigma_n inf", "delta_c inf", "beta_minus inf",
    "k_beta_plus inf", "b_beta_plus inf",
])
def test_bad_config_value_reported(workspace, capsys, line):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    bad = tmp_path / "bad.txt"
    bad.write_text(f"calibration_frames 30\n{line}\n")
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--config", str(bad),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    key, value = line.split()
    reason = (f"unknown config key {key!r}" if key == "kalman"
              else f"{key} must be .*, got {float(value)!r}")
    assert re.fullmatch(f"error: {re.escape(str(bad))}: {reason}\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("line, message", [
    ("voxel_width abc", "config key 'voxel_width': 'abc' is not a number"),
    ("hold_frames 1.5", "config key 'hold_frames': '1.5' is not an integer"),
    ("k_lambda_minus 1", "k_lambda_minus must be finite and < 0, got 1.0"),
    ("b_lambda_plus 0", "b_lambda_plus must be finite and > 0, got 0.0"),
    ("hold_frames -1", "hold_frames must be an integer >= 0, got -1"),
])
def test_bad_config_value_names_file_and_key(tmp_path, capsys, line, message):
    bad = tmp_path / "c.txt"
    bad.write_text(f"sigma_n 1.4\n{line}\n")
    assert main(["crosscheck", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["benchmark", "--seeds", "x"],
     "bad --seeds value 'x': expected e.g. 1,2,3"),
    (["benchmark", "--seeds", ","], "--seeds needs at least one seed"),
    (["benchmark", "--seeds=1,-2"], "--seeds must be >= 0, got -2"),
    (["calibrate", "--trace", "{trace}", "--channels", "11,a"],
     "bad --channels value '11,a': expected e.g. 11,16,21,26"),
    (["track", "--trace", "{trace}", "--channels", "5"],
     "--channels must be strictly ascending channels in [11, 26], got 5"),
    (["calibrate", "--trace", "{trace}", "--channels", "11,27"],
     "--channels must be strictly ascending channels in [11, 26], got 11,27"),
    (["calibrate", "--trace", "{trace}", "--channels", "16,11"],
     "--channels must be strictly ascending channels in [11, 26], got 16,11"),
    (["track", "--trace", "{trace}", "--channels", "11,11"],
     "--channels must be strictly ascending channels in [11, 26], got 11,11"),
    (["benchmark", "--variants", "msrti,nope"],
     "unknown variant 'nope'; pick from ('rti', 'cdrti', 'flrti', 'msrti')"),
    (["benchmark", "--variants", ","], "--variants needs at least one variant"),
    (["benchmark", "--seeds", "1,1", "--variants", "msrti,msrti"],
     "benchmark is given variant msrti more than once"),
    (["benchmark", "--seeds", "2,1,2"], "benchmark is given seed 2 more than once"),
    (["calibrate", "--trace", "{empty}"], "no frames in {empty}"),
    (["track", "--trace", "{trace}"],
     "trace has 38 frames; needs more than the 100-frame calibration prefix"),
], ids=["seeds", "no seeds", "negative seed", "channels", "channel below",
        "channel above", "descending channels", "repeated channel", "variant",
        "no variants", "repeated variant", "repeated seed", "no frames",
        "few frames"])
def test_input_errors_exit_2(workspace, capsys, argv, message):
    tmp_path, _, layout_path, scenario, _ = workspace
    trace_path, _ = _simulate(workspace)
    (tmp_path / "empty.txt").write_text("# no records\n")
    paths = {"empty": tmp_path / "empty.txt", "trace": trace_path}
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] == "benchmark":
        argv += ["--scenario", str(scenario)]
    rc = main([*argv, "--layout", str(layout_path),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("99999999999999999999 1 2 15 -60.0",
     "time index 99999999999999999999 outside the 64-bit range"),
    ("0 1 2 27 -60.0", r"channel 27 outside \[11, 26\]"),
])
def test_trace_field_out_of_range_reported(workspace, capsys, line, message):
    tmp_path, _, layout_path, _, _ = workspace
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text(f"0 1 3 15 -61.0\n{line}\n")
    rc = main(["calibrate", "--layout", str(layout_path),
               "--trace", str(trace_path), "--out", str(tmp_path / "f.txt")])
    assert rc == 2
    assert re.search(rf"^error: .*trace.txt:2: {message}$",
                     capsys.readouterr().err, re.M)


def test_layout_node_id_out_of_range_reported(workspace, capsys):
    tmp_path, _, _, _, _ = workspace
    trace_path, _ = _simulate(workspace)
    layout_path = tmp_path / "big_ids.txt"
    layout_path.write_text("99999999999999999999 0 0\n2 4 0\n3 4 4\n")
    rc = main(["calibrate", "--layout", str(layout_path),
               "--trace", str(trace_path), "--out", str(tmp_path / "f.txt")])
    assert rc == 2
    assert re.search(r"^error: .*big_ids.txt:1: id '99999999999999999999' "
                     r"is outside the 64-bit range$", capsys.readouterr().err, re.M)


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


def test_bad_scenario_fade_offset_reported(workspace, capsys):
    tmp_path, _, layout_path, scenario, _ = workspace
    scenario.write_text(scenario.read_text() + "fade_offset 1 2 13 1.0\n")
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario),
               "--out-trace", str(tmp_path / "trace.txt")])
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(scenario))}:5: channel 13 .*\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_scenario_fade_offset_is_an_error(workspace, capsys, bad):
    # A NaN offset made the pair's baseline NaN, and the trace wrote it as
    # NA in every frame.
    tmp_path, _, layout_path, scenario, _ = workspace
    scenario.write_text(scenario.read_text() + f"fade_offset 1 2 11 {bad}\n")
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario),
               "--out-trace", str(tmp_path / "trace.txt")])
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(scenario))}:5: .*not finite\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_scenario_position_is_an_error(workspace, capsys, bad):
    # A NaN waypoint would simulate a frame with nobody in it and write a
    # truth row of NaN for it.
    tmp_path, _, layout_path, scenario, _ = workspace
    scenario.write_text("calibration_frames 30\n"
                        f"waypoint 30 1.0 1.0\nwaypoint 31 {bad} 2.0\n")
    rc = main(["simulate", "--layout", str(layout_path),
               "--scenario", str(scenario),
               "--out-trace", str(tmp_path / "trace.txt"),
               "--out-truth", str(tmp_path / "truth.txt")])
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(scenario))}:3: .*not finite\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_truth_position_is_an_error(workspace, capsys, bad):
    # A NaN truth row would make the mean error NaN.
    tmp_path, _, layout_path, _, config = workspace
    trace_path, truth_path = _simulate(workspace)
    truth_path.write_text(f"30 2.0 2.0\n31 2.0 {bad}\n")
    rc = main(["track", "--layout", str(layout_path),
               "--trace", str(trace_path), "--truth", str(truth_path),
               "--config", str(config), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(truth_path))}:2: .*not finite\n",
                        capsys.readouterr().err)


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


def test_reference_distance_is_gone(workspace, capsys):
    # The path-loss fit is at 1 m: a file from when d0 was a key is rejected
    # at its d0 line, and so is the calibrate flag.
    tmp_path, _, layout_path, scenario, config = workspace
    trace_path, _ = _simulate(workspace)
    fades = tmp_path / "fades.txt"
    assert main(["calibrate", "--layout", str(layout_path),
                 "--trace", str(trace_path), "--out", str(fades)]) == 0
    lines = fades.read_text().splitlines(keepends=True)  # comment, p0, eta, ...
    fades.write_text("".join(lines[:3] + ["d0 1.0\n"] + lines[3:]))
    scenario.write_text(scenario.read_text() + "d0 2.0\n")
    assert main(["track", "--layout", str(layout_path),
                 "--trace", str(trace_path), "--fades", str(fades),
                 "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"error: {fades}:4: unknown key 'd0'\n"
    assert main(["simulate", "--layout", str(layout_path),
                 "--scenario", str(scenario),
                 "--out-trace", str(tmp_path / "t.txt")]) == 2
    assert capsys.readouterr().err == f"error: {scenario}:5: unknown key 'd0'\n"
    with pytest.raises(SystemExit) as info:
        main(["calibrate", "--layout", str(layout_path), "--trace",
              str(trace_path), "--d0", "1", "--out", str(fades)])
    assert info.value.code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_walkthrough() -> list:
    """argv of each `rtikit` command in the README's command-line walkthrough."""
    section = README.read_text().split("## Command-line walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rtikit ")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    # A flag the README still shows after the CLI dropped it fails here.
    layout = perimeter_layout(8, 2.0, 2.0)
    save_layout(layout, tmp_path / "layout.txt")
    (tmp_path / "scenario.txt").write_text("stationary 1.0 1.0 100 5\n")
    empty = generate_trace(ScenarioSpec(layout=layout, calibration_frames=20))
    save_trace(empty.frames, empty.table, tmp_path / "empty.txt")
    monkeypatch.chdir(tmp_path)
    commands = _readme_walkthrough()
    assert {argv[0] for argv in commands} == {
        "simulate", "calibrate", "track", "reconstruct", "benchmark", "crosscheck"}
    for argv in commands:
        assert main(argv) == 0, argv


def test_readme_lattice_is_criterion_5s_scene(tmp_path):
    # The README's example lattice file loads as the scene acceptance
    # criterion 5 builds in code.
    section = README.read_text().split("## Scenario files", 1)[1]
    block = next(b for b in section.split("```\n")[1::2]
                 if "stationary 1.4 1.4 " in b)
    path = tmp_path / "lattice.txt"
    path.write_text(block)
    spec = load_scenario(path, perimeter_layout(30, 7.0, 7.0))
    side = np.linspace(0.2 * 7.0, 0.8 * 7.0, 5)
    expected = stationary_trajectory([(x, y) for y in side for x in side], 100, 10)
    assert spec.calibration_frames == 100
    np.testing.assert_allclose(spec.trajectory, expected, rtol=0, atol=1e-12)


def test_readme_config_keys_are_the_keys_from_dict_accepts():
    # A key the README still lists after PipelineConfig dropped it, or one
    # that it leaves out, fails here.
    section = README.read_text().split("of its three parameter sets:\n", 1)[1]
    listed = set(re.findall(r"`(\w+)`(?!:)", section.split("\n\n", 1)[0]))

    def accepted(key):
        with pytest.raises(ValueError) as info:  # "x" is no key's value
            PipelineConfig.from_dict({key: [["x"]]})
        return not str(info.value).startswith("unknown config key")

    sets = [f.type for f in fields(PipelineConfig) if is_dataclass(f.type)]
    names = {f.name for cls in (PipelineConfig, *sets) for f in fields(cls)}
    assert {key for key in names | listed if accepted(key)} == listed
