"""File formats: parsing, validation errors, round trips."""

import numpy as np
import pytest

from rtikit import harness
from rtikit.calibration import calibrate
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.ingest import (
    load_fade_table,
    load_ground_truth,
    load_image,
    load_key_value,
    load_layout,
    load_scenario,
    load_trace,
    load_track_csv,
    save_benchmark_csv,
    save_fade_table,
    save_ground_truth,
    save_image,
    save_layout,
    save_scenario,
    save_trace,
    save_track_csv,
)
from rtikit.simulator import ScenarioSpec, generate_trace, perimeter_layout


@pytest.fixture
def layout():
    return perimeter_layout(6, 5.0, 4.0)


def test_layout_round_trip(tmp_path, layout):
    path = tmp_path / "layout.txt"
    save_layout(layout, path)
    loaded = load_layout(path)
    np.testing.assert_array_equal(loaded.ids, layout.ids)
    np.testing.assert_array_equal(loaded.xy, layout.xy)


def test_layout_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0.0 0.0\n2 1.0\n")
    with pytest.raises(ValueError, match=r"bad.txt:2"):
        load_layout(path)
    path.write_text("1 0.0 zero\n")
    with pytest.raises(ValueError, match=r"bad.txt:1"):
        load_layout(path)
    path.write_text("# comments only\n")
    with pytest.raises(ValueError):
        load_layout(path)  # too few nodes
    with pytest.raises(FileNotFoundError):
        load_layout(tmp_path / "missing.txt")


def test_trace_round_trip_with_na(tmp_path, layout):
    table = enumerate_links(layout)
    spec = ScenarioSpec(layout=layout, channels=(11, 17), calibration_frames=3,
                        seed=4)
    frames = list(generate_trace(spec).frames)
    # punch a hole to exercise NA round-tripping
    frames[1].rss[2, 0] = np.nan
    path = tmp_path / "trace.txt"
    save_trace(frames, table, path)
    loaded = load_trace(path, table)
    assert len(loaded) == len(frames)
    for a, b in zip(loaded, frames):
        assert a.k == b.k
        np.testing.assert_array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.rss, b.rss)


def test_trace_single_record_and_empty(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text("0 1 2 15 -61.0\n")
    frames = load_trace(path, table)
    assert len(frames) == 1
    assert frames[0].k == 0
    assert frames[0].value(table.link_index(1, 2), 15) == -61.0
    assert np.isnan(frames[0].rss).sum() == frames[0].rss.size - 1
    path.write_text("")
    assert load_trace(path, table) == []
    path.write_text("0 1 2 15 NA\n")
    frames = load_trace(path, table)
    assert np.isnan(frames[0].rss).all()


def test_trace_direction_folding(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text("0 2 1 15 -60.0\n")  # reversed direction
    frames = load_trace(path, table)
    assert frames[0].value(table.link_index(1, 2), 15) == -60.0


def test_trace_duplicate_last_wins_with_warning(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text("0 1 2 15 -60.0\n0 2 1 15 -55.0\n")
    with pytest.warns(UserWarning, match="duplicate"):
        frames = load_trace(path, table)
    assert frames[0].value(table.link_index(1, 2), 15) == -55.0


def test_trace_out_of_order_interleaved_k(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text(
        "9 1 2 11 -50.0\n"
        "2 1 3 17 -61.5\n"
        "9 3 1 17 NA\n"
        "5 2 1 11 -70.25\n"
        "2 2 1 11 -62.0\n"
        "9 1 3 11 -51.0\n"
        "5 1 2 17 -71.0\n"
    )
    frames = load_trace(path, table)
    assert [f.k for f in frames] == [2, 5, 9]
    l12, l13 = table.link_index(1, 2), table.link_index(1, 3)
    expected = {
        2: {(l13, 17): -61.5, (l12, 11): -62.0},
        5: {(l12, 11): -70.25, (l12, 17): -71.0},
        9: {(l12, 11): -50.0, (l13, 11): -51.0},
    }
    for frame in frames:
        np.testing.assert_array_equal(frame.channels, [11, 17])
        want = np.full((table.n_links, 2), np.nan)
        for (link, channel), value in expected[frame.k].items():
            want[link, [11, 17].index(channel)] = value
        np.testing.assert_array_equal(frame.rss, want)


def test_trace_errors(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text("0 1 99 15 -60.0\n")
    with pytest.raises(ValueError, match=r"trace.txt:1"):
        load_trace(path, table)
    path.write_text("0 1 2 15\n")
    with pytest.raises(ValueError, match="got 4 fields"):
        load_trace(path, table)
    path.write_text("zero 1 2 15 -60.0\n")
    with pytest.raises(ValueError, match=r"trace.txt:1"):
        load_trace(path, table)


def test_ground_truth_round_trip_and_errors(tmp_path):
    path = tmp_path / "truth.txt"
    truth = {0: (1.0, 2.0), 3: (1.5, 2.5), 7: (0.0, 0.0)}
    save_ground_truth(truth, path)
    assert load_ground_truth(path) == truth
    # array form
    save_ground_truth(np.array([[0, 1.0, 2.0], [1, 3.0, 4.0]]), path)
    assert load_ground_truth(path) == {0: (1.0, 2.0), 1: (3.0, 4.0)}
    path.write_text("5 1.0 2.0\n4 0.0 0.0\n")
    with pytest.raises(ValueError, match="not increasing"):
        load_ground_truth(path)
    path.write_text("5 1.0\n")
    with pytest.raises(ValueError, match=r"truth.txt:1"):
        load_ground_truth(path)


def test_fade_table_round_trip(tmp_path, layout):
    table = enumerate_links(layout)
    spec = ScenarioSpec(layout=layout, channels=(11, 19), calibration_frames=40,
                        seed=9)
    trace = generate_trace(spec)
    fades = calibrate(trace.frames, table)
    # knock out one pair to test NA persistence
    fades.values[3, 1] = np.nan
    fades.mean_rss[3, 1] = np.nan
    path = tmp_path / "fades.txt"
    save_fade_table(fades, table, path)
    loaded = load_fade_table(path, table)
    assert loaded.fit == fades.fit
    np.testing.assert_array_equal(loaded.channels, fades.channels)
    np.testing.assert_array_equal(loaded.values, fades.values)
    np.testing.assert_array_equal(loaded.mean_rss, fades.mean_rss)


def test_fade_table_missing_header(tmp_path, layout):
    table = enumerate_links(layout)
    path = tmp_path / "fades.txt"
    path.write_text("p0 40.0\neta 2.0\n")
    with pytest.raises(ValueError, match="missing header"):
        load_fade_table(path, table)


def test_image_round_trip(tmp_path):
    grid = VoxelGrid(origin=(-0.5, 1.25), p=0.25, nx=7, ny=3)
    rng = np.random.default_rng(0)
    img = rng.normal(size=grid.n_voxels)
    path = tmp_path / "image.txt"
    save_image(img, grid, path)
    values, loaded_grid = load_image(path)
    np.testing.assert_array_equal(values, img)
    assert loaded_grid == grid
    with pytest.raises(ValueError):
        save_image(img[:-1], grid, path)
    # value-count mismatch detected on load
    path.write_text("nx 2\nny 2\np 1.0\norigin 0.0 0.0\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="3 values"):
        load_image(path)


def test_track_csv_round_trip(tmp_path):
    path = tmp_path / "track.csv"
    rows = [(0, 1.0, 2.0, 1.1, 2.1, 0.1414), (1, 1.5, 2.5, 1.5, 2.5, 0.0)]
    save_track_csv(rows, path, with_truth=True)
    loaded = load_track_csv(path)
    assert len(loaded) == 2
    assert loaded[0][0] == 0
    assert loaded[0][1:] == pytest.approx(rows[0][1:])
    # positions-only variant
    save_track_csv([(0, 1.0, 2.0)], path, with_truth=False)
    assert load_track_csv(path) == [(0, 1.0, 2.0)]
    with pytest.raises(ValueError):
        save_track_csv([(0, 1.0)], path, with_truth=False)


def test_benchmark_csv(tmp_path):
    path = tmp_path / "bench.csv"
    summary = {"mean": 0.3, "median": 0.25, "p95": 0.6, "max": 1.0, "cdf": []}
    save_benchmark_csv([("msrti", "scene", 1, summary)], path)
    text = path.read_text().splitlines()
    assert text[0] == "variant,scenario,seed,mean_m,median_m,p95_m,max_m"
    assert text[1].startswith("msrti,scene,1,0.3,")


def test_benchmark_csv_row_without_detection(tmp_path, monkeypatch):
    # benchmark() gives summary None for a run with no detected frame
    summary = {"mean": 0.3, "median": 0.25, "p95": 0.6, "max": 1.0, "cdf": []}
    monkeypatch.setattr(harness, "benchmark", lambda *a, **kw: [
        ("msrti", "scene", 1, summary), ("msrti", "scene", 2, None)])
    path = tmp_path / "bench.csv"
    save_benchmark_csv(harness.benchmark(), path)
    text = path.read_text().splitlines()
    assert text[1] == "msrti,scene,1,0.3,0.25,0.6,1.0"
    assert text[2] == "msrti,scene,2,nan,nan,nan,nan"


def test_key_value_parsing(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# comment\nalpha 1 2\nbeta x\nalpha 3\n\n")
    kv = load_key_value(path)
    assert kv["alpha"] == [["1", "2"], ["3"]]
    assert kv["beta"] == [["x"]]


def test_scenario_round_trip(tmp_path, layout):
    traj = np.array([[20.0, 1.0, 1.0], [21.0, 1.2, 1.1]])
    table = enumerate_links(layout)
    rng = np.random.default_rng(3)
    offsets = rng.normal(0, 5, size=(table.n_links, 2))
    spec = ScenarioSpec(layout=layout, channels=(11, 19), eta=2.1, p0=38.0,
                        calibration_frames=20, trajectory=traj,
                        fade_offsets=offsets, noise_sigma=0.3,
                        quantize=False, seed=77)
    path = tmp_path / "scenario.txt"
    save_scenario(spec, path)
    loaded = load_scenario(path, layout)
    assert loaded.channels == spec.channels
    assert loaded.eta == spec.eta and loaded.p0 == spec.p0
    assert loaded.calibration_frames == 20
    assert loaded.quantize is False and loaded.seed == 77
    np.testing.assert_array_equal(loaded.trajectory, traj)
    np.testing.assert_array_equal(loaded.fade_offsets, offsets)
    # generated traces agree frame for frame
    a = generate_trace(spec)
    b = generate_trace(loaded)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.rss, fb.rss)


def test_scenario_quantize_values(tmp_path, layout):
    path = tmp_path / "scenario.txt"
    base = "calibration_frames 10\nstationary 2.0 1.5 10 5\n"
    for value, want in (("Off", False), ("YES", True), ("0", False)):
        path.write_text(f"{base}quantize {value}\n")
        assert load_scenario(path, layout).quantize is want
    path.write_text(f"{base}quantize maybe\n")
    with pytest.raises(ValueError, match="quantize .maybe. is not one of"):
        load_scenario(path, layout)


def test_scenario_stationary_form(tmp_path, layout):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "channels 11 16\ncalibration_frames 10\nstationary 2.0 1.5 10 5\nseed 1\n"
    )
    spec = load_scenario(path, layout)
    assert spec.trajectory.shape == (5, 3)
    assert spec.trajectory[0].tolist() == [10.0, 2.0, 1.5]
    path.write_text("stationary 1 1 5 2\nwaypoint 6 1.0 1.0\n")
    with pytest.raises(ValueError, match="not both"):
        load_scenario(path, layout)
