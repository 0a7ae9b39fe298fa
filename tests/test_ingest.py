"""File formats: parsing, validation errors, round trips."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtikit import ingest
from rtikit.calibration import FadeLevelTable, PathLossFit, RssFrame, calibrate
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
from rtikit.simulator import (ScenarioSpec, generate_trace, perimeter_layout,
                              stationary_trajectory)


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
    assert frames[0].rss[table.link_index(1, 2)].tolist() == [-61.0]
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
    assert frames[0].rss[table.link_index(1, 2)].tolist() == [-60.0]


@pytest.mark.parametrize("second", ["0 2 1 15 -55.0", "0 1 2 15 -55.0"])
def test_trace_repeated_record_is_an_error(tmp_path, layout, second):
    """A second record of a (k, link, channel), in either pair order, is an
    error, as a repeated cell is in every other format; another k or
    channel of the link is not."""
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text(f"0 1 2 15 -60.0\n1 2 1 15 -58.0\n0 1 2 11 -57.0\n{second}\n")
    tx, rx = second.split()[1:3]
    with pytest.raises(ValueError, match=rf"trace.txt:4: time index 0 link "
                                         rf"\({tx},{rx}\) channel 15 repeats line 1$"):
        load_trace(path, table)


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


@pytest.mark.parametrize("line, message", [
    ("99999999999999999999 1 2 15 -60.0",
     "time index 99999999999999999999 outside the 64-bit range"),
    ("-99999999999999999999 1 2 15 -60.0",
     "time index -99999999999999999999 outside the 64-bit range"),
    ("0 1 99999999999999999999 15 -60.0",
     "rx '99999999999999999999' is outside the 64-bit range"),
    ("0 1 2 27 -60.0", r"channel 27 outside \[11, 26\]"),
    ("0 1 2 10 -60.0", r"channel 10 outside \[11, 26\]"),
    ("0 1 2 15 inf", "rss 'inf' is infinite"),
    ("0 1 2 15 -Infinity", "rss '-Infinity' is infinite"),
    ("0 1 2 1_5 -60.0", "channel '1_5' is not an integer"),
    ("0 1 2 15 -6_0.5", "rss '-6_0.5' is not a number or NA"),
    ("\uff10 1 2 15 -60.0", "k '\uff10' is not an integer"),
    ("0 1 \uff12 15 -60.0", "rx '\uff12' is not an integer"),
    ("0 3 1 15 -62.0", r"time index 0 link \(3,1\) channel 15 repeats line 2"),
])
def test_trace_fields_out_of_range(tmp_path, layout, line, message):
    table = enumerate_links(layout)
    path = tmp_path / "trace.txt"
    path.write_text(f"# header\n0 1 3 15 -61.0\n{line}\n")
    with pytest.raises(ValueError, match=rf"trace.txt:3: {message}"):
        load_trace(path, table)


# A 4-node layout (ids 1-4) has 6 links; ids 0 and 9 are unknown.
SMALL_TABLE = enumerate_links(perimeter_layout(4, 3.0, 3.0))
SMALL_PAIRS = list(zip(SMALL_TABLE.tx_ids.tolist(), SMALL_TABLE.rx_ids.tolist()))
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# Spellings np.loadtxt reads ...
CLEAN_INT = ["{}", "{}", "{}", "+{}", "0{}"]
CLEAN_RSS = ["-60.5", "-71.25", "-0.0", "0", "+5", "1e1", "NA", "nan", "-nan",
             "-88.12345678901234"]
# ... and ones that put a trace at fault: np.loadtxt cannot read them, though
# int() or float() read some (`_`, full-width digits), or they are infinite.
ODD_INT = ["{}.0", "{}_0", "{}e0", "full-width"]
ODD_RSS = ["-NA", "na", "inf", "-inf", "Infinity", "１", "1,5", "0x10", "1_0"]
# One bad record, added to clean ones.
FAULTS = {
    "repeat": lambda k, tx, rx, c: [k, rx, tx, c],
    "unknown id 0": lambda k, tx, rx, c: [k, tx, 0, c],
    "unknown id 9": lambda k, tx, rx, c: [k, 9, rx, c],
    "self pair": lambda k, tx, rx, c: [k, tx, tx, c],
    "channel 10": lambda k, tx, rx, c: [k, tx, rx, 10],
    "channel 27": lambda k, tx, rx, c: [k, tx, rx, 27],
    "huge k": lambda k, tx, rx, c: [2**63 + k, tx, rx, c],
    "4 fields": lambda k, tx, rx, c: [k, tx, rx],
}


def _int_token(form, value):
    if form == "full-width":
        return str(value).translate(FULL_WIDTH)
    return form.format(value)


@st.composite
def trace_texts(draw):
    """(text, fault): trace text of clean records with at most one fault, a
    bad record (FAULTS) or one odd integer or rss token, and the line of
    that fault, or None for a clean text."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from([0, 1, 2, 5, 9, 3]),  # gaps, any order
                  st.integers(0, len(SMALL_PAIRS) - 1),
                  st.sampled_from([11, 15, 26])),
        unique=True, max_size=14))
    records = []
    for k, link, channel in keys:
        tx, rx = SMALL_PAIRS[link]
        if draw(st.booleans()):
            tx, rx = rx, tx
        records.append([k, tx, rx, channel])
    oddity = draw(st.sampled_from([None, None, "int token", "rss token",
                                   *FAULTS]))
    at = None  # the index of the record at fault
    if oddity in FAULTS:
        base = draw(st.integers(0, len(records) - 1)) if records else None
        at = draw(st.integers(0, len(records)))
        records.insert(at, FAULTS[oddity](*(records[base] if records else [0, 1, 2, 11])))
        if oddity == "repeat":  # the later of the two is at fault
            at = None if base is None else max(at, base + (at <= base))
    rows = [[_int_token(draw(st.sampled_from(CLEAN_INT)), v) for v in record]
            for record in records]
    for row in rows:
        if len(row) == 4:
            row.append(draw(st.sampled_from(CLEAN_RSS)
                            | st.floats(-100, 0).map(repr)))
    if rows and oddity == "int token":
        at = draw(st.integers(0, len(rows) - 1))
        i = draw(st.integers(0, len(records[at]) - 1))
        rows[at][i] = _int_token(draw(st.sampled_from(ODD_INT)), records[at][i])
    if rows and oddity == "rss token":
        at = draw(st.integers(0, len(rows) - 1))
        rows[at][-1] = draw(st.sampled_from(ODD_RSS))
    seps = st.sampled_from([" ", " ", "\t", "  ", " \t "])
    lines, fault = [], None
    for j, row in enumerate(rows):
        line = draw(st.sampled_from(["", "", " ", "\t"]))
        for token in row:
            line += token + draw(seps)
        line += draw(st.sampled_from(["", "", "# note", "#x 1 2 3 4"]))
        lines.append(line)
        if j == at:
            fault = len(lines)
        lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "#"]),
                               max_size=1))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), fault


def _read_trace_by_record(path, table):
    """The frames of a clean trace, read one record at a time."""
    records = {}  # (k, link, channel) -> rss
    with open(path) as fh:
        for line in fh:
            tokens = line.split("#")[0].split()
            if tokens:
                k, tx, rx, channel = (int(token) for token in tokens[:4])
                rss = np.nan if tokens[4] == "NA" else float(tokens[4])
                records[k, table.link_index(tx, rx), channel] = rss
    channels = sorted({channel for _, _, channel in records})
    frames = []
    for k in sorted({k for k, _, _ in records}):
        rss = np.full((table.n_links, len(channels)), np.nan)
        for (k_record, link, channel), value in records.items():
            if k_record == k:
                rss[link, channels.index(channel)] = value
        frames.append(RssFrame(k=k, rss=rss, channels=channels))
    return frames


def _load_without_walk(path):
    """load_trace, failing the test if it walks the file for a fault."""
    def no_walk(*args):
        raise AssertionError("load_trace walked an accepted trace")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_trace_fault", no_walk)
        return load_trace(path, SMALL_TABLE)


def _assert_reference_frames(path):
    """load_trace takes the trace without the walk and gives the frames of
    the record-at-a-time reader, bit for bit; returns them."""
    got, want = _load_without_walk(path), _read_trace_by_record(path, SMALL_TABLE)
    assert [(f.k, f.channels.tolist()) for f in got] == [
        (f.k, f.channels.tolist()) for f in want]
    for a, b in zip(got, want):
        assert a.rss.tobytes() == b.rss.tobytes()
    return got


@settings(max_examples=300, deadline=None)
@given(drawn=trace_texts(), chunk=st.integers(1, 8))
def test_load_trace_gives_reference_frames_or_first_fault(tmp_path_factory,
                                                          drawn, chunk):
    """A clean text gives the record-at-a-time reader's frames, and a faulty
    one raises at its faulty line, in 64 KiB reads and in reads of a few
    characters, each taken on to its line end."""
    text, fault = drawn
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    path.write_text(text)
    for chunk_chars in (ingest._CHUNK_CHARS, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
            if fault is None:
                _assert_reference_frames(path)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{fault}: "):
                    load_trace(path, SMALL_TABLE)


def test_load_trace_takes_clean_traces_without_the_walk(tmp_path):
    """Comments, blank lines, tabs, NA in every spelling of its end,
    reversed pairs, gaps and unsorted k are all read by np.loadtxt."""
    path = tmp_path / "trace.txt"
    path.write_text(
        "# rss trace\n\n"
        "9\t1 2 11 -50.0  # trailing note\n"
        "+2 3 1 26 NA\n"
        "   \n"
        "2 2 1 11 nan\n"
        "009 4 3 26 -0.0\n"
        "5 2 4\t11 +5\n"
        "9 1 3 11 NA\t\n"
        "9 1 4 11\tNA# note\n"
        "9 2 3 11 NA # note\n"
        "5 3 4 26 NA"
    )
    got = _assert_reference_frames(path)
    assert [f.k for f in got] == [2, 5, 9]
    assert np.isnan(got[2].rss).sum() == 2 * 6 - 2  # k=9: two values
    for text in ("", "# comment only\n\n"):
        path.write_text(text)
        assert _load_without_walk(path) == []


def test_load_trace_takes_na_at_read_cuts_without_the_walk(tmp_path):
    """A trace four reads long whose read cuts fall before, inside and
    after an `NA` token and after its line end."""
    offsets = (0, 1, 2, 3)  # of each cut from the start of an NA token
    lines, size = [], 0

    def record(i, rss):
        tx, rx = SMALL_PAIRS[i % len(SMALL_PAIRS)]
        return f"{i // len(SMALL_PAIRS)} {tx} {rx} 11 {rss}\n"

    def add(line):
        nonlocal size
        lines.append(line)
        size += len(line)

    i = 0
    for m, offset in enumerate(offsets, start=1):
        cut = m * ingest._CHUNK_CHARS
        while cut - size > 100:
            add(record(i, "NA" if i % 3 else "-61.25"))
            i += 1
        head = record(i, "NA")[:-3]  # the record up to its NA token
        add("#" * (cut - size - len(head) - offset - 1) + "\n")
        add(record(i, "NA"))
        i += 1
    add(record(i, "-70.5"))
    text = "".join(lines)
    for m, offset in enumerate(offsets, start=1):
        assert text[m * ingest._CHUNK_CHARS - offset:][:3] == "NA\n"
    path = tmp_path / "trace.txt"
    path.write_text(text)
    assert len(_assert_reference_frames(path)) == i // len(SMALL_PAIRS) + 1


def test_load_trace_raises_for_a_rejection_no_line_check_names(tmp_path, monkeypatch):
    """Should np.loadtxt reject a trace whose lines all pass the walk, the
    walk still raises rather than return."""
    path = tmp_path / "trace.txt"
    path.write_text("0 1 2 11 -60.0\n")

    def reject(*args, **kwargs):
        raise ValueError("unreadable")

    monkeypatch.setattr(ingest.np, "loadtxt", reject)
    with pytest.raises(ValueError, match=r"trace.txt: np.loadtxt cannot read this trace$"):
        load_trace(path, SMALL_TABLE)


def test_load_trace_peak_memory_per_record(tmp_path):
    """load_trace holds the text a read at a time: on a 261 000-record
    trace (150 frames of 435 links and 4 channels, 2 % NA) the traced peak
    is about 89 bytes a record on numpy 2.4; a whole-file read adds at
    least the text, about 18 bytes a record."""
    table = enumerate_links(perimeter_layout(30, 7.0, 7.0))
    rng = np.random.default_rng(7)
    channels = np.array([11, 16, 21, 26])
    frames = []
    for k in range(150):
        rss = rng.integers(-90, -30, size=(table.n_links, 4)).astype(float)
        rss[rng.random(rss.shape) < 0.02] = np.nan
        frames.append(RssFrame(k=k, rss=rss, channels=channels))
    path = tmp_path / "walk.txt"
    save_trace(frames, table, path)
    records = 150 * table.n_links * 4
    tracemalloc.start()
    try:
        loaded = load_trace(path, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 150
    np.testing.assert_array_equal(loaded[-1].rss, frames[-1].rss)
    assert peak / records < 100


def _save_trace_by_record(frames, table, path):
    """save_trace's format, written one record at a time."""
    with open(path, "w") as fh:
        fh.write("# rss trace: k tx_id rx_id channel rss_dbm\n")
        for frame in frames:
            for l in range(table.n_links):
                tx, rx = int(table.tx_ids[l]), int(table.rx_ids[l])
                for ci, c in enumerate(frame.channels):
                    v = frame.rss[l, ci]
                    text = "NA" if np.isnan(v) else repr(float(v))
                    fh.write(f"{frame.k} {tx} {rx} {int(c)} {text}\n")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_save_trace_matches_record_by_record_writer(tmp_path_factory, data):
    """Over frames of one channel set with strictly ascending k, the
    frame-at-a-time writer gives the record-at-a-time writer's bytes."""
    channels = data.draw(st.lists(st.integers(11, 26), min_size=1, max_size=3,
                                  unique=True).map(sorted))
    values = st.floats(allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, 1e300, -60.0, np.nan])
    ks = data.draw(st.lists(st.integers(-3, 10**12), max_size=4, unique=True).map(sorted))
    frames = []
    for k in ks:
        rss = data.draw(st.lists(values, min_size=SMALL_TABLE.n_links * len(channels),
                                 max_size=SMALL_TABLE.n_links * len(channels)))
        frames.append(RssFrame(k=k, rss=np.reshape(rss, (SMALL_TABLE.n_links, -1)),
                               channels=channels))
    out = tmp_path_factory.mktemp("save")
    save_trace(frames, SMALL_TABLE, out / "block.txt")
    _save_trace_by_record(frames, SMALL_TABLE, out / "record.txt")
    assert (out / "block.txt").read_bytes() == (out / "record.txt").read_bytes()


@pytest.mark.parametrize("ks, match", [
    ((3, 3), r"^frame k=3 follows k=3; k must strictly ascend$"),
    ((5, 2), r"^frame k=2 follows k=5; k must strictly ascend$"),
])
def test_save_trace_rejects_k_that_does_not_strictly_ascend(tmp_path, ks, match):
    """A repeated k would be a trace load_trace rejects, and a descending
    one would come back reordered; neither is written."""
    frames = [RssFrame(k=k, rss=np.full((SMALL_TABLE.n_links, 1), -60.0),
                       channels=[11]) for k in ks]
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match=match):
        save_trace(frames, SMALL_TABLE, path)
    assert not path.exists()


def test_save_trace_rejects_a_second_channel_set(tmp_path):
    """Frames on [11] and then [26] would come back as two frames on
    [11, 26], padded with NaN; the second is rejected."""
    frames = [RssFrame(k=k, rss=np.full((SMALL_TABLE.n_links, 1), -60.0),
                       channels=[c]) for k, c in ((0, 11), (1, 26))]
    with pytest.raises(ValueError,
                       match=r"^frame k=1 has channels \[26\], the first frame \[11\]$"):
        save_trace(frames, SMALL_TABLE, tmp_path / "trace.txt")


def test_save_trace_rejects_frame_of_other_link_count(tmp_path):
    frame = RssFrame(k=0, rss=np.zeros((SMALL_TABLE.n_links + 1, 1)), channels=[11])
    with pytest.raises(ValueError, match="has 7 links, the table 6"):
        save_trace([frame], SMALL_TABLE, tmp_path / "trace.txt")


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
    # a no-detection row keeps its nan, and an empty file has no rows
    save_track_csv([(3, np.nan, np.nan)], path, with_truth=False)
    (k, x, y), = load_track_csv(path)
    assert k == 3 and np.isnan(x) and np.isnan(y)
    path.write_text("")
    assert load_track_csv(path) == []


def test_benchmark_csv(tmp_path):
    # benchmark() gives summary None for a run with no detected frame
    path = tmp_path / "bench.csv"
    summary = {"mean": 0.3, "median": 0.25, "p95": 0.6, "max": 1.0, "cdf": []}
    save_benchmark_csv([("msrti", 1, summary), ("msrti", 2, None)], path)
    assert path.read_text().splitlines() == [
        "variant,seed,mean_m,median_m,p95_m,max_m",
        "msrti,1,0.3,0.25,0.6,1.0",
        "msrti,2,nan,nan,nan,nan",
    ]


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


# Every text format, saved and loaded again, bit for bit. SMALL_TABLE's
# 4-node layout carries the fade tables and scenarios.
SMALL_LAYOUT = perimeter_layout(4, 3.0, 3.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CHANNEL_SETS = st.lists(st.integers(11, 26), min_size=1, max_size=4,
                        unique=True).map(sorted)


def _bits(obj):
    """obj with every float and array spelled out bit for bit."""
    if isinstance(obj, np.ndarray):
        return "array", obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return type(obj).__name__, obj.hex()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [(f.name, _bits(getattr(obj, f.name)))
                                    for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        return "dict", [(_bits(k), _bits(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, [_bits(v) for v in obj]
    return type(obj).__name__, obj


def _array(draw, cells, shape):
    size = int(np.prod(shape))
    return np.reshape(np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                               dtype=float), shape)


@st.composite
def layouts(draw):
    ids = draw(st.lists(st.integers(-10**9, 10**9), min_size=3, max_size=6,
                        unique=True))
    return NodeLayout(ids=np.array(ids), xy=_array(draw, FINITE, (len(ids), 2)))


@st.composite
def truths(draw):
    truth = draw(st.dictionaries(st.integers(-10**12, 10**12),
                                 st.tuples(FINITE, FINITE), max_size=5))
    return dict(sorted(truth.items()))


@st.composite
def fade_tables(draw):
    channels = draw(CHANNEL_SETS)
    shape = (SMALL_TABLE.n_links, len(channels))
    fit = PathLossFit(p0=draw(FINITE), eta=draw(FINITE),
                      n_pairs=draw(st.integers(0, 10**6)), rmse=draw(FINITE))
    values, mean_rss = _array(draw, FINITE, shape), _array(draw, FINITE, shape)
    holes = _array(draw, st.booleans(), shape).astype(bool)  # as calibrate leaves them
    values[holes] = mean_rss[holes] = np.nan
    return FadeLevelTable(values=values, mean_rss=mean_rss,
                          channels=np.array(channels), fit=fit)


@st.composite
def images(draw):
    nx, ny = draw(st.sampled_from([(1, 1), (3, 3), (5, 5), (2, 2), (4, 4),
                                   (4, 1), (2, 5), (6, 3)]))
    grid = VoxelGrid(origin=(draw(FINITE), draw(FINITE)),
                     p=draw(st.floats(1e-3, 10.0)), nx=nx, ny=ny)
    values = st.floats(allow_nan=False) | st.just(np.nan)
    return _array(draw, values, (grid.n_voxels,)), grid


@st.composite
def scenarios(draw):
    channels = tuple(draw(CHANNEL_SETS))
    calibration_frames = draw(st.integers(1, 50))
    trajectory = np.zeros((0, 3))
    form = draw(st.sampled_from(["waypoint", "stationary", "none"]))
    if form == "waypoint":
        ks = draw(st.lists(st.integers(calibration_frames, 10**6), min_size=1,
                           max_size=5, unique=True))
        trajectory = np.array([[k, draw(FINITE), draw(FINITE)] for k in sorted(ks)])
    elif form == "stationary":
        trajectory = stationary_trajectory(
            (draw(FINITE), draw(FINITE)),
            draw(st.integers(calibration_frames, 10**6)), draw(st.integers(1, 4)))
    offsets = draw(st.none() | st.just((SMALL_TABLE.n_links, len(channels))))
    if offsets is not None:
        offsets = _array(draw, FINITE, offsets)
    sigmas = st.floats(0.0, 1e6)
    return ScenarioSpec(
        layout=SMALL_LAYOUT, channels=channels, eta=draw(FINITE), p0=draw(FINITE),
        calibration_frames=calibration_frames, trajectory=trajectory,
        fade_offsets=offsets, fade_sigma=draw(sigmas), noise_sigma=draw(sigmas),
        quantize=draw(st.booleans()), seed=draw(st.integers(0, 2**63)))


ROUND_TRIPS = {  # objects, save(obj, path), load(path)
    "layout": (layouts(), save_layout, load_layout),
    "ground truth": (truths(), save_ground_truth, load_ground_truth),
    "fade table": (fade_tables(),
                   lambda fades, path: save_fade_table(fades, SMALL_TABLE, path),
                   lambda path: load_fade_table(path, SMALL_TABLE)),
    "image": (images(), lambda image, path: save_image(*image, path), load_image),
    "scenario": (scenarios(), save_scenario,
                 lambda path: load_scenario(path, SMALL_LAYOUT)),
}


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_text_formats_round_trip_bit_for_bit(tmp_path_factory, kind, data):
    objects, save, load = ROUND_TRIPS[kind]
    obj = data.draw(objects)
    path = tmp_path_factory.mktemp("round_trip") / "file.txt"
    save(obj, path)
    assert _bits(load(path)) == _bits(obj)


SCENARIO_HEAD = "channels 11 16\ncalibration_frames 10\n"
FADE_HEAD = "p0 40.0\neta 2.0\nn_pairs 2\nrmse 0.5\n"
MALFORMED_LOADERS = {
    "layout": load_layout,
    "scenario": lambda path: load_scenario(path, perimeter_layout(6, 5.0, 4.0)),
    "fade table": lambda path: load_fade_table(path, SMALL_TABLE),
    "image": load_image,
    "ground truth": load_ground_truth,
    "track csv": load_track_csv,
}
TRACK_HEAD = "k,x_hat,y_hat\n"


@pytest.mark.parametrize("loader, text, prefix", [
    ("scenario", SCENARIO_HEAD + "fade_offset 1 2 13 1.0\n", "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "fade_offset 1 99 11 1.0\n", "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "waypoint 100 1\n", "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "sead 1\n", "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "waypoint 100.2 1 1\nwaypoint 100.7 1 1\n",
     "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "waypoint 100 1 1\nwaypoint 101 nan 2\n",
     "bad.txt:4:"),
    ("scenario", SCENARIO_HEAD + "stationary 1 -inf 100 5\n", "bad.txt:3:"),
    ("scenario", SCENARIO_HEAD + "noise_sigma -1\n",
     "bad.txt: noise/fade sigmas must be >= 0"),
    ("scenario", "calibration_frames 0\n",
     "bad.txt: calibration_frames must be >= 1"),
    ("scenario", SCENARIO_HEAD + "waypoint 5 1 1\n",
     "bad.txt: trajectory must start after the calibration segment"),
    ("scenario", SCENARIO_HEAD + "seed -1\n", "bad.txt: seed must be >= 0"),
    ("ground truth", "100 1.0 1.0\n101 nan 2.0\n", "bad.txt:2:"),
    ("ground truth", "100 inf 1.0\n", "bad.txt:1:"),
    ("fade table", "p0 x37.7\n", "bad.txt:1:"),
    ("fade table", FADE_HEAD + "eta 2.5\nchannels 11\n", "bad.txt:5:"),
    ("fade table", FADE_HEAD + "channels 11\npair 1 2 11 -50.0 1.0\n"
     "pair 1 2 11 -50.0 2.0\n", "bad.txt:7:"),
    ("fade table", "p0 nan\n", "bad.txt:1:"),
    ("fade table", "p0 40.0\neta inf\n", "bad.txt:2:"),
    ("fade table", "p0 40.0\neta 2.0\nn_pairs 2\nrmse -inf\n", "bad.txt:4:"),
    ("fade table", FADE_HEAD + "channels 11\npair 1 2 11 NA 3.0\n", "bad.txt:6:"),
    ("fade table", FADE_HEAD + "channels 11\npair 1 2 11 -50.0 NA\n", "bad.txt:6:"),
    ("fade table", FADE_HEAD + "channels 16 11\n", "bad.txt:5:"),
    ("fade table", FADE_HEAD + "channels 11 11\n", "bad.txt:5:"),
    ("fade table", FADE_HEAD + "channels 5 40\n",
     "bad.txt: channels must lie in [11, 26]"),
    ("fade table", FADE_HEAD + "channels 26 27\npair 1 2 26 -50.0 1.0\n",
     "bad.txt: channels must lie in [11, 26]"),
    ("fade table", FADE_HEAD + "channels 11\npair 1 2 16 -50.0 1.0\n",
     "bad.txt:6:"),
    ("fade table", FADE_HEAD + "channels 11\npair 1 99999999999999999999 11 -50.0 1.0\n",
     "bad.txt:6:"),
    ("image", "nx two\nny 1\np 1.0\norigin 0.0 0.0\n1.0 2.0\n", "bad.txt:1:"),
    ("image", "nx 2\nny 1\np nan\norigin 0.0 0.0\n1.0 2.0\n",
     "bad.txt: voxel width p must be > 0 and finite"),
    ("image", "nx 2\nny 1\np 1.0\norigin nan 0.0\n1.0 2.0\n",
     "bad.txt: grid origin must be finite"),
    ("layout", "99999999999999999999 0 0\n2 1 0\n3 0 1\n", "bad.txt:1:"),
    ("layout", "1 0 0\n-99999999999999999999 1 0\n3 0 1\n", "bad.txt:2:"),
    ("track csv", TRACK_HEAD + "x,1,2\n", "bad.txt:2: k 'x' is not an integer"),
    ("track csv", TRACK_HEAD + "0,1.0,2.0\n1.5,1.0,2.0\n", "bad.txt:3:"),
    ("track csv", TRACK_HEAD + "0,1.0,y\n", "bad.txt:2: y_hat 'y' is not a number"),
    ("track csv", "whatever,header\n1,2\n", "bad.txt:1:"),
    ("track csv", "0,1.0,2.0\n", "bad.txt:1:"),
    ("track csv", TRACK_HEAD + "1,2.0\n", "bad.txt:2:"),
    ("track csv", TRACK_HEAD + "3,4.0,5.0,6.0,7.0\n", "bad.txt:2:"),
    ("track csv", "k,x_hat,y_hat,x_true,y_true,error_m\n0,1.0,2.0\n",
     "bad.txt:2:"),
    ("track csv", TRACK_HEAD + "0,1.0,2.0\n" + TRACK_HEAD, "bad.txt:3:"),
])
def test_malformed_input_error_names_its_line(tmp_path, loader, text, prefix):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        MALFORMED_LOADERS[loader](path)
    assert str(info.value).startswith(str(tmp_path / prefix))
