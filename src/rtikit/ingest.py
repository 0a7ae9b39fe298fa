"""File I/O: traces, layouts, ground truth, fade tables, images, configs.

Every on-disk format of the toolkit is implemented here, with load/save
round-trip fidelity. All formats but the flat config file, which
`load_key_value` reads, are line-oriented text read by `_read`:
`#` comments, keyed lines (`p0 40.1`) and bare rows (`3 1.5 2.0`), typed
fields with `NA` for a missing number, unknown or repeated keys rejected
(only `pair`, `waypoint` and `fade_offset` repeat), and `path:lineno:` on
every error (`path:` for a missing key). (a, b) and (b, a) fold onto one
link, and a second record of a link and channel (and k) is an error.

Traces are the one format that grows with the recording (one record per
link, channel and frame), so they are read and written a block at a time:
load_trace parses every trace in one np.loadtxt call, fed 64 KiB reads cut
at line ends with each whole `NA` token rewritten as `nan`, so numpy's C
parser reads every field with no Python call per record; `_read` walks a
file that call rejects only to name its first line at fault. save_trace
formats each frame as one string, and writes only frames that load_trace
reads back unchanged (k strictly ascending, one channel set).
"""

import csv
import math
import re
import warnings
from itertools import chain

import numpy as np

from .calibration import (CHANNEL_MAX, CHANNEL_MIN, FadeLevelTable, PathLossFit,
                          RssFrame)
from .geometry import LinkTable, NodeLayout, VoxelGrid, enumerate_links
from .simulator import DEFAULT_CHANNELS, ScenarioSpec, stationary_trajectory

__all__ = [
    "load_layout",
    "save_layout",
    "load_trace",
    "save_trace",
    "load_ground_truth",
    "save_ground_truth",
    "load_fade_table",
    "save_fade_table",
    "load_image",
    "save_image",
    "save_track_csv",
    "load_track_csv",
    "save_benchmark_csv",
    "load_key_value",
    "load_scenario",
    "save_scenario",
]


_INT64 = range(-2**63, 2**63)  # the values an np.int64 holds


def _data_lines(path, commas=False):
    """Yield (lineno, tokens) per data line, cut at `#`, split at blanks (and commas)."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0]
            tokens = (text.replace(",", " ") if commas else text).split()
            if tokens:
                yield lineno, tokens


def _fail(path, lineno, msg):
    raise ValueError(f"{path}:{lineno}: {msg}")


def _na_float(token: str) -> float:
    """A finite float, or NaN for `NA`."""
    try:
        value = np.nan if token == "NA" else float(token)
    except ValueError:
        raise ValueError("is not a number or NA") from None
    if math.isinf(value):
        raise ValueError("is infinite; write NA for a missing value")
    return value


def _finite(token: str) -> float:
    """A finite float."""
    try:
        value = float(token)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(value):
        raise ValueError("is not finite")
    return value


def _node_id(token: str) -> int:
    """An integer in the 64-bit range that node ids are held in."""
    try:
        value = int(token)
    except ValueError:
        raise ValueError("is not an integer") from None
    if value not in _INT64:
        raise ValueError("is outside the 64-bit range")
    return value


def _on_off(token: str) -> bool:
    on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
    if token.lower() not in on + off:
        raise ValueError(f"is not one of {on + off}")
    return token.lower() in on


# Why int and float reject a token; the other casts raise their own reason.
_REJECTS = {int: "is not an integer", float: "is not a number"}


def _scalars(cast, count, *keys):
    """Grammar entries for keywords that take one value."""
    return {key: (f"{key} value", (cast,), count) for key in keys}


def _read(path, grammar, commas=False):
    """Yield (lineno, key, fields) for each data line of path.

    grammar maps each keyword a line may start with, and None for a bare
    row, to (form, casts, count): the line spelled out for messages, one
    cast per field (a trailing `...` repeats the last for one or more), and
    the keyword's number of lines: "1" one, "?" at most one, "*" any.
    fields is the list of cast values, or the value itself for one cast.
    Errors raise ValueError with `path:lineno:` (`path:` for a missing key).
    """
    first = {}  # keyword -> its first line
    for lineno, tokens in _data_lines(path, commas):
        key = tokens[0] if tokens[0] in grammar else None
        if key not in grammar:
            _fail(path, lineno, f"unknown key {tokens[0]!r}")
        form, casts, count = grammar[key]
        if count != "*" and key in first:
            _fail(path, lineno, f"{key} repeats line {first[key]}")
        first.setdefault(key, lineno)
        values = tokens[1:] if key else tokens
        one = len(casts) == 1
        if casts[-1] is ...:
            casts = casts[:-1] + casts[-2:-1] * (len(values) - len(casts) + 1)
        if len(values) != len(casts):
            _fail(path, lineno, f"expected `{form}`, got {len(tokens)} fields")
        fields = []
        for cast, value in zip(casts, values):
            try:
                fields.append(cast(value))
            except ValueError as exc:
                names = form.split()  # a bare row names the field, else the key
                label = key or names[min(len(fields), len(names) - 1)]
                _fail(path, lineno, f"{label} {value!r} {_REJECTS.get(cast, exc)}")
        yield lineno, key, fields[0] if one else fields
    for key, (_, _, count) in grammar.items():
        if count == "1" and key not in first:
            raise ValueError(f"{path}: missing header key {key!r}")


def _cells(path, table: LinkTable, channels, records):
    """(links, columns) of (lineno, tx, rx, channel, ...) records in an (L, C)
    array; an unknown link or channel or a repeated cell raises ValueError."""
    column = {c: i for i, c in enumerate(channels)}
    seen = {}  # (link, column) -> line
    links = table.link_indices([record[1] for record in records],
                               [record[2] for record in records]).tolist()
    for (lineno, tx, rx, channel, *_), link in zip(records, links):
        if channel not in column:
            _fail(path, lineno, f"channel {channel} not among channels {list(channels)}")
        if link < 0:
            _fail(path, lineno, f"no link between nodes {tx} and {rx}")
        cell = (link, column[channel])
        if cell in seen:
            _fail(path, lineno, f"link ({tx},{rx}) channel {channel} repeats line {seen[cell]}")
        seen[cell] = lineno
    return tuple(np.array(list(seen), dtype=int).reshape(-1, 2).T)


# ---------------------------------------------------------------- layout

def load_layout(path) -> NodeLayout:
    """Read a node layout: one `id x y` line per node."""
    grammar = {None: ("id x y", (_node_id, float, float), "*")}
    rows = [fields for _, _, fields in _read(path, grammar)]
    try:
        return NodeLayout(ids=np.array([r[0] for r in rows], dtype=int),
                          xy=np.array([r[1:] for r in rows], dtype=float).reshape(-1, 2))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_layout(layout: NodeLayout, path) -> None:
    with open(path, "w") as fh:
        fh.write("# node layout: id x y\n")
        for i, (x, y) in zip(layout.ids, layout.xy):
            fh.write(f"{int(i)} {float(x)!r} {float(y)!r}\n")


# ----------------------------------------------------------------- trace

_TRACE_RECORD = np.dtype([("k", np.int64), ("tx", np.int64), ("rx", np.int64),
                          ("channel", np.int64), ("rss", np.float64)])
# load_trace reads this many characters at a time, and rewrites each
# whole `NA` token (after a blank or a line start, before a blank, `#` or
# the end) as `nan`, which the C parser of np.loadtxt reads as the same NaN.
_CHUNK_CHARS = 1 << 16
_NA_TOKEN = re.compile(r"NA(?<!\SNA)(?![^\s#])")


def load_trace(path, table: LinkTable) -> list[RssFrame]:
    """Read an RSS trace: `k tx_id rx_id channel rss_dbm` records.

    Records are grouped into frames by time index k (ascending); each
    frame holds the channels seen anywhere in the trace, ascending, and
    NaN where a (link, channel) has no record. `NA` marks a dropped
    packet. (a, b) and (b, a) fold onto one link, and a (k, link,
    channel) has at most one record.

    The trace is parsed as one block by np.loadtxt and scattered into a
    (K, L, C) array. The file is read 64 KiB at a time, each read taken on
    to its line end, and every whole `NA` token becomes `nan`, which
    np.loadtxt reads natively, so no Python function runs per record and
    the text is never held whole. A file the block rejects (a token
    np.loadtxt cannot read, an unknown or self pair, a channel outside
    [11, 26], an infinite rss, a repeated key) is walked line by line only
    to raise ValueError with `path:lineno:` for its first line at fault.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            # numpy 1.23 and later 1.x read `1.0` as an integer with a
            # DeprecationWarning; int() rejects it
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # split at "\n" alone, the one line end of a text-mode read;
            # splitlines() would also cut at \f, \v and other separators
            lines = chain.from_iterable(
                _NA_TOKEN.sub("nan", chunk + fh.readline()).split("\n")
                for chunk in iter(lambda: fh.read(_CHUNK_CHARS), ""))
            rec = np.loadtxt(lines, dtype=_TRACE_RECORD, comments="#", ndmin=1)
    except (ValueError, DeprecationWarning):
        _trace_fault(path, table)
    if not rec.size:
        return []
    link = table.link_indices(rec["tx"], rec["rx"])
    channel, rss = rec["channel"], rec["rss"]
    if (link < 0).any() or np.isinf(rss).any() or not (
            CHANNEL_MIN <= channel.min() and channel.max() <= CHANNEL_MAX):
        _trace_fault(path, table)
    ks, frame_of = np.unique(rec["k"], return_inverse=True)
    offset = channel - CHANNEL_MIN
    seen = np.zeros(CHANNEL_MAX - CHANNEL_MIN + 1, dtype=bool)
    seen[offset] = True
    channels = np.flatnonzero(seen) + CHANNEL_MIN
    column = (np.cumsum(seen) - 1)[offset]
    flat = (frame_of * table.n_links + link) * channels.size + column
    if np.bincount(flat).max() > 1:  # a repeated key
        _trace_fault(path, table)
    block = np.full((ks.size, table.n_links, channels.size), np.nan)
    block.reshape(-1)[flat] = rss
    return [RssFrame(k=int(k), rss=r, channels=channels)
            for k, r in zip(ks, block)]


def _loadtxt_token(cast):
    """cast, rejecting also a token with `_` or a non-ASCII character, which
    int() and float() read and np.loadtxt does not, for cast's own reason."""
    def read(token):
        if "_" in token or not token.isascii():
            token = "?"  # malformed to every cast
        try:
            return cast(token)
        except ValueError as exc:
            raise ValueError(_REJECTS.get(cast, exc)) from None
    return read


def _trace_fault(path, table: LinkTable):
    """Raise ValueError at the first line at fault of a trace load_trace rejects."""
    integer, node, rss = map(_loadtxt_token, (int, _node_id, _na_float))
    grammar = {None: ("k tx rx channel rss", (integer, node, node, integer, rss), "*")}
    link_of = {}
    for link, pair in enumerate(zip(table.tx_ids.tolist(), table.rx_ids.tolist())):
        link_of[pair] = link_of[pair[::-1]] = link
    first = {}  # (k, link, channel) -> its line
    for lineno, _, (k, tx, rx, channel, _) in _read(path, grammar):
        if k not in _INT64:
            _fail(path, lineno, f"time index {k} outside the 64-bit range")
        if not CHANNEL_MIN <= channel <= CHANNEL_MAX:
            _fail(path, lineno, f"channel {channel} outside [{CHANNEL_MIN}, {CHANNEL_MAX}]")
        if (tx, rx) not in link_of:
            _fail(path, lineno, f"no link between nodes {tx} and {rx}")
        key = (k, link_of[tx, rx], channel)
        if key in first:
            _fail(path, lineno, f"time index {k} link ({tx},{rx}) channel {channel} "
                                f"repeats line {first[key]}")
        first[key] = lineno
    raise ValueError(f"{path}: np.loadtxt cannot read this trace")


def save_trace(frames, table: LinkTable, path) -> None:
    """Write frames as trace records, including explicit NA rows so the
    frame shape survives a round trip. A frame load_trace would not read
    back unchanged (k not above the last frame's, channels other than the
    first frame's) or with another link count raises ValueError naming its
    k, before the file is opened. Each frame is formatted as one string:
    the `tx rx channel ` middles are built once, and each value is `repr`
    of the float or `NA`.
    """
    frames = list(frames)
    channels = frames[0].channels if frames else ()
    for i, frame in enumerate(frames):
        if frame.rss.shape[0] != table.n_links:
            raise ValueError(f"frame k={frame.k} has {frame.rss.shape[0]} "
                             f"links, the table {table.n_links}")
        if not np.array_equal(frame.channels, channels):
            raise ValueError(f"frame k={frame.k} has channels {frame.channels.tolist()}, "
                             f"the first frame {channels.tolist()}")
        if i and frame.k <= frames[i - 1].k:
            raise ValueError(f"frame k={frame.k} follows k={frames[i - 1].k}; "
                             f"k must strictly ascend")
    middles = [f" {int(tx)} {int(rx)} {int(c)} "
               for tx, rx in zip(table.tx_ids, table.rx_ids) for c in channels]
    with open(path, "w") as fh:
        fh.write("# rss trace: k tx_id rx_id channel rss_dbm\n")
        for frame in frames:
            lead = str(frame.k)
            fh.write("".join([
                f"{lead}{middle}{'NA' if v != v else repr(v)}\n"
                for middle, v in zip(middles, frame.rss.ravel().tolist())]))


# ---------------------------------------------------------- ground truth

def load_ground_truth(path) -> dict[int, tuple[float, float]]:
    """Read `k x y` (or `k,x,y`) truth rows into a k -> position map; k must ascend."""
    grammar = {None: ("k x y", (int, _finite, _finite), "*")}
    truth = {}
    for lineno, _, (k, x, y) in _read(path, grammar, commas=True):
        if truth and k <= last_k:
            _fail(path, lineno, f"time index {k} not increasing (after {last_k})")
        last_k = k
        truth[k] = (x, y)
    return truth


def save_ground_truth(truth, path) -> None:
    """Write truth rows; accepts a dict k->(x, y) or (T, 3) array."""
    if isinstance(truth, dict):
        rows = [(k, *truth[k]) for k in sorted(truth)]
    else:
        rows = [(int(k), x, y) for k, x, y in np.asarray(truth)]
    with open(path, "w") as fh:
        fh.write("# ground truth: k x y\n")
        for k, x, y in rows:
            fh.write(f"{int(k)} {float(x)!r} {float(y)!r}\n")


# ------------------------------------------------------------ fade table

def save_fade_table(fades: FadeLevelTable, table: LinkTable, path) -> None:
    """Persist a calibration result: fit header plus per-pair records."""
    with open(path, "w") as fh:
        fh.write("# fade-level table\n")
        fh.write(f"p0 {fades.fit.p0!r}\n")
        fh.write(f"eta {fades.fit.eta!r}\n")
        fh.write(f"n_pairs {fades.fit.n_pairs}\n")
        fh.write(f"rmse {fades.fit.rmse!r}\n")
        fh.write("channels " + " ".join(str(int(c)) for c in fades.channels) + "\n")
        fh.write("# pair tx_id rx_id channel mean_rss fade_level\n")
        for l in range(fades.n_links):
            tx, rx = int(table.tx_ids[l]), int(table.rx_ids[l])
            for ci, c in enumerate(fades.channels):
                mean, fade = fades.mean_rss[l, ci], fades.values[l, ci]
                mtext = "NA" if np.isnan(mean) else repr(float(mean))
                ftext = "NA" if np.isnan(fade) else repr(float(fade))
                fh.write(f"pair {tx} {rx} {int(c)} {mtext} {ftext}\n")


def load_fade_table(path, table: LinkTable) -> FadeLevelTable:
    """Read a fade table saved by save_fade_table; its channels must
    strictly ascend within [11, 26]."""
    grammar = {
        **_scalars(_finite, "1", "p0", "eta", "rmse"),
        **_scalars(int, "1", "n_pairs"),
        "channels": ("channels channel...", (int, ...), "1"),
        "pair": ("pair tx rx channel mean fade",
                 (_node_id, _node_id, int, _na_float, _na_float), "*"),
    }
    header, pairs = {}, []
    for lineno, key, fields in _read(path, grammar):
        if key == "pair":
            if math.isnan(fields[3]) != math.isnan(fields[4]):
                _fail(path, lineno, "mean and fade must both be NA or both be numbers")
            pairs.append((lineno, *fields))
        elif key == "channels" and any(b <= a for a, b in zip(fields, fields[1:])):
            _fail(path, lineno, "channels must be strictly ascending")
        else:
            header[key] = fields
    channels = header.pop("channels")
    values = np.full((table.n_links, len(channels)), np.nan)
    mean_rss = np.full_like(values, np.nan)
    cells = _cells(path, table, channels, pairs)
    mean_rss[cells] = [pair[4] for pair in pairs]
    values[cells] = [pair[5] for pair in pairs]
    try:
        return FadeLevelTable(values=values, mean_rss=mean_rss,
                              channels=np.array(channels, dtype=int),
                              fit=PathLossFit(**header))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# ----------------------------------------------------------------- image

def save_image(image: np.ndarray, grid: VoxelGrid, path) -> None:
    """Write an image as a text grid: header lines then row-major values,
    one grid row per line."""
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.n_voxels,):
        raise ValueError(f"image length {image.shape} != grid ({grid.n_voxels},)")
    with open(path, "w") as fh:
        fh.write("# image grid\n")
        fh.write(f"nx {grid.nx}\nny {grid.ny}\np {grid.p!r}\n")
        fh.write(f"origin {grid.origin[0]!r} {grid.origin[1]!r}\n")
        for iy in range(grid.ny):
            row = image[iy * grid.nx:(iy + 1) * grid.nx]
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_image(path) -> tuple[np.ndarray, VoxelGrid]:
    """Read an image saved by save_image; returns (values, grid)."""
    grammar = {
        **_scalars(int, "1", "nx", "ny"),
        **_scalars(float, "1", "p"),
        "origin": ("origin x y", (float, float), "1"),
        None: ("value", (float, ...), "*"),
    }
    header, rows = {}, []
    for _, key, fields in _read(path, grammar):
        if key is None:
            rows.extend(fields)
        else:
            header[key] = fields
    try:
        grid = VoxelGrid(**header)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    values = np.array(rows)
    if values.size != grid.n_voxels:
        raise ValueError(
            f"{path}: {values.size} values for {grid.n_voxels}-voxel grid"
        )
    return values, grid


# ------------------------------------------------------------- track CSV

_TRACK_HEADERS = (("k", "x_hat", "y_hat"),
                  ("k", "x_hat", "y_hat", "x_true", "y_true", "error_m"))


def save_track_csv(rows, path, with_truth: bool) -> None:
    """Write tracking output.

    Args:
        rows: iterables (k, x_hat, y_hat) or (k, x_hat, y_hat, x_true,
            y_true, error_m) matching with_truth.
        path: output path.
        with_truth: whether truth/error columns are present.
    """
    header = _TRACK_HEADERS[with_truth]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"track row has {len(row)} fields, header has {len(header)}"
                )
            writer.writerow([repr(float(v)) if i else int(v)
                             for i, v in enumerate(row)])


def load_track_csv(path) -> list[tuple]:
    """Read a track CSV saved by save_track_csv back into tuples (k as int,
    then numbers, nan for no detection); an empty file gives []. The first
    line is one of its two headers, and every row has that header's width."""
    first = next(_data_lines(path, commas=True), None)
    if first is None:
        return []
    lineno, header = first
    if tuple(header) not in _TRACK_HEADERS:
        _fail(path, lineno, "expected the header `k,x_hat,y_hat[,x_true,y_true,error_m]`")
    grammar = {"k": (" ".join(header), (str,) * (len(header) - 1), "1"),
               None: (" ".join(header), (int,) + (float,) * (len(header) - 1), "*")}
    return [tuple(fields) for _, key, fields in _read(path, grammar, commas=True)
            if key is None]


def save_benchmark_csv(rows, path) -> None:
    """Write benchmark (variant, seed, summary) rows as CSV with the
    columns variant, seed, mean_m, median_m, p95_m and max_m.

    A row whose summary is None (no frame of the run was a detection)
    gets nan in the four error columns.
    """
    nan = float("nan")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "mean_m", "median_m", "p95_m", "max_m"])
        for variant, seed, summary in rows:
            writer.writerow([variant, int(seed)] + [
                repr(nan if summary is None else summary[key])
                for key in ("mean", "median", "p95", "max")])


# -------------------------------------------------------- key-value text

def load_key_value(path) -> dict[str, list[list[str]]]:
    """Parse a structured key-value file.

    Each data line is `key token...`; repeated keys accumulate. Returns
    key -> list of token lists, preserving order of appearance.
    """
    out: dict[str, list[list[str]]] = {}
    for _lineno, (key, *tokens) in _data_lines(path):
        out.setdefault(key, []).append(tokens)
    return out


def load_scenario(path, layout: NodeLayout) -> ScenarioSpec:
    """Build a ScenarioSpec from a key-value scenario file.

    Keys, each optional: channels, eta, p0 (the loss at 1 m),
    calibration_frames, noise_sigma, fade_sigma, quantize (1/0, true/false,
    yes/no or on/off), seed; trajectory as repeated `waypoint k x y` lines
    (integer k) or one `stationary x y start_k n_frames`; repeated
    `fade_offset link_tx link_rx channel value` lines give explicit offsets,
    at most one per (link, channel); links without a line default to 0.
    """
    grammar = {
        **_scalars(float, "?", "eta", "p0", "noise_sigma", "fade_sigma"),
        **_scalars(int, "?", "calibration_frames", "seed"),
        **_scalars(_on_off, "?", "quantize"),
        "channels": ("channels channel...", (int, ...), "?"),
        "waypoint": ("waypoint k x y", (int, _finite, _finite), "*"),
        "stationary": ("stationary x y start_k n_frames", (_finite, _finite, int, int), "?"),
        "fade_offset": ("fade_offset tx rx channel value",
                        (_node_id, _node_id, int, _finite), "*"),
    }
    kwargs = {"layout": layout}
    waypoints, offsets = [], []
    for lineno, key, fields in _read(path, grammar):
        if key == "waypoint":
            waypoints.append(fields)
        elif key == "fade_offset":
            offsets.append((lineno, *fields))
        elif key == "stationary":  # x y start_k n_frames
            kwargs["trajectory"] = stationary_trajectory(fields[:2], *fields[2:])
        else:
            kwargs[key] = fields
    if waypoints:
        if "trajectory" in kwargs:
            raise ValueError(f"{path}: give either waypoint lines or stationary, not both")
        kwargs["trajectory"] = np.array(waypoints, dtype=float)
    if offsets:
        table = enumerate_links(layout)
        channels = kwargs.get("channels", DEFAULT_CHANNELS)
        kwargs["fade_offsets"] = np.zeros((table.n_links, len(channels)))
        kwargs["fade_offsets"][_cells(path, table, channels, offsets)] = [
            offset[4] for offset in offsets]
    try:
        return ScenarioSpec(**kwargs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario back to key-value text (layout stays separate)."""
    with open(path, "w") as fh:
        fh.write("# scenario\n")
        fh.write("channels " + " ".join(str(c) for c in spec.channels) + "\n")
        for key in ("eta", "p0", "noise_sigma", "fade_sigma"):
            fh.write(f"{key} {float(getattr(spec, key))!r}\n")
        fh.write(f"calibration_frames {spec.calibration_frames}\n")
        fh.write(f"quantize {1 if spec.quantize else 0}\n")
        fh.write(f"seed {spec.seed}\n")
        for k, x, y in spec.trajectory:
            fh.write(f"waypoint {int(k)} {float(x)!r} {float(y)!r}\n")
        if spec.fade_offsets is not None:
            table = enumerate_links(spec.layout)
            for l in range(table.n_links):
                tx, rx = int(table.tx_ids[l]), int(table.rx_ids[l])
                for ci, c in enumerate(spec.channels):
                    fh.write(
                        f"fade_offset {tx} {rx} {c} "
                        f"{float(spec.fade_offsets[l, ci])!r}\n"
                    )
