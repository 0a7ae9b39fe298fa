"""File I/O: traces, layouts, ground truth, fade tables, images, configs.

Every on-disk format of the toolkit is implemented here, with load/save
round-trip fidelity. All formats are line-oriented text with `#` comments;
parse errors carry `path:lineno:` prefixes. Records for (a, b) and (b, a)
fold onto the same undirected link.
"""

import csv
import warnings
from itertools import chain

import numpy as np

from .calibration import FadeLevelTable, PathLossFit, RssFrame
from .geometry import LinkTable, NodeLayout, VoxelGrid
from .simulator import DEFAULT_CHANNELS, ScenarioSpec

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


def _data_lines(path):
    """Yield (lineno, stripped line) skipping blanks and # comments."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _fail(path, lineno, msg):
    raise ValueError(f"{path}:{lineno}: {msg}")


# ---------------------------------------------------------------- layout

def load_layout(path) -> NodeLayout:
    """Read a node layout: one `id x y` line per node."""
    ids, xs, ys = [], [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected `id x y`, got {len(parts)} fields")
        try:
            ids.append(int(parts[0]))
            xs.append(float(parts[1]))
            ys.append(float(parts[2]))
        except ValueError:
            _fail(path, lineno, f"unparseable node line: {line!r}")
    try:
        return NodeLayout(ids=np.array(ids, dtype=int),
                          xy=np.column_stack((xs, ys)) if ids else np.zeros((0, 2)))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_layout(layout: NodeLayout, path) -> None:
    with open(path, "w") as fh:
        fh.write("# node layout: id x y\n")
        for i, (x, y) in zip(layout.ids, layout.xy):
            fh.write(f"{int(i)} {float(x)!r} {float(y)!r}\n")


# ----------------------------------------------------------------- trace

def load_trace(path, table: LinkTable) -> list[RssFrame]:
    """Read an RSS trace: `k tx_id rx_id channel rss_dbm` records.

    Records are grouped into frames by time index k (ascending). `NA`
    marks a dropped packet. Duplicate (k, link, channel) records keep the
    last value and emit a warning. Unknown node pairs and malformed lines
    raise with the line number.
    """
    records = {}  # (k, link, channel) -> rss or nan
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 5:
            _fail(path, lineno, f"expected `k tx rx channel rss`, got {len(parts)} fields")
        try:
            k = int(parts[0])
            tx, rx = int(parts[1]), int(parts[2])
            channel = int(parts[3])
            rss = np.nan if parts[4] == "NA" else float(parts[4])
        except ValueError:
            _fail(path, lineno, f"unparseable trace line: {line!r}")
        try:
            link = table.link_index(tx, rx)
        except KeyError as e:
            _fail(path, lineno, str(e))
        key = (k, link, channel)
        if key in records:
            warnings.warn(
                f"{path}:{lineno}: duplicate record for k={k} "
                f"link=({tx},{rx}) channel={channel}; last wins"
            )
        records[key] = rss

    if not records:
        return []
    keys = np.fromiter(chain.from_iterable(records), dtype=np.int64,
                       count=3 * len(records)).reshape(-1, 3)  # k, link, channel
    values = np.fromiter(records.values(), dtype=float, count=len(records))
    del records  # the arrays hold everything from here on
    channel_list = np.unique(keys[:, 2])
    ks, frame_of = np.unique(keys[:, 0], return_inverse=True)
    rss = np.full((ks.size, table.n_links, channel_list.size), np.nan)
    rss[frame_of, keys[:, 1], np.searchsorted(channel_list, keys[:, 2])] = values
    return [RssFrame(k=int(k), rss=r, channels=channel_list)
            for k, r in zip(ks, rss)]


def save_trace(frames, table: LinkTable, path) -> None:
    """Write frames as trace records, including explicit NA rows so the
    frame shape survives a round trip."""
    with open(path, "w") as fh:
        fh.write("# rss trace: k tx_id rx_id channel rss_dbm\n")
        for frame in frames:
            for l in range(table.n_links):
                tx, rx = int(table.tx_ids[l]), int(table.rx_ids[l])
                for ci, c in enumerate(frame.channels):
                    v = frame.rss[l, ci]
                    text = "NA" if np.isnan(v) else repr(float(v))
                    fh.write(f"{frame.k} {tx} {rx} {int(c)} {text}\n")


# ---------------------------------------------------------- ground truth

def load_ground_truth(path) -> dict[int, tuple[float, float]]:
    """Read `k x y` truth rows into a k -> position map; k must ascend."""
    truth = {}
    last_k = None
    for lineno, line in _data_lines(path):
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected `k x y`, got {len(parts)} fields")
        try:
            k, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            _fail(path, lineno, f"unparseable truth line: {line!r}")
        if last_k is not None and k <= last_k:
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
        fh.write(f"d0 {fades.fit.d0!r}\n")
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
    """Read a fade table saved by save_fade_table."""
    header = {}
    pairs = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if parts[0] == "pair":
            if len(parts) != 6:
                _fail(path, lineno, "expected `pair tx rx channel mean fade`")
            try:
                tx, rx, channel = int(parts[1]), int(parts[2]), int(parts[3])
                mean = np.nan if parts[4] == "NA" else float(parts[4])
                fade = np.nan if parts[5] == "NA" else float(parts[5])
            except ValueError:
                _fail(path, lineno, f"unparseable pair line: {line!r}")
            try:
                link = table.link_index(tx, rx)
            except KeyError as e:
                _fail(path, lineno, str(e))
            pairs.append((link, channel, mean, fade))
        elif parts[0] == "channels":
            header["channels"] = [int(c) for c in parts[1:]]
        elif len(parts) == 2:
            header[parts[0]] = parts[1]
        else:
            _fail(path, lineno, f"unrecognized line: {line!r}")
    for key in ("p0", "eta", "d0", "n_pairs", "rmse", "channels"):
        if key not in header:
            raise ValueError(f"{path}: missing header key {key!r}")
    channels = np.array(header["channels"], dtype=int)
    col = {c: i for i, c in enumerate(channels)}
    values = np.full((table.n_links, channels.size), np.nan)
    mean_rss = np.full_like(values, np.nan)
    for link, channel, mean, fade in pairs:
        if channel not in col:
            raise ValueError(f"{path}: pair channel {channel} not in header")
        values[link, col[channel]] = fade
        mean_rss[link, col[channel]] = mean
    fit = PathLossFit(
        p0=float(header["p0"]), eta=float(header["eta"]), d0=float(header["d0"]),
        n_pairs=int(header["n_pairs"]), rmse=float(header["rmse"]),
    )
    return FadeLevelTable(values=values, mean_rss=mean_rss, channels=channels, fit=fit)


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
    header = {}
    rows = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if not _looks_numeric(parts[0]):
            if parts[0] == "origin":
                if len(parts) != 3:
                    _fail(path, lineno, "origin needs two values")
                header["origin"] = (float(parts[1]), float(parts[2]))
            elif len(parts) == 2:
                header[parts[0]] = parts[1]
            else:
                _fail(path, lineno, f"unrecognized header line: {line!r}")
        else:
            try:
                rows.extend(float(v) for v in parts)
            except ValueError:
                _fail(path, lineno, f"unparseable values: {line!r}")
    for key in ("nx", "ny", "p", "origin"):
        if key not in header:
            raise ValueError(f"{path}: missing header key {key!r}")
    grid = VoxelGrid(origin=header["origin"], p=float(header["p"]),
                     nx=int(header["nx"]), ny=int(header["ny"]))
    values = np.array(rows)
    if values.size != grid.n_voxels:
        raise ValueError(
            f"{path}: {values.size} values for {grid.n_voxels}-voxel grid"
        )
    return values, grid


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# ------------------------------------------------------------- track CSV

def save_track_csv(rows, path, with_truth: bool) -> None:
    """Write tracking output.

    Args:
        rows: iterables (k, x_hat, y_hat) or (k, x_hat, y_hat, x_true,
            y_true, error_m) matching with_truth.
        path: output path.
        with_truth: whether truth/error columns are present.
    """
    header = (["k", "x_hat", "y_hat", "x_true", "y_true", "error_m"]
              if with_truth else ["k", "x_hat", "y_hat"])
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
    """Read a track CSV back into tuples (numbers, k as int)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return out
        for row in reader:
            out.append((int(row[0]), *(float(v) for v in row[1:])))
    return out


def save_benchmark_csv(rows, path) -> None:
    """Write benchmark results: one row per (variant, scenario, seed).

    A row whose summary is None (no frame of the run was a detection)
    gets nan in the four error columns.
    """
    nan = float("nan")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "scenario", "seed",
                         "mean_m", "median_m", "p95_m", "max_m"])
        for variant, scenario, seed, summary in rows:
            writer.writerow([variant, scenario, int(seed)] + [
                repr(nan if summary is None else summary[key])
                for key in ("mean", "median", "p95", "max")])


# -------------------------------------------------------- key-value text

def load_key_value(path) -> dict[str, list[list[str]]]:
    """Parse a structured key-value file.

    Each data line is `key token...`; repeated keys accumulate. Returns
    key -> list of token lists, preserving order of appearance.
    """
    out: dict[str, list[list[str]]] = {}
    for _lineno, line in _data_lines(path):
        parts = line.split()
        out.setdefault(parts[0], []).append(parts[1:])
    return out


def _single(kv, key, path):
    if len(kv[key]) != 1:
        raise ValueError(f"{path}: key {key!r} given {len(kv[key])} times")
    return kv[key][0]


def load_scenario(path, layout: NodeLayout) -> ScenarioSpec:
    """Build a ScenarioSpec from a key-value scenario file.

    Recognized keys: channels, eta, p0, d0, calibration_frames,
    noise_sigma, fade_sigma, quantize (1/0, true/false, yes/no or on/off,
    anything else raises), seed; trajectory as repeated `waypoint k x y`
    lines or one `stationary x y start_k n_frames`; optional repeated
    `fade_offset link_tx link_rx channel value` lines give explicit
    offsets (links without a line default to 0).
    """
    kv = load_key_value(path)
    kwargs = {"layout": layout}
    scalar_keys = {
        "eta": float, "p0": float, "d0": float,
        "calibration_frames": int, "noise_sigma": float,
        "fade_sigma": float, "seed": int,
    }
    for key, cast in scalar_keys.items():
        if key in kv:
            (value,) = _single(kv, key, path)
            kwargs[key] = cast(value)
    if "quantize" in kv:
        (value,) = _single(kv, "quantize", path)
        on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
        if value.lower() not in on + off:
            raise ValueError(f"{path}: quantize {value!r} is not one of {on + off}")
        kwargs["quantize"] = value.lower() in on
    if "channels" in kv:
        kwargs["channels"] = tuple(int(c) for c in _single(kv, "channels", path))

    if "waypoint" in kv and "stationary" in kv:
        raise ValueError(f"{path}: give either waypoint lines or stationary, not both")
    if "waypoint" in kv:
        kwargs["trajectory"] = np.array(
            [[float(t[0]), float(t[1]), float(t[2])] for t in kv["waypoint"]]
        )
    elif "stationary" in kv:
        x, y, start_k, n = _single(kv, "stationary", path)
        from .simulator import stationary_trajectory

        kwargs["trajectory"] = stationary_trajectory(
            (float(x), float(y)), int(start_k), int(n)
        )

    if "fade_offset" in kv:
        from .geometry import enumerate_links

        table = enumerate_links(layout)
        channels = kwargs.get("channels", DEFAULT_CHANNELS)
        col = {int(c): i for i, c in enumerate(channels)}
        offsets = np.zeros((table.n_links, len(channels)))
        for tokens in kv["fade_offset"]:
            if len(tokens) != 4:
                raise ValueError(f"{path}: fade_offset needs `tx rx channel value`")
            tx, rx, channel, value = tokens
            link = table.link_index(int(tx), int(rx))
            offsets[link, col[int(channel)]] = float(value)
        kwargs["fade_offsets"] = offsets
    return ScenarioSpec(**kwargs)


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write a scenario back to key-value text (layout stays separate)."""
    with open(path, "w") as fh:
        fh.write("# scenario\n")
        fh.write("channels " + " ".join(str(c) for c in spec.channels) + "\n")
        for key in ("eta", "p0", "d0", "noise_sigma", "fade_sigma"):
            fh.write(f"{key} {float(getattr(spec, key))!r}\n")
        fh.write(f"calibration_frames {spec.calibration_frames}\n")
        fh.write(f"quantize {1 if spec.quantize else 0}\n")
        fh.write(f"seed {spec.seed}\n")
        for k, x, y in spec.trajectory:
            fh.write(f"waypoint {int(k)} {float(x)!r} {float(y)!r}\n")
        if spec.fade_offsets is not None:
            from .geometry import enumerate_links

            table = enumerate_links(spec.layout)
            for l in range(table.n_links):
                tx, rx = int(table.tx_ids[l]), int(table.rx_ids[l])
                for ci, c in enumerate(spec.channels):
                    fh.write(
                        f"fade_offset {tx} {rx} {c} "
                        f"{float(spec.fade_offsets[l, ci])!r}\n"
                    )
