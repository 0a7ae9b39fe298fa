"""Empty-room calibration: path-loss fit and per-link fade levels.

From a person-free RSS recording we fit one log-distance path-loss model
pooled over all links and channels, after removing the known per-channel
transmit-power offset. The residual of each link/channel mean against the
fitted model is its fade level: positive in anti-fade (constructive
multipath), negative in deep fade. Missing link/channel combinations stay
NaN; downstream they get all-zero multi-scale weight rows, a zero
measurement and no place in the flrti channel choice.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import LinkTable, check_bounds

__all__ = [
    "CHANNEL_MIN",
    "CHANNEL_MAX",
    "channel_frequency",
    "normalized_tx_power",
    "path_loss",
    "check_channels",
    "check_frame",
    "check_ascending_k",
    "RssFrame",
    "FadeLevelTable",
    "PathLossFit",
    "calibrate",
    "calibrate_means",
]

CHANNEL_MIN = 11
CHANNEL_MAX = 26

# Measured per-channel TX power trend of the 2.4 GHz radios, linear in the
# channel number (dB).
_TX_POWER_SLOPE = 0.1452
_TX_POWER_INTERCEPT = 1.7332


def _whole(values: np.ndarray) -> bool:
    """Whether every value is a whole number; NaN is not one."""
    return values.dtype.kind != "f" or bool(np.all(values == np.trunc(values)))


def _channel_numbers(channel) -> np.ndarray:
    """A channel, or an array of them, as integers; ValueError for one that
    is not a whole number in 11..26, raised before any cast truncates it."""
    channel = np.asarray(channel)
    if not _whole(channel):
        raise ValueError(f"channel {channel} is not a whole number")
    if np.any((channel < CHANNEL_MIN) | (channel > CHANNEL_MAX)):
        raise ValueError(f"channel {channel} outside [{CHANNEL_MIN}, {CHANNEL_MAX}]")
    return channel.astype(int)


def channel_frequency(channel: int) -> float:
    """Center frequency in MHz of a 2.4 GHz channel (11..26)."""
    return 2405.0 + 5.0 * (int(_channel_numbers(channel)) - 11)


def normalized_tx_power(channel: int) -> float:
    """Relative transmit power of a channel in dB, linear in channel number.

    Elementwise on an array of channels; any channel that is not a whole
    number in 11..26 raises.
    """
    return _TX_POWER_SLOPE * _channel_numbers(channel) + _TX_POWER_INTERCEPT


def path_loss(distance: float, channel: int, p0: float, eta: float) -> float:
    """Predicted obstruction-free RSS in dBm at a TX-RX distance.

    P(d, c) = P_T(c) - p0 - 10 eta log10(d), d in meters, elementwise over
    distance and channel arrays, which broadcast against each other.

    Args:
        distance: TX-RX separation in meters, > 0.
        channel: channel number, used only for its TX-power offset.
        p0: loss at 1 m in dB.
        eta: path-loss exponent.

    Returns:
        Predicted RSS in dBm.
    """
    if np.any(np.asarray(distance) <= 0):
        raise ValueError("distance must be > 0")
    return normalized_tx_power(channel) - p0 - 10.0 * eta * np.log10(distance)


def check_channels(channels: np.ndarray) -> None:
    """Raise ValueError unless a frame's, fade table's or scenario's channels
    are whole numbers that strictly ascend in 11..26; checked before any
    cast to int, which would truncate them."""
    if not _whole(channels):
        raise ValueError(f"channels must be whole numbers, got {channels.tolist()}")
    if channels.size and (channels.min() < CHANNEL_MIN or channels.max() > CHANNEL_MAX):
        raise ValueError(f"channels must lie in [{CHANNEL_MIN}, {CHANNEL_MAX}]")
    if np.any(np.diff(channels) <= 0):
        raise ValueError("channels must be strictly ascending")


@dataclass(frozen=True, eq=False)
class RssFrame:
    """One synchronized RSS snapshot across all links and channels.

    Attributes:
        k: time index, an integer.
        rss: (L, C) RSS in dBm; NaN marks a missing sample.
        channels: (C,) channel numbers, strictly ascending, within 11..26.
    """

    k: int
    rss: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        check_bounds(self, k="an integer")
        rss = np.asarray(self.rss, dtype=float)
        channels = np.asarray(self.channels)
        if rss.ndim != 2 or rss.shape[1] != channels.size:
            raise ValueError("rss must be (L, C) matching channels")
        check_channels(channels)
        if np.any(np.isinf(rss)):
            raise ValueError("rss values must be finite or NaN")
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "channels", channels.astype(int, copy=False))
        object.__setattr__(self, "k", int(self.k))


def check_frame(frame: RssFrame, channels: np.ndarray, n_links: int,
                against: str) -> None:
    """Raise ValueError unless the frame carries these channels over n_links
    links, naming k, both sets and counts, and `against`, their source."""
    if frame.rss.shape[0] != n_links or not np.array_equal(frame.channels, channels):
        raise ValueError(
            f"frame k={frame.k} has channels {frame.channels.tolist()} over "
            f"{frame.rss.shape[0]} links, not the channels "
            f"{channels.tolist()} over {n_links} links of {against}")


def check_ascending_k(frames) -> None:
    """Raise ValueError at the first frame of a list whose k is not above
    the k of the frame before it, naming both k."""
    for before, frame in zip(frames, frames[1:]):
        if frame.k <= before.k:
            raise ValueError(f"frame k={frame.k} follows k={before.k}; "
                             f"k must strictly ascend")


@dataclass(frozen=True)
class PathLossFit:
    """Fitted log-distance model parameters.

    Attributes:
        p0: loss at 1 m in dB.
        eta: path-loss exponent.
        n_pairs: number of (link, channel) means that entered the fit.
        rmse: root-mean-square residual of the fit in dB.
    """

    p0: float
    eta: float
    n_pairs: int
    rmse: float

    def __post_init__(self):
        check_bounds(self, p0="finite", eta="finite", n_pairs="an integer >= 0",
                     rmse="finite and >= 0")


@dataclass(frozen=True, eq=False)
class FadeLevelTable:
    """Per-(link, channel) fade levels from an empty-room recording.

    Attributes:
        values: (L, C) fade levels in dB; NaN marks never-observed pairs.
        mean_rss: (L, C) empty-room mean RSS in dBm, NaN where values is.
        channels: (C,) channel numbers, strictly ascending, within 11..26.
        fit: the pooled path-loss fit the fade levels are residuals of.
    """

    values: np.ndarray
    mean_rss: np.ndarray
    channels: np.ndarray
    fit: PathLossFit

    def __post_init__(self):
        check_channels(self.channels)
        if self.values.shape != self.mean_rss.shape:
            raise ValueError("values and mean_rss must have matching shapes")
        if self.values.shape[1] != self.channels.size:
            raise ValueError("channel axis mismatch")
        if not np.array_equal(np.isnan(self.values), np.isnan(self.mean_rss)):
            raise ValueError("values and mean_rss must be NaN on the same pairs")

    @property
    def n_links(self) -> int:
        return self.values.shape[0]


def calibrate(frames, table: LinkTable) -> FadeLevelTable:
    """Calibrate from an empty-room recording.

    Averages each (link, channel)'s available samples across frames, then
    fits the pooled path-loss model (see calibrate_means). Pairs with zero
    samples stay NaN and contribute nothing downstream.

    Args:
        frames: iterable of RssFrame, all sharing one channel set.
        table: link table supplying per-link distances.

    Returns:
        FadeLevelTable.

    Raises:
        ValueError: no frames, a frame without the first frame's channels
            or the table's links (check_frame), or any condition
            calibrate_means rejects.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("calibration needs at least one frame")
    channels = frames[0].channels
    shape = (table.n_links, channels.size)
    total = np.zeros(shape)
    count = np.zeros(shape, dtype=np.int64)
    for f in frames:
        check_frame(f, channels, table.n_links, "the first frame and link table")
        present = ~np.isnan(f.rss)
        total[present] += f.rss[present]
        count += present
    with np.errstate(invalid="ignore"):
        mean = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return calibrate_means(mean, channels, table)


def calibrate_means(mean_rss: np.ndarray, channels, table: LinkTable) -> FadeLevelTable:
    """Fit the pooled path-loss model and derive fade levels.

    The fit removes the known TX-power offset P_T(c) from each mean and
    regresses the remainder on -10 log10(d), d in meters, with an intercept,
    pooling every observed (link, channel) pair into one ordinary
    least-squares problem. Slope is eta, negated intercept is p0, the loss
    at 1 m. Fade levels are then F = mean_rss - P(d, c).

    Args:
        mean_rss: (L, C) empty-room mean RSS in dBm; NaN = unobserved.
        channels: (C,) channel numbers matching the columns.
        table: link table supplying per-link distances.

    Returns:
        FadeLevelTable with fitted model and residual fade levels.

    Raises:
        ValueError: shape mismatch, < 2 observed pairs, or degenerate
            distance spread (all links the same length).
    """
    mean_rss = np.asarray(mean_rss, dtype=float)
    channels = np.asarray(channels)
    if mean_rss.ndim != 2 or mean_rss.shape[0] != table.n_links:
        raise ValueError(
            f"mean_rss must be (L, C) with L={table.n_links}, got {mean_rss.shape}"
        )
    if mean_rss.shape[1] != channels.size:
        raise ValueError("mean_rss columns must match channels")
    check_channels(channels)
    channels = channels.astype(int, copy=False)

    tx_power = normalized_tx_power(channels)
    log_term = -10.0 * np.log10(table.lengths)  # (L,)

    mask = ~np.isnan(mean_rss)
    n_pairs = int(mask.sum())
    if n_pairs < 2:
        raise ValueError(f"need at least 2 observed (link, channel) pairs, got {n_pairs}")

    # y = mean - P_T(c) = -p0 + eta * log_term, solved by least squares.
    y = (mean_rss - tx_power[None, :])[mask]
    x = np.broadcast_to(log_term[:, None], mean_rss.shape)[mask]
    if np.ptp(x) < 1e-12:
        raise ValueError("cannot fit path loss: all observed links share one length")
    eta, neg_p0 = np.polyfit(x, y, 1)
    p0 = -neg_p0

    residual = mean_rss - path_loss(table.lengths[:, None], channels, p0, eta)
    rmse = float(np.sqrt(np.mean(residual[mask] ** 2)))
    fade = np.where(mask, residual, np.nan)
    return FadeLevelTable(
        values=fade,
        mean_rss=mean_rss.copy(),
        channels=channels,
        fit=PathLossFit(p0=float(p0), eta=float(eta), n_pairs=n_pairs, rmse=rmse),
    )
