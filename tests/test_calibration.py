"""Calibration: channel map, TX power, path-loss fit, fade levels."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtikit.calibration import (
    FadeLevelTable,
    PathLossFit,
    RssFrame,
    calibrate,
    calibrate_means,
    channel_frequency,
    normalized_tx_power,
    path_loss,
)
from rtikit.geometry import NodeLayout, enumerate_links


def ring_layout(n=8, radius=4.0):
    ids = np.arange(1, n + 1)
    ang = 2 * np.pi * np.arange(n) / n
    return NodeLayout(ids=ids, xy=radius * np.column_stack((np.cos(ang), np.sin(ang))))


def test_channel_frequency_endpoints():
    assert channel_frequency(11) == 2405.0
    assert channel_frequency(26) == 2480.0
    assert channel_frequency(12) == 2410.0
    for bad in (10, 27, 0):
        with pytest.raises(ValueError):
            channel_frequency(bad)


def test_normalized_tx_power():
    assert normalized_tx_power(11) == pytest.approx(3.3304)
    assert normalized_tx_power(26) == pytest.approx(5.5084)
    # monotone increasing over the band
    powers = [normalized_tx_power(c) for c in range(11, 27)]
    assert all(b > a for a, b in zip(powers, powers[1:]))
    with pytest.raises(ValueError):
        normalized_tx_power(27)


def test_path_loss_shape():
    # halving log-distance slope: doubling d drops RSS by 10*eta*log10(2)
    base = path_loss(2.0, 11, p0=40.0, eta=2.3)
    assert path_loss(4.0, 11, p0=40.0, eta=2.3) == pytest.approx(
        base - 10 * 2.3 * np.log10(2)
    )
    assert path_loss(1.0, 11, p0=40.0, eta=2.3) == pytest.approx(
        normalized_tx_power(11) - 40.0
    )
    with pytest.raises(ValueError):
        path_loss(0.0, 11, p0=40.0, eta=2.3)


def test_path_loss_and_tx_power_arrays_are_their_scalar_calls():
    channels = np.arange(11, 27)
    distances = np.geomspace(0.3, 20.0, 9)[:, np.newaxis]
    power = normalized_tx_power(channels)
    predicted = path_loss(distances, channels, p0=41.3, eta=2.17)
    assert predicted.shape == (9, 16)
    for ci, c in enumerate(channels):
        assert power[ci] == normalized_tx_power(int(c))
        for li, d in enumerate(distances[:, 0]):
            assert predicted[li, ci] == path_loss(float(d), int(c), p0=41.3,
                                                  eta=2.17)
    with pytest.raises(ValueError, match=r"channel \[11 27\] outside"):
        normalized_tx_power([11, 27])
    with pytest.raises(ValueError, match="distance"):
        path_loss(np.array([1.0, 0.0]), 11, p0=40.0, eta=2.0)


def test_calibrate_recovers_exact_model():
    # Synthetic means built from a known model must be recovered exactly.
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 27)
    p0_true, eta_true = 38.5, 2.17
    mean = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        mean[:, ci] = [path_loss(d, c, p0_true, eta_true) for d in table.lengths]
    fades = calibrate_means(mean, channels, table)
    assert fades.fit.p0 == pytest.approx(p0_true, abs=1e-9)
    assert fades.fit.eta == pytest.approx(eta_true, abs=1e-9)
    assert fades.fit.rmse == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(fades.values, 0.0, atol=1e-9)
    assert fades.fit.n_pairs == table.n_links * channels.size


def test_calibrate_matches_lstsq_oracle_with_noise():
    # With noisy means the fit must equal the explicit normal-equations
    # solution of the pooled regression.
    rng = np.random.default_rng(42)
    layout = ring_layout(10)
    table = enumerate_links(layout)
    channels = np.arange(11, 19)
    mean = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        mean[:, ci] = [path_loss(d, c, 40.0, 2.0) for d in table.lengths]
    mean += rng.normal(0, 3.0, size=mean.shape)

    fades = calibrate_means(mean, channels, table)

    tx = np.array([normalized_tx_power(c) for c in channels])
    logd = -10.0 * np.log10(table.lengths)
    rows = []
    ys = []
    for l in range(table.n_links):
        for ci in range(channels.size):
            rows.append([logd[l], 1.0])
            ys.append(mean[l, ci] - tx[ci])
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(ys), rcond=None)
    assert fades.fit.eta == pytest.approx(coef[0], abs=1e-8)
    assert fades.fit.p0 == pytest.approx(-coef[1], abs=1e-8)
    # residual definition: F = mean - P(d, c)
    fit = fades.fit
    pred01 = path_loss(table.lengths[0], channels[1], fit.p0, fit.eta)
    assert fades.values[0, 1] == pytest.approx(mean[0, 1] - pred01, abs=1e-9)


def test_calibrate_offsets_shift_fades_not_fit_balance():
    # A fade offset pattern with zero mean per distance bucket leaves the
    # fitted slope near truth and shows up in the residuals.
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 27)
    mean = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        mean[:, ci] = [path_loss(d, c, 40.0, 2.0) for d in table.lengths]
    la, lb = table.link_index(1, 2), table.link_index(2, 3)  # both adjacent
    assert table.lengths[la] == pytest.approx(table.lengths[lb])
    offsets = np.zeros(table.n_links)
    offsets[la], offsets[lb] = +6.0, -6.0  # equal lengths: balanced
    mean += offsets[:, None]
    fades = calibrate_means(mean, channels, table)
    assert fades.values[la, 0] - fades.values[lb, 0] == pytest.approx(12.0, abs=1e-6)


def test_calibrate_nan_handling():
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 15)
    mean = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        mean[:, ci] = [path_loss(d, c, 40.0, 2.0) for d in table.lengths]
    mean[3, :] = np.nan
    mean[5, 2] = np.nan
    fades = calibrate_means(mean, channels, table)
    assert np.all(np.isnan(fades.values[3, :]))
    assert np.isnan(fades.values[5, 2])
    assert fades.fit.n_pairs == table.n_links * channels.size - channels.size - 1
    assert fades.fit.p0 == pytest.approx(40.0, abs=1e-9)
    np.testing.assert_array_equal(np.isnan(fades.mean_rss), np.isnan(fades.values))


def test_calibrate_errors():
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 15)
    with pytest.raises(ValueError):
        calibrate_means(np.zeros((3, channels.size)), channels, table)
    full = np.full((table.n_links, channels.size), np.nan)
    with pytest.raises(ValueError):
        calibrate_means(full, channels, table)
    # only one link observed -> one length, slope unidentifiable
    ids = np.array([1, 2, 3, 4])
    sq = NodeLayout(ids=ids, xy=np.array([[0, 0], [1, 0], [0.5, 2], [0.5, -2]], dtype=float))
    tbl = enumerate_links(sq)
    one = np.full((tbl.n_links, channels.size), np.nan)
    one[tbl.link_index(1, 2)] = [path_loss(1.0, c, 40.0, 2.0) for c in channels]
    with pytest.raises(ValueError, match="share one length"):
        calibrate_means(one, channels, tbl)
    # non-ascending channels rejected
    with pytest.raises(ValueError, match="ascending"):
        calibrate_means(np.zeros((tbl.n_links, 4)), np.array([14, 13, 12, 11]), tbl)


RING = enumerate_links(ring_layout())  # 28 links in 4 length classes


@st.composite
def sparse_means(draw):
    """(L, C) means on RING for 1-4 channels, most pairs unobserved (NaN)."""
    channels = sorted(draw(st.sets(st.integers(11, 26), min_size=1,
                                   max_size=4)))
    shape = (RING.n_links, len(channels))
    observed = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
    values = draw(st.lists(st.floats(-100.0, -20.0),
                           min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]))
    mean = np.where(np.reshape(observed, shape), np.reshape(values, shape),
                    np.nan)
    # NaN-heavy: only the first `keep` pairs in C order may stay observed
    keep = draw(st.integers(0, shape[0] * shape[1]))
    mean.ravel()[keep:] = np.nan
    return mean, np.array(channels)


@settings(max_examples=150, deadline=None)
@given(sparse_means())
@example((np.where(np.isin(np.arange(28), [0, 6])[:, None], -50.0, np.nan),
          np.array([11])))  # single channel, two adjacent links: one length
@example((np.where(np.isin(np.arange(28), [0, 1])[:, None], -50.0, np.nan),
          np.array([26])))  # single channel, two lengths
def test_calibrate_means_sparse_inputs_defined_or_rejected(case):
    # Any NaN pattern gives a table that is NaN exactly where unobserved,
    # or the documented ValueError: fewer than two observed pairs, or
    # every observed link of one length (no slope to fit).
    mean, channels = case
    observed = ~np.isnan(mean)
    lengths = RING.lengths[np.nonzero(observed)[0]]
    if observed.sum() < 2:
        with pytest.raises(ValueError, match="at least 2 observed"):
            calibrate_means(mean, channels, RING)
        return
    if np.allclose(lengths, lengths[0], rtol=1e-9):
        with pytest.raises(ValueError, match="share one length"):
            calibrate_means(mean, channels, RING)
        return
    fades = calibrate_means(mean, channels, RING)
    assert np.array_equal(np.isnan(fades.values), ~observed)
    assert np.isfinite(fades.values[observed]).all()
    assert np.array_equal(fades.mean_rss, mean, equal_nan=True)
    assert fades.fit.n_pairs == observed.sum()
    assert np.isfinite([fades.fit.p0, fades.fit.eta, fades.fit.rmse]).all()
    # least-squares residuals of a fit with an intercept: zero sum, and
    # orthogonal to the regressor -10 log10(d)
    residual = fades.values[observed]
    x = -10.0 * np.log10(lengths)
    scale = np.abs(mean[observed]).max() * residual.size
    assert abs(residual.sum()) <= 1e-9 * scale
    assert abs(residual @ x) <= 1e-9 * scale * np.abs(x).max()
    assert fades.fit.rmse == pytest.approx(
        np.sqrt(np.mean(residual**2)), rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(length_class=st.integers(0, 3), n_channels=st.integers(1, 4),
       values=st.lists(st.floats(-100.0, -20.0), min_size=28 * 4,
                       max_size=28 * 4))
def test_calibrate_means_one_observed_length_raises(length_class, n_channels,
                                                    values):
    # Every observed link the same length, on any number of channels.
    classes = np.unique(np.round(RING.lengths, 9))
    on = np.isclose(RING.lengths, classes[length_class])
    assert on.sum() >= 4
    mean = np.reshape(values, (RING.n_links, 4))[:, :n_channels].copy()
    mean[~on] = np.nan
    with pytest.raises(ValueError, match="share one length"):
        calibrate_means(mean, np.arange(11, 11 + n_channels), RING)


def test_calibrate_from_frames_matches_means_path():
    # Frame-based calibration must equal calibrating the per-pair means,
    # with missing samples simply left out of each average.
    rng = np.random.default_rng(5)
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 15)
    base = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        base[:, ci] = [path_loss(d, c, 40.0, 2.0) for d in table.lengths]
    frames = []
    for k in range(30):
        rss = base + rng.normal(0, 2.0, size=base.shape)
        if k % 3 == 0:
            rss[1, 2] = np.nan  # drop one pair in a third of the frames
        frames.append(RssFrame(k=k, rss=rss, channels=channels))
    fades = calibrate(frames, table)

    count = np.full(base.shape, 30.0)
    count[1, 2] = 20.0
    total = np.zeros(base.shape)
    for f in frames:
        total += np.where(np.isnan(f.rss), 0.0, f.rss)
    expect = calibrate_means(total / count, channels, table)
    assert fades.fit.p0 == pytest.approx(expect.fit.p0, abs=1e-12)
    assert fades.fit.eta == pytest.approx(expect.fit.eta, abs=1e-12)
    np.testing.assert_allclose(fades.values, expect.values, atol=1e-12)


@pytest.mark.parametrize("channels, n_links, message", [
    ([11, 13], 28, r"^frame k=1 has channels \[11, 13\] over 28 links, not the "
                   r"channels \[11, 12\] over 28 links of the first frame and "
                   r"link table$"),
    ([11, 12], 27, r"^frame k=1 has channels \[11, 12\] over 27 links, not the "
                   r"channels \[11, 12\] over 28 links of the first frame and "
                   r"link table$"),
], ids=["channels", "links"])
def test_calibrate_rejects_frame_of_other_channels_or_links(channels, n_links,
                                                            message):
    table = enumerate_links(ring_layout())
    frames = [RssFrame(k=0, rss=np.full((28, 2), -50.0), channels=[11, 12]),
              RssFrame(k=1, rss=np.full((n_links, 2), -50.0), channels=channels)]
    with pytest.raises(ValueError, match=message):
        calibrate(frames, table)


def test_calibrate_frames_never_observed_pair_is_nan():
    layout = ring_layout()
    table = enumerate_links(layout)
    channels = np.arange(11, 13)
    base = np.empty((table.n_links, channels.size))
    for ci, c in enumerate(channels):
        base[:, ci] = [path_loss(d, c, 40.0, 2.0) for d in table.lengths]
    frames = []
    for k in range(5):
        rss = base.copy()
        rss[2, 0] = np.nan
        frames.append(RssFrame(k=k, rss=rss, channels=channels))
    fades = calibrate(frames, table)
    assert np.isnan(fades.values[2, 0])
    assert not np.isnan(fades.values[2, 1])
    with pytest.raises(ValueError):
        calibrate([], table)
    bad = [RssFrame(k=0, rss=base, channels=channels),
           RssFrame(k=1, rss=base[:, :1], channels=channels[:1])]
    with pytest.raises(ValueError):
        calibrate(bad, table)


def test_rss_frame_validation():
    channels = np.array([11, 12])
    frame = RssFrame(k=3, rss=np.array([[-50.0, np.nan]]), channels=channels)
    assert frame.rss[0, 0] == -50.0
    assert np.isnan(frame.rss[0, 1])
    with pytest.raises(ValueError):
        RssFrame(k=0, rss=np.zeros((2, 2)), channels=np.array([10, 11]))
    with pytest.raises(ValueError):
        RssFrame(k=0, rss=np.zeros((2, 2)), channels=np.array([12, 11]))
    with pytest.raises(ValueError):
        RssFrame(k=0, rss=np.array([[np.inf, 0.0]]), channels=channels)


def test_non_integral_channels_and_k_are_rejected_not_truncated():
    """A channel or a k that is not a whole number is an error wherever it
    enters, before any cast to int could truncate it; a whole float is the
    integer it equals."""
    table = enumerate_links(ring_layout())
    rss = np.zeros((table.n_links, 1))
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.7$"):
        RssFrame(k=2.7, rss=rss, channels=[11])
    with pytest.raises(ValueError, match=r"^k must be an integer, got True$"):
        RssFrame(k=True, rss=rss, channels=[11])
    with pytest.raises(ValueError, match=r"^channels must be whole numbers, got \[11\.5\]$"):
        RssFrame(k=2, rss=rss, channels=[11.5])
    for bad in ([np.nan], [11.0, 16.2]):
        with pytest.raises(ValueError, match="^channels must be whole numbers"):
            RssFrame(k=2, rss=np.zeros((table.n_links, len(bad))), channels=bad)
    frame = RssFrame(k=np.int64(2), rss=rss, channels=np.array([11.0]))
    assert type(frame.k) is int and frame.channels.dtype.kind == "i"
    mean = np.random.default_rng(1).uniform(-70, -40, (table.n_links, 1))
    with pytest.raises(ValueError, match="^channels must be whole numbers"):
        calibrate_means(mean, [11.5], table)
    assert calibrate_means(mean, [11.0], table).channels.dtype.kind == "i"
    fit = PathLossFit(p0=40.0, eta=2.0, n_pairs=2, rmse=0.0)
    with pytest.raises(ValueError, match="^channels must be whole numbers"):
        FadeLevelTable(values=mean, mean_rss=mean, channels=np.array([11.5]),
                       fit=fit)
    with pytest.raises(ValueError, match=r"^channel 11\.7 is not a whole number$"):
        channel_frequency(11.7)
    with pytest.raises(ValueError, match=r"^channel 11\.9 is not a whole number$"):
        normalized_tx_power(11.9)
    with pytest.raises(ValueError, match="is not a whole number"):
        normalized_tx_power([11, 12.5])
    with pytest.raises(ValueError, match="is not a whole number"):
        channel_frequency(np.nan)
    with pytest.raises(ValueError, match="outside"):
        channel_frequency(np.inf)
    assert channel_frequency(12.0) == 2410.0
    assert normalized_tx_power(12.0) == normalized_tx_power(12)


@pytest.mark.parametrize("hole", ["values", "mean_rss"])
def test_fade_table_needs_one_nan_mask(hole):
    """A pair is uncalibrated in both arrays or in neither: a fade level
    over no baseline, or a baseline with no fade level, is rejected."""
    arrays = {"values": np.zeros((3, 2)), "mean_rss": np.full((3, 2), -55.0)}
    arrays[hole][1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN on the same pairs"):
        FadeLevelTable(**arrays, channels=np.array([11, 12]),
                       fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=5, rmse=0.0))


@pytest.mark.parametrize("channels, match", [
    ([26, 11], "^channels must be strictly ascending$"),
    ([11, 11], "^channels must be strictly ascending$"),
    ([5, 40], r"^channels must lie in \[11, 26\]$"),
    ([26, 27], r"^channels must lie in \[11, 26\]$"),
])
def test_fade_table_channels_follow_the_frame_rule(channels, match):
    """A fade table's channel set is checked as a frame's is, at
    construction, and not first when a frame meets it."""
    fit = PathLossFit(p0=40.0, eta=2.0, n_pairs=6, rmse=0.0)
    arrays = {"values": np.zeros((3, 2)), "mean_rss": np.full((3, 2), -55.0)}
    with pytest.raises(ValueError, match=match):
        FadeLevelTable(**arrays, channels=np.array(channels), fit=fit)
    with pytest.raises(ValueError, match=match):
        RssFrame(k=0, rss=arrays["mean_rss"], channels=channels)
