"""Measurement model: decay rates, probabilities, holds, stacking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtikit.calibration import FadeLevelTable, PathLossFit, RssFrame
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, VariantPipeline
from rtikit.measurement_model import (
    HoldBuffer,
    MeasurementModelParams,
    beta_plus,
    inside_probability,
    stacked_probabilities,
)
from rtikit.spatial_model import DIR_DOWN, DIR_UP, build_multiscale_weights
import reference_pipeline
from reference_pipeline import row


def small_net():
    ids = np.array([1, 2, 3, 4])
    xy = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout)
    return layout, table


def fade_table(table, channels, values):
    """A table with baseline -55 dBm on every pair whose fade is not NaN."""
    values = np.asarray(values, dtype=float)
    return FadeLevelTable(
        values=values,
        mean_rss=np.where(np.isnan(values), np.nan, -55.0),
        channels=np.asarray(channels, dtype=int),
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=values.size, rmse=0.0),
    )


def test_beta_plus_values():
    params = MeasurementModelParams()
    assert beta_plus(0.0, params) == pytest.approx(0.1839)
    assert beta_plus(8.0, params) == pytest.approx(0.3403, abs=1e-4)
    assert beta_plus(-8.0, params) == pytest.approx(0.0994, abs=1e-4)
    # strictly increasing in fade level
    fs = np.linspace(-10, 10, 15)
    bs = [beta_plus(f, params) for f in fs]
    assert all(b > a for a, b in zip(bs, bs[1:]))
    with pytest.raises(ValueError):
        beta_plus(np.nan, params)


def test_beta_plus_array_is_its_scalar_call_entry_by_entry():
    params = MeasurementModelParams()
    fades = np.linspace(-30.0, 30.0, 63).reshape(-1, 3)
    fades[4, 1] = np.nan
    rates = beta_plus(fades, params)
    assert rates.shape == fades.shape
    for f, rate in zip(fades.ravel(), rates.ravel()):
        if np.isnan(f):
            assert np.isnan(rate)
        else:
            assert rate == beta_plus(float(f), params)


def test_inside_probability_published_points():
    params = MeasurementModelParams()
    d, p = inside_probability(-10.0, 8.0, params)
    assert d == DIR_DOWN and p == pytest.approx(0.69, abs=5e-3)
    d, p = inside_probability(10.0, 8.0, params)
    assert d == DIR_UP and p == pytest.approx(0.97, abs=5e-3)
    d, p = inside_probability(10.0, -8.0, params)
    assert d == DIR_UP and p == pytest.approx(0.63, abs=5e-3)


def test_inside_probability_properties():
    params = MeasurementModelParams()
    # p(0) = 0, loss direction by convention
    d, p = inside_probability(0.0, 3.0, params)
    assert d == DIR_DOWN and p == 0.0
    # monotone non-decreasing in |dr| per direction; capped below 1
    for sign in (-1.0, 1.0):
        last = -1.0
        for mag in np.linspace(0.0, 40.0, 30):
            _, p = inside_probability(sign * mag, 2.0, params)
            assert 0.0 <= p < 1.0
            assert p >= last
            last = p
    # loss probability independent of F; gain probability grows with F
    _, pa = inside_probability(-7.0, -9.0, params)
    _, pb = inside_probability(-7.0, 9.0, params)
    assert pa == pytest.approx(pb)
    _, ga = inside_probability(7.0, -9.0, params)
    _, gb = inside_probability(7.0, 9.0, params)
    assert gb > ga
    with pytest.raises(ValueError):
        inside_probability(np.nan, 0.0, params)


def test_params_validation():
    with pytest.raises(ValueError):
        MeasurementModelParams(beta_minus=0.0)
    with pytest.raises(ValueError):
        MeasurementModelParams(hold_frames=-1)
    with pytest.raises(ValueError,
                       match="^hold_frames must be an integer >= 0, got 2.5$"):
        MeasurementModelParams(hold_frames=2.5)


def no_hold(fades):
    """A hold buffer with no window: a missing sample counts as Δr = 0."""
    return HoldBuffer(fades.n_links, fades.channels.size, hold_frames=0)


def filled_change(frame, fades, hold=None):
    """The frame's filled (L, C) Δr, as VariantPipeline.measurement forms it."""
    if hold is None:
        hold = no_hold(fades)
    return hold.update(frame.rss - fades.mean_rss)


def test_filled_change_basic_and_uncalibrated():
    _, table = small_net()
    channels = [11, 12]
    vals = np.zeros((table.n_links, 2))
    vals[2, 1] = np.nan  # uncalibrated pair
    fades = fade_table(table, channels, vals)
    rss = np.full((table.n_links, 2), -55.0)
    rss[0, 0] = -65.0  # shadowing: dr = -10
    rss[1, 1] = -50.0  # gain: dr = +5
    rss[3, 0] = np.nan  # missing, no hold window -> 0
    frame = RssFrame(k=0, rss=rss, channels=np.array(channels))
    dr = filled_change(frame, fades)
    assert dr[0, 0] == pytest.approx(-10.0)
    assert dr[1, 1] == pytest.approx(5.0)
    assert dr[3, 0] == 0.0
    assert dr[2, 1] == 0.0  # uncalibrated: a gap on every frame
    assert dr[0, 1] == 0.0
    assert not np.isnan(dr).any()


def small_pipeline(fades, layout):
    """An rti pipeline with the default config on a 0.3 m grid."""
    grid = VoxelGrid.from_layout(layout, p=0.3)
    return VariantPipeline("rti", fades, layout, grid, PipelineConfig())


def test_measurement_channel_mismatch():
    layout, table = small_net()
    fades = fade_table(table, [11, 12], np.zeros((table.n_links, 2)))
    frame = RssFrame(k=0, rss=np.zeros((table.n_links, 2)),
                     channels=np.array([11, 13]))
    with pytest.raises(ValueError,
                       match=r"^frame k=0 has channels \[11, 13\] over 6 links, "
                             r"not the channels \[11, 12\] over 6 links of the "
                             r"fade table$"):
        small_pipeline(fades, layout).measurement(frame)


def test_measurement_rss_shape_mismatch():
    layout, table = small_net()
    fades = fade_table(table, [11, 12], np.zeros((table.n_links, 2)))
    frame = RssFrame(k=0, rss=np.zeros((table.n_links - 1, 2)),
                     channels=np.array([11, 12]))
    with pytest.raises(ValueError,
                       match=r"^frame k=0 has channels \[11, 12\] over 5 links, "
                             r"not the channels \[11, 12\] over 6 links of the "
                             r"fade table$"):
        small_pipeline(fades, layout).measurement(frame)


def test_hold_window_counts_frames_not_k():
    """A gap in k with no frame in it costs no hold: with hold_frames 5, a
    pair seen at k = 200 and missing at k = 300, the next frame, still
    reads its k = 200 loss."""
    layout, table = small_net()
    fades = fade_table(table, [11], np.zeros((table.n_links, 1)))
    rss = np.full((table.n_links, 1), -55.0)
    rss[0, 0] = -61.0  # Δr = -6
    pipeline = small_pipeline(fades, layout)
    assert pipeline.config.measurement.hold_frames == 5
    assert pipeline.measurement(RssFrame(k=200, rss=rss, channels=[11]))[0] == 6.0
    rss[0, 0] = np.nan
    assert pipeline.measurement(RssFrame(k=300, rss=rss, channels=[11]))[0] == 6.0


def test_hold_buffer_window_then_zero():
    # One pair goes missing: held for hold_frames frames, then zeroed,
    # and a fresh sample resets the count.
    hold = HoldBuffer(1, 1, hold_frames=3)
    out = hold.update(np.array([[-6.0]]))
    assert out[0, 0] == -6.0
    for _ in range(3):  # within window -> held
        out = hold.update(np.array([[np.nan]]))
        assert out[0, 0] == -6.0
    out = hold.update(np.array([[np.nan]]))  # expired
    assert out[0, 0] == 0.0
    out = hold.update(np.array([[2.0]]))  # fresh again
    assert out[0, 0] == 2.0
    out = hold.update(np.array([[np.nan]]))
    assert out[0, 0] == 2.0


def test_hold_buffer_no_history_and_uncalibrated():
    # Pair 0 has no sample yet; pair 1, uncalibrated, has a NaN Δr on every
    # frame. Both are gaps with no history, and read 0 on every frame.
    hold = HoldBuffer(2, 1, hold_frames=5)
    for _ in range(8):
        out = hold.update(np.array([[np.nan], [np.nan]]))
        np.testing.assert_array_equal(out, [[0.0], [0.0]])
    with pytest.raises(ValueError):
        hold.update(np.zeros((3, 3)))


def _grid(draw, cells, shape):
    size = int(np.prod(shape))
    return np.reshape(draw(st.lists(cells, min_size=size, max_size=size)), shape)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), hold_frames=st.integers(0, 3))
def test_filled_change_is_the_reference_hold_with_no_nan(data, hold_frames):
    """Over random frame sequences with random missing samples and
    never-calibrated pairs, the hold buffer fed rss minus the empty-room
    mean gives the reference's per-sample hold rule frame by frame, with 0
    wherever the reference has no value."""
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
    uncalibrated = _grid(data.draw, st.booleans(), shape)
    mean_rss = np.where(uncalibrated, np.nan,
                        _grid(data.draw, st.floats(-90.0, -30.0), shape))
    channels = np.arange(11, 11 + shape[1])
    fades = FadeLevelTable(
        values=np.where(uncalibrated, np.nan, 0.0), mean_rss=mean_rss,
        channels=channels, fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=2, rmse=0.0))
    sample = st.floats(-100.0, -20.0) | st.just(np.nan)
    frames = [RssFrame(k=k, rss=_grid(data.draw, sample, shape), channels=channels)
              for k in range(data.draw(st.integers(1, 12)))]
    hold = HoldBuffer(*shape, hold_frames=hold_frames)
    want = np.nan_to_num(reference_pipeline.deltas(frames, fades, hold_frames))
    for frame, expect in zip(frames, want):
        np.testing.assert_array_equal(filled_change(frame, fades, hold), expect)


@pytest.mark.parametrize("hold_frames", [2.5, -2, 3.0])
def test_hold_buffer_takes_only_an_integer_hold(hold_frames):
    """The buffer checks hold_frames as MeasurementModelParams does, and
    truncates nothing."""
    with pytest.raises(ValueError, match=rf"^hold_frames must be an integer >= 0, "
                                         rf"got {hold_frames}$"):
        HoldBuffer(1, 1, hold_frames=hold_frames)
    assert HoldBuffer(1, 1, hold_frames=np.int64(3)).hold_frames == 3


def test_hold_zero_frames_is_zero_policy():
    hold = HoldBuffer(1, 1, hold_frames=0)
    hold.update(np.array([[-4.0]]))
    out = hold.update(np.array([[np.nan]]))
    assert out[0, 0] == 0.0


def assemble(fades, params, delta_r):
    """msrti's measurement of a filled Δr, as the pipeline builds it."""
    return stacked_probabilities(delta_r, beta_plus(fades.values, params),
                                 params.beta_minus)


def test_assemble_single_change_placement():
    layout, table = small_net()
    grid = VoxelGrid.from_layout(layout, p=0.3)
    channels = [11, 14]
    vals = np.full((table.n_links, 2), 8.0)
    fades = fade_table(table, channels, vals)
    weights = build_multiscale_weights(table, layout, grid, fades)
    params = MeasurementModelParams()

    rss = fades.mean_rss.copy()
    rss[2, 0] -= 10.0  # single shadowing event on link 2, channel 11
    frame = RssFrame(k=5, rss=rss, channels=np.array(channels))
    y = assemble(fades, params, filled_change(frame, fades))

    assert y.shape == (weights.n_rows,)
    nz = np.nonzero(y)[0]
    assert nz.size == 1
    assert nz[0] == row(0, DIR_DOWN, 2, table.n_links)
    assert y[nz[0]] == pytest.approx(0.69, abs=5e-3)


def test_assemble_zero_frame_and_length():
    layout, table = small_net()
    grid = VoxelGrid.from_layout(layout, p=0.3)
    channels = [11, 12, 13]
    fades = fade_table(table, channels, np.zeros((table.n_links, 3)))
    weights = build_multiscale_weights(table, layout, grid, fades)
    frame = RssFrame(k=0, rss=fades.mean_rss.copy(), channels=np.array(channels))
    y = assemble(fades, MeasurementModelParams(), filled_change(frame, fades))
    assert y.shape == (weights.n_rows,) == (2 * table.n_links * 3,)
    assert np.all(y == 0.0)


def test_assemble_matches_reference_everywhere():
    # Vectorized assembly must agree bit for bit with the reference
    # pipeline's per-sample loop on every row, for random frames including
    # gains and losses.
    rng = np.random.default_rng(23)
    _, table = small_net()
    channels = [11, 12]
    vals = rng.uniform(-9, 9, size=(table.n_links, 2))
    fades = fade_table(table, channels, vals)
    config = PipelineConfig()
    for k in range(4):
        rss = fades.mean_rss + rng.normal(0, 6.0, size=fades.mean_rss.shape)
        frame = RssFrame(k=k, rss=rss, channels=np.array(channels))
        y = assemble(fades, config.measurement, filled_change(frame, fades))
        want = reference_pipeline.measurements("msrti", [frame], fades, config)
        np.testing.assert_array_equal(y, want[0])
        # exclusive slot occupancy
        for c in range(len(channels)):
            for l in range(table.n_links):
                up = y[row(c, DIR_UP, l, table.n_links)]
                down = y[row(c, DIR_DOWN, l, table.n_links)]
                assert up == 0.0 or down == 0.0
        assert np.all((y >= 0) & (y < 1))


def test_assemble_excluded_rows_absent():
    # An uncalibrated pair keeps both of its slots, and both read zero
    # whatever its RSS does, like its two all-zero weight rows.
    layout, table = small_net()
    grid = VoxelGrid.from_layout(layout, p=0.3)
    channels = [11]
    vals = np.zeros((table.n_links, 1))
    vals[4, 0] = np.nan
    fades = fade_table(table, channels, vals)
    weights = build_multiscale_weights(table, layout, grid, fades)
    rss = np.full_like(fades.mean_rss, -55.0)
    rss[4, 0] = -75.0  # change on the uncalibrated pair: nowhere to go
    frame = RssFrame(k=0, rss=rss, channels=np.array(channels))
    y = assemble(fades, MeasurementModelParams(), filled_change(frame, fades))
    assert y.shape == (weights.n_rows,) == (2 * table.n_links,)
    assert np.all(y == 0.0)
    for d in (DIR_UP, DIR_DOWN):
        assert weights.matrix.getrow(row(0, d, 4, table.n_links)).nnz == 0
