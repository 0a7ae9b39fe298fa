"""Weight matrices: ellipse-width model, classic A, multi-scale W."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtikit import spatial_model
from rtikit.calibration import FadeLevelTable, PathLossFit, calibrate, path_loss
from rtikit.geometry import (NodeLayout, VoxelGrid, enumerate_links,
                             excess_path_field)
from rtikit.spatial_model import (
    DIR_DOWN,
    DIR_UP,
    EllipseModelParams,
    WeightMatrix,
    build_classic_weights,
    build_multiscale_weights,
    lambda_for,
)
import reference_pipeline
from reference_pipeline import assert_same_weights, row


def ring(n=8, radius=4.0):
    ids = np.arange(1, n + 1)
    ang = 2 * np.pi * np.arange(n) / n
    return NodeLayout(ids=ids, xy=radius * np.column_stack((np.cos(ang), np.sin(ang))))


def flat_fades(table, channels, value):
    """Fade table with one constant fade level everywhere."""
    vals = np.full((table.n_links, len(channels)), float(value))
    return FadeLevelTable(
        values=vals,
        mean_rss=np.zeros_like(vals),
        channels=np.asarray(channels, dtype=int),
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=vals.size, rmse=0.0),
    )


def test_lambda_for_anchor_values():
    params = EllipseModelParams()
    assert lambda_for(8.0, DIR_DOWN, params) == pytest.approx(0.0530, abs=5e-4)
    assert lambda_for(-8.0, DIR_DOWN, params) == pytest.approx(0.8413, abs=1e-3)
    assert lambda_for(0.0, DIR_UP, params) == pytest.approx(0.5016)
    assert lambda_for(8.0, DIR_UP, params) == pytest.approx(0.542223, abs=1e-5)
    assert lambda_for(0.0, DIR_DOWN, params) == pytest.approx(0.2112)


def test_lambda_for_monotonicity_and_clamp():
    params = EllipseModelParams()
    fs = np.linspace(-12, 12, 25)
    down = [lambda_for(f, DIR_DOWN, params) for f in fs]
    up = [lambda_for(f, DIR_UP, params) for f in fs]
    assert all(b < a for a, b in zip(down, down[1:]))  # decreasing in F
    assert all(b > a for a, b in zip(up, up[1:]))      # increasing in F
    # deep fade hits the clamp: F = -20 would give ~6.7 m unclamped
    assert lambda_for(-20.0, DIR_DOWN, params) == pytest.approx(3.0)
    small = EllipseModelParams(lambda_max=0.1)
    assert lambda_for(0.0, DIR_UP, small) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        lambda_for(np.nan, DIR_DOWN, params)
    with pytest.raises(ValueError):
        lambda_for(0.0, "x", params)


def test_lambda_for_array_is_its_scalar_call_entry_by_entry():
    # The weights and the simulator call lambda_for on (L, C) fade tables;
    # each entry is bit for bit the scalar call, and NaN (an unobserved
    # pair) gives NaN where a scalar NaN raises.
    params = EllipseModelParams()
    fades = np.linspace(-30.0, 30.0, 63).reshape(-1, 3)  # clamp included
    fades[4, 1] = np.nan
    for direction in (DIR_UP, DIR_DOWN):
        widths = lambda_for(fades, direction, params)
        assert widths.shape == fades.shape
        for f, w in zip(fades.ravel(), widths.ravel()):
            if np.isnan(f):
                assert np.isnan(w)
            else:
                assert w == lambda_for(float(f), direction, params)


def test_params_validation():
    with pytest.raises(ValueError):
        EllipseModelParams(k_lambda_minus=1.0)
    with pytest.raises(ValueError):
        EllipseModelParams(k_lambda_plus=-1.0)
    with pytest.raises(ValueError):
        EllipseModelParams(b_lambda_minus=0.0)
    with pytest.raises(ValueError):
        EllipseModelParams(lambda_max=0.0)


def test_classic_weights_value_and_oracle():
    layout = ring(8)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.3)
    lam = 0.5
    wm = build_classic_weights(table, layout, grid, lam=lam)
    assert wm.matrix.shape == (table.n_links, grid.n_voxels)
    assert_same_weights(wm, reference_pipeline.classic_weights(layout, grid, lam))


def test_classic_weights_distance_value():
    # d = 4 -> nonzero weights all 0.5
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(0.0, -1.0), p=0.5, nx=8, ny=4)
    wm = build_classic_weights(table, layout, grid, lam=0.6)
    row = wm.matrix.getrow(table.link_index(1, 2))
    assert row.nnz > 0
    assert np.allclose(row.data, 0.5)


def test_classic_weights_tiny_lambda_near_empty():
    layout = ring(8)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.3)
    wm = build_classic_weights(table, layout, grid, lam=0.0)
    assert wm.matrix.nnz == 0
    with pytest.raises(ValueError):
        build_classic_weights(table, layout, grid, lam=-0.1)


@pytest.mark.parametrize("name, edit", [
    ("band", lambda a: a.__setitem__((0, 0), 0)),
    ("reach", lambda a: a.__setitem__(slice(2), (-1, 0))),
    ("value", lambda a: a.__imul__(2.0)),
])
def test_weight_arrays_are_read_only_once_u_and_s_are_derived(name, edit):
    """An edit of reach once left back_project returning the old Wᵀy."""
    layout = ring(8)
    grid = VoxelGrid.from_layout(layout, p=0.3)
    wm = build_classic_weights(enumerate_links(layout), layout, grid, lam=0.5)
    y = np.arange(wm.n_rows, dtype=float)
    back = wm.back_project(y)
    with pytest.raises(ValueError, match="read-only"):
        edit(getattr(wm, name))
    np.testing.assert_array_equal(wm.back_project(y), back)
    # a new array gives new weights, as cdrti's √C-scaled copy is built
    scaled = replace(wm, value=wm.value * 2.0)
    np.testing.assert_array_equal(scaled.back_project(y), 2.0 * back)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_classic_weights_reject_non_finite_lambda(lam):
    """NaN used to give an all-zero W and inf a W with every voxel in every
    ellipse."""
    layout = ring(6)
    grid = VoxelGrid.from_layout(layout, p=0.5)
    with pytest.raises(ValueError,
                       match=f"lam must be finite and >= 0, got {lam!r}"):
        build_classic_weights(enumerate_links(layout), layout, grid, lam=lam)


def test_multiscale_row_order_and_values():
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    channels = [11, 14]
    fades = flat_fades(table, channels, 0.0)
    params = EllipseModelParams()
    wm = build_multiscale_weights(table, layout, grid, fades, params)

    assert wm.n_rows == 2 * table.n_links * len(channels)
    # ordering: channel asc, then "+" block, then "-" block, links in order;
    # each row: constant value 1/(n p^2) on exactly its membership set
    assert_same_weights(wm, reference_pipeline.multiscale_weights(
        layout, grid, fades, params))


def test_multiscale_weight_value_example():
    # n = 50 members, p = 0.1524 -> weight 0.861112 each
    assert 1.0 / (50 * 0.1524**2) == pytest.approx(0.861112, abs=1e-5)


def test_multiscale_antifade_asymmetry():
    # At F = +8 the loss ellipse is much thinner than the gain ellipse.
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    fades = flat_fades(table, [11], 8.0)
    wm = build_multiscale_weights(table, layout, grid, fades)
    n = table.n_links
    for l in range(n):
        n_up = wm.matrix.getrow(row(0, DIR_UP, l, n)).nnz
        n_down = wm.matrix.getrow(row(0, DIR_DOWN, l, n)).nnz
        assert n_down <= n_up


def test_multiscale_excluded_pairs():
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    channels = np.array([11, 12])
    vals = np.zeros((table.n_links, 2))
    vals[4, 0] = np.nan
    vals[7, 1] = np.nan
    fades = FadeLevelTable(
        values=vals, mean_rss=np.where(np.isnan(vals), np.nan, 0.0),
        channels=channels, fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=10, rmse=0.0),
    )
    wm = build_multiscale_weights(table, layout, grid, fades)
    with pytest.raises(ValueError,
                       match="^fade table covers 15 links, table has 10$"):
        build_multiscale_weights(enumerate_links(ring(5)), ring(5), grid, fades)
    # uncalibrated pairs keep their two rows, all zero; the row layout
    # stays (channel, direction, link)
    n = table.n_links
    assert wm.n_rows == 2 * n * 2
    calibrated = build_multiscale_weights(table, layout, grid, flat_fades(
        table, channels, 0.0))
    empty = {row(c, d, l, n) for c, l in ((0, 4), (1, 7))
             for d in (DIR_UP, DIR_DOWN)}
    for r in range(wm.n_rows):
        got = wm.matrix.getrow(r)
        if r in empty:
            assert got.nnz == 0
        else:
            assert (got != calibrated.matrix.getrow(r)).nnz == 0
    assert wm.matrix.getrow(row(1, DIR_UP, 4, n)).nnz > 0


def test_multiscale_matches_independent_loop():
    # Full cross-check of the vectorized builder against the reference's
    # per-row loop, with varied fades.
    rng = np.random.default_rng(11)
    layout = ring(5, radius=3.0)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.4)
    channels = np.array([11, 19, 26])
    vals = rng.uniform(-10, 10, size=(table.n_links, 3))
    fades = FadeLevelTable(
        values=vals, mean_rss=np.zeros_like(vals), channels=channels,
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=30, rmse=0.0),
    )
    params = EllipseModelParams()
    wm = build_multiscale_weights(table, layout, grid, fades, params)
    assert_same_weights(wm, reference_pipeline.multiscale_weights(
        layout, grid, fades, params))


def test_multiscale_deterministic():
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    fades = flat_fades(table, [11, 12], -3.0)
    a = build_multiscale_weights(table, layout, grid, fades)
    b = build_multiscale_weights(table, layout, grid, fades)
    assert (a.matrix != b.matrix).nnz == 0


# Fade levels that give: an uncalibrated pair (NaN), a down-direction
# width clamped at lambda_max (-40), a down-direction row too thin to hold
# a voxel center (40), and an up-direction width clamped too (400). Drawn
# repeatedly, they also tie widths across channels.
FADE_SPECIALS = (np.nan, -40.0, 0.0, 40.0, 400.0)
PROPERTY_LAYOUT = ring(6, radius=3.0)
PROPERTY_TABLE = enumerate_links(PROPERTY_LAYOUT)
PROPERTY_GRID = VoxelGrid.from_layout(PROPERTY_LAYOUT, p=0.5)


def assert_back_projection(wm, reference, seed, n_columns):
    """W equals the reference (see assert_same_weights); the ellipses give
    the W of the band factors exactly; U·(S·y) equals Wᵀy from the
    reference within 1e-12 of its largest entry, for a 1-D y and a
    (rows, K) block."""
    assert_same_weights(wm, reference)
    link = np.arange(wm.n_rows) % PROPERTY_TABLE.n_links
    inside = wm.band[link] <= wm.reach[:, np.newaxis]
    assert np.array_equal(np.where(inside, wm.value[:, np.newaxis], 0.0),
                          wm.matrix.toarray())
    rng = np.random.default_rng(seed)
    for y in (rng.standard_normal(wm.n_rows),
              rng.standard_normal((wm.n_rows, n_columns))):
        expect = reference.T @ y
        got = wm.back_project(y)
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())


@st.composite
def fade_tables(draw):
    n_channels = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.one_of(st.sampled_from(FADE_SPECIALS),
                  st.floats(-20.0, 20.0, allow_nan=False)),
        min_size=PROPERTY_TABLE.n_links * n_channels,
        max_size=PROPERTY_TABLE.n_links * n_channels))
    values = np.reshape(values, (PROPERTY_TABLE.n_links, n_channels))
    return FadeLevelTable(
        values=values, mean_rss=np.where(np.isnan(values), np.nan, 0.0),
        channels=np.arange(11, 11 + n_channels),
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=10, rmse=0.0),
    )


@settings(max_examples=60, deadline=None)
@given(fades=fade_tables(), lambda_max=st.sampled_from([0.3, 3.0]),
       seed=st.integers(0, 2**32 - 1), n_columns=st.integers(1, 4))
def test_multiscale_band_factors_back_project_like_w(fades, lambda_max, seed,
                                                     n_columns):
    params = EllipseModelParams(lambda_max=lambda_max)
    wm = build_multiscale_weights(PROPERTY_TABLE, PROPERTY_LAYOUT,
                                  PROPERTY_GRID, fades, params)
    reference = reference_pipeline.multiscale_weights(
        PROPERTY_LAYOUT, PROPERTY_GRID, fades, params)
    assert_back_projection(wm, reference, seed, n_columns)


@settings(max_examples=30, deadline=None)
@given(lam=st.sampled_from([0.0, 1e-4, 0.3, 2.0]) | st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_classic_band_factors_back_project_like_w(lam, seed):
    wm = build_classic_weights(PROPERTY_TABLE, PROPERTY_LAYOUT, PROPERTY_GRID,
                               lam)
    reference = reference_pipeline.classic_weights(PROPERTY_LAYOUT,
                                                   PROPERTY_GRID, lam)
    assert_back_projection(wm, reference, seed, 2)


def assert_same_ellipses(wm, reference):
    """band, reach, value, U and S equal the reference's (`mask_ellipses`)
    exactly: every array of U and S too, and each dtype."""
    band, reach, value, u, s = reference
    for got, want in ((wm.band, band), (wm.reach, reach), (wm.value, value)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for got, want in ((wm.bands, u), (wm.band_sums, s)):
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))


@st.composite
def property_grids(draw):
    """Grids from 1 × 9 to 13 × 11 voxels, centred on PROPERTY_LAYOUT."""
    nx, ny = draw(st.integers(1, 13)), draw(st.integers(9, 11))
    p = draw(st.sampled_from([0.3, 0.5, 0.8]))
    return VoxelGrid(origin=(-nx * p / 2, -ny * p / 2), p=p, nx=nx, ny=ny)


@settings(max_examples=60, deadline=None)
@given(fades=fade_tables(), lambda_max=st.sampled_from([0.3, 3.0]),
       grid=property_grids())
def test_multiscale_ellipses_equal_the_mask_reference(fades, lambda_max, grid):
    """Without the (R, L, N) membership mask, the multi-scale weights are
    those of the mask, array for array: NaN pairs, widths clamped at
    lambda_max, tied widths and rows that hold no voxel included."""
    params = EllipseModelParams(lambda_max=lambda_max)
    wm = build_multiscale_weights(PROPERTY_TABLE, PROPERTY_LAYOUT, grid,
                                  fades, params)
    excess = excess_path_field(PROPERTY_TABLE, PROPERTY_LAYOUT, grid.centers())
    assert_same_ellipses(wm, reference_pipeline.multiscale_ellipses(
        excess, fades, params, grid.p))


@settings(max_examples=30, deadline=None)
@given(lam=st.sampled_from([0.0, 1e-4, 0.3, 2.0]) | st.floats(0.0, 2.0),
       grid=property_grids())
def test_classic_ellipses_equal_the_mask_reference(lam, grid):
    wm = build_classic_weights(PROPERTY_TABLE, PROPERTY_LAYOUT, grid, lam)
    excess = excess_path_field(PROPERTY_TABLE, PROPERTY_LAYOUT, grid.centers())
    assert_same_ellipses(wm, reference_pipeline.classic_ellipses(
        excess, PROPERTY_TABLE.lengths, lam))


TIE_VALUES = (0.0, 0.1, 0.25, 0.5, 3.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), per_link=st.integers(1, 4), n_links=st.integers(1, 5),
       n_voxels=st.integers(1, 20))
def test_ellipse_rows_equal_the_mask_reference_on_exact_ties(
        data, per_link, n_links, n_voxels):
    """Excess lengths and widths drawn from a few values, so that a voxel's
    excess often equals a width exactly (it is outside: excess < width
    holds it), widths tie and NaN widths hold nothing."""
    excess = np.array(data.draw(st.lists(
        st.sampled_from(TIE_VALUES), min_size=n_links * n_voxels,
        max_size=n_links * n_voxels))).reshape(n_links, n_voxels)
    lam = np.array(data.draw(st.lists(
        st.sampled_from(TIE_VALUES + (np.nan,)), min_size=per_link * n_links,
        max_size=per_link * n_links)))
    def value(counts):
        return 1.0 / np.maximum(counts, 1)

    assert_same_ellipses(spatial_model._ellipse_rows(excess, lam, value),
                         reference_pipeline.mask_ellipses(excess, lam, value))


def test_weight_matrix_checks_shapes_and_ranges():
    # W = [[0, 2, 2], [3, 0, 0]]: two links of one row each, link 0's
    # ellipse holding voxels 1 and 2 and link 1's voxel 0
    band = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
    reach, value = np.array([0, 0]), np.array([2.0, 3.0])
    wm = WeightMatrix(band=band, reach=reach, value=value)
    assert (wm.n_rows, wm.n_voxels) == (2, 3)
    assert_same_weights(wm, np.array([[0.0, 2.0, 2.0], [3.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(wm.back_project(np.array([1.0, -1.0])),
                                  [-3.0, 2.0, 2.0])
    broken = [
        ("3 rows are not a whole number of rows for each of 2 links",
         band, np.zeros(3, dtype=int), np.ones(3)),
        ("1 rows are not", band, reach[:1], value[:1]),
        ("0 rows are not", band, reach[:0], value[:0]),
        ("of the same length", band, reach, np.ones(4)),
        ("band must be unsigned and <= 1", band + np.uint8(1), reach, value),
        ("band must be unsigned", band.astype(int), reach, value),
        (r"reach must be integers in \[-1, 0\]", band, np.array([0, 1]), value),
        (r"reach must be integers in \[-1, 0\]", band, np.array([-2, 0]), value),
        ("reach must be integers", band, reach.astype(float), value),
    ]
    for match, b, r, v in broken:
        with pytest.raises(ValueError, match=match):
            WeightMatrix(band=b, reach=r, value=v)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="value must be finite and >= 0"):
            WeightMatrix(band=band, reach=reach, value=np.array([2.0, bad]))
