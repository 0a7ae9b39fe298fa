"""Weight matrices: ellipse-width model, classic A, multi-scale W."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from rtikit.calibration import FadeLevelTable, PathLossFit, calibrate, path_loss
from rtikit.geometry import (
    NodeLayout,
    VoxelGrid,
    ellipse_membership,
    enumerate_links,
    excess_path_length,
)
from rtikit.spatial_model import (
    DIR_DOWN,
    DIR_UP,
    EllipseModelParams,
    WeightMatrix,
    build_classic_weights,
    build_multiscale_weights,
    lambda_for,
)
from weight_reference import (
    assert_same_csr,
    classic_reference,
    multiscale_reference,
)


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
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=vals.size, rmse=0.0),
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


def test_params_validation():
    with pytest.raises(ValueError):
        EllipseModelParams(k_down=1.0)
    with pytest.raises(ValueError):
        EllipseModelParams(k_up=-1.0)
    with pytest.raises(ValueError):
        EllipseModelParams(b_down=0.0)
    with pytest.raises(ValueError):
        EllipseModelParams(lambda_max=0.0)


def test_classic_weights_value_and_oracle():
    layout = ring(8)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.3)
    lam = 0.5
    wm = build_classic_weights(table, layout, grid, lam=lam)
    assert wm.matrix.shape == (table.n_links, grid.n_voxels)
    dense = wm.matrix.toarray()
    # brute force straight from the definition
    for l in range(table.n_links):
        val = 1.0 / np.sqrt(table.lengths[l])
        for j in range(grid.n_voxels):
            inside = excess_path_length(l, grid.center_of(j), table, layout) < lam
            assert dense[l, j] == pytest.approx(val if inside else 0.0)
    assert wm.row_keys.index(3) == 3


def test_classic_weights_distance_value():
    # d = 4 -> nonzero weights all 0.5
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout, mode="explicit_list", pairs=[(1, 2)])
    grid = VoxelGrid(origin=(0.0, -1.0), p=0.5, nx=8, ny=4)
    wm = build_classic_weights(table, layout, grid, lam=0.6)
    row = wm.matrix.getrow(0)
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


def test_multiscale_row_order_and_values():
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    channels = [11, 14]
    fades = flat_fades(table, channels, 0.0)
    params = EllipseModelParams()
    wm = build_multiscale_weights(table, layout, grid, fades, params)

    L = table.n_links
    assert wm.n_rows == 2 * L * len(channels)
    # ordering: channel asc, then "+" block, then "-" block, links in order
    expect = []
    for c in channels:
        expect += [(c, l, DIR_UP) for l in range(L)]
        expect += [(c, l, DIR_DOWN) for l in range(L)]
    assert list(wm.row_keys) == expect

    # each row: constant value 1/(n p^2) on exactly its membership set
    for row, (c, l, d) in enumerate(wm.row_keys):
        lam = lambda_for(0.0, d, params)
        members = ellipse_membership(l, lam, grid, table, layout)
        got = wm.matrix.getrow(row)
        assert set(got.indices.tolist()) == set(members.tolist())
        if members.size:
            assert np.allclose(got.data, 1.0 / (members.size * grid.p**2))


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
    for l in range(table.n_links):
        n_up = wm.matrix.getrow(wm.row_keys.index((11, l, DIR_UP))).nnz
        n_down = wm.matrix.getrow(wm.row_keys.index((11, l, DIR_DOWN))).nnz
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
        values=vals, mean_rss=np.zeros_like(vals), channels=channels,
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=10, rmse=0.0),
    )
    wm = build_multiscale_weights(table, layout, grid, fades)
    # uncalibrated pairs keep their two rows, all zero; the row layout
    # stays (channel, direction, link)
    assert wm.n_rows == 2 * table.n_links * 2
    calibrated = build_multiscale_weights(table, layout, grid, flat_fades(
        table, channels, 0.0))
    assert wm.row_keys == calibrated.row_keys
    empty = {(11, 4, DIR_UP), (11, 4, DIR_DOWN), (12, 7, DIR_UP),
             (12, 7, DIR_DOWN)}
    for row, key in enumerate(wm.row_keys):
        got = wm.matrix.getrow(row)
        if key in empty:
            assert got.nnz == 0
        else:
            assert (got != calibrated.matrix.getrow(row)).nnz == 0
    assert wm.matrix.getrow(wm.row_keys.index((12, 4, DIR_UP))).nnz > 0


def test_multiscale_matches_independent_loop():
    # Full cross-check of the vectorized builder against a per-row loop
    # built only from lambda_for + ellipse_membership, with varied fades.
    rng = np.random.default_rng(11)
    layout = ring(5, radius=3.0)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.4)
    channels = np.array([11, 19, 26])
    vals = rng.uniform(-10, 10, size=(table.n_links, 3))
    fades = FadeLevelTable(
        values=vals, mean_rss=np.zeros_like(vals), channels=channels,
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=30, rmse=0.0),
    )
    params = EllipseModelParams()
    wm = build_multiscale_weights(table, layout, grid, fades, params)
    dense = wm.matrix.toarray()
    for row, (c, l, d) in enumerate(wm.row_keys):
        ci = int(np.nonzero(channels == c)[0][0])
        lam = lambda_for(vals[l, ci], d, params)
        members = set(
            j for j in range(grid.n_voxels)
            if excess_path_length(l, grid.center_of(j), table, layout) < lam
        )
        expect = np.zeros(grid.n_voxels)
        if members:
            expect[sorted(members)] = 1.0 / (len(members) * grid.p**2)
        np.testing.assert_allclose(dense[row], expect, atol=1e-12)


def test_multiscale_deterministic():
    layout = ring(6)
    table = enumerate_links(layout)
    grid = VoxelGrid.from_layout(layout, p=0.25)
    fades = flat_fades(table, [11, 12], -3.0)
    a = build_multiscale_weights(table, layout, grid, fades)
    b = build_multiscale_weights(table, layout, grid, fades)
    assert a.row_keys == b.row_keys
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
    """W equals the reference in data, indices and indptr; U·(S·y) equals
    Wᵀy from the reference within 1e-12 of its largest entry, for a 1-D y
    and a (rows, K) block; U is 0/1 with one band per (voxel, link)."""
    assert_same_csr(wm.matrix, reference)
    u, s = wm.bands, wm.band_sums
    assert np.array_equal(u.data, np.ones(u.nnz))
    per_link = u.shape[1] // PROPERTY_TABLE.n_links
    for voxel in range(u.shape[0]):
        links = u.indices[u.indptr[voxel]:u.indptr[voxel + 1]] // per_link
        assert np.unique(links).size == links.size
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
        values=values, mean_rss=np.zeros_like(values),
        channels=np.arange(11, 11 + n_channels),
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=10, rmse=0.0),
    )


@settings(max_examples=60, deadline=None)
@given(fades=fade_tables(), lambda_max=st.sampled_from([0.3, 3.0]),
       seed=st.integers(0, 2**32 - 1), n_columns=st.integers(1, 4))
def test_multiscale_band_factors_back_project_like_w(fades, lambda_max, seed,
                                                     n_columns):
    params = EllipseModelParams(lambda_max=lambda_max)
    wm = build_multiscale_weights(PROPERTY_TABLE, PROPERTY_LAYOUT,
                                  PROPERTY_GRID, fades, params)
    reference = multiscale_reference(PROPERTY_TABLE, PROPERTY_LAYOUT,
                                     PROPERTY_GRID, fades, params)
    assert_back_projection(wm, reference, seed, n_columns)


@settings(max_examples=30, deadline=None)
@given(lam=st.sampled_from([0.0, 1e-4, 0.3, 2.0]) | st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_classic_band_factors_back_project_like_w(lam, seed):
    wm = build_classic_weights(PROPERTY_TABLE, PROPERTY_LAYOUT, PROPERTY_GRID,
                               lam)
    reference = classic_reference(PROPERTY_TABLE, PROPERTY_LAYOUT,
                                  PROPERTY_GRID, lam)
    assert_back_projection(wm, reference, seed, 2)


def test_weight_matrix_validates_factors():
    # W = [[0, 2, 1], [3, 0, 0]] as its trivial factors (Wᵀ, I)
    w = sparse.csr_matrix(np.array([[0.0, 2.0, 1.0], [3.0, 0.0, 0.0]]))
    wm = WeightMatrix(bands=w.T.tocsr(), band_sums=sparse.identity(2, format="csr"),
                      row_keys=(0, 1))
    assert (wm.n_rows, wm.n_voxels) == (2, 3)
    assert_same_csr(wm.matrix, w)
    np.testing.assert_array_equal(wm.back_project(np.array([1.0, -1.0])),
                                  [-3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="compose"):
        WeightMatrix(bands=w.tocsr(), band_sums=sparse.identity(2, format="csr"),
                     row_keys=(0, 1))
    with pytest.raises(ValueError, match=">= 0"):
        WeightMatrix(bands=w.T.tocsr(),
                     band_sums=sparse.csr_matrix(np.diag([1.0, -1.0])),
                     row_keys=(0, 1))
    with pytest.raises(ValueError, match=">= 0"):
        WeightMatrix(bands=-w.T.tocsr(),
                     band_sums=sparse.identity(2, format="csr"), row_keys=(0, 1))
    with pytest.raises(ValueError, match="row_keys"):
        WeightMatrix(bands=w.T.tocsr(), band_sums=sparse.identity(2, format="csr"),
                     row_keys=(0, 1, 2))
