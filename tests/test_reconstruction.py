"""Reconstruction: prior covariance, operator build, linearity."""

import numpy as np
import pytest
from scipy import sparse

from rtikit.calibration import FadeLevelTable, PathLossFit
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.reconstruction import (
    ReconstructionParams,
    build_operator,
    prior_covariance,
    prior_precision_term,
    reconstruct,
)
from rtikit.spatial_model import WeightMatrix, build_classic_weights, build_multiscale_weights


def octagon():
    ids = np.arange(1, 9)
    ang = 2 * np.pi * np.arange(8) / 8
    layout = NodeLayout(ids=ids, xy=3.0 * np.column_stack((np.cos(ang), np.sin(ang))))
    return layout, enumerate_links(layout)


def test_prior_covariance_entries():
    grid = VoxelGrid(origin=(0.0, 0.0), p=1.0, nx=3, ny=3)
    params = ReconstructionParams()
    c = prior_covariance(grid, params)
    assert c.shape == (9, 9)
    assert np.allclose(np.diag(c), 0.0316**2)
    assert np.diag(c)[0] == pytest.approx(9.986e-4, abs=1e-6)
    # brute force over center pairs
    for j in range(9):
        for i in range(9):
            d = np.linalg.norm(np.subtract(grid.center_of(j), grid.center_of(i)))
            assert c[j, i] == pytest.approx(0.0316**2 * np.exp(-d / 4.0), abs=1e-15)
    assert np.allclose(c, c.T)
    # SPD: smallest eigenvalue strictly positive
    assert np.linalg.eigvalsh(c).min() > 0
    # entry at distance delta_c equals sigma_x^2 / e
    g2 = VoxelGrid(origin=(0.0, 0.0), p=4.0, nx=2, ny=1)
    c2 = prior_covariance(g2, params)
    assert c2[0, 1] == pytest.approx(0.0316**2 / np.e)


def test_params_validation():
    with pytest.raises(ValueError):
        ReconstructionParams(sigma_x=0.0)
    with pytest.raises(ValueError):
        ReconstructionParams(sigma_n=-1.0)
    with pytest.raises(ValueError):
        ReconstructionParams(delta_c=0.0)


def brute_force_pi(w_dense, grid, params):
    c_x = prior_covariance(grid, params)
    normal = w_dense.T @ w_dense + np.linalg.inv(c_x) * params.sigma_n**2
    return np.linalg.solve(normal, w_dense.T)


def test_operator_matches_dense_oracle_classic():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    params = ReconstructionParams()
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    op = build_operator(wm, grid, params)
    want = brute_force_pi(wm.matrix.toarray(), grid, params)
    assert op.pi.shape == (grid.n_voxels, table.n_links)
    np.testing.assert_allclose(op.pi, want, atol=1e-8)


def test_operator_matches_dense_oracle_multiscale():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    params = ReconstructionParams()
    rng = np.random.default_rng(9)
    vals = rng.uniform(-8, 8, size=(table.n_links, 2))
    fades = FadeLevelTable(
        values=vals, mean_rss=np.zeros_like(vals),
        channels=np.array([11, 12]),
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=8, rmse=0.0),
    )
    wm = build_multiscale_weights(table, layout, grid, fades)
    op = build_operator(wm, grid, params)
    want = brute_force_pi(wm.matrix.toarray(), grid, params)
    np.testing.assert_allclose(op.pi, want, atol=1e-8)


def test_operator_zero_weights_gives_zero_pi():
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=6, ny=6)
    empty = sparse.csr_matrix((4, grid.n_voxels))
    wm = WeightMatrix(matrix=empty, row_keys=(0, 1, 2, 3))
    op = build_operator(wm, grid)
    assert np.allclose(op.pi, 0.0)


def test_operator_large_noise_shrinks_pi():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    small = build_operator(wm, grid, ReconstructionParams(sigma_n=1.0))
    big = build_operator(wm, grid, ReconstructionParams(sigma_n=1e4))
    assert np.abs(big.pi).max() < 1e-6 * np.abs(small.pi).max()


def test_operator_deterministic_and_precision_reuse():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    params = ReconstructionParams()
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    a = build_operator(wm, grid, params)
    b = build_operator(wm, grid, params)
    assert np.array_equal(a.pi, b.pi)
    term = prior_precision_term(grid, params)
    c = build_operator(wm, grid, params, precision_term=term)
    np.testing.assert_allclose(c.pi, a.pi, atol=1e-12)
    with pytest.raises(ValueError):
        build_operator(wm, grid, params, precision_term=np.eye(3))


def test_operator_grid_mismatch():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    other = VoxelGrid(origin=(0.0, 0.0), p=1.0, nx=2, ny=2)
    with pytest.raises(ValueError):
        build_operator(wm, other)


def test_reconstruct_linearity():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    op = build_operator(wm, grid)
    rng = np.random.default_rng(1)
    y1 = rng.uniform(0, 1, size=wm.n_rows)
    y2 = rng.uniform(0, 1, size=wm.n_rows)
    assert np.allclose(reconstruct(op, np.zeros(wm.n_rows)), 0.0)
    np.testing.assert_allclose(
        reconstruct(op, y1 + y2), reconstruct(op, y1) + reconstruct(op, y2),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        reconstruct(op, 2 * y1), 2 * reconstruct(op, y1), atol=1e-12
    )
    with pytest.raises(ValueError):
        reconstruct(op, y1[:-1])


def test_reconstruct_stacked_columns():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    wm = build_classic_weights(table, layout, grid, lam=0.8)
    op = build_operator(wm, grid)
    y = np.random.default_rng(2).uniform(0, 1, size=(wm.n_rows, 3))
    x = reconstruct(op, y)
    assert x.shape == (grid.n_voxels, 3)
    for j in range(3):
        np.testing.assert_allclose(x[:, j], reconstruct(op, y[:, j]),
                                   rtol=0, atol=1e-12)
    for bad in (y[:-1], y[:-1, 0], y.T, y[:, :, None], np.float64(1.0)):
        with pytest.raises(ValueError, match="operator rows"):
            reconstruct(op, bad)
