"""Reconstruction: prior covariance, operator build, linearity."""

import numpy as np
import pytest
from scipy import linalg, sparse

from rtikit import reconstruction
from rtikit.calibration import FadeLevelTable, PathLossFit
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, VariantPipeline
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


def synthetic_fades(table, seed):
    vals = np.random.default_rng(seed).uniform(-8, 8, size=(table.n_links, 2))
    return FadeLevelTable(
        values=vals, mean_rss=np.zeros_like(vals),
        channels=np.array([11, 12]),
        fit=PathLossFit(p0=40.0, eta=2.0, d0=1.0, n_pairs=8, rmse=0.0),
    )


def octagon_forms():
    """One grid with weights of both stored forms: the two-channel
    multi-scale W is tall (112 rows > N = 64), the fixed-width one short
    (28 rows)."""
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=1.0)
    fades = synthetic_fades(table, seed=9)
    weights = {
        "tall": build_multiscale_weights(table, layout, grid, fades),
        "short": build_classic_weights(table, layout, grid, lam=0.8),
    }
    assert weights["tall"].n_rows > grid.n_voxels > weights["short"].n_rows
    return layout, grid, fades, weights


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
    fades = synthetic_fades(table, seed=9)
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


@pytest.mark.parametrize("form", ["tall", "short"])
def test_operator_stored_form_and_apply_match_dense_oracle(form):
    _, grid, _, weights = octagon_forms()
    wm = weights[form]
    params = ReconstructionParams()
    op = build_operator(wm, grid, params)
    n = grid.n_voxels
    assert op.tall == (form == "tall")
    assert op.stored.shape == ((n, n) if form == "tall" else (n, wm.n_rows))
    assert op.stored.flags.f_contiguous
    want = brute_force_pi(wm.matrix.toarray(), grid, params)
    assert op.pi.shape == (n, wm.n_rows)
    np.testing.assert_allclose(op.pi, want, atol=1e-8)
    y = np.random.default_rng(5).uniform(0, 1, size=(wm.n_rows, 4))
    for columns in (y, y[:, 0]):
        expected = want @ columns
        for got in (op.apply(columns), reconstruct(op, columns)):
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-10 * np.abs(expected).max())


def test_images_of_no_frames_on_tall_operator():
    layout, grid, fades, weights = octagon_forms()
    op = build_operator(weights["tall"], grid)
    pipeline = VariantPipeline("msrti", fades, layout, grid, PipelineConfig(),
                               operator=op)
    assert pipeline.images([]).shape == (0, grid.n_voxels)


def test_operator_deterministic_and_precision_reuse():
    _, grid, _, weights = octagon_forms()
    params = ReconstructionParams()
    term = prior_precision_term(grid, params)
    for wm in weights.values():
        a = build_operator(wm, grid, params)
        b = build_operator(wm, grid, params)
        assert np.array_equal(a.stored, b.stored)
        c = build_operator(wm, grid, params, precision_term=term)
        np.testing.assert_allclose(c.pi, a.pi, atol=1e-12)
        # only the upper triangle of the precision term is read
        upper = build_operator(wm, grid, params, precision_term=np.triu(term))
        assert np.array_equal(upper.stored, c.stored)
        with pytest.raises(ValueError):
            build_operator(wm, grid, params, precision_term=np.eye(3))


def test_precision_term_is_symmetric_inverse_of_prior():
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=9, ny=7)
    params = ReconstructionParams()
    term = prior_precision_term(grid, params)
    assert np.array_equal(term, term.T)
    want = params.sigma_n**2 * np.eye(grid.n_voxels)
    np.testing.assert_allclose(term @ prior_covariance(grid, params), want,
                               rtol=0, atol=1e-8 * params.sigma_n**2)


def test_prior_covariance_not_spd_raises(monkeypatch):
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=4, ny=3)
    indefinite = np.eye(grid.n_voxels)
    indefinite[5, 5] = -1.0
    monkeypatch.setattr(reconstruction, "prior_covariance",
                        lambda grid, params: indefinite.copy())
    with pytest.raises(linalg.LinAlgError,
                       match=r"prior covariance is not SPD.*N=12, delta_c=4.0"):
        prior_precision_term(grid, ReconstructionParams())


def test_normal_matrix_not_spd_raises():
    _, grid, _, weights = octagon_forms()
    n = grid.n_voxels
    for wm in weights.values():
        with pytest.raises(linalg.LinAlgError,
                           match=rf"regularized normal matrix is not SPD.*"
                                 rf"N={n}, rows={wm.n_rows}"):
            build_operator(wm, grid, precision_term=-1e3 * np.eye(n))


def test_shared_build_leaves_inputs_untouched():
    """msrti (tall) and stacked cdrti (short) built from one precision
    term, as a recalibration does: the term and every W buffer stay
    bit-identical."""
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=1.0)
    params = ReconstructionParams()
    fades = synthetic_fades(table, seed=4)
    classic = build_classic_weights(table, layout, grid, lam=0.8).matrix
    stacked = sparse.vstack([classic, classic], format="csr")
    weights = [
        build_multiscale_weights(table, layout, grid, fades),
        WeightMatrix(matrix=stacked, row_keys=tuple(range(stacked.shape[0]))),
    ]
    term = prior_precision_term(grid, params)
    term_before = term.copy()
    before = [(w.matrix.data.copy(), w.matrix.indices.copy(),
               w.matrix.indptr.copy()) for w in weights]
    n = grid.n_voxels
    for wm, (data, indices, indptr), cols in zip(weights, before,
                                                 (n, stacked.shape[0])):
        op = build_operator(wm, grid, params, precision_term=term)
        assert op.stored.shape == (n, cols)
        assert op.stored.flags.f_contiguous
        assert op.pi.shape == (n, wm.n_rows)
        assert np.array_equal(wm.matrix.data, data)
        assert np.array_equal(wm.matrix.indices, indices)
        assert np.array_equal(wm.matrix.indptr, indptr)
        assert np.array_equal(term, term_before)


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
