"""Reconstruction: prior covariance, operator build, linearity."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import linalg

from rtikit import reconstruction
from rtikit.calibration import FadeLevelTable, PathLossFit
from rtikit.geometry import NodeLayout, VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig, VariantPipeline
from rtikit.simulator import perimeter_layout
from rtikit.reconstruction import (
    ReconstructionParams,
    build_operator,
    prior_precision_term,
    reconstruct,
)
from rtikit.spatial_model import (
    EllipseModelParams,
    WeightMatrix,
    build_classic_weights,
    build_multiscale_weights,
)
import reference_pipeline


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
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=8, rmse=0.0),
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


def test_params_validation():
    with pytest.raises(ValueError):
        ReconstructionParams(sigma_n=-1.0)
    with pytest.raises(ValueError):
        ReconstructionParams(delta_c=0.0)
    for name in ("sigma_n", "delta_c"):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and > 0, got inf$"):
            ReconstructionParams(**{name: np.inf})


def test_sigma_x_is_a_constant_not_a_field():
    assert ReconstructionParams().sigma_x == 0.0316
    assert [f.name for f in fields(ReconstructionParams)] == ["sigma_n", "delta_c"]
    with pytest.raises(TypeError):
        ReconstructionParams(sigma_x=0.05)


@pytest.mark.parametrize("form", ["tall", "short"])
def test_pi_reads_sigma_n_over_sigma_x_only(form, monkeypatch):
    """The Π of a prior deviation s is the Π of σ_N·sigma_x/s: scaling σ_N
    and σ_x by one factor leaves (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ unchanged."""
    _, grid, _, weights = octagon_forms()
    sigma_n, s = 1.4142, 0.05
    want = build_operator(weights[form], grid, ReconstructionParams(
        sigma_n=sigma_n * ReconstructionParams.sigma_x / s)).pi
    monkeypatch.setattr(ReconstructionParams, "sigma_x", s)
    prior_precision_term.cache_clear()
    got = build_operator(weights[form], grid,
                         ReconstructionParams(sigma_n=sigma_n)).pi
    prior_precision_term.cache_clear()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_operator_matches_dense_oracle_classic():
    """The octagon, and the criterion-3 deployment (8 nodes, a 3 m square,
    0.3 m voxels): both short, so Π is built in push-through form."""
    octagon_layout, _ = octagon()
    criterion3 = perimeter_layout(8, 3.0, 3.0)
    params = ReconstructionParams()
    for layout, grid, lam in (
            (octagon_layout, VoxelGrid.from_layout(octagon_layout, p=0.7), 0.8),
            (criterion3, VoxelGrid(origin=(0.0, 0.0), p=0.3, nx=10, ny=10),
             0.2)):
        table = enumerate_links(layout)
        wm = build_classic_weights(table, layout, grid, lam=lam)
        op = build_operator(wm, grid, params)
        assert not op.tall
        want = reference_pipeline.pi(
            reference_pipeline.classic_weights(layout, grid, lam), grid, params)
        assert op.pi.shape == (grid.n_voxels, table.n_links)
        np.testing.assert_allclose(op.pi, want, atol=1e-8)


def test_operator_matches_dense_oracle_multiscale():
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=0.7)
    params = ReconstructionParams()
    fades = synthetic_fades(table, seed=9)
    wm = build_multiscale_weights(table, layout, grid, fades)
    op = build_operator(wm, grid, params)
    want = reference_pipeline.pi(reference_pipeline.multiscale_weights(
        layout, grid, fades, EllipseModelParams()), grid, params)
    np.testing.assert_allclose(op.pi, want, atol=1e-8)


def test_operator_zero_weights_gives_zero_pi():
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=6, ny=6)
    # four links of one row each, no voxel inside any ellipse
    wm = WeightMatrix(band=np.ones((4, grid.n_voxels), dtype=np.uint8),
                      reach=np.zeros(4, dtype=int), value=np.ones(4))
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
def test_operator_stored_form_and_reconstruct_match_dense_oracle(form):
    layout, grid, fades, weights = octagon_forms()
    wm = weights[form]
    params = ReconstructionParams()
    op = build_operator(wm, grid, params)
    n = grid.n_voxels
    assert op.tall == (form == "tall")
    assert op.stored.shape == ((n, n) if form == "tall" else (n, wm.n_rows))
    assert op.stored.flags.f_contiguous
    # the octagon's fixed-width weights are the rti (and flrti) W
    w = reference_pipeline.weights({"tall": "msrti", "short": "rti"}[form],
                                   layout, grid, fades,
                                   PipelineConfig(classic_lambda=0.8))
    want = reference_pipeline.pi(w, grid, params)
    assert op.pi.shape == (n, wm.n_rows)
    np.testing.assert_allclose(op.pi, want, atol=1e-8)
    y = np.random.default_rng(5).uniform(0, 1, size=(wm.n_rows, 4))
    for columns in (y, y[:, 0]):
        expected = want @ columns
        got = reconstruct(op, columns)
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


def _grid_row_upper(grid):
    """(N, N) mask of the entries (i, j) whose voxel j's grid row is at or
    above voxel i's."""
    grid_row = np.arange(grid.n_voxels) // grid.nx
    return grid_row >= grid_row[:, np.newaxis]


def expanded(term):
    """σ_N² C_x⁻¹ whole, from `PrecisionTerm.expand` into a NaN-filled
    array: every entry (i, j) with j's grid row at or above i's is written
    and no other, and the rest is mirrored from the written part."""
    n = term.grid.n_voxels
    out = np.full((n, n), np.nan)
    term.expand(out)
    written = _grid_row_upper(term.grid)
    assert not np.isnan(out[written]).any()
    assert np.isnan(out[~written]).all()
    return np.where(written, out, out.T)


@pytest.mark.parametrize("rows, nx, ny", [
    (1300, 25, 25), (600, 27, 19), (48, 1, 30), (1000, 24, 20),
], ids=["tall-25", "tall-27x19", "tall-1x30", "tall-24x20"])
def test_build_writes_only_the_triangle_potrf_reads(monkeypatch, rows, nx,
                                                    ny):
    """Built into a NaN-filled buffer: the entries of the buffer's upper
    triangle outside the grid rows' diagonal nx × nx blocks are never
    written (still NaN), those inside are zero, and the lower triangle is
    exactly what the build into an anonymous mapping stores."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=nx, ny=ny)
    wm = _random_weights(grid, rows, seed=rows + nx)
    term = prior_precision_term(grid, ReconstructionParams())
    want = build_operator(wm, grid, precision_term=term)
    buffers = []
    monkeypatch.setattr(reconstruction, "_anonymous_buffer",
                        lambda n: buffers.append(np.full((n, n), np.nan))
                        or buffers[-1])
    op = build_operator(wm, grid, precision_term=term)
    assert op.tall
    [buffer] = buffers
    normal = buffer.T  # the Fortran-order A that LAPACK factored
    written = _grid_row_upper(grid).T  # (r, c): r's grid row at or above c's
    same_row = written & written.T  # the grid rows' diagonal blocks
    lower = np.tril(np.ones_like(written))
    assert np.isnan(normal[~written]).all()
    assert np.all(normal[same_row & ~lower] == 0.0)
    assert not np.isnan(normal[lower]).any()
    assert np.shares_memory(op.stored, buffer)
    assert np.array_equal(np.tril(op.stored), want.stored)


def test_build_rejects_a_term_for_another_grid_or_params():
    """Both grids have 120 voxels, so the two terms expand to the same
    shape; tall and short builds alike check the term they are given."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=10, ny=12)
    transposed = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=12, ny=10)
    params = ReconstructionParams()
    for rows in (200, 60):
        wm = _random_weights(grid, rows, seed=rows)
        with pytest.raises(ValueError, match=r"precision_term is for VoxelGrid"
                                             r".*nx=12, ny=10.*not VoxelGrid"):
            build_operator(wm, grid, params, precision_term=
                           prior_precision_term(transposed, params))
        with pytest.raises(ValueError,
                           match=r"precision_term is for Reconstruction"
                                 r"Params.*delta_c=2.0.*not Reconstruction"):
            build_operator(wm, grid, params, precision_term=
                           prior_precision_term(
                               grid, ReconstructionParams(delta_c=2.0)))
        with pytest.raises(TypeError, match="must be a PrecisionTerm.*"
                                            "not ndarray"):
            build_operator(wm, grid, params, precision_term=
                           np.zeros((grid.n_voxels, grid.n_voxels)))


def test_precision_term_is_symmetric_inverse_of_prior():
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=9, ny=7)
    params = ReconstructionParams()
    term = expanded(prior_precision_term(grid, params))
    assert np.array_equal(term, term.T)
    want = params.sigma_n**2 * np.eye(grid.n_voxels)
    np.testing.assert_allclose(term @ reference_pipeline.covariance(grid, params), want,
                               rtol=0, atol=1e-8 * params.sigma_n**2)


def assembled_precision_term(term):
    """σ_N² C_x⁻¹ entry by entry from the term's packed sign combinations:
    the reference for the unpacking and the views of `PrecisionTerm.expand`.
    Voxel i takes quarter voxel qy·⌈nx/2⌉ + qx, with qy, qx its cells'
    distances in cells from the centre line (rounded down), and i, j read
    combination (flip_y, flip_x), with a flip for an axis that has them on
    opposite sides (the centre cell of an odd axis is on the upper side):
    (flip_y, 0) from the lower triangle of sums[flip_y], (flip_y, 1) from
    its strict upper triangle and, on the diagonal, from
    diagonals[flip_y]."""
    grid = term.grid

    def quarter_and_lower(n, cells):
        return np.maximum(cells, n - 1 - cells) - n // 2, cells < n // 2

    iy, ix = np.divmod(np.arange(grid.n_voxels), grid.nx)
    qy, lower_y = quarter_and_lower(grid.ny, iy)
    qx, lower_x = quarter_and_lower(grid.nx, ix)
    q = qy * ((grid.nx + 1) // 2) + qx
    i, j = q[:, None], q[None, :]
    low, high = np.minimum(i, j), np.maximum(i, j)
    flip_y = (lower_y[:, None] != lower_y[None, :]).astype(int)
    flip_x = lower_x[:, None] != lower_x[None, :]
    even_x = term.sums[flip_y, high, low]
    odd_x = np.where(i == j, term.diagonals[flip_y, i],
                     term.sums[flip_y, low, high])
    return np.where(flip_x, odd_x, even_x)


@settings(max_examples=120, deadline=None)
@given(nx=st.integers(1, 16), ny=st.integers(1, 16),
       p=st.floats(0.05, 1.0), delta_c=st.floats(0.1, 10.0),
       sigma_n=st.floats(0.0447, 4.47))
@example(nx=1, ny=1, p=0.5, delta_c=4.0, sigma_n=1.4142)
@example(nx=1, ny=16, p=0.15, delta_c=4.0, sigma_n=1.4142)
@example(nx=15, ny=1, p=0.15, delta_c=4.0, sigma_n=1.4142)
@example(nx=16, ny=15, p=0.05, delta_c=10.0, sigma_n=1.4142)
@example(nx=15, ny=16, p=1.0, delta_c=0.1, sigma_n=1.4142)
@example(nx=15, ny=15, p=0.15, delta_c=4.0, sigma_n=0.0447)
@example(nx=16, ny=16, p=0.15, delta_c=4.0, sigma_n=1.4142)
@example(nx=25, ny=23, p=0.3, delta_c=4.0, sigma_n=1.4142)
def test_precision_term_matches_whole_matrix_inverse(nx, ny, p, delta_c,
                                                     sigma_n):
    """Even and odd axes, 1-wide ones and 1 × 1, to δ_c/p = 200 (where C_x's
    condition number on 16 × 16 is about 1.2e5 and the two routes differ
    by about 4e-13), and 25 × 23, whose 156 quarter voxels are unpacked in
    three strips, the last one ragged. The expansion is also exactly the
    entry-by-entry assembly of the compact term's packed sign
    combinations."""
    grid = VoxelGrid(origin=(-1.0, 2.0), p=p, nx=nx, ny=ny)
    params = ReconstructionParams(sigma_n=sigma_n, delta_c=delta_c)
    compact = prior_precision_term(grid, params)
    assert (compact.grid, compact.params) == (grid, params)
    term = expanded(compact)
    assert np.array_equal(term, assembled_precision_term(compact))
    want = reference_pipeline.precision(grid, params)
    assert np.array_equal(term, term.T)
    assert np.abs(term - want).max() <= 1e-11 * np.abs(want).max()


def test_prior_covariance_not_spd_raises(monkeypatch):
    # N = 12 has 2 × 2 quarter voxels; the (even x, odd y) block is
    # indefinite.
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=4, ny=3)
    blocks = np.tile(np.eye(4), (2, 2, 1, 1))
    blocks[1, 0, 3, 3] = -1.0
    monkeypatch.setattr(reconstruction, "_mirror_blocks",
                        lambda grid, params: blocks.copy())
    with pytest.raises(linalg.LinAlgError,
                       match=r"prior covariance is not SPD.*N=12, delta_c=4.0"):
        prior_precision_term(grid, ReconstructionParams())


def test_normal_matrix_not_spd_raises(monkeypatch):
    _, grid, _, weights = octagon_forms()
    n = grid.n_voxels
    tall, short = weights["tall"], weights["short"]
    # −σ_N² C_x⁻¹, negative definite
    term = prior_precision_term(grid, ReconstructionParams())
    negated = reconstruction.PrecisionTerm(grid=term.grid, params=term.params,
                                           sums=-term.sums,
                                           diagonals=-term.diagonals)
    with pytest.raises(linalg.LinAlgError,
                       match=rf"regularized normal matrix is not SPD.*"
                             rf"N={n}, rows={tall.n_rows}"):
        build_operator(tall, grid, precision_term=negated)
    # A short build does not read the precision term ...
    assert np.array_equal(
        build_operator(short, grid, precision_term=negated).stored,
        build_operator(short, grid).stored)
    # ... and fails when W C_x Wᵀ + σ_N² I is not SPD, here through an
    # indefinite C_x = −1e3·I.
    monkeypatch.setattr(reconstruction, "_covariance",
                        lambda distances, params: -1e3 * (distances == 0))
    with pytest.raises(linalg.LinAlgError,
                       match=rf"regularized normal matrix is not SPD.*"
                             rf"N={n}, rows={short.n_rows}\): LAPACK info \d+"):
        build_operator(short, grid)


def test_short_operator_empty_row_gives_zero_column():
    """A link whose ellipse holds no voxel center has an all-zero row of W,
    and its column of Π is exactly zero."""
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=1.0)
    wm = build_classic_weights(table, layout, grid, lam=0.05)
    empty = np.diff(wm.matrix.tocsr().indptr) == 0
    assert empty.any() and not empty.all()
    op = build_operator(wm, grid)
    assert not op.tall
    assert np.all(op.stored[:, empty] == 0.0)
    assert np.all(np.abs(op.stored[:, ~empty]).max(axis=0) > 0.0)


def test_shared_build_leaves_inputs_untouched():
    """msrti (tall) and cdrti (short, the fixed-width weights scaled by √C)
    built from one precision term, as a recalibration does: the term, the
    weights' ellipses and every buffer of their band factors stay
    bit-identical."""
    layout, table = octagon()
    grid = VoxelGrid.from_layout(layout, p=1.0)
    params = ReconstructionParams()
    fades = synthetic_fades(table, seed=4)
    classic = build_classic_weights(table, layout, grid, lam=0.8)
    weights = [
        build_multiscale_weights(table, layout, grid, fades),
        replace(classic, value=classic.value * np.sqrt(2)),
    ]
    term = prior_precision_term(grid, params)
    term_before = [term.sums.copy(), term.diagonals.copy()]

    def buffers(wm):
        return [wm.band.copy(), wm.reach.copy(), wm.value.copy()] + [
            getattr(factor, name).copy()
            for factor in (wm.bands, wm.band_sums)
            for name in ("data", "indices", "indptr")]

    before = [buffers(w) for w in weights]
    n = grid.n_voxels
    for wm, snapshot, cols in zip(weights, before, (n, table.n_links)):
        op = build_operator(wm, grid, params, precision_term=term)
        assert op.stored.shape == (n, cols)
        assert op.stored.flags.f_contiguous
        assert op.pi.shape == (n, wm.n_rows)
        for got, want in zip(buffers(wm), snapshot):
            assert np.array_equal(got, want)
        assert np.array_equal(term.sums, term_before[0])
        assert np.array_equal(term.diagonals, term_before[1])


def _forbid_formed_w(monkeypatch):
    def formed(self):
        raise AssertionError("build_operator formed the whole W")
    monkeypatch.setattr(WeightMatrix, "matrix", property(formed))


def _traced_memory(build):
    """The result of build(), the traced memory it holds and the peak of
    tracemalloc while it ran; build() runs once untraced first, for
    first-call set-up."""
    build()
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def _tall_deployment_n1024():
    """(table, layout, grid, fades) of N = 1024 with 4 channels: 378
    links, so a multi-scale W of 3024 rows."""
    layout = perimeter_layout(28, 5.0, 5.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(0.0, 0.0), p=5.0 / 32, nx=32, ny=32)
    vals = np.random.default_rng(3).uniform(-8, 8, size=(table.n_links, 4))
    fades = FadeLevelTable(
        values=vals, mean_rss=np.zeros_like(vals),
        channels=np.arange(11, 15),
        fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=8, rmse=0.0),
    )
    return table, layout, grid, fades


def _tall_weights_n1024():
    """N = 1024 and a tall multi-scale W of 3024 rows."""
    table, layout, grid, fades = _tall_deployment_n1024()
    wm = build_multiscale_weights(table, layout, grid, fades)
    assert (grid.n_voxels, wm.n_rows) == (1024, 3024)
    return wm, grid


def test_multiscale_weights_memory_holds_no_membership_mask():
    """N = 1024, 3024 rows: the traced peak of building the weights is
    about 7.4 MiB, the (L, N) excess field (3.0 MiB) and arrays over the
    (link, voxel) pairs inside each link's widest ellipse while U is
    derived. An (R, L, N) membership mask (3.0 MiB) beside them, as the
    weights were built before, takes the peak to about 10 MiB."""
    table, layout, grid, fades = _tall_deployment_n1024()
    _, _, peak = _traced_memory(
        lambda: build_multiscale_weights(table, layout, grid, fades))
    assert peak <= 8.5 * 2**20, peak / 2**20


def test_tall_build_memory_is_one_buffer_and_one_block(monkeypatch):
    """With a shared precision term, the build's traced peak is the tiles'
    band tables, one tile's float block and the gather buffers, about
    3.6 MiB here: the N × N buffer that becomes M is an anonymous mapping,
    which tracemalloc does not see. Neither a whole W (24.8 MB dense, about
    7.6 MB as CSR) nor an N × N array (8 MB) fits under the bound."""
    wm, grid = _tall_weights_n1024()
    term = prior_precision_term(grid, ReconstructionParams())
    _forbid_formed_w(monkeypatch)
    op, _, peak = _traced_memory(
        lambda: build_operator(wm, grid, precision_term=term))
    assert op.tall
    assert peak <= 5 * 2**20, peak / 2**20


def _cold_precision_term(grid, params):
    """prior_precision_term computed anew: the kept terms are dropped first."""
    prior_precision_term.cache_clear()
    return prior_precision_term(grid, params)


def test_precision_term_memory_is_the_result_and_quarters():
    """N = 1024: the traced peak of computing the term and expanding it
    into a build's buffer, an anonymous mapping that tracemalloc does not
    see, is quarter-size arrays, about 0.45·N²·8 bytes. Forming C_x or an
    N × N array of the term would take N²·8 bytes."""
    _, grid = _tall_weights_n1024()
    n = grid.n_voxels
    _, _, peak = _traced_memory(
        lambda: _cold_precision_term(grid, ReconstructionParams()).expand(
            reconstruction._anonymous_buffer(n)))
    assert peak <= 0.5 * n * n * 8, peak / 2**20


def test_precision_term_holds_its_blocks_only():
    """N = 1024: the compact term holds its four sign combinations packed
    two to an array, 2M² + 2M values for M = N/4 quarter voxels, about
    N²/8, in two arrays of its own, and computing it forms no N × N array
    (the expanded term is N²·8 bytes)."""
    _, grid = _tall_weights_n1024()
    n, m = grid.n_voxels, grid.n_voxels // 4
    term, current, peak = _traced_memory(
        lambda: _cold_precision_term(grid, ReconstructionParams()))
    assert (term.sums.shape, term.diagonals.shape) == ((2, m, m), (2, m))
    assert term.sums.base is None and term.diagonals.base is None
    assert current <= 0.15 * n * n * 8, current / 2**20
    assert peak <= 0.5 * n * n * 8, peak / 2**20


def test_precision_term_is_kept_per_grid_and_params():
    """Equal (grid, params), also in new objects, give the same term, whose
    arrays are read-only; a change to the grid or to any one parameter
    gives a new term."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=9, ny=7)
    params = ReconstructionParams()
    term = prior_precision_term(grid, params)
    assert prior_precision_term(
        VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=9, ny=7),
        ReconstructionParams()) is term
    for packed in (term.sums, term.diagonals):
        assert not packed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            packed[(0,) * packed.ndim] = 1.0
    whole = expanded(term)
    for other_grid, other_params in (
            (replace(grid, nx=8), params),
            (replace(grid, p=0.4), params),
            (grid, replace(params, sigma_n=1.0)),
            (grid, replace(params, delta_c=2.0))):
        other = prior_precision_term(other_grid, other_params)
        assert other is not term
        assert not np.array_equal(expanded(other), whole)


def test_precision_memo_stays_within_its_bound():
    bound = reconstruction._PRIOR_MEMO_SIZE
    params = ReconstructionParams()
    grids = [VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=4 + i, ny=5)
             for i in range(bound + 2)]
    first = prior_precision_term(grids[0], params)
    for grid in grids[1:]:
        prior_precision_term(grid, params)
        assert prior_precision_term.cache_info().currsize <= bound
    assert prior_precision_term.cache_info().currsize == bound
    assert prior_precision_term(grids[0], params) is not first
    last = prior_precision_term(grids[-1], params)
    assert prior_precision_term(grids[-1], params) is last


@pytest.mark.parametrize("rows, nx", [(112, 8), (512, 33)],
                         ids=["tall", "short"])
def test_build_with_shared_or_computed_term_is_bit_identical(rows, nx):
    """A build given the compact term stores exactly what a build that
    computes its own stores, on a tall W and on a short W (which is built in
    push-through form and reads no term)."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=nx, ny=nx)
    wm = _random_weights(grid, rows, seed=rows)
    term = prior_precision_term(grid, ReconstructionParams())
    shared = build_operator(wm, grid, precision_term=term)
    computed = build_operator(wm, grid)
    assert shared.tall == (rows > grid.n_voxels)
    assert np.array_equal(shared.stored, computed.stored)


def test_tall_build_without_term_uses_it_as_the_buffer(monkeypatch):
    """With no precision term given, the build computes the compact term
    (2 MB here) and expands it into the buffer, an anonymous mapping that
    tracemalloc does not see: the traced peak is about 5 MB, which an
    N × N copy of the term (another 8 MB here) would exceed."""
    wm, grid = _tall_weights_n1024()
    _forbid_formed_w(monkeypatch)
    op, _, peak = _traced_memory(lambda: build_operator(wm, grid))
    assert op.tall
    assert peak <= 6 * 2**20, peak / 2**20
    shared = build_operator(
        wm, grid, precision_term=prior_precision_term(grid,
                                                      ReconstructionParams()))
    assert np.array_equal(op.stored, shared.stored)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_tall_build_leaves_the_unread_triangle_out_of_memory():
    """The criterion-5 grid (N = 2304), in a fresh process: a second tall
    build, whose first has set up what the process keeps, raises VmRSS by
    at most 0.75·N²·8 bytes (about 0.66 of it with 4 KiB pages): M's lower
    triangle, about N²·4 bytes, and a 4 KiB page per column. A buffer
    resident whole raises it by N²·8 bytes."""
    script = textwrap.dedent("""
        import numpy as np
        from rtikit.calibration import FadeLevelTable, PathLossFit
        from rtikit.geometry import VoxelGrid, enumerate_links
        from rtikit.harness import PipelineConfig
        from rtikit.reconstruction import build_operator, prior_precision_term
        from rtikit.simulator import perimeter_layout
        from rtikit.spatial_model import build_multiscale_weights

        def rss():
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024

        layout = perimeter_layout(30, 7.0, 7.0)
        table = enumerate_links(layout)
        config = PipelineConfig()
        grid = VoxelGrid.from_layout(layout, config.voxel_width)
        values = np.random.default_rng(3).uniform(-8, 8, (table.n_links, 4))
        fades = FadeLevelTable(
            values=values, mean_rss=np.zeros_like(values),
            channels=np.arange(11, 15),
            fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=8, rmse=0.0))
        weights = build_multiscale_weights(table, layout, grid, fades)
        term = prior_precision_term(grid, config.reconstruction)
        build_operator(weights, grid, config.reconstruction, term)
        before = rss()
        op = build_operator(weights, grid, config.reconstruction, term)
        print(grid.n_voxels, weights.n_rows, rss() - before)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    n, rows, raised = map(int, out.split())
    assert (n, rows) == (2304, 3480)
    assert raised <= 0.75 * n * n * 8, raised / (n * n * 8)


def test_short_build_memory_holds_no_n_by_n_array():
    """The criterion-5 grid (N = 2304) and the fixed-width weights, one row
    per link: the build's traced peak stays below one N × N array (42.5 MB).
    Forming A = WᵀW + σ_N² C_x⁻¹ would exceed it."""
    layout = perimeter_layout(30, 7.0, 7.0)
    config = PipelineConfig()
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    wm = build_classic_weights(enumerate_links(layout), layout, grid,
                               config.classic_lambda)
    n = grid.n_voxels
    assert (n, wm.n_rows) == (2304, 435)
    op, _, peak = _traced_memory(lambda: build_operator(wm, grid))
    assert not op.tall
    assert peak < n * n * 8, peak / 2**20


def _forbid_normal_matrix(monkeypatch):
    def buffer(n):
        raise AssertionError("build_operator formed A = WᵀW + σ_N² C_x⁻¹")
    monkeypatch.setattr(reconstruction, "_anonymous_buffer", buffer)


def test_short_build_is_push_through_where_w_c_wt_is_ill_conditioned(
        monkeypatch):
    """cdrti on the criterion-5 grid (N = 2304, 435 rows) at σ_N 0.3 and
    λ 0.1, where W C_x Wᵀ + σ_N² I has a 1-norm condition number of 4.6e5:
    the build is still in push-through form and forms no N × N buffer for
    A."""
    layout = perimeter_layout(30, 7.0, 7.0)
    table = enumerate_links(layout)
    config = PipelineConfig(classic_lambda=0.1,
                            reconstruction=ReconstructionParams(sigma_n=0.3))
    grid = VoxelGrid.from_layout(layout, config.voxel_width)
    values = np.random.default_rng(3).uniform(-8, 8, (table.n_links, 4))
    fades = FadeLevelTable(values=values, mean_rss=np.zeros_like(values),
                           channels=np.arange(11, 15),
                           fit=PathLossFit(p0=40.0, eta=2.0, n_pairs=8,
                                           rmse=0.0))
    _forbid_normal_matrix(monkeypatch)
    op = VariantPipeline("cdrti", fades, layout, grid, config).operator
    assert not op.tall
    assert op.stored.shape == (grid.n_voxels, table.n_links) == (2304, 435)


def test_push_through_pi_matches_dense_oracle_at_small_noise(monkeypatch):
    """Criterion 3's deployment (8 nodes, a 3 m square, 0.3 m voxels) with
    the fixed-width weights at λ 0.1 scaled by 2, as cdrti scales four
    channels, and σ_N 0.003: Π in push-through form is within criterion 3's
    1e-8 of the dense solve with A (8.5e-13 here)."""
    layout = perimeter_layout(8, 3.0, 3.0)
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.3, nx=10, ny=10)
    params = ReconstructionParams(sigma_n=0.003)
    classic = build_classic_weights(enumerate_links(layout), layout, grid, 0.1)
    _forbid_normal_matrix(monkeypatch)
    op = build_operator(replace(classic, value=2.0 * classic.value), grid,
                        params)
    want = reference_pipeline.pi(
        2.0 * reference_pipeline.classic_weights(layout, grid, 0.1), grid,
        params)
    assert np.abs(op.pi - want).max() <= 1e-8


def _random_weights(grid, n_rows, seed, scale=1.0, per_link=4):
    """Seeded random ellipses of n_rows rows, a multiple of per_link: each
    link gives the voxels of a random window of the grid a random band
    each, and each of its rows reaches a random band with a random value
    in [0.5, 2)·scale; one row in per_link + 1 is empty.
    The windows leave tiles untouched by some rows, and W is well
    conditioned enough for a 1e-12 comparison against a dense solve."""
    rng = np.random.default_rng(seed)
    n_links = n_rows // per_link
    band = np.full((n_links, grid.ny, grid.nx), per_link, dtype=np.uint8)
    for window in band:
        (y0, y1), (x0, x1) = (np.sort(rng.integers(0, n, 2)) + (0, 1)
                              for n in (grid.ny, grid.nx))
        window[y0:y1, x0:x1] = rng.integers(0, per_link, (y1 - y0, x1 - x0))
    return WeightMatrix(band=band.reshape(n_links, grid.n_voxels),
                        reach=rng.integers(-1, per_link, n_rows),
                        value=rng.uniform(0.5, 2.0, n_rows) * scale)


def _edge_case(rows, nx, ny=None, scale=1.0):
    """Random weights of `rows` rows on an nx × ny grid of 0.5 m voxels,
    their values scaled by `scale`."""
    ny = nx if ny is None else ny
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=nx, ny=ny)
    route = "tall" if rows > grid.n_voxels else "push"
    return pytest.param(
        grid, lambda: _random_weights(grid, rows, seed=rows + nx,
                                      scale=scale),
        id=f"{route}-{rows}-{nx}" if nx == ny else f"{route}-{rows}-{nx}x{ny}")


def _near_square_case():
    """Fixed-width weights of 780 rows over N = 841 voxels (40 nodes, a 7 m
    square, λ = 2). W C_x Wᵀ + σ_N² I has a 1-norm condition number of
    2.4e4, against 4e2 to 7e2 for the random short cases, and the
    push-through Π is 2.3e-13 of max |Π| from the dense solve with A."""
    layout = perimeter_layout(40, 7.0, 7.0)
    grid = VoxelGrid(origin=(0.0, 0.0), p=7.0 / 29, nx=29, ny=29)
    return pytest.param(
        grid, lambda: build_classic_weights(enumerate_links(layout), layout,
                                            grid, lam=2.0),
        id="push-780-29-classic")


@pytest.mark.parametrize("grid, make_weights", [
    # tall: grid sides below, at and one past a multiple of the 12-voxel
    # tile, and a grid one voxel wide; on 25 × 25, pairs of tiles touched
    # by more than 512 rows
    _edge_case(160, 11), _edge_case(160, 12), _edge_case(200, 13),
    _edge_case(1300, 25), _edge_case(600, 27, 19), _edge_case(48, 1, 30),
    # short, N = 400, 1089, 512, 513 and 841: C_x's 64-column blocks in
    # push-through form, and a near-square W
    _edge_case(100, 20), _edge_case(52, 33), _edge_case(100, 32, 16),
    _edge_case(100, 27, 19), _near_square_case(),
    # short on the tall cases' grids, scaled so that W C_x Wᵀ + σ_N² I has a
    # 1-norm condition number of 1e4 to 9e4
    _edge_case(100, 11, scale=30.0), _edge_case(120, 12, scale=10.0),
    _edge_case(140, 13, scale=10.0), _edge_case(512, 25),
    _edge_case(512, 27, 19),
])
def test_operator_tile_edges_match_dense_oracle(monkeypatch, grid,
                                                make_weights):
    assert (reconstruction._TILE, reconstruction._PUSH_BLOCK,
            reconstruction._BLOCK) == (12, 64, 512)
    params = ReconstructionParams()
    wm = make_weights()
    dense = (wm.bands @ wm.band_sums).T.toarray()  # W from its factors
    term = prior_precision_term(grid, params)
    tall = wm.n_rows > grid.n_voxels
    if tall:  # a short build reads the sparse W by design
        _forbid_formed_w(monkeypatch)
    op = build_operator(wm, grid, params, precision_term=term)
    assert op.tall == tall
    if op.tall:
        wants = [np.tril(np.linalg.inv(
            dense.T @ dense + reference_pipeline.precision(grid, params)))]
    else:
        # (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ, and the push-through form's own dense solve
        w_c = dense @ reference_pipeline.covariance(grid, params)
        wants = [reference_pipeline.pi(dense, grid, params), np.linalg.solve(
            w_c @ dense.T + params.sigma_n**2 * np.eye(wm.n_rows), w_c).T]
    for want in wants:
        assert np.abs(op.stored - want).max() <= 1e-12 * np.abs(want).max()


def test_tall_build_with_a_tile_no_row_touches(monkeypatch):
    """A tile that no row's ellipse reaches adds nothing: every voxel of
    the 25 × 25 grid's middle 12 × 12 tile lies outside all ellipses, and
    M matches the dense oracle."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=25, ny=25)
    params = ReconstructionParams()
    wm = _random_weights(grid, 1300, seed=7)
    band = wm.band.reshape(-1, grid.ny, grid.nx).copy()
    band[:, 12:24, 12:24] = 4  # R: held by none of the link's rows
    wm = WeightMatrix(band=band.reshape(len(band), -1), reach=wm.reach,
                      value=wm.value)
    dense = (wm.bands @ wm.band_sums).T.toarray()
    assert not dense.reshape(-1, grid.ny, grid.nx)[:, 12:24, 12:24].any()
    _forbid_formed_w(monkeypatch)
    op = build_operator(wm, grid, params,
                        precision_term=prior_precision_term(grid, params))
    assert op.tall
    want = np.tril(np.linalg.inv(
        dense.T @ dense + reference_pipeline.precision(grid, params)))
    assert np.abs(op.stored - want).max() <= 1e-12 * np.abs(want).max()


def test_push_through_pi_on_one_voxel_wide_grid_within_condition_bound(
        monkeypatch):
    """28 random rows scaled by 300 on a 1 × 30 grid: W C_x Wᵀ + σ_N² I has
    a 1-norm condition number of 2.2e5, and Π in push-through form is
    within that condition number times machine epsilon (4.9e-11) of max |Π|
    from both dense solves (1.9e-12 here)."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=1, ny=30)
    params = ReconstructionParams()
    wm = _random_weights(grid, 28, seed=29, scale=300.0)
    dense = (wm.bands @ wm.band_sums).T.toarray()  # W from its factors
    _forbid_normal_matrix(monkeypatch)
    op = build_operator(wm, grid, params)
    assert not op.tall
    w_c = dense @ reference_pipeline.covariance(grid, params)
    system = w_c @ dense.T + params.sigma_n**2 * np.eye(wm.n_rows)
    bound = np.linalg.cond(system, 1) * np.finfo(float).eps
    assert bound < 1e-10
    for want in (reference_pipeline.pi(dense, grid, params),
                 np.linalg.solve(system, w_c).T):
        assert np.abs(op.stored - want).max() <= bound * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 30), ny=st.integers(1, 30), tall=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(nx=1, ny=1, tall=True, seed=0)
@example(nx=13, ny=25, tall=True, seed=1)
@example(nx=24, ny=23, tall=False, seed=2)
@example(nx=1, ny=30, tall=False, seed=3)
def test_build_on_any_grid(nx, ny, tall, seed):
    """Grids of 1 to 30 cells a side, odd and even, so that the 12-voxel
    tiles are ragged and an odd axis's mirror line falls on a cell. On a
    tall W, the stored lower triangle is M within the tolerance of the
    tile-edge cases and the upper one exactly zero; on a short W, one row
    per link and up to one row per voxel, the push-through Π is the
    reference's."""
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.5, nx=nx, ny=ny)
    n = grid.n_voxels
    params = ReconstructionParams()
    rng = np.random.default_rng(seed)
    if tall:
        wm = _random_weights(grid, 4 * (n // 4 + rng.integers(1, 9)), seed)
    else:
        wm = _random_weights(grid, int(rng.integers(1, n + 1)), seed,
                             per_link=1)
    op = build_operator(wm, grid, params)
    assert op.tall == tall
    dense = (wm.bands @ wm.band_sums).T.toarray()  # W from its factors
    if tall:
        got = np.tril(op.stored)
        want = np.tril(np.linalg.inv(
            dense.T @ dense + reference_pipeline.precision(grid, params)))
        assert np.all(np.triu(op.stored, 1) == 0.0)
    else:
        got, want = op.stored, reference_pipeline.pi(dense, grid, params)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
