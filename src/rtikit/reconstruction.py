"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ,
where C_x is an exponentially decaying spatial prior over voxel centers
(Wilson & Patwari, "Radio Tomographic Imaging with Wireless Networks",
IEEE TMC 2010).

The build is the expensive step and happens once per weight matrix; each
frame is then one or two products. The build is dense LAPACK/BLAS
throughout, and its form depends on the shape of W and, for a short W, on
the conditioning of W C_x Wᵀ + σ_N² I:
- W with more rows than voxels (the multi-scale weights): A = WᵀW +
  σ_N² C_x⁻¹ in one N × N Fortran-order buffer, of which potrf, potri and
  the products with M read only the lower triangle, and the build writes
  only that triangle, at grid-row granularity: entry (j, i) where voxel
  j's grid row is at or above voxel i's. The buffer is an anonymous
  mapping advised against huge pages, so only the pages written become
  resident: about N²·4 bytes plus about a 4 KiB page per column, where a
  numpy array, advised onto 2 MiB pages, would be resident whole. The
  buffer starts as the precision term σ_N² C_x⁻¹, expanded into it. C_x
  does not change when the grid is mirrored in x or in y,
  so in a basis of vectors even or odd under each mirror it is block
  diagonal; the term is held as the Cholesky inverses (potrf, potri) of
  its four blocks of about N/4 voxels (`PrecisionTerm`), formed from
  quarter-grid distances without forming C_x, at about a sixteenth of the
  flops of inverting C_x whole and about a quarter of the memory of the
  N × N term. WᵀW is added to the buffer one pair of _TILE × _TILE-voxel
  tiles at a time, read from the weights' ellipses (each row one value
  on the voxels inside its ellipse, see `WeightMatrix`): a tile keeps
  the 0/1 masks of the rows whose ellipse touches it, and the block of a
  tile pair is one product over the rows touching both, so
  the products of zero (row, tile) blocks, about five sixths of a dense
  WᵀW's flops at the reference deployments, are never computed. No W
  exists in any form.
  A is then Cholesky-factored and inverted in place, and the lower
  triangle of M = A⁻¹ is stored, N × N, the other exactly zero, applied
  as x̂ = M·(Wᵀy). Wᵀy is the weights' band back-projection U·(S·y): S
  sums each link's nested ellipse rows from the widest down and U adds
  one of those sums per (link, voxel), so it reads about a sixth of the
  nonzeros of W. A symmetric product with M follows. Besides M the build
  holds the tiles' masks (a byte per row and voxel of each tile a row
  touches), a few (_BLOCK, _TILE²) buffers and the compact term, which
  depends only on the grid and the parameters and is kept for the next
  build on them (see `prior_precision_term`).
- otherwise (the fixed-width weights, one row per link): Π itself,
  N × rows, in the push-through form Π = C_x Wᵀ (W C_x Wᵀ + σ_N² I)⁻¹,
  which is the same matrix. C_x Wᵀ is formed from the sparse W times
  _PUSH_BLOCK columns of C_x at a time, and only the rows × rows matrix
  W C_x Wᵀ + σ_N² I is factored, so the build holds no N × N array and
  takes no inverse of the ill-conditioned C_x. This form's error grows with the
  condition number of that rows × rows matrix, so when LAPACK estimates it
  above _PUSH_THROUGH_MAX_COND, Π is instead solved from A, formed in the
  same buffer as for a tall W.
W is about one sixth nonzero at the reference deployments, where the
sparse WᵀW took four to eight times as long as a dense one; the tile
pairs keep the dense products and drop the zero ones.
"""

import functools
import mmap
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from .geometry import VoxelGrid, check_bounds
from .spatial_model import WeightMatrix

__all__ = [
    "ReconstructionParams",
    "ReconstructionOperator",
    "PrecisionTerm",
    "prior_precision_term",
    "check_precision_term",
    "build_operator",
    "reconstruct",
]

# Rows of W per product of the Gram update.
_BLOCK = 512

# Columns of C_x per block of C_x Wᵀ in push-through form, and columns of
# C_x Wᵀ per block of W C_x Wᵀ: bounds that form's transients to
# (N, _PUSH_BLOCK) besides Π.
_PUSH_BLOCK = 64

# The side, in voxels, of the square tiles of the Gram update WᵀW (ragged
# at the grid's edges): a row's ellipse touches about a third of them at
# the reference deployments.
_TILE = 12

# The largest condition number of W C_x Wᵀ + σ_N² I, as LAPACK's pocon
# estimates it (1-norm), at which a short W is built in push-through form.
# On random W that form's relative error stayed below 0.3·cond·eps (3.4e-13
# at an estimate of 1.2e4, 1.1e-12 at 2.4e5), while the A route stayed
# near 1e-14. The shipped fixed-width weights estimate 40 to 3200 only at
# the defaults σ_N 1.4142 and λ 0.02: on the 30-node benchmark deployments
# at 0.15 m voxels, σ_N 0.3 gives 1.4e4 to 8.6e4, σ_N 0.7 up to 1.4e4,
# and λ 0.1 at σ_N 0.3 reaches 4.5e5, so those settings build Π from A
# (cdrti's at σ_N 0.3 on the 7 m square, N = 2304: 0.3 s, not 0.13 s, and
# peak RSS 150 -> 180 MB with msrti's operator held, A's buffer resident
# in the triangle potrf reads only).
_PUSH_THROUGH_MAX_COND = 1e4

# How many (grid, params) precision terms prior_precision_term keeps, least
# recently used dropped first: one deployment's grid, and a second so that
# alternating between two deployments keeps both.
_PRIOR_MEMO_SIZE = 2


@dataclass(frozen=True)
class ReconstructionParams:
    """Regularization parameters.

    Attributes:
        sigma_x: prior per-voxel standard deviation, dB.
        sigma_n: measurement noise standard deviation, dB.
        delta_c: prior correlation distance, meters.
    """

    sigma_x: float = 0.0316
    sigma_n: float = 1.4142
    delta_c: float = 4.0

    def __post_init__(self):
        check_bounds(self, sigma_x="finite and > 0", sigma_n="finite and > 0",
                     delta_c="finite and > 0")


def _covariance(distances: np.ndarray,
                params: ReconstructionParams) -> np.ndarray:
    """C_x entries σ_x² exp(−d / δ_c) from the distances d between voxel
    centers, computed in place in the given array."""
    distances /= -params.delta_c
    np.exp(distances, out=distances)
    distances *= params.sigma_x**2
    return distances


def _quarter_axis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets, in voxel widths, among the ⌈n/2⌉ cells on the upper side of
    an axis of n cells, counted from the centre out (the centre cell first
    on an odd axis): (⌈n/2⌉, ⌈n/2⌉) arrays of |a − c| from cell a to cell c,
    and of a + c + 1 (even axis) or a + c (odd axis) from a to c's mirror
    image."""
    half = np.arange((n + 1) // 2)
    return np.abs(half[:, None] - half), half[:, None] + half + (1 - n % 2)


def _lone_cells(grid: VoxelGrid, sy: int, sx: int) -> np.ndarray:
    """Flat indices of the quarter voxels whose (sx, sy) vector of Q is
    zero: those on the centre line of an odd axis whose parity is odd."""
    lone = np.zeros(((grid.ny + 1) // 2, (grid.nx + 1) // 2), dtype=bool)
    lone[:sy * (grid.ny % 2)] = True
    lone[:, :sx * (grid.nx % 2)] = True
    return np.flatnonzero(lone)


def _mirror_blocks(grid: VoxelGrid, params: ReconstructionParams) -> np.ndarray:
    """The diagonal blocks of ¼ QᵀC_xQ, (2, 2, M, M) indexed [sy, sx], over
    the M = ⌈ny/2⌉⌈nx/2⌉ voxels of the grid's upper right quarter in
    row-major order.

    Q's column for a quarter voxel and parities (sx, sy) is +1 on each
    distinct mirror image of that voxel, negated on the images mirrored in
    x when sx is 1 and on those mirrored in y when sy is 1. C_x depends only
    on the distance between centres, so it commutes with both mirrors, and
    QᵀC_xQ has no block between different parities. Entry [(b, a), (d, c)]
    of block (sx, sy) is the signed sum of k(u_a ∓ u_c, v_b ∓ v_d) over the
    four images, with u, v the centres' coordinates relative to the grid
    centre. Those offsets are whole multiples of p, so each block is exactly
    symmetric. A cell on an odd axis's centre line is its own mirror image,
    which the sum counts twice: its rows and columns are halved, so every
    scale factor is a power of two. Its odd-parity vector is zero, and so
    are its rows and columns in an odd block, which take a unit diagonal
    that keeps the block SPD and decoupled (see `_lone_cells`).
    """
    direct_y, mirror_y = _quarter_axis(grid.ny)
    direct_x, mirror_x = _quarter_axis(grid.nx)
    my, mx = len(direct_y), len(direct_x)
    kernel = _covariance(np.hypot(*np.ogrid[:2 * my, :2 * mx]) * grid.p,
                         params)
    blocks = np.empty((2, 2, my * mx, my * mx))
    for sx in (0, 1):
        # (y offset, a, c): the kernel summed over the x images
        sign = np.subtract if sx else np.add
        fold = sign(kernel[:, direct_x], kernel[:, mirror_x])
        if grid.nx % 2:
            fold[:, 0] *= 0.5
            fold[:, :, 0] *= 0.5
        for sy in (0, 1):
            block = blocks[sy, sx].reshape(my, mx, my, mx)
            sign = np.subtract if sy else np.add
            sign(fold[direct_y], fold[mirror_y], out=block.transpose(0, 2, 1, 3))
            if grid.ny % 2:
                block[0] *= 0.5
                block[:, :, 0] *= 0.5
            lone = _lone_cells(grid, sy, sx)
            blocks[sy, sx, lone, lone] = 1.0
    return blocks


def _side_pairs(n: int) -> tuple[list, list]:
    """(row cells, column cells, their quarter rows, quarter columns) for
    each pair of sides of an axis of n cells: pairs on the same side, then
    pairs on opposite sides. The upper side's cells are the quarter's in
    order; the lower side's, where there is one, are the mirror images of
    the quarter's last ⌊n/2⌋, and so reversed."""
    h, m = n // 2, (n + 1) // 2
    sides = [(slice(h, n), slice(0, m))]
    if h:
        sides.append((slice(h - 1, None, -1), slice(m - h, m)))
    pairs = ([], [])
    for i, (rows, quarter_rows) in enumerate(sides):
        for j, (cols, quarter_cols) in enumerate(sides):
            pairs[i != j].append((rows, cols, quarter_rows, quarter_cols))
    return pairs


def _upper_row_pairs(n: int) -> tuple[list, list]:
    """`_side_pairs` for the grid rows of an axis of n cells, cut to the
    pairs (i, j) with j >= i: for each cell i of a side, the cells from i
    away from the centre on the upper side and towards it on the lower one
    (row cells and quarter rows are single indices); then the lower side's
    cells against the whole upper side, all above them. The upper side's
    cells against the lower side's lie below them and are left out."""
    h, m = n // 2, (n + 1) // 2
    same = [(h + q, slice(h + q, n), q, slice(q, m)) for q in range(m)]
    # lower cell h − 1 − k is quarter row m − h + k, and the cells from it
    # up to h − 1 are quarter rows m − h + k down to m − h
    stop = m - h - 1 if m > h else None
    same += [(h - 1 - k, slice(h - 1 - k, h), m - h + k,
              slice(m - h + k, stop, -1)) for k in range(h)]
    opposite = _side_pairs(n)[1][1:]
    return same, opposite


@dataclass(frozen=True, eq=False)
class PrecisionTerm:
    """σ_N² C_x⁻¹ for one grid and parameter set, held as the inverses of
    its four mirror blocks: about a quarter of the N × N term's memory.

    Made by `prior_precision_term`, which keeps it, and shared by the
    builds through A on the same grid and parameters, each of which
    expands it with `expand` into its own buffer: only into the triangle
    that the Cholesky factorization reads, so that the other half of the
    buffer is never written and its pages never become resident. The
    term's blocks are read-only, as every caller is handed the same term.
    Compared by identity (eq=False), since it holds an array.

    Attributes:
        grid: the voxel grid the term is for.
        params: the regularization parameters it is for.
        blocks: (2, 2, M, M), indexed [sy, sx]: the inverses of the
            diagonal blocks of ¼ QᵀC_xQ (see `_mirror_blocks`) over the
            M = ⌈ny/2⌉⌈nx/2⌉ quarter voxels, each exactly symmetric and
            stored whole, zero on the rows and columns of the quarter
            voxels whose vector of Q is zero.
    """

    grid: VoxelGrid
    params: ReconstructionParams
    blocks: np.ndarray

    def expand(self, out: np.ndarray) -> None:
        """Write σ_N² C_x⁻¹ into the C-order N × N array out, entry (i, j)
        only where voxel j's grid row is at or above voxel i's: the upper
        triangle of out, which is the lower triangle of its Fortran-order
        transpose that potrf reads, and the whole of each grid row's
        diagonal nx × nx block. No other entry of out is written.

        C_x⁻¹ = ¼ Q diag(blocks) Qᵀ. Entry (i, j) is ¼ Σ ±block[i', j']
        over the four parities, with i', j' the quarter voxels of which i
        and j are images, and a minus for each odd parity whose axis has i
        and j on opposite sides of the centre. The entries are written from
        views, some reversed, of the four signed combinations of the blocks,
        one quarter-size combination at a time: for each grid row, its
        cells at or above it on its own side of the centre, and for the
        grid rows below the centre, the rows above it at once.
        """
        grid, blocks = self.grid, self.blocks
        images = out.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
        pairs_y, pairs_x = _upper_row_pairs(grid.ny), _side_pairs(grid.nx)
        combined = np.empty_like(blocks[0, 0])
        quarter = combined.reshape(2 * ((grid.ny + 1) // 2, (grid.nx + 1) // 2))
        for flip_y in (0, 1):
            for flip_x in (0, 1):
                np.copyto(combined, blocks[0, 0])
                for sy, sx in ((0, 1), (1, 0), (1, 1)):
                    sign = (np.subtract if (sy & flip_y) ^ (sx & flip_x)
                            else np.add)
                    sign(combined, blocks[sy, sx], out=combined)
                combined *= self.params.sigma_n**2 / 4
                for rows_y, cols_y, quarter_rows_y, quarter_cols_y in pairs_y[flip_y]:
                    for rows_x, cols_x, quarter_rows_x, quarter_cols_x in pairs_x[flip_x]:
                        images[rows_y, rows_x, cols_y, cols_x] = quarter[
                            quarter_rows_y, quarter_rows_x,
                            quarter_cols_y, quarter_cols_x]


def prior_precision_term(grid: VoxelGrid,
                         params: ReconstructionParams) -> PrecisionTerm:
    """σ_N² C_x⁻¹, inverted block by block through the grid's mirrors and
    kept in that compact form.

    This is the regularization term of every tall operator built on the
    same grid and parameters, and it depends on nothing else: a
    recalibration changes the weights, not the term. So the terms of the
    last _PRIOR_MEMO_SIZE (grid, params) pairs are kept, and equal
    arguments give the same term, its blocks read-only: a build on a grid
    it has seen expands the kept term and inverts nothing. Callers may also
    pass the term to each `build_operator`.

    C_x does not change when the grid is mirrored in x or in y, and in the
    basis Q of `_mirror_blocks` it is block diagonal: four blocks of about
    N/4 voxels. Each block is Cholesky-factored and inverted (potrf, potri),
    about N³/16 flops in all, against N³ for C_x itself, and C_x⁻¹ =
    ¼ Q diag(blocks⁻¹) Qᵀ. C_x is never formed, and neither is the N × N
    term: the result holds the four inverted blocks, about N²/4 values,
    and `PrecisionTerm.expand` writes them into a build's buffer.

    Raises:
        LinAlgError: C_x is not SPD to working precision (one of its blocks
            is not); the message carries N and δ_c. Nothing is kept then.
    """
    return _precision_term(grid, params)


@functools.lru_cache(maxsize=_PRIOR_MEMO_SIZE)
def _precision_term(grid: VoxelGrid,
                    params: ReconstructionParams) -> PrecisionTerm:
    """prior_precision_term's computation, kept by the value of its two
    frozen arguments; always called positionally, so equal arguments are
    one key."""
    blocks = _mirror_blocks(grid, params)
    for sy in (0, 1):
        for sx in (0, 1):
            # The block is symmetric, so its transpose is the same matrix
            # in the Fortran order that LAPACK factors and inverts in place.
            factor, info = lapack.dpotrf(blocks[sy, sx].T, overwrite_a=1)
            if info == 0:
                factor, info = lapack.dpotri(factor, overwrite_c=1)
            if info != 0:
                raise linalg.LinAlgError(
                    f"prior covariance is not SPD to working precision "
                    f"(N={grid.n_voxels}, delta_c={params.delta_c}): "
                    f"LAPACK info {info}"
                )
            # potri wrote the upper triangle of factor and potrf zeroed the
            # lower one: the block's lower triangle holds its inverse.
            block = blocks[sy, sx]
            upper = np.triu_indices(len(block), 1)
            block[upper] = block.T[upper]
            lone = _lone_cells(grid, sy, sx)
            blocks[sy, sx, lone, lone] = 0.0
    blocks.flags.writeable = False
    return PrecisionTerm(grid=grid, params=params, blocks=blocks)


def check_precision_term(precision_term, grid: VoxelGrid,
                         params: ReconstructionParams) -> None:
    """Check that a term given to a build is a `PrecisionTerm` for this
    grid and these params.

    Raises:
        TypeError: precision_term is not a PrecisionTerm.
        ValueError: it is for another grid or other params.
    """
    if not isinstance(precision_term, PrecisionTerm):
        raise TypeError(
            f"precision_term must be a PrecisionTerm from "
            f"prior_precision_term, not {type(precision_term).__name__}"
        )
    if precision_term.grid != grid:
        raise ValueError(
            f"precision_term is for {precision_term.grid}, not {grid}")
    if precision_term.params != params:
        raise ValueError(
            f"precision_term is for {precision_term.params}, not {params}")


@dataclass(frozen=True, eq=False)
class ReconstructionOperator:
    """The regularized inverse of one weight matrix, in its stored form.

    `reconstruct` images measurements from whichever form is stored. `pi`
    gives Π for either form; a tall operator computes it on each access,
    which holds a formed W, its dense Wᵀ and the (N, rows) result while it
    runs.

    Attributes:
        stored: for a tall W (more rows than voxels), M = (WᵀW + σ_N² C_x⁻¹)⁻¹
            as an (N, N) Fortran-order array whose lower triangle holds M
            and whose upper triangle is exactly zero. It lies in the
            build's anonymous mapping (see `build_operator`), of which
            only the pages holding the lower triangle, about N²·4 bytes
            and a 4 KiB page per column, are resident. Otherwise Π,
            (N, rows), Fortran order, built as C_x Wᵀ (W C_x Wᵀ +
            σ_N² I)⁻¹, or from A when that rows × rows matrix is too
            ill-conditioned.
        weights: the WeightMatrix the operator inverts; measurement vectors
            must use its row ordering.
        grid: voxel grid of the image space.
    """

    stored: np.ndarray
    weights: WeightMatrix
    grid: VoxelGrid

    @property
    def tall(self) -> bool:
        """Whether W has more rows than voxels, so that M is stored."""
        return self.weights.n_rows > self.grid.n_voxels

    @property
    def pi(self) -> np.ndarray:
        """Π, (N, rows) in Fortran order: the stored array of a short
        operator, and M Wᵀ computed anew, not cached, for a tall one."""
        if not self.tall:
            return self.stored
        return blas.dsymm(1.0, self.stored, self.weights.matrix.toarray().T,
                          lower=1)


def _not_spd(n: int, rows: int, info: int) -> linalg.LinAlgError:
    return linalg.LinAlgError(
        f"regularized normal matrix is not SPD to working precision "
        f"(N={n}, rows={rows}): LAPACK info {info}"
    )


def _push_through_pi(weights: WeightMatrix, grid: VoxelGrid,
                     params: ReconstructionParams) -> np.ndarray | None:
    """Π = C_x Wᵀ (W C_x Wᵀ + σ_N² I)⁻¹, (N, rows) in Fortran order, or
    None when that matrix is too ill-conditioned for this form.

    By the push-through identity (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ = C_x Wᵀ (W C_x Wᵀ +
    σ_N² I)⁻¹. C_x Wᵀ is formed in the result's buffer, _PUSH_BLOCK of its
    rows at a time: rows a:b are the transpose of W·C_x[:, a:b], the sparse
    W times a C-order block of C_x's columns. Then K = W·(C_x Wᵀ) + σ_N² I,
    rows × rows, is formed _PUSH_BLOCK columns at a time, each the sparse W
    times the C-order copy of a block of the buffer's columns, and
    Cholesky-factored, and two triangular solves from the right overwrite
    the buffer with Π. Each entry sums the same products in the same order
    at any block size. None is returned, before the solves,
    when LAPACK's estimate of K's condition number exceeds
    _PUSH_THROUGH_MAX_COND.
    """
    n, rows = grid.n_voxels, weights.n_rows
    w = weights.matrix
    centers = grid.centers()
    pi = np.empty((n, rows), order="F")
    for start in range(0, n, _PUSH_BLOCK):
        stop = min(start + _PUSH_BLOCK, n)
        # C_x[:, a:b] (C_x is symmetric); a dense C-order right operand is
        # read in place by scipy's sparse product, where a dense left one
        # would be transposed and copied.
        columns = _covariance(cdist(centers, centers[start:stop]), params)
        pi[start:stop] = (w @ columns).T
    # The sparse product copies a Fortran-order operand to C order, so K
    # is formed _PUSH_BLOCK of its columns at a time, not from all of Π.
    gram = np.empty((rows, rows))
    for start in range(0, rows, _PUSH_BLOCK):
        gram[:, start:start + _PUSH_BLOCK] = w @ pi[:, start:start + _PUSH_BLOCK]
    gram.flat[::rows + 1] += params.sigma_n**2
    norm = np.abs(gram).sum(axis=0).max()  # K's 1-norm, for pocon
    # gram.T is the Fortran-order view that LAPACK factors in place; potrf
    # reads its lower triangle, which is gram's upper one.
    factor, info = lapack.dpotrf(gram.T, lower=1, overwrite_a=1)
    if info != 0:
        raise _not_spd(n, rows, info)
    rcond, _ = lapack.dpocon(factor, norm, uplo="L")
    if rcond * _PUSH_THROUGH_MAX_COND < 1.0:
        return None
    # Π L Lᵀ = C_x Wᵀ: solve against Lᵀ, then against L.
    pi = blas.dtrsm(1.0, factor, pi, side=1, lower=1, trans_a=1,
                    overwrite_b=1)
    return blas.dtrsm(1.0, factor, pi, side=1, lower=1, overwrite_b=1)


def _tiles(n: int) -> list[slice]:
    """An axis of n cells cut into runs of _TILE, the last one ragged."""
    return [slice(start, min(start + _TILE, n)) for start in range(0, n, _TILE)]


def _add_gram(term: np.ndarray, weights: WeightMatrix, grid: VoxelGrid) -> None:
    """Add WᵀW to the upper triangle of the C-order N × N array term, the
    one the Cholesky factorization reads, at grid-row granularity (entry
    (i, j) where voxel j's grid row is at or above voxel i's), one pair of
    _TILE × _TILE-voxel tiles at a time. No other entry is written.

    W[r, v] is v_r where voxel v is inside row r's ellipse (see
    `WeightMatrix`). Row r touches a tile when its ellipse holds a
    voxel of the tile; each tile keeps the 0/1 membership mask of the rows
    R_a that touch it, |R_a| × t bytes. The (a, b) block of WᵀW sums over
    the rows touching both tiles, W[R_ab, a]ᵀ·W[R_ab, b]: for each pair
    a <= b, _BLOCK rows of the two masks at a time are gathered into float
    buffers, scaled by v_r, and multiplied (gemm), and the block is added
    through the term's (ny, nx, ny, nx) view. The factorization reads only
    the term's upper triangle, which holds the whole block of a pair in
    different rows of tiles and none of its mirror. A pair in one row of
    tiles has its voxels interleaved: its block and its mirror are added
    from each of their grid rows up, one grid row at a time. A row
    touches about a third of the tiles at the reference deployments, so the
    pairs skip about five sixths of the flops of a dense WᵀW.
    """
    band, reach, value = weights.band, weights.reach, weights.value
    link = np.arange(reach.size) % len(band)
    images = term.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
    voxels = np.arange(grid.n_voxels).reshape(grid.ny, grid.nx)
    tiles = [(ys, xs) for ys in _tiles(grid.ny) for xs in _tiles(grid.nx)]
    touches = np.empty((len(tiles), len(link)), dtype=bool)
    masks = []
    for a, tile in enumerate(tiles):
        tile_band = band[:, voxels[tile].ravel()]
        touches[a] = tile_band.min(axis=1)[link] <= reach
        rows = np.flatnonzero(touches[a])
        masks.append(tile_band[link[rows]] <= reach[rows, np.newaxis])
    # position[a, r]: row r's row in masks[a], where it touches tile a
    position = np.cumsum(touches, axis=1, dtype=np.int32) - 1
    flags = np.empty(_BLOCK * _TILE**2, dtype=bool)
    gathered = np.empty((2, _BLOCK * _TILE**2))
    grams = np.empty(_TILE**4)

    def scaled(a, rows, out):
        """W[rows, tile a], (rows, voxels of tile a), in the buffer out."""
        shape = (rows.size, masks[a].shape[1])
        inside = flags[:shape[0] * shape[1]].reshape(shape)
        # The positions are in range by construction, and "clip" writes
        # to out directly, where "raise" goes through a temporary.
        np.take(masks[a], position[a, rows], axis=0, out=inside, mode="clip")
        members = out[:inside.size].reshape(shape)
        np.copyto(members, inside)  # a cast, faster than a mixed multiply
        return np.multiply(members, value[rows, np.newaxis], out=members)

    for a, (ys_a, xs_a) in enumerate(tiles):
        for b in range(a, len(tiles)):
            ys_b, xs_b = tiles[b]
            rows = np.flatnonzero(touches[a] & touches[b])
            if not rows.size:
                continue
            target = images[ys_a, xs_a, ys_b, xs_b]
            shape = target.shape
            # W[R_ab, b]ᵀW[R_ab, a] in Fortran order: its transpose is the
            # block (a, b) in C order, as the view of it reads
            gram = grams[:np.prod(shape)].reshape(
                (np.prod(shape[2:]), np.prod(shape[:2])), order="F")
            for start in range(0, rows.size, _BLOCK):
                block = rows[start:start + _BLOCK]
                left = scaled(a, block, gathered[0])
                right = left if a == b else scaled(b, block, gathered[1])
                gram = blas.dgemm(1.0, right.T, left.T, beta=float(start > 0),
                                  c=gram, trans_b=1, overwrite_c=1)
            gram = gram.T.reshape(shape)
            # a < b in different rows of tiles: every grid row of b is above
            # every one of a, and the mirror lies wholly in the triangle
            # potrf does not read
            if ys_a != ys_b:
                target += gram
                continue
            # one row of tiles: grid row i of the block and its mirror
            # from grid row i up (a masked add would touch the rest)
            mirror = images[ys_b, xs_b, ys_a, xs_a]
            mirrored = gram.transpose(2, 3, 0, 1)
            for i in range(shape[0]):
                target[i, :, i:] += gram[i, :, i:]
                if a != b:
                    mirror[i, :, i:] += mirrored[i, :, i:]


def _anonymous_buffer(n: int) -> np.ndarray:
    """A C-order N × N float64 array of zeros over its own anonymous
    mapping, advised against huge pages where the platform has that advice,
    so that a 4 KiB page becomes resident on its first write and a page
    never written stays out of memory. numpy advises its large arrays to
    take 2 MiB pages, each resident as a whole on its first write: a
    matrix written in one triangle would be resident whole."""
    mapping = mmap.mmap(-1, n * n * 8)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(mapping, dtype=float).reshape(n, n)


def build_operator(weights: WeightMatrix, grid: VoxelGrid,
                   params: ReconstructionParams | None = None,
                   precision_term: PrecisionTerm | None = None,
                   ) -> ReconstructionOperator:
    """Store M = (WᵀW + σ_N² C_x⁻¹)⁻¹ for a weight matrix with more rows
    than voxels, and Π = M Wᵀ otherwise: whichever is smaller.

    Tall W: A = WᵀW + σ_N² C_x⁻¹ lives in one Fortran-order N × N buffer
    over an anonymous mapping, advised against huge pages (MADV_NOHUGEPAGE)
    where the platform has that advice, and only its lower triangle, the
    one potrf, potri and the products with M read, is written, at
    grid-row granularity: entry (j, i) where voxel j's grid row is at or
    above voxel i's. A page of the mapping becomes resident on its first
    write, so the upper half stays out of memory: M holds about N²·4
    bytes plus about a 4 KiB page per column, where a numpy array, which
    numpy advises onto 2 MiB pages, would be resident whole. The buffer
    starts as the precision term, given or else the one
    `prior_precision_term` keeps for this grid and params, expanded by
    `PrecisionTerm.expand`. WᵀW is added one pair of _TILE × _TILE-voxel
    tiles (ragged at the grid's edges) at a time, from the weights'
    ellipses: for each tile, the 0/1 masks of the rows R_a whose ellipse
    touches it, and for each pair a <= b, W[R_ab, a]ᵀ·W[R_ab, b] over the
    rows touching both, the masks' rows gathered and scaled by the rows'
    values _BLOCK rows at a time. No W is formed, as CSR or dense, and no
    float block of W outlives its product. The entries of each grid row's
    diagonal nx × nx block above the diagonal, which both wrote and
    nothing reads, are zeroed; A is then Cholesky-factored (potrf with
    clean=0, which leaves the upper triangle as it is) and potri turns the
    factor into M = A⁻¹ in place, so M's upper triangle is exactly zero;
    `pi` is computed on demand. Besides the buffer, the build holds the
    tiles' masks (a byte per voxel of each (row, tile) pair that touches),
    three (_BLOCK, _TILE²) gather buffers and one block of the Gram; the
    term's four quarter-size blocks are held by the caller or kept by
    `prior_precision_term`.

    Short W: Π is stored in the push-through form C_x Wᵀ (W C_x Wᵀ +
    σ_N² I)⁻¹, the same matrix. C_x Wᵀ is formed in Π's buffer from the
    sparse W and blocks of _PUSH_BLOCK columns of C_x, W C_x Wᵀ from
    blocks of _PUSH_BLOCK of its columns, and only that rows × rows matrix
    plus σ_N² I is Cholesky-factored: no N × N array is formed, C_x is
    not inverted, the precision term is not read, and besides Π the build
    holds one (N, _PUSH_BLOCK) block and the rows × rows matrix. When
    LAPACK's estimate of that matrix's condition number exceeds
    _PUSH_THROUGH_MAX_COND, where this form loses accuracy, A is formed and
    factored in the same buffer as for a tall W and Π is its Cholesky
    solve against the dense Wᵀ.

    The stored array is in Fortran order. Neither `weights` nor
    `precision_term` is written to.

    Args:
        weights: link/voxel weight operator (classic or multi-scale).
        grid: voxel grid; must match the weight matrix column count.
        params: regularization parameters (defaults are the standard set).
        precision_term: optional σ_N² C_x⁻¹ from `prior_precision_term`.
            A given term is checked (`check_precision_term`) on every
            build, and a build through A uses it; without one, a build
            through A uses the term `prior_precision_term` keeps for this
            grid and params. A build in push-through form reads neither.

    Raises:
        TypeError: precision_term is not a PrecisionTerm.
        ValueError: grid/matrix column mismatch, or a precision_term for
            another grid or other params.
        LinAlgError: C_x or the regularized normal matrix is not SPD
            numerically; the message carries size diagnostics.
    """
    if params is None:
        params = ReconstructionParams()
    n = grid.n_voxels
    if weights.n_voxels != n:
        raise ValueError(
            f"weight matrix has {weights.n_voxels} columns, grid has {n} voxels"
        )
    if precision_term is not None:
        check_precision_term(precision_term, grid, params)
    tall = weights.n_rows > n
    if not tall:
        pi = _push_through_pi(weights, grid, params)
        if pi is not None:
            return ReconstructionOperator(stored=pi, weights=weights, grid=grid)

    # The buffer is C-order, so that its transpose is a Fortran-order view
    # of A that LAPACK factors in place, and its upper triangle is the
    # triangle of A that potrf reads; the compact term stays unwritten.
    term = _anonymous_buffer(n)
    (prior_precision_term(grid, params) if precision_term is None
     else precision_term).expand(term)
    _add_gram(term, weights, grid)
    # Both wrote each grid row's diagonal nx × nx block whole; its entries
    # below the diagonal are unread, and zeroed so that M's other triangle
    # is zero throughout (clean=0: the rest of it was never written).
    images = term.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
    below = np.tril_indices(grid.nx, -1)
    for row in range(grid.ny):
        images[row, :, row][below] = 0.0
    factor, info = lapack.dpotrf(term.T, lower=1, clean=0, overwrite_a=1)
    if info == 0 and tall:
        factor, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise _not_spd(n, weights.n_rows, info)
    if tall:
        return ReconstructionOperator(stored=factor, weights=weights, grid=grid)
    w_t = weights.matrix.T.toarray(order="F")
    pi = linalg.cho_solve((factor, True), w_t, overwrite_b=True,
                          check_finite=False)
    return ReconstructionOperator(stored=pi, weights=weights, grid=grid)


def reconstruct(op: ReconstructionOperator, y: np.ndarray) -> np.ndarray:
    """Image estimate x̂ = Π y: M·(U·(S·y)) on a tall operator, with
    Wᵀ = U·S the weights' band factors, and one dense product on a short
    one.

    Args:
        op: precomputed operator.
        y: measurement vector (rows,) or K stacked measurement columns
            (rows, K), ordered like the operator's weight matrix rows.

    Returns:
        (N,) attenuation-change image, or (N, K) for stacked columns, in
        the operator's voxel order.
    """
    y = np.asarray(y, dtype=float)
    rows = op.weights.n_rows
    if y.ndim not in (1, 2) or y.shape[0] != rows:
        raise ValueError(
            f"measurement shape {y.shape} != operator rows ({rows},)"
        )
    if not op.tall:
        return op.stored @ y
    back = op.weights.back_project(y)
    if y.ndim == 1:
        return blas.dsymv(1.0, op.stored, back, lower=1)
    return blas.dsymm(1.0, op.stored, back, lower=1)
