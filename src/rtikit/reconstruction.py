"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ,
where C_x = σ_x² exp(−d / δ_c) is an exponentially decaying spatial prior
over voxel centers (Wilson & Patwari, "Radio Tomographic Imaging with
Wireless Networks", IEEE TMC 2010).

The build, `build_operator`, is the expensive step and happens once per
weight matrix; each frame is then one or two products, `reconstruct`. The
build is dense LAPACK/BLAS throughout and stores whichever is smaller: for
W with more rows than voxels (the multi-scale weights), the lower triangle
of M = (WᵀW + σ_N² C_x⁻¹)⁻¹, applied as M·(Wᵀy); otherwise Π itself, in
the push-through form C_x Wᵀ (W C_x Wᵀ + σ_N² I)⁻¹. Neither forms the
whole C_x. The precision term σ_N² C_x⁻¹ of a tall build depends only on
the grid and the parameters, and `prior_precision_term` inverts it block
by block through the grid's mirrors and keeps it, packed. WᵀW is summed
over pairs of voxel tiles from the weights' ellipses, and no W exists in
any form: W is about one sixth nonzero at the reference deployments,
where the sparse WᵀW took four to eight times as long as a dense one, so
the tile pairs keep the dense products and drop the zero ones.
"""

import functools
import mmap
from dataclasses import dataclass
from typing import ClassVar

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

# Rows per strip in which `_unfold` mirror-copies a packed sign combination
# of the precision term, which bounds its transposed reads to _STRIP rows.
_STRIP = 64

# The side, in voxels, of the square tiles of the Gram update WᵀW (ragged
# at the grid's edges): a row's ellipse touches about a third of them at
# the reference deployments.
_TILE = 12

# How many (grid, params) precision terms prior_precision_term keeps, least
# recently used dropped first: one deployment's grid, and a second so that
# alternating between two deployments keeps both.
_PRIOR_MEMO_SIZE = 2


@dataclass(frozen=True)
class ReconstructionParams:
    """Regularization parameters.

    The prior is C_x = σ_x² exp(−d / δ_c), and Π reads σ_N and σ_x only
    through their ratio σ_N/σ_x: scaling both by one factor leaves Π
    unchanged. So σ_x is the class constant `sigma_x`, not a field, and
    σ_N alone sets the regularization's strength; the Π of a prior
    deviation s is the Π of σ_N·sigma_x/s.

    Attributes:
        sigma_n: measurement noise standard deviation, dB.
        delta_c: prior correlation distance, meters.
        sigma_x: prior per-voxel standard deviation, dB (a constant).
    """

    sigma_x: ClassVar[float] = 0.0316
    sigma_n: float = 1.4142
    delta_c: float = 4.0

    def __post_init__(self):
        check_bounds(self, sigma_n="finite and > 0", delta_c="finite and > 0")


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


def _sides(n: int) -> list[tuple[slice, slice]]:
    """The sides of an axis of n cells about its centre, each as (its
    cells, ascending, and the quarter cells they are the images of): the
    upper side, whose cells are the quarter's in order, then the lower
    side, where there is one, whose cells are the mirror images of the
    quarter's last ⌊n/2⌋, so that its quarter slice runs in reverse (to
    quarter cell 0 on an even axis, where its stop is None)."""
    h, m = n // 2, (n + 1) // 2
    sides = [(slice(h, n), slice(0, m))]
    if h:
        sides.append((slice(0, h), slice(m - 1, m - h - 1 if m > h else None,
                                          -1)))
    return sides


def _write_upper(images: np.ndarray, ys_a: slice, xs_a: slice, ys_b: slice,
                 xs_b: slice, block: np.ndarray, add: bool) -> None:
    """Set (add false) or add to images[ys_a, xs_a, ys_b, xs_b] the block
    of its shape, only where the column voxel's grid row is at or above
    the row voxel's: the whole block when the grid rows ys_b lie above
    ys_a, nothing when they lie below, and when they are the same rows,
    row i of the block from column row i on. ys_a and ys_b are equal or
    disjoint runs of grid rows.

    This is the one rule by which A's buffer is written. images is the
    (ny, nx, ny, nx) view of the C-order N × N buffer, whose upper
    triangle is the lower triangle of its Fortran-order transpose that
    potrf, potri and the products with M read. The rule writes that
    triangle at grid-row granularity, so it also writes the entries below
    the diagonal of each grid row's diagonal nx × nx block, which nothing
    reads: `build_operator` zeroes them before potrf. No other entry is
    written, so the pages of the unread triangle never become resident.
    """
    if ys_b.start < ys_a.start:
        return
    target = images[ys_a, xs_a, ys_b, xs_b]
    parts = ([...] if ys_b.start > ys_a.start
             else [(i, slice(None), slice(i, None)) for i in range(len(target))])
    for part in parts:
        if add:
            target[part] += block[part]
        else:
            target[part] = block[part]


@dataclass(frozen=True, eq=False)
class PrecisionTerm:
    """σ_N² C_x⁻¹ for one grid and parameter set, held as its four sign
    combinations of the inverted mirror blocks, packed two to an array:
    2M² + 2M values, about an eighth of the N × N term's memory.

    Made by `prior_precision_term`, which keeps it, and shared by the
    tall builds on the same grid and parameters, each of which expands it
    with `expand` into its own buffer. The term's arrays are read-only, as
    every caller is handed the same term. Compared by identity (eq=False),
    since it holds arrays.

    The combination (flip_y, flip_x) is ¼σ_N²(B₀₀ ± B₀₁ ± B₁₀ ± B₁₁) of
    the inverses B[sy, sx] of the diagonal blocks of ¼ QᵀC_xQ (see
    `_mirror_blocks`), with a minus on B[sy, sx] where (sy & flip_y) ^
    (sx & flip_x). Each is an M × M symmetric matrix over the M =
    ⌈ny/2⌉⌈nx/2⌉ quarter voxels, and is stored as one triangle. Each B
    is zero on the rows and columns of the quarter voxels whose vector of
    Q is zero in its parity.

    Attributes:
        grid: the voxel grid the term is for.
        params: the regularization parameters it is for.
        sums: (2, M, M), indexed [flip_y]: the lower triangle, diagonal
            included, holds combination (flip_y, 0), and the strict upper
            triangle holds combination (flip_y, 1).
        diagonals: (2, M), indexed [flip_y]: the diagonal of combination
            (flip_y, 1).
    """

    grid: VoxelGrid
    params: ReconstructionParams
    sums: np.ndarray
    diagonals: np.ndarray

    def expand(self, out: np.ndarray) -> None:
        """Write σ_N² C_x⁻¹ into the C-order N × N array out, through
        `_write_upper`; no other entry of out is written.

        C_x⁻¹ = ¼ Q diag(blocks) Qᵀ. Entry (i, j) is entry (i', j') of the
        combination (flip_y, flip_x), with i', j' the quarter voxels of
        which i and j are images, and flip_y, flip_x set where the axis
        has i and j on opposite sides of the centre (`_sides`). One
        combination at a time is unpacked whole into one quarter-size
        scratch, and each pair of sides is written from its view of it.
        """
        grid = self.grid
        images = out.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
        combined = np.empty_like(self.sums[0])
        quarter = combined.reshape(2 * ((grid.ny + 1) // 2, (grid.nx + 1) // 2))

        def pairs(n, flip):
            """The pairs of sides of an axis of n cells: the same side for
            flip 0, opposite sides for flip 1."""
            sides = _sides(n)
            return [(a, b) for a in sides for b in sides if (a is b) != flip]

        for flip_y in (0, 1):
            for flip_x in (0, 1):
                # combination (flip_y, flip_x) is in the lower triangle of
                # this view, its diagonal apart for flip_x 1
                _unfold(self.sums[flip_y].T if flip_x else self.sums[flip_y],
                        combined)
                if flip_x:
                    np.fill_diagonal(combined, self.diagonals[flip_y])
                for (ys_a, quarter_ys_a), (ys_b, quarter_ys_b) in pairs(grid.ny, flip_y):
                    for (xs_a, quarter_xs_a), (xs_b, quarter_xs_b) in pairs(grid.nx, flip_x):
                        _write_upper(images, ys_a, xs_a, ys_b, xs_b, quarter[
                            quarter_ys_a, quarter_xs_a, quarter_ys_b,
                            quarter_xs_b], add=False)


def _unfold(lower: np.ndarray, out: np.ndarray) -> None:
    """Write into the M × M out the symmetric matrix whose lower triangle,
    diagonal included, the M × M lower holds; its strict upper triangle is
    not read. _STRIP rows at a time: a strip's entries left of its
    diagonal block are read in place, those right of it from the transpose
    of the strip's columns below it, and its diagonal block from both."""
    m = len(out)
    above = ~np.tri(_STRIP, dtype=bool)
    for start in range(0, m, _STRIP):
        stop = min(start + _STRIP, m)
        out[start:stop, :stop] = lower[start:stop, :stop]
        out[start:stop, stop:] = lower[stop:, start:stop].T
        size = stop - start
        np.copyto(out[start:stop, start:stop], lower[start:stop, start:stop].T,
                  where=above[:size, :size])


@functools.lru_cache(maxsize=_PRIOR_MEMO_SIZE)
def prior_precision_term(grid: VoxelGrid, params: ReconstructionParams,
                         /) -> PrecisionTerm:
    """σ_N² C_x⁻¹, inverted block by block through the grid's mirrors and
    kept as its four sign combinations, packed two to an array.

    This is the regularization term of every tall operator built on the
    same grid and parameters, and it depends on nothing else: a
    recalibration changes the weights, not the term. So the terms of the
    last _PRIOR_MEMO_SIZE (grid, params) pairs are kept, by the value of
    the two frozen arguments, which are positional-only so that equal
    arguments always make one key. Equal arguments give the same term, its
    arrays read-only: a build on a grid it has seen expands the kept term
    and inverts nothing. Callers may also pass the term to each
    `build_operator`.

    C_x does not change when the grid is mirrored in x or in y, and in the
    basis Q of `_mirror_blocks` it is block diagonal: four blocks of about
    N/4 voxels. Each block is Cholesky-factored and inverted (potrf, potri),
    about N³/16 flops in all, against N³ for C_x itself, and C_x⁻¹ =
    ¼ Q diag(blocks⁻¹) Qᵀ. C_x is never formed, and neither is the N × N
    term. `PrecisionTerm.expand` reads the inverted blocks only through
    the four sign combinations of `PrecisionTerm`, so these are formed
    once, each as B₀₀ plus or minus B₀₁, B₁₀ and B₁₁ in turn, then scaled
    by σ_N²/4, and packed two to an M × M array over the M quarter voxels:
    the result holds 2M² + 2M values, about N²/8, an eighth of the N × N
    term, and the blocks are dropped.

    Raises:
        LinAlgError: C_x is not SPD to working precision (one of its blocks
            is not); the message carries N and δ_c. Nothing is kept then.
    """
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
            # lower one: the block's lower triangle holds its inverse, the
            # one triangle the sums below are read from.
            lone = _lone_cells(grid, sy, sx)
            blocks[sy, sx, lone, lone] = 0.0
    m = blocks.shape[-1]
    sums = np.empty((2, m, m))
    diagonals = np.empty((2, m))
    combined = np.empty((m, m))
    above = ~np.tri(m, dtype=bool)
    for flip_y in (0, 1):
        for flip_x in (0, 1):
            # (flip_y, 0) is formed in place and (flip_y, 1) beside it; the
            # lower triangle of each is right, and by symmetry the
            # transpose of (flip_y, 1)'s is its strict upper triangle
            total = combined if flip_x else sums[flip_y]
            np.copyto(total, blocks[0, 0])
            for sy, sx in ((0, 1), (1, 0), (1, 1)):
                sign = (np.subtract if (sy & flip_y) ^ (sx & flip_x)
                        else np.add)
                sign(total, blocks[sy, sx], out=total)
            total *= params.sigma_n**2 / 4
        np.copyto(sums[flip_y], combined.T, where=above)
        diagonals[flip_y] = combined.diagonal()
    sums.flags.writeable = diagonals.flags.writeable = False
    return PrecisionTerm(grid=grid, params=params, sums=sums,
                         diagonals=diagonals)


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
            only the pages `_write_upper` wrote, about N²·4 bytes and a
            4 KiB page per column, are resident. Otherwise Π,
            (N, rows), Fortran order, built as C_x Wᵀ (W C_x Wᵀ +
            σ_N² I)⁻¹.
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
                     params: ReconstructionParams) -> np.ndarray:
    """Π = C_x Wᵀ (W C_x Wᵀ + σ_N² I)⁻¹, (N, rows) in Fortran order.

    By the push-through identity (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ = C_x Wᵀ (W C_x Wᵀ +
    σ_N² I)⁻¹. C_x Wᵀ is formed in the result's buffer, _PUSH_BLOCK of its
    rows at a time: rows a:b are the transpose of W·C_x[:, a:b], the sparse
    W times a C-order block of C_x's columns. Then K = W·(C_x Wᵀ) + σ_N² I,
    rows × rows, is formed _PUSH_BLOCK columns at a time, each the sparse W
    times the C-order copy of a block of the buffer's columns, and
    Cholesky-factored, and two triangular solves from the right overwrite
    the buffer with Π. Each entry sums the same products in the same order
    at any block size.
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
    # gram.T is the Fortran-order view that LAPACK factors in place; potrf
    # reads its lower triangle, which is gram's upper one.
    factor, info = lapack.dpotrf(gram.T, lower=1, overwrite_a=1)
    if info != 0:
        raise _not_spd(n, rows, info)
    # Π L Lᵀ = C_x Wᵀ: solve against Lᵀ, then against L.
    pi = blas.dtrsm(1.0, factor, pi, side=1, lower=1, trans_a=1,
                    overwrite_b=1)
    return blas.dtrsm(1.0, factor, pi, side=1, lower=1, overwrite_b=1)


def _tiles(n: int) -> list[slice]:
    """An axis of n cells cut into runs of _TILE, the last one ragged."""
    return [slice(start, min(start + _TILE, n)) for start in range(0, n, _TILE)]


def _add_gram(term: np.ndarray, weights: WeightMatrix, grid: VoxelGrid) -> None:
    """Add WᵀW to the C-order N × N array term through `_write_upper`, one
    pair of _TILE × _TILE-voxel tiles at a time. No other entry is written.

    W[r, v] is v_r where voxel v is inside row r's ellipse (see
    `WeightMatrix`): where band[r mod L, v] <= reach[r]. Each tile keeps
    its own (L, t) copy of the band table, t bytes per link, and row r
    touches the tile when its link's narrowest band there is within its
    reach. The (a, b) block of WᵀW sums over the rows R_ab touching both
    tiles, W[R_ab, a]ᵀ·W[R_ab, b]. The tiles are taken in turn as a: tile
    a's float block W[R_a, a] over the rows touching it is made once, in
    one buffer sized for the largest, and its band table is dropped, since
    every pair that reads it as its second tile came before. For each pair
    a <= b, _BLOCK rows of R_ab at a time are gathered from the float block
    and, for tile b, from its band table (compared with the rows' reaches,
    cast and scaled), and multiplied (gemm); a diagonal pair (a, a) takes
    the float block's own rows on both sides, with no gather. The block,
    and for a ≠ b its mirror (b, a), is added through the term's
    (ny, nx, ny, nx) view. A row touches about a third of the tiles at the
    reference deployments, so the pairs skip about five sixths of the
    flops of a dense WᵀW.

    A diagonal pair stays a gemm: syrk's triangle differs from gemm's in
    the last bits on ragged tiles (49 and 84 voxels on the `stream` grid),
    which M would inherit.

    Besides the term, this holds the band tables of the tiles not yet
    taken as a (L·N bytes at first), the float block's buffer, two
    (_BLOCK, _TILE²) float gather buffers and their band and flag
    buffers, and one block of the Gram.
    """
    band, reach, value = weights.band, weights.reach, weights.value
    n_links = len(band)
    link = np.arange(reach.size) % n_links
    # band <= reach as band < limit, a compare within band's own dtype
    # wherever that dtype holds R
    limit = (reach + 1).astype(np.promote_types(
        band.dtype, np.min_scalar_type(reach.size // n_links)))
    images = term.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
    cells = band.reshape(n_links, grid.ny, grid.nx)
    tiles = [(ys, xs) for ys in _tiles(grid.ny) for xs in _tiles(grid.nx)]
    touches = np.empty((len(tiles), reach.size), dtype=bool)
    tile_bands = []
    for a, (ys, xs) in enumerate(tiles):
        tile_bands.append(
            np.ascontiguousarray(cells[:, ys, xs]).reshape(n_links, -1))
        # a row touches the tile where its link's narrowest band there is
        # within its reach
        np.less_equal(tile_bands[a].min(axis=1)[link], reach, out=touches[a])
    row_bands = np.empty(_BLOCK * _TILE**2, dtype=band.dtype)
    flags = np.empty(_BLOCK * _TILE**2, dtype=bool)
    gathered = np.empty((2, _BLOCK * _TILE**2))
    grams = np.empty(_TILE**4)
    # one float block at a time, in one buffer: a fresh array per tile
    # would take fresh pages from the system each time
    blocks = np.empty(touches.sum(axis=1).max() * _TILE**2)

    def scaled(b, rows, out):
        """W[rows, tile b], (rows, voxels of tile b), in the buffer out."""
        shape = (rows.size, tile_bands[b].shape[1])
        # The links are in range, and "clip" writes to out directly, where
        # "raise" goes through a temporary.
        taken = np.take(tile_bands[b], link[rows], axis=0, mode="clip",
                        out=row_bands[:shape[0] * shape[1]].reshape(shape))
        inside = np.less(taken, limit[rows, np.newaxis],
                         out=flags[:taken.size].reshape(shape))
        members = out[:inside.size].reshape(shape)
        np.copyto(members, inside)  # a cast, faster than a mixed multiply
        return np.multiply(members, value[rows, np.newaxis], out=members)

    for a, (ys_a, xs_a) in enumerate(tiles):
        rows_a = np.flatnonzero(touches[a])
        size = tile_bands[a].shape[1]
        block_a = blocks[:rows_a.size * size].reshape(rows_a.size, size)
        for start in range(0, rows_a.size, _BLOCK):  # W[R_a, a]
            scaled(a, rows_a[start:start + _BLOCK], blocks[start * size:])
        tile_bands[a] = None
        touching = touches[:, rows_a]
        for b in range(a, len(tiles)):
            ys_b, xs_b = tiles[b]
            shape = images[ys_a, xs_a, ys_b, xs_b].shape
            size_a, size_b = shape[0] * shape[1], shape[2] * shape[3]
            in_a = (np.arange(rows_a.size) if a == b
                    else np.flatnonzero(touching[b]))
            if not in_a.size:
                continue
            rows = rows_a[in_a]
            # W[R_ab, b]ᵀW[R_ab, a] in Fortran order: its transpose is the
            # block (a, b) in C order, as the view of it reads
            gram = grams[:size_a * size_b].reshape((size_b, size_a), order="F")
            for start in range(0, rows.size, _BLOCK):
                stop = min(start + _BLOCK, rows.size)
                if a == b:  # the float block's own rows, on both sides
                    left = right = block_a[start:stop]
                else:
                    left = gathered[0, :(stop - start) * size_a].reshape(
                        stop - start, size_a)
                    np.take(block_a, in_a[start:stop], axis=0, out=left,
                            mode="clip")
                    right = scaled(b, rows[start:stop], gathered[1])
                gram = blas.dgemm(1.0, right.T, left.T, beta=float(start > 0),
                                  c=gram, trans_b=1, overwrite_c=1)
            gram = gram.T.reshape(shape)
            _write_upper(images, ys_a, xs_a, ys_b, xs_b, gram, add=True)
            if a != b:
                _write_upper(images, ys_b, xs_b, ys_a, xs_a,
                             gram.transpose(2, 3, 0, 1), add=True)


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
    where the platform has that advice, and is written only through
    `_write_upper`. A page of the mapping becomes resident on its first
    write, so the unread half stays out of memory: M holds about N²·4
    bytes plus about a 4 KiB page per column, where a numpy array, which
    numpy advises onto 2 MiB pages, would be resident whole. The buffer
    starts as the precision term, given or else the one
    `prior_precision_term` keeps for this grid and params, expanded by
    `PrecisionTerm.expand`, and WᵀW is added from the weights' ellipses
    one pair of voxel tiles at a time by `_add_gram`: no W is formed, as
    CSR or dense. The entries that `_write_upper`'s rule writes and
    nothing reads are zeroed; A is then Cholesky-factored (potrf with
    clean=0, which leaves the upper triangle as it is) and potri turns the
    factor into M = A⁻¹ in place, so M's upper triangle is exactly zero;
    `pi` is computed on demand. Besides the buffer, the build holds the
    quarter-size scratch of `PrecisionTerm.expand`, then `_add_gram`'s
    band tables and buffers; the packed term is held by the caller or
    kept by `prior_precision_term`.

    Short W (no more rows than voxels): Π is stored in the push-through
    form C_x Wᵀ (W C_x Wᵀ + σ_N² I)⁻¹, the same matrix. C_x Wᵀ is formed
    in Π's buffer from the sparse W and blocks of _PUSH_BLOCK columns of
    C_x, W C_x Wᵀ from blocks of _PUSH_BLOCK of its columns, and only that
    rows × rows matrix plus σ_N² I is Cholesky-factored: no N × N array is
    formed, C_x is not inverted, the precision term is not read, and
    besides Π the build holds one (N, _PUSH_BLOCK) block and the rows ×
    rows matrix.

    The stored array is in Fortran order. Neither `weights` nor
    `precision_term` is written to.

    Args:
        weights: link/voxel weight operator (classic or multi-scale).
        grid: voxel grid; must match the weight matrix column count.
        params: regularization parameters (defaults are the standard set).
        precision_term: optional σ_N² C_x⁻¹ from `prior_precision_term`.
            A given term is checked (`check_precision_term`) on every
            build, and a tall build uses it; without one, a tall build
            uses the term `prior_precision_term` keeps for this grid and
            params. A short build reads neither.

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
    if weights.n_rows <= n:
        return ReconstructionOperator(
            stored=_push_through_pi(weights, grid, params), weights=weights,
            grid=grid)

    # The buffer is C-order, so that its transpose is a Fortran-order view
    # of A that LAPACK factors in place; the compact term stays unwritten.
    term = _anonymous_buffer(n)
    (prior_precision_term(grid, params) if precision_term is None
     else precision_term).expand(term)
    _add_gram(term, weights, grid)
    # The entries of each grid row's diagonal nx × nx block below its
    # diagonal, which `_write_upper` wrote, are zeroed so that M's other
    # triangle is zero throughout (clean=0: the rest of it was never
    # written).
    images = term.reshape(grid.ny, grid.nx, grid.ny, grid.nx)
    below = np.tril_indices(grid.nx, -1)
    for row in range(grid.ny):
        images[row, :, row][below] = 0.0
    factor, info = lapack.dpotrf(term.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise _not_spd(n, weights.n_rows, info)
    return ReconstructionOperator(stored=factor, weights=weights, grid=grid)


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
