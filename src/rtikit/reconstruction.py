"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ,
where C_x is an exponentially decaying spatial prior over voxel centers
(Wilson & Patwari, "Radio Tomographic Imaging with Wireless Networks",
IEEE TMC 2010).

The build is the expensive step and happens once per weight matrix; each
frame is then one or two products. The build is dense LAPACK/BLAS
throughout: C_x from pairwise center distances, σ_N² C_x⁻¹ from its
Cholesky factor (potrf, potri), and A = WᵀW + σ_N² C_x⁻¹ in one N × N
buffer. A starts as a copy of the precision term, and WᵀW is added to it
by symmetric rank-k updates (syrk), each over a block of _BLOCK rows of W
formed dense from the weights' band factors, so no whole W exists in any
form; A is then Cholesky-factored in place. Besides the stored result,
the build therefore holds one (N, _BLOCK) block, the N × N buffer when
it stores Π (a tall build keeps the buffer as M), and the N × N precision
term, which callers may share across builds. W is about one sixth nonzero
at the reference deployments, where the sparse WᵀW took four to eight
times as long as the dense one.

What is stored depends on the shape of W alone, whichever is smaller:
- W with more rows than voxels (the multi-scale weights): M = A⁻¹ from
  potri on the factor, N × N, applied as x̂ = M·(Wᵀy). No solve against
  the rows of Wᵀ is made. Wᵀy is the weights' band back-projection
  U·(S·y): S sums each link's nested ellipse rows from the widest down
  and U adds one of those sums per (link, voxel), so it reads about a
  sixth of the nonzeros of W. A symmetric product with M follows.
- otherwise (the fixed-width weights, one row per link): Π itself,
  N × rows, from one Cholesky solve written into the dense Wᵀ.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from .geometry import VoxelGrid
from .spatial_model import WeightMatrix

__all__ = [
    "ReconstructionParams",
    "ReconstructionOperator",
    "prior_covariance",
    "prior_precision_term",
    "build_operator",
    "reconstruct",
]

# Rows of W per dense block of the Gram update, and rows of C_x⁻¹ per
# block of its mirroring: bounds the build's transients to (N, _BLOCK).
_BLOCK = 512


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
        if not (self.sigma_x > 0 and self.sigma_n > 0
                and self.delta_c > 0):  # False for NaN
            raise ValueError("reconstruction parameters must be strictly positive")


def prior_covariance(grid: VoxelGrid, params: ReconstructionParams) -> np.ndarray:
    """Exponential spatial prior: [C_x]_ji = σ_x² exp(−d_ji / δ_c).

    Symmetric positive definite for any voxel layout, diagonal σ_x².
    """
    centers = grid.centers()
    c_x = cdist(centers, centers)
    c_x /= -params.delta_c
    np.exp(c_x, out=c_x)
    c_x *= params.sigma_x**2
    return c_x


def prior_precision_term(grid: VoxelGrid, params: ReconstructionParams) -> np.ndarray:
    """σ_N² C_x⁻¹, from one Cholesky factorization and inversion of C_x.

    This is the regularization term shared by every operator built on the
    same grid and parameters, so callers may compute it once and reuse it.
    The result is exactly symmetric.

    Raises:
        LinAlgError: C_x is not SPD to working precision; the message
            carries N and δ_c.
    """
    n = grid.n_voxels
    c_x = prior_covariance(grid, params)
    # C_x is symmetric, so its transpose is the same matrix in the Fortran
    # order that LAPACK factors and inverts in place.
    factor, info = lapack.dpotrf(c_x.T, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dpotri(factor, overwrite_c=1)
    if info != 0:
        raise linalg.LinAlgError(
            f"prior covariance is not SPD to working precision "
            f"(N={n}, delta_c={params.delta_c}): "
            f"LAPACK info {info}"
        )
    # potri wrote the upper triangle of factor and potrf zeroed the lower
    # one, which makes factor.T the C-order view whose lower triangle holds
    # C_x⁻¹. Mirror that triangle in place, a block of rows at a time.
    term = factor.T
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        term[:start, start:stop] = term[start:stop, :start].T
        diagonal = term[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        diagonal[upper] = diagonal.T[upper]
    term *= params.sigma_n**2
    return term


@dataclass(frozen=True)
class ReconstructionOperator:
    """The regularized inverse of one weight matrix, in its stored form.

    `apply` images measurements from whichever form is stored. `pi` gives
    Π for either form; a tall operator computes it on each access, which
    holds a formed W, its dense Wᵀ and the (N, rows) result while it runs.

    Attributes:
        stored: for a tall W (more rows than voxels), M = (WᵀW + σ_N² C_x⁻¹)⁻¹
            as an (N, N) Fortran-order array whose lower triangle holds M
            (the other is zero); otherwise Π, (N, rows), Fortran order.
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

    def apply(self, y: np.ndarray) -> np.ndarray:
        """x̂ = Π y for a float y of shape (rows,) or (rows, K), unchecked:
        M·(U·(S·y)) on a tall operator, with Wᵀ = U·S the weights' band
        factors, and one dense product on a short one."""
        if not self.tall:
            return self.stored @ y
        back = self.weights.back_project(y)
        if y.ndim == 1:
            return blas.dsymv(1.0, self.stored, back, lower=1)
        return blas.dsymm(1.0, self.stored, back, lower=1)


def build_operator(weights: WeightMatrix, grid: VoxelGrid,
                   params: ReconstructionParams | None = None,
                   precision_term: np.ndarray | None = None,
                   ) -> ReconstructionOperator:
    """Factor A = WᵀW + σ_N² C_x⁻¹ for a weight matrix and store its inverse
    or Π = A⁻¹Wᵀ, whichever is smaller.

    A lives in one Fortran-order N × N buffer. It starts as a copy of the
    precision term, and WᵀW is added to its lower triangle by one syrk per
    block of _BLOCK rows of W, each block formed dense as W[a:b]ᵀ =
    U·S[:, a:b] from the weights' band factors: no whole W is formed, as
    CSR or dense. A is then Cholesky-factored in place. When W has more
    rows than voxels, potri turns the factor into M = A⁻¹, (N, N), in place,
    and `pi` is computed on demand. Otherwise the dense Wᵀ, (N, rows), is
    formed once and the solve against it overwrites it with the stored Π:
    no explicit inverse is formed. Transient memory is the N × N buffer,
    which a tall build keeps as M, and one (N, _BLOCK) block, besides the
    N × N precision term, which is held throughout and computed here when
    it is not given. The stored array is in Fortran order. Neither
    `weights` nor `precision_term` is written to.

    Args:
        weights: link/voxel weight operator (classic or multi-scale).
        grid: voxel grid; must match the weight matrix column count.
        params: regularization parameters (defaults are the standard set).
        precision_term: optional precomputed σ_N² C_x⁻¹ for this grid and
            params (see `prior_precision_term`), to share across several
            operator builds. It must be symmetric: only its upper triangle
            is read.

    Raises:
        ValueError: grid/matrix column mismatch or wrong precision_term shape.
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
    if precision_term is None:
        precision_term = prior_precision_term(grid, params)
    elif precision_term.shape != (n, n):
        raise ValueError(
            f"precision_term shape {precision_term.shape} != ({n}, {n})"
        )

    tall = weights.n_rows > n
    # The transpose of the (symmetric) term is a Fortran-order view whose
    # lower triangle is its upper one; LAPACK factors the copy in place.
    normal = np.array(precision_term.T, order="F")
    band_sums = weights.band_sums.tocsc()
    for start in range(0, weights.n_rows, _BLOCK):
        # U·S[:, a:b] is W[a:b]ᵀ; the transpose of its C-order dense form
        # is W[a:b] in Fortran order, of which syrk adds W[a:b]ᵀW[a:b].
        # (A Fortran-order toarray would first copy the CSR block to CSC.)
        blas.dsyrk(1.0, (weights.bands @ band_sums[:, start:start + _BLOCK]
                         ).toarray().T,
                   beta=1.0, c=normal, trans=1, lower=1, overwrite_c=1)
    factor, info = lapack.dpotrf(normal, lower=1, overwrite_a=1)
    if info == 0 and tall:
        factor, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise linalg.LinAlgError(
            f"regularized normal matrix is not SPD to working precision "
            f"(N={n}, rows={weights.n_rows}): LAPACK info {info}"
        )
    if tall:
        return ReconstructionOperator(stored=factor, weights=weights, grid=grid)
    w_t = (weights.bands @ weights.band_sums).toarray(order="F")
    pi = linalg.cho_solve((factor, True), w_t, overwrite_b=True,
                          check_finite=False)
    return ReconstructionOperator(stored=pi, weights=weights, grid=grid)


def reconstruct(op: ReconstructionOperator, y: np.ndarray) -> np.ndarray:
    """Image estimate x̂ = Π y, through `op.apply`.

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
    return op.apply(y)
