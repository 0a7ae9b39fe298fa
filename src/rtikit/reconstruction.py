"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ,
where C_x is an exponentially decaying spatial prior over voxel centers
(Wilson & Patwari, "Radio Tomographic Imaging with Wireless Networks",
IEEE TMC 2010).

The build is the expensive step and happens once per weight matrix; each
frame is then one or two products. The build is dense LAPACK/BLAS
throughout: C_x from pairwise center distances, σ_N² C_x⁻¹ from its
Cholesky factor (potrf, potri), the Gram matrix WᵀW from one dense copy
of W, made from a transient CSR that the weights form from their band
factors, and a Cholesky factorization of A = WᵀW + σ_N² C_x⁻¹. W is about
one sixth nonzero at the reference deployments, where the sparse WᵀW took
four to eight times as long as the dense one.

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
        if self.sigma_x <= 0 or self.sigma_n <= 0 or self.delta_c <= 0:
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
    c_x = prior_covariance(grid, params)
    # C_x is symmetric, so its transpose is the same matrix in the Fortran
    # order that LAPACK factors and inverts in place.
    factor, info = lapack.dpotrf(c_x.T, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dpotri(factor, overwrite_c=1)
    if info != 0:
        raise linalg.LinAlgError(
            f"prior covariance is not SPD to working precision "
            f"(N={grid.n_voxels}, delta_c={params.delta_c}): "
            f"LAPACK info {info}"
        )
    # potri wrote one triangle of C_x⁻¹ and potrf zeroed the other: adding
    # the transpose mirrors it exactly, doubling only the diagonal.
    term = factor + factor.T
    np.fill_diagonal(term, factor.diagonal())
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

    W is formed once as CSR from the weights' factors and densified; WᵀW
    is one BLAS product of that copy with itself and A is Cholesky-factored
    in place. When W has more rows than voxels, the dense copy is freed
    after the Gram product and potri turns the factor into M = A⁻¹, (N, N),
    in place: transient memory is one dense W (rows × N), with its CSR
    while it is densified, plus the N × N normal matrix, and `pi` is then
    computed on demand. Otherwise the solve against Wᵀ overwrites the dense
    copy's transpose, which becomes the stored Π, (N, rows): no explicit
    inverse is formed, and transient memory is the same. Besides these, the
    N × N precision term is held. The stored array is in Fortran order.
    Neither `weights` nor `precision_term` is written to.

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
    dense = weights.matrix.toarray()
    normal = dense.T @ dense
    if tall:
        del dense  # M needs no dense W
    normal += precision_term
    # normal's transpose is a Fortran-order view, which LAPACK factors in
    # place; its lower triangle is normal's upper one.
    factor, info = lapack.dpotrf(normal.T, lower=1, overwrite_a=1)
    if info == 0 and tall:
        factor, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise linalg.LinAlgError(
            f"regularized normal matrix is not SPD to working precision "
            f"(N={n}, rows={weights.n_rows}): LAPACK info {info}"
        )
    if tall:
        return ReconstructionOperator(stored=factor, weights=weights, grid=grid)
    pi = linalg.cho_solve((factor, True), dense.T, overwrite_b=True,
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
