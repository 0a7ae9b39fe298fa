"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ,
where C_x is an exponentially decaying spatial prior over voxel centers
(Wilson & Patwari, "Radio Tomographic Imaging with Wireless Networks",
IEEE TMC 2010).

Building Π is the expensive step and happens once per weight matrix; each
frame is then a single matrix-vector product. The build is dense
LAPACK/BLAS throughout: C_x from pairwise center distances, σ_N² C_x⁻¹
from its Cholesky factor (potrf, potri), the Gram matrix WᵀW from one
dense copy of W, and Π from one Cholesky solve written into that copy's
transpose. W is about one sixth nonzero at the reference deployments,
where the sparse WᵀW took four to eight times as long as the dense one.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import lapack
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
    """Precomputed Π bound to the weight matrix it was built from.

    Attributes:
        pi: (N, rows) dense operator.
        weights: the WeightMatrix Π inverts; measurement vectors must use
            its row ordering.
        grid: voxel grid of the image space.
    """

    pi: np.ndarray
    weights: WeightMatrix
    grid: VoxelGrid

    @property
    def n_voxels(self) -> int:
        return self.pi.shape[0]


def build_operator(weights: WeightMatrix, grid: VoxelGrid,
                   params: ReconstructionParams | None = None,
                   precision_term: np.ndarray | None = None,
                   ) -> ReconstructionOperator:
    """Compute Π = (WᵀW + σ_N² C_x⁻¹)⁻¹ Wᵀ for a weight matrix.

    W is densified once; WᵀW is one BLAS product of that copy with itself,
    the normal matrix is Cholesky-factored in place, and the solve against
    Wᵀ overwrites the dense copy's transpose, which becomes Π. No explicit
    inverse of the normal matrix is formed. Transient memory is one dense
    W (rows × N) plus the N × N normal matrix, besides the N × N
    precision term. Π is (N, rows) in Fortran order. Neither `weights`
    nor `precision_term` is written to.

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

    dense = weights.matrix.toarray()
    normal = dense.T @ dense
    normal += precision_term
    # normal's transpose is a Fortran-order view, which LAPACK factors in
    # place; its lower triangle is normal's upper one.
    try:
        chol = linalg.cho_factor(normal.T, lower=True, overwrite_a=True,
                                 check_finite=False)
    except linalg.LinAlgError as e:
        raise linalg.LinAlgError(
            f"regularized normal matrix is not SPD to working precision "
            f"(N={n}, rows={weights.n_rows}): {e}"
        ) from None
    pi = linalg.cho_solve(chol, dense.T, overwrite_b=True, check_finite=False)
    return ReconstructionOperator(pi=pi, weights=weights, grid=grid)


def reconstruct(op: ReconstructionOperator, y: np.ndarray) -> np.ndarray:
    """Image estimate x̂ = Π y.

    Args:
        op: precomputed operator.
        y: measurement vector (rows,) or K stacked measurement columns
            (rows, K), ordered like the operator's weight matrix rows.

    Returns:
        (N,) attenuation-change image, or (N, K) for stacked columns, in
        the operator's voxel order.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != op.pi.shape[1]:
        raise ValueError(
            f"measurement shape {y.shape} != operator rows ({op.pi.shape[1]},)"
        )
    return op.pi @ y
