"""Regularized least-squares image reconstruction.

The attenuation-change image is estimated from measurements y through a
precomputed linear operator: x̂ = Π y with Π = (AᵀA + C_x⁻¹ σ_N²)⁻¹ Aᵀ,
where C_x is an exponentially decaying spatial prior over voxel centers.
Building Π is the expensive step and happens once per weight matrix; each
frame is then a single matrix-vector product.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

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
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    return params.sigma_x**2 * np.exp(-d / params.delta_c)


def prior_precision_term(grid: VoxelGrid, params: ReconstructionParams) -> np.ndarray:
    """C_x⁻¹ σ_N², via one SPD factorization of C_x.

    This is the regularization term shared by every operator built on the
    same grid and parameters, so callers may compute it once and reuse it.
    """
    c_x = prior_covariance(grid, params)
    try:
        chol = linalg.cho_factor(c_x, check_finite=False)
    except linalg.LinAlgError as e:
        raise linalg.LinAlgError(
            f"prior covariance is not SPD to working precision "
            f"(N={grid.n_voxels}, delta_c={params.delta_c}): {e}"
        ) from None
    eye = np.eye(grid.n_voxels) * params.sigma_n**2
    return linalg.cho_solve(chol, eye, check_finite=False)


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
    """Compute Π = (WᵀW + C_x⁻¹σ_N²)⁻¹ Wᵀ for a weight matrix.

    Uses SPD factorizations throughout: C_x is factorized once to form the
    regularizer, then the regularized normal matrix is factorized and
    solved against the Wᵀ columns. No explicit matrix inverse is formed.

    Args:
        weights: link/voxel weight operator (classic or multi-scale).
        grid: voxel grid; must match the weight matrix column count.
        params: regularization parameters (defaults are the standard set).
        precision_term: optional precomputed C_x⁻¹σ_N² for this grid and
            params, to share across multiple operator builds.

    Raises:
        ValueError: grid/matrix column mismatch or wrong precision_term shape.
        LinAlgError: the regularized normal matrix is not SPD numerically;
            the message carries size diagnostics.
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

    w = weights.matrix
    gram = (w.T @ w).toarray() if sparse.issparse(w) else w.T @ w
    normal = gram + precision_term
    # Symmetrize: the solve path assumes exact symmetry and the additions
    # can leave ~1e-18 asymmetry.
    normal = 0.5 * (normal + normal.T)
    try:
        chol = linalg.cho_factor(normal, check_finite=False)
    except linalg.LinAlgError as e:
        raise linalg.LinAlgError(
            f"regularized normal matrix is not SPD to working precision "
            f"(N={n}, rows={weights.n_rows}): {e}"
        ) from None
    w_t = np.asarray(w.T.todense()) if sparse.issparse(w) else w.T.copy()
    pi = linalg.cho_solve(chol, w_t, check_finite=False)
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
