"""Link-to-voxel weight matrices: fixed-λ classic and fade-level multi-scale.

Two operators map the voxel image to link measurements. The classic model
uses one thin ellipse of fixed width λ per link, with weight 1/√d inside.
The multi-scale model sizes each ellipse from the link's calibrated fade
level — separately per channel and per direction of RSS change — and
weights member voxels uniformly by the inverse ellipse area n·p², so links
with tight ellipses localize sharply while deep-fade links spread their
evidence widely.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .calibration import FadeLevelTable
from .geometry import LinkTable, NodeLayout, VoxelGrid, excess_path_field

__all__ = [
    "DIR_UP",
    "DIR_DOWN",
    "EllipseModelParams",
    "WeightMatrix",
    "lambda_for",
    "build_classic_weights",
    "build_multiscale_weights",
]

# Directions of RSS change: "+" for gain, "-" for loss relative to baseline.
DIR_UP = "+"
DIR_DOWN = "-"


@dataclass(frozen=True)
class EllipseModelParams:
    """Fade-level-to-ellipse-width model, one (scale, shape) pair per direction.

    λ^δ(F) = b^δ · exp(F / k^δ), clamped to lambda_max. k_down < 0 makes the
    loss-direction ellipse shrink as fade level rises (anti-fade links are
    only obstructed near the line); k_up > 0 makes the gain-direction
    ellipse grow slowly with F.

    Defaults are the empirical fit over the deployment measurements.
    """

    k_down: float = -5.7874
    b_down: float = 0.2112
    k_up: float = 102.7284
    b_up: float = 0.5016
    lambda_max: float = 3.0

    def __post_init__(self):
        if self.b_down <= 0 or self.b_up <= 0:
            raise ValueError("ellipse scale parameters b must be > 0")
        if not self.k_down < 0:
            raise ValueError("k_down must be < 0 (width decays with fade level)")
        if not self.k_up > 0:
            raise ValueError("k_up must be > 0 (width grows with fade level)")
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be > 0")


def lambda_for(fade_level: float, direction: str,
               params: EllipseModelParams) -> float:
    """Ellipse width in meters for one fade level and RSS-change direction.

    Args:
        fade_level: calibrated fade level F in dB, finite.
        direction: "-" for RSS loss, "+" for RSS gain.
        params: width model parameters.

    Returns:
        b^δ · exp(F / k^δ), clamped to params.lambda_max.
    """
    if not np.isfinite(fade_level):
        raise ValueError("fade level must be finite")
    if direction == DIR_DOWN:
        b, k = params.b_down, params.k_down
    elif direction == DIR_UP:
        b, k = params.b_up, params.k_up
    else:
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    return min(b * np.exp(fade_level / k), params.lambda_max)


def _lambda_array(fades: np.ndarray, direction: str,
                  params: EllipseModelParams) -> np.ndarray:
    """Vectorized lambda_for; NaN fade levels propagate to NaN widths."""
    b, k = ((params.b_down, params.k_down) if direction == DIR_DOWN
            else (params.b_up, params.k_up))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.minimum(b * np.exp(fades / k), params.lambda_max)


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse link-by-voxel weight operator.

    Attributes:
        matrix: scipy CSR of shape (rows, N), all entries >= 0.
        row_keys: tuple keying each row — link index for the classic
            matrix, (channel, link, direction) for the multi-scale one.
        excluded: (link, channel) pairs skipped for missing calibration
            (always empty for the classic matrix).
    """

    matrix: sparse.csr_matrix
    row_keys: tuple
    excluded: tuple = ()

    def __post_init__(self):
        if len(self.row_keys) != self.matrix.shape[0]:
            raise ValueError("row_keys length must match matrix row count")
        if self.matrix.nnz and self.matrix.data.min() < 0:
            raise ValueError("weights must be >= 0")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.matrix.shape[1]


def build_classic_weights(table: LinkTable, layout: NodeLayout,
                          grid: VoxelGrid, lam: float = 0.02) -> WeightMatrix:
    """Fixed-width ellipse weights: 1/√d on member voxels, one row per link.

    Args:
        table: links to build rows for, in order.
        layout: node positions behind the table.
        grid: voxel grid (columns).
        lam: ellipse width in meters, >= 0; small widths give near-empty
            rows by design.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    excess = excess_path_field(table, layout, grid.centers())  # (L, N)
    mask = excess < lam
    rows, cols = np.nonzero(mask)
    counts = mask.sum(axis=1)
    data = 1.0 / np.sqrt(table.lengths[rows])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    matrix = sparse.csr_matrix(
        (data, cols, indptr), shape=(table.n_links, grid.n_voxels)
    )
    return WeightMatrix(matrix=matrix, row_keys=tuple(range(table.n_links)))


def build_multiscale_weights(table: LinkTable, layout: NodeLayout,
                             grid: VoxelGrid, fades: FadeLevelTable,
                             params: EllipseModelParams | None = None,
                             ) -> WeightMatrix:
    """Fade-level-scaled ellipse weights, one row per (channel, link, direction).

    Each row carries the constant weight 1/(n·p²) on the n voxels inside
    the link's ellipse of width λ^δ(F_{c,l}); rows whose ellipse captures
    no voxel center stay all-zero. Uncalibrated (link, channel) pairs are
    skipped entirely and reported in `excluded`.

    Row order groups by channel ascending, then direction ("+" block before
    "-" block), then link order — matching the measurement stacking.
    """
    if params is None:
        params = EllipseModelParams()
    if fades.n_links != table.n_links:
        raise ValueError(
            f"fade table covers {fades.n_links} links, table has {table.n_links}"
        )
    excess = excess_path_field(table, layout, grid.centers())  # (L, N)
    inv_area = 1.0 / grid.p**2

    indptr_parts = [np.zeros(1, dtype=np.int64)]
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    row_keys: list[tuple[int, int, str]] = []
    excluded: list[tuple[int, int]] = []

    for ci, channel in enumerate(fades.channels):
        fade_col = fades.values[:, ci]
        keep = np.nonzero(~np.isnan(fade_col))[0]
        excluded.extend((int(l), int(channel)) for l in np.nonzero(np.isnan(fade_col))[0])
        for direction in (DIR_UP, DIR_DOWN):
            lam = _lambda_array(fade_col[keep], direction, params)
            mask = excess[keep] < lam[:, None]  # (L', N)
            link_rows, cols = np.nonzero(mask)
            counts = mask.sum(axis=1)
            with np.errstate(divide="ignore"):
                row_value = np.where(counts > 0, inv_area / np.maximum(counts, 1), 0.0)
            data_parts.append(row_value[link_rows])
            indices_parts.append(cols)
            prev = indptr_parts[-1][-1]
            indptr_parts.append(prev + np.cumsum(counts))
            row_keys.extend(
                (int(channel), int(l), direction) for l in keep
            )

    indptr = np.concatenate(indptr_parts)
    indices = (np.concatenate(indices_parts) if indices_parts
               else np.zeros(0, dtype=np.int64))
    data = np.concatenate(data_parts) if data_parts else np.zeros(0)
    matrix = sparse.csr_matrix(
        (data, indices, indptr), shape=(len(row_keys), grid.n_voxels)
    )
    return WeightMatrix(
        matrix=matrix, row_keys=tuple(row_keys), excluded=tuple(excluded)
    )
