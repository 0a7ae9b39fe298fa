"""Link-to-voxel weight matrices: fixed-λ classic and fade-level multi-scale.

Two operators map the voxel image to link measurements. The classic model
uses one thin ellipse of fixed width λ per link, with weight 1/√d inside.
The multi-scale model sizes each ellipse from the link's calibrated fade
level — separately per channel and per direction of RSS change — and
weights member voxels uniformly by the inverse ellipse area n·p², so links
with tight ellipses localize sharply while deep-fade links spread their
evidence widely. Its rows form one (channel, direction, link) array; an
uncalibrated (link, channel) pair keeps its two rows, all zero.

The rows of a link are nested ellipses around one line, so both builders
hold W as its ellipses: each voxel's band on each link, and each row's
reach and value (see WeightMatrix). A band is counted from the link's
widths in ascending order, over the voxels inside its widest ellipse
alone, and a row's member count is read from its link's band histogram,
so no (R, L, N) membership mask is formed. The two sparse factors of
Wᵀ = U·S, about a sixth of the multi-scale W's nonzeros, are derived from
the ellipses once.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from .calibration import FadeLevelTable
from .geometry import (LinkTable, NodeLayout, VoxelGrid, check_bounds,
                       excess_path_field)

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

    λ^δ(F) = b^δ · exp(F / k^δ), clamped to lambda_max. k_lambda_minus < 0
    makes the loss-direction ellipse shrink as fade level rises (anti-fade
    links are only obstructed near the line); k_lambda_plus > 0 makes the
    gain-direction ellipse grow slowly with F.

    Defaults are the empirical fit over the deployment measurements.
    """

    k_lambda_minus: float = -5.7874
    b_lambda_minus: float = 0.2112
    k_lambda_plus: float = 102.7284
    b_lambda_plus: float = 0.5016
    lambda_max: float = 3.0

    def __post_init__(self):
        check_bounds(self, k_lambda_minus="finite and < 0",
                     b_lambda_minus="finite and > 0", k_lambda_plus="finite and > 0",
                     b_lambda_plus="finite and > 0", lambda_max="finite and > 0")


def lambda_for(fade_level: float, direction: str,
               params: EllipseModelParams) -> float:
    """Ellipse width in meters for a fade level and RSS-change direction.

    Args:
        fade_level: calibrated fade level F in dB: a finite scalar, or an
            array, elementwise, where a NaN entry (an unobserved pair)
            gives a NaN width.
        direction: "-" for RSS loss, "+" for RSS gain.
        params: width model parameters.

    Returns:
        b^δ · exp(F / k^δ), clamped to params.lambda_max.
    """
    if np.ndim(fade_level) == 0 and not np.isfinite(fade_level):
        raise ValueError("fade level must be finite")
    if direction == DIR_DOWN:
        b, k = params.b_lambda_minus, params.k_lambda_minus
    elif direction == DIR_UP:
        b, k = params.b_lambda_plus, params.k_lambda_plus
    else:
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    with np.errstate(invalid="ignore", over="ignore"):
        return np.minimum(b * np.exp(fade_level / k), params.lambda_max)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Sparse link-by-voxel ellipse weights W, held as its ellipses.

    Each of L links has R rows, nested ellipses around its line, and row r
    belongs to link r mod L. Row r puts one value v_r >= 0 on the voxels
    it holds. A voxel's band on a link is R minus the number of the link's
    rows that hold it, and those rows are its widest ones, so a row holds
    the voxels whose band on its link is at most its reach q_r, the
    narrowest band it holds: W[r, v] = v_r where band[r mod L, v] <= q_r,
    and 0 elsewhere.

    The two sparse factors of Wᵀ = U·S are derived from the ellipses once,
    at construction. U, (N, L·R) and 0/1, marks each voxel's band on each
    link: its column l·R + b is link l's band b. S's row l·R + b holds v_r
    at column r for each row r of link l with q_r >= b, in ascending
    reach; an empty row has an empty column. So a row of S sums v_r·y_r
    over the link's rows that hold band b, and U adds each voxel's band
    sums over the links. U has one nonzero per (link, voxel) pair inside
    any ellipse, where W has one per (row, voxel) pair. U is read from a
    contiguous voxel-major (N, L) copy of band, which lists its nonzeros in
    CSR order; besides the weights, construction holds that copy and a few
    arrays over U's nonzeros.

    Compared by identity (eq=False), since it holds arrays. Construction
    marks the given band, reach and value read-only, so U and S cannot go
    stale; `replace(weights, value=...)` builds new weights.

    Attributes:
        band: (L, N) unsigned, each voxel's band on each link; R where no
            row of the link holds the voxel.
        reach: (rows,) int, the narrowest band each row holds; -1 for an
            empty row. rows = L·R.
        value: (rows,) float, the weight each row puts on its members.
        bands: U, CSR (N, rows), derived.
        band_sums: S, CSR (rows, rows), derived.
    """

    band: np.ndarray
    reach: np.ndarray
    value: np.ndarray
    bands: sparse.csr_matrix = field(init=False)
    band_sums: sparse.csr_matrix = field(init=False)

    def __post_init__(self):
        band, reach, value = self.band, self.reach, self.value
        n_links, rows = len(band), len(reach)
        if band.ndim != 2 or not 0 < n_links <= rows or rows % n_links:
            raise ValueError(f"{rows} rows are not a whole number of rows "
                             f"for each of {n_links} links")
        if value.shape != reach.shape or reach.ndim != 1:
            raise ValueError(f"reach {reach.shape} and value {value.shape} "
                             f"must be of the same length")
        per_link = rows // n_links
        if (not np.issubdtype(band.dtype, np.unsignedinteger)
                or np.any(band > per_link)):
            raise ValueError(f"band must be unsigned and <= {per_link}")
        if (not np.issubdtype(reach.dtype, np.integer) or np.any(reach < -1)
                or np.any(reach >= per_link)):
            raise ValueError(f"reach must be integers in [-1, {per_link - 1}]")
        if not np.all((value >= 0) & (value < np.inf)):
            raise ValueError("value must be finite and >= 0")

        # U: one band per (voxel, link) held by any of the link's rows, from
        # a contiguous voxel-major copy of band
        n_voxels = band.shape[1]
        by_voxel = band.T.copy()
        held = np.flatnonzero(by_voxel < per_link)
        indptr = np.searchsorted(held, np.arange(n_voxels + 1) * n_links)
        # column l·R + band of each held (voxel, link), in place over the
        # voxel offsets
        column = np.repeat(np.arange(n_voxels) * n_links, np.diff(indptr))
        np.subtract(held, column, out=column)
        column *= per_link
        column += by_voxel.ravel()[held]
        object.__setattr__(self, "bands", sparse.csr_matrix(
            (np.ones(held.size), column, indptr), shape=(n_voxels, rows)))
        # S: band b of link l sums the link's rows reaching b, by reach
        row, step = np.nonzero(np.arange(per_link) <= reach[:, np.newaxis])
        sums = row % n_links * per_link + step
        order = np.lexsort((reach[row], sums))
        row, sums = row[order], sums[order]
        object.__setattr__(self, "band_sums", sparse.csr_matrix(
            (value[row], row, np.searchsorted(sums, np.arange(rows + 1))),
            shape=(rows, rows)))
        for array in (band, reach, value):
            array.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return self.reach.size

    @property
    def n_voxels(self) -> int:
        return self.band.shape[1]

    @property
    def matrix(self) -> sparse.csr_matrix:
        """W = (U·S)ᵀ, (rows, N) CSR with sorted indices, formed anew on
        each access and not cached."""
        return (self.bands @ self.band_sums).T.tocsr()

    def back_project(self, y: np.ndarray) -> np.ndarray:
        """Wᵀy as U·(S·y), for y of shape (rows,) or (rows, K)."""
        return self.bands @ (self.band_sums @ y)


def _bands(excess: np.ndarray, widths: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Each voxel's band on each link, and each link's members per rank.

    Args:
        excess: (L, N) excess path length of every voxel center per link.
        widths: (R, L) each link's ellipse widths in ascending order, −∞
            for an empty row.

    Returns:
        band: (L, N) unsigned, the number of the link's widths at or below
            the voxel's excess, which is R minus the number of its rows
            holding the voxel.
        members: (L, R), the voxels whose band on the link is at most each
            rank: the link's band histogram, cumulated.

    Only the voxels inside each link's widest ellipse, about a fifth of
    the (link, voxel) pairs at the reference deployments, are counted; a
    voxel outside it has band R. Besides the results, this holds the (L, N)
    compare with the widest ellipse and four arrays over the voxels inside
    it, all dropped on return.
    """
    per_link, n_links = widths.shape
    n_voxels = excess.shape[1]
    inside = np.flatnonzero(excess < widths[-1, :, np.newaxis])  # link-major
    per_inside = np.diff(np.searchsorted(inside,
                                         np.arange(n_links + 1) * n_voxels))
    link = np.repeat(np.arange(n_links), per_inside)
    reached = excess.ravel()[inside]
    # the narrowest unsigned dtype that holds R
    dtype = np.min_scalar_type(per_link)
    inner = np.zeros(inside.size, dtype=dtype)
    step, beyond = np.empty(inside.size), np.empty(inside.size, dtype=bool)
    for widths_k in widths[:-1]:  # no voxel inside is beyond the widest
        # "clip" writes to step directly, where "raise" goes through a
        # temporary; the links are in range
        np.take(widths_k, link, out=step, mode="clip")
        inner += np.less_equal(step, reached, out=beyond)
    band = np.full((n_links, n_voxels), per_link, dtype=dtype)
    band.ravel()[inside] = inner
    link *= per_link
    link += inner
    members = np.bincount(link, minlength=n_links * per_link)
    return band, members.reshape(n_links, per_link).cumsum(axis=1)


def _ellipse_rows(excess: np.ndarray, lam: np.ndarray, value) -> WeightMatrix:
    """Ellipse weights over the links of `excess`, each link repeated R
    times.

    Args:
        excess: (L, N) excess path length of every voxel center per link.
        lam: (R·L,) ellipse widths; row r belongs to link r mod L. A NaN
            width gives an empty row.
        value: maps the (R·L,) member counts to the (R·L,) weight each row
            puts on its members.

    Returns:
        WeightMatrix from each link's widths in ascending order (NaN first,
        as −∞, in stable order); no (R, L, N) membership mask is formed. A
        row holds the voxels whose excess is below its width, so a voxel's
        band is the number of its link's widths at or below its excess
        (`_bands`). A row's reach is its rank among its link's widths, and
        it holds exactly the voxels whose band is at most that rank, so its
        member count is its link's cumulative band histogram there; its
        reach is -1 where that count is 0.
    """
    n_links = excess.shape[0]
    widths = lam.reshape(-1, n_links)
    widths = np.where(np.isnan(widths), -np.inf, widths)  # (R, L)
    order = np.argsort(widths, axis=0, kind="stable")
    band, members = _bands(excess, np.take_along_axis(widths, order, axis=0))
    rank = np.argsort(order, axis=0)
    counts = members[np.arange(n_links), rank].ravel()
    return WeightMatrix(band=band, reach=np.where(counts > 0, rank.ravel(), -1),
                        value=value(counts))


def build_classic_weights(table: LinkTable, layout: NodeLayout,
                          grid: VoxelGrid, lam: float) -> WeightMatrix:
    """Fixed-width ellipse weights: 1/√d on member voxels, one row per link.

    Args:
        table: links to build rows for, in order.
        layout: node positions behind the table.
        grid: voxel grid (columns).
        lam: ellipse width in meters (the pipeline's `classic_lambda`),
            finite and >= 0; small widths give near-empty rows by design.
    """
    check_bounds(SimpleNamespace(lam=lam), lam="finite and >= 0")
    excess = excess_path_field(table, layout, grid.centers())  # (L, N)
    return _ellipse_rows(excess, np.full(table.n_links, lam),
                         lambda counts: 1.0 / np.sqrt(table.lengths))


def build_multiscale_weights(table: LinkTable, layout: NodeLayout,
                             grid: VoxelGrid, fades: FadeLevelTable,
                             params: EllipseModelParams | None = None,
                             ) -> WeightMatrix:
    """Fade-level-scaled ellipse weights, one row per (channel, direction, link).

    Row order is the C-order of a (C, 2, L) array: channel ascending, then
    the "+" block before the "-" block, then link order — the order in
    which stacked_probabilities stacks them. Each row carries
    the constant weight 1/(n·p²) on the n voxels inside the link's ellipse
    of width λ^δ(F_{c,l}). Rows whose ellipse captures no voxel center,
    and both rows of an uncalibrated (link, channel) pair, stay all-zero.
    """
    if params is None:
        params = EllipseModelParams()
    if fades.n_links != table.n_links:
        raise ValueError(
            f"fade table covers {fades.n_links} links, table has {table.n_links}"
        )
    excess = excess_path_field(table, layout, grid.centers())  # (L, N)
    lam = np.stack([lambda_for(fades.values.T, d, params)
                    for d in (DIR_UP, DIR_DOWN)], axis=1)  # (C, 2, L)
    inv_area = 1.0 / grid.p**2
    return _ellipse_rows(excess, lam,
                         lambda counts: inv_area / np.maximum(counts, 1))
