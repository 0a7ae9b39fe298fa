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
store W only as the two sparse factors of Wᵀ = U·S (see WeightMatrix),
which hold about a sixth of the multi-scale W's nonzeros.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse link-by-voxel ellipse weights W, stored as the two sparse
    factors of Wᵀ = U·S.

    Each of L links has R rows, nested ellipses around its line, and each
    row puts one value v_r >= 0 on the voxels it holds. A voxel's band on a
    link is R minus the number of the link's rows that hold it, and those
    rows are its widest ones. U, (N, L·R) and 0/1, marks each voxel's band
    on each link: its column l·R + b is link l's band b, so a voxel has at
    most one nonzero among a link's R columns. S's column r, for a row
    r of link l, holds v_r on rows l·R .. l·R + q_r, the bands 0..q_r of
    the voxels the row holds; an empty row has an empty column. So a row of
    S sums v_r·y_r over one link's rows from the widest down to its band's
    narrowest member, and U adds each voxel's band sums over the links. U
    has one nonzero per (link, voxel) pair inside any ellipse, where W has
    one per (row, voxel) pair.

    The structure is checked at construction and read back by `ellipses`,
    the form in which the operator build reads W.

    Attributes:
        bands: U, CSR (N, B), with B = L·R bands.
        band_sums: S, CSR (B, rows), with rows = B.
        rows_per_link: R, each link's number of bands.
    """

    bands: sparse.csr_matrix
    band_sums: sparse.csr_matrix
    rows_per_link: int

    def __post_init__(self):
        if self.bands.shape[1] != self.band_sums.shape[0]:
            raise ValueError(f"factor shapes {self.bands.shape} and "
                             f"{self.band_sums.shape} do not compose")
        check_bounds(self, rows_per_link="an integer >= 1")
        if self.band_sums.nnz and self.band_sums.data.min() < 0:
            raise ValueError("weights must be >= 0")
        self.ellipses()

    @property
    def n_rows(self) -> int:
        return self.band_sums.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.bands.shape[0]

    @property
    def matrix(self) -> sparse.csr_matrix:
        """W = (U·S)ᵀ, (rows, N) CSR with sorted indices, formed anew on
        each access and not cached."""
        return (self.bands @ self.band_sums).T.tocsr()

    def back_project(self, y: np.ndarray) -> np.ndarray:
        """Wᵀy as U·(S·y), for y of shape (rows,) or (rows, K)."""
        return self.bands @ (self.band_sums @ y)

    def ellipses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """W as its ellipses: W[r, v] = value[r] where band[link[r], v] <=
        reach[r], and 0 elsewhere.

        Returns:
            band: (L, N), the band of each voxel on each link, R where no
                row of the link holds the voxel; the smallest unsigned
                dtype that holds R.
            link: (rows,) int, the link of each row (0 for an empty row).
            reach: (rows,) int, the narrowest band each row holds, -1 for
                an empty row.
            value: (rows,) float, the value each row puts on its members
                (0 for an empty row).

        Raises:
            ValueError: the factors do not have the structure above: U is
                not 0/1 with one band per (voxel, link), or a column of S
                is not one value on a run of bands from one link's band 0.
        """
        u, s, per_link = self.bands, self.band_sums, self.rows_per_link
        n_bands, rows = s.shape
        if n_bands != rows or n_bands % per_link:
            raise ValueError(f"{rows} rows and {n_bands} bands are not "
                             f"{per_link} of each per link")
        band = np.full((n_bands // per_link, self.n_voxels), per_link,
                       dtype=np.min_scalar_type(per_link))
        link, band_of = np.divmod(u.indices, per_link)
        band[link, np.repeat(np.arange(self.n_voxels, dtype=u.indices.dtype),
                             np.diff(u.indptr))] = band_of
        if np.any(u.data != 1.0) or np.count_nonzero(band < per_link) != u.nnz:
            raise ValueError("bands must be 0/1 with one band per "
                             "(voxel, link)")

        s = s.tocsc()
        s.sum_duplicates()
        counts = np.diff(s.indptr)
        full = counts > 0
        first = s.indices[s.indptr[:-1][full]]
        last = s.indices[s.indptr[1:][full] - 1]
        link, reach, value = (np.zeros(rows, dtype=int), np.full(rows, -1),
                              np.zeros(rows))
        link[full], reach[full] = first // per_link, last - first
        value[full] = s.data[s.indptr[:-1][full]]
        if (np.any(first % per_link) or np.any(reach[full] >= per_link)
                or np.any(reach[full] + 1 != counts[full])
                or np.any(s.data != np.repeat(value, counts))):
            raise ValueError("each column of band_sums must be one value on "
                             "bands 0..q of one link")
        return band, link, reach, value


def _ellipse_rows(excess: np.ndarray, lam: np.ndarray, value) -> WeightMatrix:
    """Ellipse weights over the links of `excess`, each link repeated R
    times, as the band factors of Wᵀ.

    Args:
        excess: (L, N) excess path length of every voxel center per link.
        lam: (R·L,) ellipse widths; row r belongs to link r mod L. A NaN
            width gives an empty row.
        value: maps the (R·L,) member counts to the (R·L,) weight each row
            puts on its members.

    Returns:
        WeightMatrix whose factors come from one (R, L, N) membership mask,
        with one band per row; no W is built. Band b of link l is column
        l·R + b of U; its row of S holds the values of the link's rows from
        sorted position b up, rows sorted by ascending width with NaN
        first. Rows with no member are left out of S.
    """
    n_links, n_voxels = excess.shape
    lam = lam.reshape(-1, n_links)
    n_per_link, n_rows = lam.shape[0], lam.size
    mask = excess < lam[:, :, np.newaxis]  # (R, L, N)
    counts = np.count_nonzero(mask.reshape(-1, n_voxels), axis=1)
    values = value(counts)

    # U: a voxel inside `count` of a link's rows is inside its widest ones
    count = mask.sum(axis=0, dtype=np.min_scalar_type(n_per_link)).T.copy()
    pairs = np.flatnonzero(count)  # (voxel, link) pairs, voxel-major
    bands = sparse.csr_matrix(
        (np.ones(pairs.size),
         pairs % n_links * n_per_link + (n_per_link - count.ravel()[pairs]),
         _indptr(np.count_nonzero(count, axis=1))),
        shape=(n_voxels, n_rows))

    # S: band b of a link sums its rows at sorted positions b..R-1
    order = np.argsort(np.nan_to_num(lam, nan=-np.inf), axis=0, kind="stable")
    band, position = np.triu_indices(n_per_link)
    band = (np.arange(n_links)[:, np.newaxis] * n_per_link + band).ravel()
    row = (order[position] * n_links + np.arange(n_links)).T.ravel()
    keep = counts[row] > 0
    band, row = band[keep], row[keep]
    band_sums = sparse.csr_matrix(
        (values[row], row, _indptr(np.bincount(band, minlength=n_rows))),
        shape=(n_rows, n_rows))
    return WeightMatrix(bands=bands, band_sums=band_sums,
                        rows_per_link=n_per_link)


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding `counts` entries each."""
    return np.concatenate(([0], np.cumsum(counts)))


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
    return _ellipse_rows(excess, np.full(table.n_links, lam),
                         lambda counts: 1.0 / np.sqrt(table.lengths))


def build_multiscale_weights(table: LinkTable, layout: NodeLayout,
                             grid: VoxelGrid, fades: FadeLevelTable,
                             params: EllipseModelParams | None = None,
                             ) -> WeightMatrix:
    """Fade-level-scaled ellipse weights, one row per (channel, direction, link).

    Row order is the C-order of a (C, 2, L) array: channel ascending, then
    the "+" block before the "-" block, then link order — the order in
    which MeasurementAssembler stacks its probabilities. Each row carries
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
