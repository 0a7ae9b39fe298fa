"""Reference weight matrices W built row by row from the ellipse
definition, with none of the band factors that WeightMatrix stores.

A row holds the voxels whose center has excess path length below its
ellipse width, each with the row's one value. Values are computed with the
same floating-point operations as the builders, so a correct W equals the
reference exactly.
"""

import numpy as np
from scipy import sparse

from rtikit.geometry import excess_path_field
from rtikit.spatial_model import (
    DIR_DOWN,
    DIR_UP,
    EllipseModelParams,
    lambda_for,
)


def _rows(excess, links, widths, value):
    """CSR whose row i holds value(links[i], n) on the n voxels with
    excess[links[i]] < widths[i]; a NaN width gives an empty row."""
    members = [np.flatnonzero(excess[l] < lam) for l, lam in zip(links, widths)]
    counts = [m.size for m in members]
    data = np.concatenate([np.full(n, value(l, n))
                           for l, n in zip(links, counts) if n] + [np.empty(0)])
    indices = np.concatenate(members + [np.empty(0, dtype=np.intp)])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(len(links), excess.shape[1]))


def classic_reference(table, layout, grid, lam):
    """Fixed-width W: one row per link, 1/√d on its members."""
    excess = excess_path_field(table, layout, grid.centers())
    inv_root = 1.0 / np.sqrt(table.lengths)
    return _rows(excess, range(table.n_links), [lam] * table.n_links,
                 lambda l, n: inv_root[l])


def multiscale_reference(table, layout, grid, fades, params=None):
    """Multi-scale W: rows in (channel, direction "+" then "-", link)
    order, 1/(n·p²) on the n members of a row, and both rows of an
    uncalibrated (link, channel) pair empty."""
    params = params or EllipseModelParams()
    excess = excess_path_field(table, layout, grid.centers())
    links, widths = [], []
    for column in range(fades.channels.size):
        for direction in (DIR_UP, DIR_DOWN):
            for l in range(table.n_links):
                fade = fades.values[l, column]
                links.append(l)
                widths.append(lambda_for(fade, direction, params)
                              if np.isfinite(fade) else np.nan)
    inv_area = 1.0 / grid.p**2
    return _rows(excess, links, widths, lambda l, n: inv_area / n)


def assert_same_csr(got, want):
    """Equal shape, dtype, data, indices and indptr."""
    assert got.shape == want.shape
    assert got.data.dtype == want.data.dtype
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
