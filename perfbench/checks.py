"""Output checks. Each returns a list of problems; an empty list passes.

Every reference value is computed here from the inputs or is a property
the method must have; nothing is compared against stored output.
"""

import csv
import math

import numpy as np
from scipy.spatial.distance import cdist

# Relative residual allowed in the operator identity. A correct Π leaves
# about 2e-15 on the reference deployments; σ_N off by 1 % leaves 1e-4.
OPERATOR_RTOL = 1e-8


def operator_identity(operator, params, rng, n_columns=8) -> list:
    """(C_x WᵀW + σ_N² I) Π = C_x Wᵀ on a sample of Π's columns.

    C_x = σ_x² exp(−d/δ_c) is formed here from the voxel centers, so the
    check does not reuse the program's prior.
    """
    w = operator.weights.matrix.tocsr()
    pi = operator.pi
    supported = np.flatnonzero(np.diff(w.indptr))
    cols = np.sort(rng.choice(supported, size=min(n_columns, supported.size),
                              replace=False))
    centers = operator.grid.centers()
    c_x = params.sigma_x**2 * np.exp(-cdist(centers, centers) / params.delta_c)
    p = pi[:, cols]
    lhs = c_x @ (w.T @ (w @ p)) + params.sigma_n**2 * p
    rhs = c_x @ w[cols].toarray().T
    residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    if not residual <= OPERATOR_RTOL:
        return [f"operator identity residual {residual:.2e} > {OPERATOR_RTOL:g} "
                f"(N={pi.shape[0]}, rows={pi.shape[1]})"]
    return []


def frames_equal(loaded, written, label) -> list:
    """load_trace gives back exactly the frames that were written."""
    if len(loaded) != len(written):
        return [f"{label}: {len(loaded)} frames loaded, {len(written)} written"]
    for a, b in zip(loaded, written):
        if (a.k != b.k or not np.array_equal(a.channels, b.channels)
                or not np.array_equal(a.rss, b.rss, equal_nan=True)):
            return [f"{label}: frame k={b.k} differs after the round trip"]
    return []


def fade_tables_match(from_file, in_memory) -> list:
    """The CLI's fade table equals calibrate() on the in-memory frames."""
    problems = []
    for field in ("values", "mean_rss"):
        a, b = getattr(from_file, field), getattr(in_memory, field)
        if a.shape != b.shape or not np.allclose(a, b, rtol=0, atol=1e-9,
                                                 equal_nan=True):
            problems.append(f"fade table {field} differs from calibrate()")
    if not np.array_equal(from_file.channels, in_memory.channels):
        problems.append("fade table channels differ from calibrate()")
    for field in ("eta", "p0", "rmse"):
        a, b = getattr(from_file.fit, field), getattr(in_memory.fit, field)
        if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"fade table fit {field} {a!r} != {b!r}")
    return problems


def track_csv(path, ks, truth) -> list:
    """One row per person frame in ascending k, truth columns as given,
    and error_m equal to the distance recomputed from the row itself."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["k", "x_hat", "y_hat", "x_true", "y_true", "error_m"]
    if not rows or rows[0] != header:
        return [f"track CSV header {rows[:1]} != {header}"]
    body = rows[1:]
    got_ks = [int(r[0]) for r in body]
    if got_ks != list(ks):
        return [f"track CSV has {len(got_ks)} rows, k {got_ks[:3]}..., "
                f"expected {len(ks)} rows in ascending k"]
    for r in body:
        k = int(r[0])
        x, y, tx, ty, err = (float(v) for v in r[1:])
        if (tx, ty) != truth[k]:
            return [f"track CSV k={k}: truth ({tx}, {ty}) != {truth[k]}"]
        if not math.isclose(err, math.hypot(x - tx, y - ty),
                            rel_tol=1e-12, abs_tol=1e-12):
            return [f"track CSV k={k}: error_m {err!r} != distance from columns"]
    return []
