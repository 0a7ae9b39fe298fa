"""A plain reference pipeline that the tests compare the library against.

Every step is written from its definition, one row, sample or entry at a
time, with none of the library's kernels: the voxel centres and the excess
path length from `np.hypot`, W row by row from the ellipse definition, a
dense prior C_x = σ_x² exp(−d/δ_c) and Π = (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ by
`np.linalg.solve`, each variant's measurement in plain loops over (channel,
direction, link) with the hold rule applied per sample, and an argmax.

It reuses only the two model equations that the published anchors check,
`lambda_for` and `beta_plus`; `tests/test_package.py` holds it to that.

One step is kept in its earlier vectorized form rather than from the
definition: `mask_ellipses`, the weights' ellipses and band factors from one
(R, L, N) membership mask, against which the library's construction is held
to be equal array for array.
"""

from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from rtikit.measurement_model import beta_plus
from rtikit.spatial_model import lambda_for

DIRECTIONS = ("+", "-")


def links(layout):
    """(tx row, rx row, length) of every node pair, in (min id, max id)
    order."""
    rows = np.argsort(layout.ids)
    return [(a, b, float(np.hypot(*(layout.xy[b] - layout.xy[a]))))
            for a, b in combinations(rows, 2)]


def centres(grid):
    """(N, 2) voxel centres, voxel j at cell (j mod nx, j div nx)."""
    return np.array([(grid.origin[0] + (j % grid.nx + 0.5) * grid.p,
                      grid.origin[1] + (j // grid.nx + 0.5) * grid.p)
                     for j in range(grid.nx * grid.ny)])


def excess(layout, points):
    """(L, M) excess path length d_tx + d_rx − d of every link at every
    point, clamped at 0."""
    points = np.asarray(points, dtype=float)
    to_node = [np.hypot(points[:, 0] - x, points[:, 1] - y)
               for x, y in layout.xy]
    return np.array([np.maximum(to_node[a] + to_node[b] - d, 0.0)
                     for a, b, d in links(layout)])


def classic_weights(layout, grid, lam):
    """Fixed-width W: row l is 1/√d_l on the voxels whose centre has excess
    path length below lam."""
    inside = excess(layout, centres(grid)) < lam
    return np.array([np.where(row, 1.0 / np.sqrt(d), 0.0)
                     for row, (_, _, d) in zip(inside, links(layout))])


def row(column, direction, link, n_links):
    """Multi-scale row of a (channel column, direction, link)."""
    return (2 * column + DIRECTIONS.index(direction)) * n_links + link


def multiscale_weights(layout, grid, fades, ellipse):
    """Multi-scale W in (channel, direction, link) row order: 1/(n·p²) on
    the n voxels inside the link's ellipse of width λ^δ(F), and both rows of
    an uncalibrated pair empty."""
    field = excess(layout, centres(grid))
    n_links, n_channels = fades.values.shape
    w = np.zeros((2 * n_channels * n_links, field.shape[1]))
    for c in range(n_channels):
        for direction in DIRECTIONS:
            for l in range(n_links):
                fade = fades.values[l, c]
                if np.isnan(fade):
                    continue
                inside = field[l] < lambda_for(fade, direction, ellipse)
                if inside.any():
                    w[row(c, direction, l, n_links), inside] = (
                        1.0 / (inside.sum() * grid.p**2))
    return w


def mask_ellipses(excess, lam, value):
    """(band, reach, value, U, S) of ellipse weights, each link repeated R
    times, from one (R, L, N) membership mask: excess < width. excess is
    (L, N), lam (R·L,) with row r on link r mod L (NaN holds nothing), and
    value maps the (R·L,) member counts to the rows' weights. A voxel's
    band is R minus the number of its link's rows holding it; a row's reach
    is its rank by width among its link's rows (NaN first, stable), or -1
    where it holds nothing. U (N, R·L) marks each held voxel's band on each
    link at column l·R + band; S (R·L, R·L) holds v_r at column r of row
    l·R + b for each row r of link l reaching b, in ascending reach."""
    n_links, n_voxels = excess.shape
    lam = lam.reshape(-1, n_links)
    per_link = lam.shape[0]
    mask = excess < lam[:, :, np.newaxis]
    counts = np.count_nonzero(mask.reshape(-1, n_voxels), axis=1)
    dtype = np.min_scalar_type(per_link)
    band = dtype.type(per_link) - mask.sum(axis=0, dtype=dtype)
    order = np.argsort(np.nan_to_num(lam, nan=-np.inf), axis=0, kind="stable")
    rank = np.argsort(order, axis=0).ravel()
    reach = np.where(counts > 0, rank, -1)
    value = value(counts)
    rows = reach.size
    voxel, link = np.nonzero(band.T < per_link)
    u = sparse.csr_matrix(
        (np.ones(voxel.size), link * per_link + band[link, voxel],
         np.searchsorted(voxel, np.arange(n_voxels + 1))),
        shape=(n_voxels, rows))
    row, step = np.nonzero(np.arange(per_link) <= reach[:, np.newaxis])
    sums = row % n_links * per_link + step
    order = np.lexsort((reach[row], sums))
    row, sums = row[order], sums[order]
    s = sparse.csr_matrix(
        (value[row], row, np.searchsorted(sums, np.arange(rows + 1))),
        shape=(rows, rows))
    return band, reach, value, u, s


def multiscale_ellipses(excess, fades, ellipse, p):
    """`mask_ellipses` of the multi-scale weights: widths λ^δ(F) in (channel,
    direction, link) row order, and 1/(n·p²) on the n voxels of a row."""
    lam = np.stack([lambda_for(fades.values.T, d, ellipse)
                    for d in DIRECTIONS], axis=1)
    return mask_ellipses(excess, lam,
                         lambda counts: 1.0 / p**2 / np.maximum(counts, 1))


def classic_ellipses(excess, lengths, lam):
    """`mask_ellipses` of the fixed-width weights: width lam on every link,
    and 1/√d on its voxels."""
    return mask_ellipses(excess, np.full(len(lengths), lam),
                         lambda counts: 1.0 / np.sqrt(lengths))


def weights(variant, layout, grid, fades, config):
    """The variant's W as the paper defines it: cdrti stacks one copy of the
    fixed-width W per channel, channel-major."""
    if variant == "msrti":
        return multiscale_weights(layout, grid, fades, config.ellipse)
    classic = classic_weights(layout, grid, config.classic_lambda)
    if variant == "cdrti":
        return np.vstack([classic] * fades.channels.size)
    return classic


def covariance(grid, params):
    """Dense prior C_x = σ_x² exp(−d/δ_c) over voxel-centre distances."""
    return params.sigma_x**2 * np.exp(
        -cdist(centres(grid), centres(grid)) / params.delta_c)


def precision(grid, params):
    """σ_N² C_x⁻¹ by a dense inverse."""
    return params.sigma_n**2 * np.linalg.inv(covariance(grid, params))


def pi(w, grid, params):
    """Π = (WᵀW + σ_N² C_x⁻¹)⁻¹Wᵀ by one dense solve."""
    return np.linalg.solve(w.T @ w + precision(grid, params), w.T)


def deltas(frames, fades, hold_frames):
    """(K, L, C) RSS changes under the hold rule, sample by sample: a
    missing sample repeats the pair's last observed change for up to
    hold_frames frames in a row, and counts as 0 after that or before any
    observation. NaN on uncalibrated pairs."""
    n_links, n_channels = fades.values.shape
    out = np.full((len(frames), n_links, n_channels), np.nan)
    for l in range(n_links):
        for c in range(n_channels):
            if np.isnan(fades.values[l, c]):
                continue
            last, missed = None, 0
            for k, frame in enumerate(frames):
                sample = frame.rss[l, c]
                if np.isnan(sample):
                    missed += 1
                    held = last is not None and missed <= hold_frames
                    out[k, l, c] = last if held else 0.0
                else:
                    last, missed = sample - fades.mean_rss[l, c], 0
                    out[k, l, c] = last
    return out


def measurements(variant, frames, fades, config):
    """(K, rows) measurements in the row order of `weights`. The baselines
    measure the loss −Δr (0 on uncalibrated pairs): rti on the first channel,
    cdrti per (channel, link), flrti averaged over each link's m calibrated
    channels of highest fade level. msrti puts 1 − exp(−β^δ|Δr|) in the
    slot whose direction matches the sign of Δr."""
    change = deltas(frames, fades, config.measurement.hold_frames)
    loss = -np.nan_to_num(change)
    n_links, n_channels = fades.values.shape
    if variant == "rti":
        return loss[:, :, 0]
    if variant == "cdrti":
        return np.array([[loss[k, l, c] for c in range(n_channels)
                          for l in range(n_links)] for k in range(len(frames))])
    if variant == "flrti":
        y = np.zeros((len(frames), n_links))
        for l in range(n_links):
            calibrated = [c for c in range(n_channels)
                          if not np.isnan(fades.values[l, c])]
            chosen = sorted(calibrated,
                            key=lambda c: -fades.values[l, c])[:config.flrti_m]
            for k in range(len(frames)):
                y[k, l] = sum(loss[k, l, c] for c in chosen) / max(len(chosen), 1)
        return y
    y = np.zeros((len(frames), 2 * n_channels * n_links))
    for k in range(len(frames)):
        for c in range(n_channels):
            for l in range(n_links):
                dr = change[k, l, c]
                if np.isnan(dr) or dr == 0:
                    continue
                direction = "+" if dr > 0 else "-"
                rate = (beta_plus(fades.values[l, c], config.measurement)
                        if dr > 0 else config.measurement.beta_minus)
                y[k, row(c, direction, l, n_links)] = 1.0 - np.exp(-rate * abs(dr))
    return y


def images(variant, frames, layout, grid, fades, config):
    """(K, N) images Π·y of the frames."""
    w = weights(variant, layout, grid, fades, config)
    return measurements(variant, frames, fades, config) @ pi(
        w, grid, config.reconstruction).T


def argmax(image):
    """The voxel of the image's largest value, the lowest index on ties;
    -1 for an identically zero image."""
    image = list(image)
    if not any(image):
        return -1
    return max(range(len(image)), key=lambda j: (image[j], -j))


def assert_same_weights(wm, want):
    """The library's W has the reference's nonzero pattern exactly and its
    values to 1e-14, and stores sorted column indices."""
    got = wm.matrix
    assert got.has_sorted_indices
    np.testing.assert_allclose(got.toarray(), want, rtol=1e-14, atol=0)
