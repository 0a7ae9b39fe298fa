"""Geometry: link enumeration, excess path length, ellipse membership, grids."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtikit.geometry import (
    NodeLayout,
    VoxelGrid,
    enumerate_links,
    excess_path_field,
)
from rtikit.simulator import perimeter_layout
from rtikit.spatial_model import build_classic_weights
import reference_pipeline


def square_layout(side=4.0):
    ids = np.array([1, 2, 3, 4])
    xy = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return NodeLayout(ids=ids, xy=xy)


def test_layout_validates_duplicates_and_count():
    with pytest.raises(ValueError):
        NodeLayout(ids=np.array([1, 1, 2]), xy=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        NodeLayout(ids=np.array([1, 2]), xy=np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_all_pairs_count_and_order():
    layout = square_layout()
    table = enumerate_links(layout)
    assert table.n_links == 6
    got = list(zip(table.tx_ids.tolist(), table.rx_ids.tolist()))
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    # 30 nodes -> 30*29/2 links
    ids = np.arange(30)
    ang = 2 * np.pi * ids / 30
    big = NodeLayout(ids=ids, xy=np.column_stack((np.cos(ang), np.sin(ang))))
    assert enumerate_links(big).n_links == 435


def test_all_pairs_order_is_id_sorted_not_row_sorted():
    # Rows deliberately stored in descending id order; pair order must
    # still follow sorted ids.
    ids = np.array([7, 3, 5])
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    table = enumerate_links(NodeLayout(ids=ids, xy=xy))
    got = list(zip(table.tx_ids.tolist(), table.rx_ids.tolist()))
    assert got == [(3, 5), (3, 7), (5, 7)]


def test_coincident_nodes_rejected():
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    with pytest.raises(ValueError):
        enumerate_links(layout)


def test_link_lengths_and_lookup():
    layout = square_layout(4.0)
    table = enumerate_links(layout)
    assert table.lengths[table.link_index(1, 2)] == pytest.approx(4.0)
    assert table.lengths[table.link_index(1, 3)] == pytest.approx(4 * np.sqrt(2))
    assert table.link_index(2, 1) == table.link_index(1, 2)
    with pytest.raises(KeyError, match="no link between nodes 1 and 99"):
        table.link_index(1, 99)


def test_an_id_that_is_not_whole_is_unknown():
    table = enumerate_links(square_layout(4.0))
    assert table.link_index(1.0, 2.0) == table.link_index(1, 2)
    with pytest.raises(KeyError, match="no link between nodes 1.9 and 2.2"):
        table.link_index(1.9, 2.2)
    np.testing.assert_array_equal(
        table.link_indices([1.0, 1.9, 1.0, np.nan, np.inf, -np.inf, 1e30, -2.0**63],
                           [2.0, 2.2, 2.5, 2.0, 2.0, 2.0, 2.0, 2.0]),
        [table.link_index(1, 2), -1, -1, -1, -1, -1, -1, -1])


INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def id_layouts(draw):
    """3 to 40 nodes on a circle, with unique int64 ids in any order, so
    ids may be negative and have gaps."""
    n = draw(st.integers(3, 40))
    ids = draw(st.lists(INT64, min_size=n, max_size=n, unique=True))
    ang = 2 * np.pi * np.arange(n) / n
    return NodeLayout(ids=np.array(ids), xy=np.column_stack((np.cos(ang), np.sin(ang))))


@settings(max_examples=60, deadline=None)
@given(layout=id_layouts(), data=st.data())
def test_links_are_the_sorted_id_pairs(layout, data):
    ids = layout.ids.tolist()
    pairs = list(combinations(sorted(ids), 2))
    row = {node: i for i, node in enumerate(ids)}
    table = enumerate_links(layout)
    assert list(zip(table.tx_ids.tolist(), table.rx_ids.tolist())) == pairs
    assert table.tx_idx.tolist() == [row[a] for a, _ in pairs]
    assert table.rx_idx.tolist() == [row[b] for _, b in pairs]
    np.testing.assert_allclose(
        table.lengths,
        [np.linalg.norm(layout.xy[row[b]] - layout.xy[row[a]]) for a, b in pairs],
        rtol=1e-12)

    # either order of a link's ids finds it; an unknown id or a self-pair
    # finds none
    node = st.one_of(st.sampled_from(ids), INT64)
    a = data.draw(st.lists(node, max_size=50)) + ids
    b = data.draw(st.lists(node, min_size=len(a) - len(ids),
                           max_size=len(a) - len(ids))) + ids
    link = {pair: l for l, pair in enumerate(pairs)}
    want = [link.get((min(x, y), max(x, y)), -1) for x, y in zip(a, b)]
    np.testing.assert_array_equal(
        table.link_indices(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)),
        want)
    for x, y, l in zip(a, b, want):
        if l < 0:
            with pytest.raises(KeyError, match=f"no link between nodes {x} and {y}"):
                table.link_index(x, y)
        else:
            assert table.link_index(x, y) == l
    with pytest.raises(KeyError):
        table.link_index(ids[0], 2**64)  # no int64, so no node


def test_excess_path_known_value():
    # Endpoints (0,0)-(4,0), point (2,1): 2*sqrt(5) - 4.
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 10.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout)
    l = table.link_index(1, 2)
    field = excess_path_field(table, layout, [[2.0, 1.0], [2.0, 0.0],
                                              [0.0, 0.0], [4.0, 0.0]])[l]
    assert field[0] == pytest.approx(2 * np.sqrt(5) - 4, abs=1e-12)
    # Zero on the segment, including endpoints.
    assert np.array_equal(field[1:], np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(3, 12),
       n_points=st.integers(1, 50), scale=st.sampled_from([1e-3, 1.0, 40.0]))
def test_excess_path_field_matches_reference(seed, n_nodes, n_points, scale):
    rng = np.random.default_rng(seed)
    layout = NodeLayout(ids=rng.permutation(100)[:n_nodes] + 1,
                        xy=scale * rng.uniform(-1, 1, size=(n_nodes, 2)))
    table = enumerate_links(layout)
    # random points, the nodes themselves and every link's midpoint
    pts = np.vstack([scale * rng.uniform(-1.5, 1.5, size=(n_points, 2)),
                     layout.xy,
                     (layout.xy[table.tx_idx] + layout.xy[table.rx_idx]) / 2])
    got = excess_path_field(table, layout, pts)
    assert got.shape == (table.n_links, len(pts))
    assert np.all(got >= 0)
    want = reference_pipeline.excess(layout, pts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)
    # the single nested-list point the simulator passes
    point = [[float(pts[0, 0]), float(pts[0, 1])]]
    single = excess_path_field(table, layout, point)
    assert single.shape == (table.n_links, 1)
    assert np.array_equal(single, got[:, :1])


def test_excess_path_field_memory_is_its_result():
    """On the 30-node, 7 m deployment's grid (435 links, 48 × 48 voxels,
    an 8 MB field), the traced peak is the field, the node-to-point
    distances and one block of RX rows: about 1.22 times the field, where
    summing the two gathered (L, M) arrays would take about 2.1 times."""
    layout = perimeter_layout(30, 7.0, 7.0)
    table = enumerate_links(layout)
    points = VoxelGrid.from_layout(layout, 0.1524).centers()
    tracemalloc.start()
    try:
        field = excess_path_field(table, layout, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.shape == (435, 2304)
    assert peak <= 1.3 * field.nbytes, peak / field.nbytes


def _support(table, layout, grid, lam):
    """The voxels of each link's fixed-width ellipse of width lam, from the
    rows of build_classic_weights."""
    w = build_classic_weights(table, layout, grid, lam).matrix
    return [set(w.indices[w.indptr[l]:w.indptr[l + 1]].tolist())
            for l in range(table.n_links)]


def test_membership_strict_inequality_and_oracle():
    layout = square_layout(4.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(-1.0, -1.0), p=0.5, nx=12, ny=12)
    field = reference_pipeline.excess(layout, reference_pipeline.centres(grid))
    rng = np.random.default_rng(3)
    for lam in (0.0, 0.1, 0.5, 1.0, *rng.uniform(0.0, 2.0, size=4)):
        for l, got in enumerate(_support(table, layout, grid, lam)):
            assert got == set(np.flatnonzero(field[l] < lam).tolist())


def test_membership_lambda_zero_empty_and_monotone():
    layout = square_layout(4.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(-1.0, -1.0), p=0.5, nx=12, ny=12)
    assert not any(_support(table, layout, grid, 0.0))
    prev = _support(table, layout, grid, 0.05)
    for lam in (0.2, 0.6, 1.5):
        cur = _support(table, layout, grid, lam)
        assert all(a <= b for a, b in zip(prev, cur))
        prev = cur


def test_membership_boundary_center_excluded():
    # Put a voxel center exactly on the ellipse boundary: excess == lam.
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout)
    l = table.link_index(1, 2)
    grid = VoxelGrid(origin=(1.5, 0.5), p=1.0, nx=1, ny=1)  # center (2.0, 1.0)
    lam = 2 * np.sqrt(5) - 4
    assert _support(table, layout, grid, lam)[l] == set()
    assert _support(table, layout, grid, lam + 1e-9)[l] == {0}


def test_grid_round_trip_and_centers():
    grid = VoxelGrid(origin=(-1.0, 2.0), p=0.25, nx=7, ny=5)
    assert grid.n_voxels == 35
    for j in range(grid.n_voxels):
        ix, iy = grid.index_to_cell(j)
        assert iy * grid.nx + ix == j
    assert grid.center_of(0) == pytest.approx((-1.0 + 0.125, 2.0 + 0.125))
    assert grid.index_to_cell(1) == (1, 0)  # x varies fastest
    centers = grid.centers()
    assert centers.shape == (35, 2)
    assert centers[1, 0] > centers[0, 0]
    assert centers[1, 1] == centers[0, 1]
    with pytest.raises(IndexError):
        grid.index_to_cell(35)


def test_grid_from_layout_margin():
    layout = square_layout(4.0)
    grid = VoxelGrid.from_layout(layout, p=0.5)
    # bbox [0,4]^2 padded by one voxel width 0.5 per side -> [-0.5, 4.5]
    assert grid.origin == pytest.approx((-0.5, -0.5))
    assert grid.nx == 10 and grid.ny == 10
    # all nodes strictly inside the covered box
    lo = np.array(grid.origin)
    hi = lo + np.array([grid.nx, grid.ny]) * grid.p
    assert np.all(layout.xy > lo) and np.all(layout.xy < hi)
    explicit = VoxelGrid.from_layout(layout, p=0.5, margin=1.0)
    assert explicit.origin == pytest.approx((-1.0, -1.0))
    assert explicit.nx == 12


def test_grid_from_layout_rejects_empty_box():
    # A margin of -5 crosses a 7 m box over; unchecked it gave a 1x1 grid
    # at (5, 5), outside the nodes.
    layout = square_layout(7.0)
    for margin in (-5.0, -3.5):
        with pytest.raises(ValueError, match="empty box"):
            VoxelGrid.from_layout(layout, p=0.5, margin=margin)
    shrunk = VoxelGrid.from_layout(layout, p=0.5, margin=-1.0)
    assert shrunk.origin == pytest.approx((1.0, 1.0))
    assert shrunk.nx == shrunk.ny == 10


def test_grid_from_layout_rejects_non_finite_width_or_margin():
    """NaN and ±inf are named by the bound they break before any box is
    formed: unchecked, a NaN width read as an empty box, an infinite one
    failed converting NaN to an integer and an infinite margin overflowed."""
    layout = square_layout(4.0)
    for p in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError,
                           match=f"^p must be finite and > 0, got {p!r}$"):
            VoxelGrid.from_layout(layout, p=p)
    for margin in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError,
                           match=f"^margin must be finite or None, got {margin!r}$"):
            VoxelGrid.from_layout(layout, p=0.5, margin=margin)


def test_grid_validation():
    with pytest.raises(ValueError):
        VoxelGrid(origin=(0, 0), p=0.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        VoxelGrid(origin=(0, 0), p=0.5, nx=0, ny=4)
    # a non-finite width or origin would give NaN or infinite centres
    for p in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^p must be finite and > 0, got {p!r}$"):
            VoxelGrid(origin=(0, 0), p=p, nx=2, ny=2)
    for origin in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(ValueError, match="grid origin must be finite"):
            VoxelGrid(origin=origin, p=0.5, nx=2, ny=2)
