"""Geometry: link enumeration, excess path length, ellipse membership, grids."""

import numpy as np
import pytest

from rtikit.geometry import (
    LinkTable,
    NodeLayout,
    VoxelGrid,
    ellipse_membership,
    enumerate_links,
    excess_path_field,
    excess_path_length,
)


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


def test_explicit_list_keeps_order_and_rejects_self_links():
    layout = square_layout()
    table = enumerate_links(layout, mode="explicit_list", pairs=[(3, 1), (2, 4)])
    assert list(table.tx_ids) == [3, 2]
    assert list(table.rx_ids) == [1, 4]
    with pytest.raises(ValueError):
        enumerate_links(layout, mode="explicit_list", pairs=[(2, 2)])


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
    with pytest.raises(KeyError):
        table.link_index(1, 99)


def test_excess_path_known_value():
    # Endpoints (0,0)-(4,0), point (2,1): 2*sqrt(5) - 4.
    ids = np.array([1, 2, 3])
    xy = np.array([[0.0, 0.0], [4.0, 0.0], [10.0, 10.0]])
    layout = NodeLayout(ids=ids, xy=xy)
    table = enumerate_links(layout)
    l = table.link_index(1, 2)
    val = excess_path_length(l, (2.0, 1.0), table, layout)
    assert val == pytest.approx(2 * np.sqrt(5) - 4, abs=1e-12)
    # Zero on the segment, including endpoints.
    assert excess_path_length(l, (2.0, 0.0), table, layout) == 0.0
    assert excess_path_length(l, (0.0, 0.0), table, layout) == 0.0
    assert excess_path_length(l, (4.0, 0.0), table, layout) == 0.0


def test_excess_path_field_matches_scalar():
    rng = np.random.default_rng(7)
    layout = square_layout(5.0)
    table = enumerate_links(layout)
    pts = rng.uniform(-1, 6, size=(40, 2))
    field = excess_path_field(table, layout, pts)
    assert field.shape == (table.n_links, 40)
    for l in range(table.n_links):
        for m in range(40):
            assert field[l, m] == pytest.approx(
                excess_path_length(l, pts[m], table, layout), abs=1e-12
            )
    assert np.all(field >= 0)


def test_membership_strict_inequality_and_oracle():
    layout = square_layout(4.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(-1.0, -1.0), p=0.5, nx=12, ny=12)
    rng = np.random.default_rng(3)
    for l in range(table.n_links):
        for lam in (0.0, 0.1, 0.5, 1.0, rng.uniform(0.0, 2.0)):
            got = set(ellipse_membership(l, lam, grid, table, layout).tolist())
            # brute-force oracle straight from the definition
            want = {
                j for j in range(grid.n_voxels)
                if excess_path_length(l, grid.center_of(j), table, layout) < lam
            }
            assert got == want


def test_membership_lambda_zero_empty_and_monotone():
    layout = square_layout(4.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(-1.0, -1.0), p=0.5, nx=12, ny=12)
    for l in range(table.n_links):
        assert ellipse_membership(l, 0.0, grid, table, layout).size == 0
        prev: set = set()
        for lam in (0.05, 0.2, 0.6, 1.5):
            cur = set(ellipse_membership(l, lam, grid, table, layout).tolist())
            assert prev <= cur
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
    assert ellipse_membership(l, lam, grid, table, layout).size == 0
    assert ellipse_membership(l, lam + 1e-9, grid, table, layout).size == 1


def test_grid_round_trip_and_centers():
    grid = VoxelGrid(origin=(-1.0, 2.0), p=0.25, nx=7, ny=5)
    assert grid.n_voxels == 35
    for j in range(grid.n_voxels):
        ix, iy = grid.index_to_cell(j)
        assert grid.cell_to_index(ix, iy) == j
    assert grid.center_of(0) == pytest.approx((-1.0 + 0.125, 2.0 + 0.125))
    assert grid.index_to_cell(1) == (1, 0)  # x varies fastest
    centers = grid.centers()
    assert centers.shape == (35, 2)
    assert centers[1, 0] > centers[0, 0]
    assert centers[1, 1] == centers[0, 1]
    with pytest.raises(IndexError):
        grid.index_to_cell(35)
    with pytest.raises(IndexError):
        grid.cell_to_index(7, 0)


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
    for margin in (-5.0, -3.5, float("nan")):
        with pytest.raises(ValueError, match="empty box"):
            VoxelGrid.from_layout(layout, p=0.5, margin=margin)
    shrunk = VoxelGrid.from_layout(layout, p=0.5, margin=-1.0)
    assert shrunk.origin == pytest.approx((1.0, 1.0))
    assert shrunk.nx == shrunk.ny == 10


def test_grid_validation():
    with pytest.raises(ValueError):
        VoxelGrid(origin=(0, 0), p=0.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        VoxelGrid(origin=(0, 0), p=0.5, nx=0, ny=4)
