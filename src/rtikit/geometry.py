"""Node layout, link enumeration, and voxel-grid geometry.

Plain 2-D Euclidean primitives shared by every weight model: the sensor
deployment, the undirected link table with cached link lengths, the
row-major square-voxel grid, and the excess-path-length / ellipse
membership predicates that decide which voxels a link can see.

All types are immutable after construction and safe to share across
workers.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "NodeLayout",
    "LinkTable",
    "VoxelGrid",
    "enumerate_links",
    "excess_path_length",
    "excess_path_field",
    "ellipse_membership",
]


@dataclass(frozen=True)
class NodeLayout:
    """Static sensor deployment: node ids with planar coordinates in meters.

    Attributes:
        ids: (n,) integer node identifiers, unique.
        xy: (n, 2) node positions in meters; row i belongs to ids[i].
    """

    ids: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int)
        xy = np.asarray(self.xy, dtype=float)
        if ids.ndim != 1 or xy.shape != (ids.size, 2):
            raise ValueError("ids must be shape (n,) and xy shape (n, 2)")
        if ids.size < 3:
            raise ValueError(f"need at least 3 nodes, got {ids.size}")
        unique = np.unique(ids)
        if unique.size != ids.size:
            dupes = [int(i) for i in unique if np.count_nonzero(ids == i) > 1]
            raise ValueError(f"duplicate node ids: {dupes}")
        if not np.all(np.isfinite(xy)):
            raise ValueError("node coordinates must be finite")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "_index", {int(i): k for k, i in enumerate(ids)})

    @property
    def n_nodes(self) -> int:
        return self.ids.size

    def index_of(self, node_id: int) -> int:
        """Row index of a node id; KeyError for unknown ids."""
        try:
            return self._index[int(node_id)]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None


@dataclass(frozen=True)
class LinkTable:
    """Undirected links over a node layout, in a fixed deterministic order.

    Link l runs between layout rows tx_idx[l] and rx_idx[l]; lengths[l] is
    the TX-RX distance d in meters (always > 0).
    """

    tx_idx: np.ndarray
    rx_idx: np.ndarray
    tx_ids: np.ndarray
    rx_ids: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "_pair_index",
            {
                (min(int(a), int(b)), max(int(a), int(b))): l
                for l, (a, b) in enumerate(zip(self.tx_ids, self.rx_ids))
            },
        )

    @property
    def n_links(self) -> int:
        return self.lengths.size

    def link_index(self, node_a: int, node_b: int) -> int:
        """Index of the undirected link between two node ids."""
        key = (min(int(node_a), int(node_b)), max(int(node_a), int(node_b)))
        try:
            return self._pair_index[key]
        except KeyError:
            raise KeyError(f"no link between nodes {node_a} and {node_b}") from None

    def link_indices(self, node_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """link_index over arrays of node ids: the link of each (a, b) pair
        in either order, or -1 where the pair has no link (an unknown id or
        a self-pair).

        The lookup is a dense symmetric table over the sorted ids that
        appear in a link, reached through searchsorted. Its last row and
        column stand for every other id.
        """
        pairs = np.array(list(self._pair_index), dtype=np.int64).reshape(-1, 2)
        ids = np.unique(pairs)
        n = ids.size
        lookup = np.full((n + 1, n + 1), -1, dtype=np.int64)
        lo, hi = np.searchsorted(ids, pairs.T)
        lookup[lo, hi] = lookup[hi, lo] = list(self._pair_index.values())
        slots = []
        for nodes in (node_a, node_b):
            nodes = np.asarray(nodes, dtype=np.int64)
            i = np.searchsorted(ids, nodes)
            slots.append(np.where(np.append(ids, 0)[i] == nodes, i, n))
        return lookup[slots[0], slots[1]]


def enumerate_links(layout: NodeLayout, mode: str = "all_pairs",
                    pairs=None) -> LinkTable:
    """Build the link table for a layout.

    Args:
        layout: node deployment.
        mode: "all_pairs" enumerates every unordered node pair, ordered by
            (min_id, max_id); "explicit_list" uses `pairs` in the given
            order.
        pairs: iterable of (tx_id, rx_id), required for explicit_list mode.

    Returns:
        LinkTable with L = n(n-1)/2 links in all_pairs mode.

    Raises:
        ValueError: fewer than 2 nodes, self-links, coincident endpoints,
            or an unknown mode.
    """
    if layout.n_nodes < 2:
        raise ValueError("link enumeration needs at least 2 nodes")
    if mode == "all_pairs":
        sorted_ids = sorted(int(i) for i in layout.ids)
        id_pairs = list(combinations(sorted_ids, 2))
    elif mode == "explicit_list":
        if pairs is None:
            raise ValueError("explicit_list mode requires pairs")
        id_pairs = [(int(a), int(b)) for a, b in pairs]
    else:
        raise ValueError(f"unknown link enumeration mode {mode!r}")

    tx_ids, rx_ids, tx_idx, rx_idx = [], [], [], []
    for a, b in id_pairs:
        if a == b:
            raise ValueError(f"self-link on node {a}")
        tx_ids.append(a)
        rx_ids.append(b)
        tx_idx.append(layout.index_of(a))
        rx_idx.append(layout.index_of(b))
    tx_idx = np.asarray(tx_idx, dtype=int)
    rx_idx = np.asarray(rx_idx, dtype=int)
    lengths = np.linalg.norm(layout.xy[rx_idx] - layout.xy[tx_idx], axis=1)
    if np.any(lengths <= 0.0):
        bad = int(np.argmin(lengths))
        raise ValueError(
            f"link ({tx_ids[bad]}, {rx_ids[bad]}) has zero length: "
            "endpoints coincide"
        )
    return LinkTable(
        tx_idx=tx_idx,
        rx_idx=rx_idx,
        tx_ids=np.asarray(tx_ids, dtype=int),
        rx_ids=np.asarray(rx_ids, dtype=int),
        lengths=lengths,
    )


def excess_path_field(table: LinkTable, layout: NodeLayout,
                      points: np.ndarray) -> np.ndarray:
    """Excess path length of every link at every query point.

    For link l and point z this is d_tx(z) + d_rx(z) - d: the focal-sum
    distance beyond the direct TX-RX separation. It is >= 0 everywhere and
    0 exactly on the closed TX-RX segment.

    Args:
        table: link table.
        layout: the layout the table was built from.
        points: (M, 2) query points in meters.

    Returns:
        (L, M) array of excess path lengths, clamped at 0 so rounding noise
        cannot produce negative values for on-segment points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    # One node-to-point distance table; each link gathers its two rows.
    dist = cdist(layout.xy, points)
    return np.maximum(dist[table.tx_idx] + dist[table.rx_idx]
                      - table.lengths[:, None], 0.0)


def excess_path_length(link: int, point, table: LinkTable,
                       layout: NodeLayout) -> float:
    """Excess path length of one link at one point (meters, >= 0)."""
    if not 0 <= link < table.n_links:
        raise IndexError(f"link index {link} out of range")
    point = np.asarray(point, dtype=float)
    d_tx = float(np.linalg.norm(point - layout.xy[table.tx_idx[link]]))
    d_rx = float(np.linalg.norm(point - layout.xy[table.rx_idx[link]]))
    return max(d_tx + d_rx - float(table.lengths[link]), 0.0)


def ellipse_membership(link: int, lam: float, grid: "VoxelGrid",
                       table: LinkTable, layout: NodeLayout) -> np.ndarray:
    """Indices of voxels whose centers fall strictly inside a link's ellipse.

    A voxel center z belongs iff d_tx(z) + d_rx(z) < d + lam, i.e. excess
    path length strictly below lam; centers exactly on the boundary are
    excluded.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    field = excess_path_field(table, layout, grid.centers())[link]
    return np.nonzero(field < lam)[0]


@dataclass(frozen=True)
class VoxelGrid:
    """Row-major grid of square voxels covering the monitored area.

    Voxel j sits at cell (ix, iy) = (j mod nx, j div nx) with center
    origin + ((ix + 0.5) p, (iy + 0.5) p).
    """

    origin: tuple[float, float]
    p: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("voxel width p must be > 0")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one voxel per axis")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def n_voxels(self) -> int:
        return self.nx * self.ny

    def centers(self) -> np.ndarray:
        """(N, 2) voxel center coordinates in row-major voxel order."""
        j = np.arange(self.n_voxels)
        ix = j % self.nx
        iy = j // self.nx
        return np.column_stack(
            (self.origin[0] + (ix + 0.5) * self.p,
             self.origin[1] + (iy + 0.5) * self.p)
        )

    def index_to_cell(self, j: int) -> tuple[int, int]:
        if not 0 <= j < self.n_voxels:
            raise IndexError(f"voxel index {j} out of range")
        return j % self.nx, j // self.nx

    def cell_to_index(self, ix: int, iy: int) -> int:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise IndexError(f"cell ({ix}, {iy}) out of range")
        return iy * self.nx + ix

    def center_of(self, j: int) -> tuple[float, float]:
        ix, iy = self.index_to_cell(j)
        return (self.origin[0] + (ix + 0.5) * self.p,
                self.origin[1] + (iy + 0.5) * self.p)

    @classmethod
    def from_layout(cls, layout: NodeLayout, p: float,
                    margin: float | None = None) -> "VoxelGrid":
        """Grid over the node bounding box padded by `margin` per side.

        The default margin is one voxel width; a negative one shrinks the
        box, and one that empties it on either axis (or NaN) raises. Cell
        counts are rounded up so the padded box is fully covered.
        """
        if p <= 0:
            raise ValueError("voxel width p must be > 0")
        if margin is None:
            margin = p
        lo = layout.xy.min(axis=0) - margin
        hi = layout.xy.max(axis=0) + margin
        if not (hi > lo).all():
            raise ValueError(f"grid margin {margin} leaves an empty box")
        nx = max(1, int(np.ceil((hi[0] - lo[0]) / p)))
        ny = max(1, int(np.ceil((hi[1] - lo[1]) / p)))
        return cls(origin=(float(lo[0]), float(lo[1])), p=float(p), nx=nx, ny=ny)
