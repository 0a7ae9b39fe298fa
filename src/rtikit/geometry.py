"""Node layout, link enumeration, and voxel-grid geometry.

Plain 2-D Euclidean primitives shared by every weight model: the sensor
deployment, the undirected link table with cached link lengths, the
row-major square-voxel grid, and the excess path length of every link at
every point, which decides which voxels a link's ellipse holds.

All types are immutable after construction and safe to share across
workers.
"""

from dataclasses import dataclass
from numbers import Integral
from types import SimpleNamespace

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "check_bounds",
    "NodeLayout",
    "LinkTable",
    "VoxelGrid",
    "enumerate_links",
    "excess_path_field",
]


def _integer(v) -> bool:
    """Whether v is an integer: any numbers.Integral, numpy's integers
    included, but not a bool, which is one only to Python."""
    return isinstance(v, Integral) and not isinstance(v, bool)


# Links per block of the RX distances excess_path_field adds.
_LINK_BLOCK = 64

# bound -> its test; each test is False for NaN
_BOUNDS = {
    "finite and > 0": lambda v: 0 < v < np.inf,
    "finite and >= 0": lambda v: 0 <= v < np.inf,
    "finite and < 0": lambda v: -np.inf < v < 0,
    "finite": lambda v: -np.inf < v < np.inf,
    "finite or None": lambda v: v is None or -np.inf < v < np.inf,
    "an integer": _integer,
    "an integer >= 0": lambda v: _integer(v) and v >= 0,
    "an integer >= 1": lambda v: _integer(v) and v >= 1,
    "an integer >= 3": lambda v: _integer(v) and v >= 3,
}


def check_bounds(obj, **bounds: str) -> None:
    """Raise ValueError `<field> must be <bound>, got <value!r>` for the
    first field of obj, in argument order, whose value is outside its
    bound, one of the keys of _BOUNDS."""
    for name, bound in bounds.items():
        value = getattr(obj, name)
        if not _BOUNDS[bound](value):
            raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True, eq=False)
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

    @property
    def n_nodes(self) -> int:
        return self.ids.size


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Every undirected link of a node layout, in all-pairs order.

    With the n node ids sorted, link l joins the nodes whose ranks are the
    l-th pair (i, j) of np.triu_indices(n, 1), so tx_ids[l] < rx_ids[l]
    and the links ascend by (tx_id, rx_id). Link l runs between layout
    rows tx_idx[l] and rx_idx[l]; lengths[l] is the TX-RX distance d in
    meters (always > 0).
    """

    tx_idx: np.ndarray
    rx_idx: np.ndarray
    tx_ids: np.ndarray
    rx_ids: np.ndarray
    lengths: np.ndarray

    @property
    def n_links(self) -> int:
        return self.lengths.size

    def link_index(self, node_a: int, node_b: int) -> int:
        """Index of the undirected link between two node ids; KeyError for
        an unknown id or a self-pair."""
        try:
            link = int(self.link_indices([node_a], [node_b])[0])
        except OverflowError:  # an id outside int64 names no node
            link = -1
        if link < 0:
            raise KeyError(f"no link between nodes {node_a} and {node_b}")
        return link

    def link_indices(self, node_a: np.ndarray, node_b: np.ndarray) -> np.ndarray:
        """link_index over arrays of node ids: the link of each (a, b) pair
        in either order, or -1 where the pair has no link (an unknown id or
        a self-pair).

        Each id becomes its rank among the n sorted node ids, or n when it
        is unknown, and the two ranks pick the link from an (n + 1, n + 1)
        table of the all-pairs order, -1 on its diagonal and last row and
        column. An id that is not a whole number is unknown.
        """
        ids = np.union1d(self.tx_ids, self.rx_ids)
        n = ids.size
        lookup = np.full((n + 1, n + 1), -1, dtype=np.int64)
        lo, hi = np.triu_indices(n, 1)
        lookup[lo, hi] = lookup[hi, lo] = np.arange(lo.size)
        ranks = []
        for nodes in (node_a, node_b):
            nodes = np.asarray(nodes)
            whole = None
            if nodes.dtype.kind == "f":  # an id that is not whole is unknown
                whole = ((nodes == np.trunc(nodes)) & (nodes >= -2.0**63)
                         & (nodes < 2.0**63))
                nodes = np.where(whole, nodes, 0)
            nodes = nodes.astype(np.int64, copy=False)
            rank = np.searchsorted(ids, nodes)
            unknown = np.append(ids, 0)[rank] != nodes
            if whole is not None:
                unknown |= ~whole
            rank[unknown] = n
            ranks.append(rank)
        return lookup[ranks[0], ranks[1]]


def enumerate_links(layout: NodeLayout) -> LinkTable:
    """The link table of every unordered node pair, ordered by
    (min_id, max_id): L = n(n-1)/2 links.

    Raises:
        ValueError: two nodes coincide, so their link has zero length.
    """
    rows = np.argsort(layout.ids)  # layout row of each id rank
    tx_rank, rx_rank = np.triu_indices(layout.n_nodes, 1)
    tx_idx, rx_idx = rows[tx_rank], rows[rx_rank]
    tx_ids, rx_ids = layout.ids[tx_idx], layout.ids[rx_idx]
    lengths = np.linalg.norm(layout.xy[rx_idx] - layout.xy[tx_idx], axis=1)
    if np.any(lengths <= 0.0):
        bad = int(np.argmin(lengths))
        raise ValueError(
            f"link ({tx_ids[bad]}, {rx_ids[bad]}) has zero length: "
            "endpoints coincide"
        )
    return LinkTable(tx_idx=tx_idx, rx_idx=rx_idx, tx_ids=tx_ids,
                     rx_ids=rx_ids, lengths=lengths)


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
    # One node-to-point distance table; each link gathers its two rows,
    # the TX rows into the result and the RX rows _LINK_BLOCK links at a
    # time, so that no other (L, M) array is formed.
    dist = cdist(layout.xy, points)
    field = dist[table.tx_idx]
    for start in range(0, table.n_links, _LINK_BLOCK):
        stop = start + _LINK_BLOCK
        field[start:stop] += dist[table.rx_idx[start:stop]]
    field -= table.lengths[:, None]
    return np.maximum(field, 0.0, out=field)


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
        check_bounds(self, p="finite and > 0", nx="an integer >= 1",
                     ny="an integer >= 1")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not np.isfinite(origin).all():
            raise ValueError("grid origin must be finite")
        object.__setattr__(self, "origin", origin)

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

    def center_of(self, j: int) -> tuple[float, float]:
        ix, iy = self.index_to_cell(j)
        return (self.origin[0] + (ix + 0.5) * self.p,
                self.origin[1] + (iy + 0.5) * self.p)

    @classmethod
    def from_layout(cls, layout: NodeLayout, p: float,
                    margin: float | None = None) -> "VoxelGrid":
        """Grid over the node bounding box padded by `margin` per side.

        p must be finite and > 0, and margin finite or None. The default
        margin is one voxel width; a negative one shrinks the box, and one
        that empties it on either axis raises. Cell counts are rounded up
        so the padded box is fully covered.
        """
        check_bounds(SimpleNamespace(p=p, margin=margin), p="finite and > 0",
                     margin="finite or None")
        if margin is None:
            margin = p
        lo = layout.xy.min(axis=0) - margin
        hi = layout.xy.max(axis=0) + margin
        if not (hi > lo).all():
            raise ValueError(f"grid margin {margin} leaves an empty box")
        nx = max(1, int(np.ceil((hi[0] - lo[0]) / p)))
        ny = max(1, int(np.ceil((hi[1] - lo[1]) / p)))
        return cls(origin=(float(lo[0]), float(lo[1])), p=float(p), nx=nx, ny=ny)
