"""The GeoInd-preserving Hierarchical Index (GIHI).

A :class:`HierarchicalGrid` of granularity ``g`` and height ``h`` is a
stack of regular grids over the same square domain: level ``i`` has
``g^i x g^i`` cells, so every internal node has fanout ``g^2`` and the
leaf level has effective granularity ``g^h`` (Figure 4 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GridError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.grid.cell import Cell
from repro.grid.index import ChildGeometry, IndexNode, SpatialIndex
from repro.grid.regular import RegularGrid


class HierarchicalGrid(SpatialIndex):
    """A balanced hierarchical grid with uniform fanout ``g^2``.

    Node paths encode the row-major child index chosen at each level, so
    the node at path ``(p1, ..., pi)`` is cell ``pi`` of the ``g x g``
    subgrid of its parent.  Global per-level grids are exposed through
    :meth:`level_grid` for prior construction and logical-location
    snapping (Algorithm 1, line 8).
    """

    def __init__(self, bounds: BoundingBox, granularity: int, height: int):
        if granularity < 2:
            raise GridError(
                f"hierarchical grid needs granularity >= 2, got {granularity}"
            )
        if height < 1:
            raise GridError(f"hierarchical grid needs height >= 1, got {height}")
        # The budget model assumes square cells; enforce a square domain.
        bounds.side
        self._bounds = bounds
        self._g = granularity
        self._height = height
        self._root = IndexNode(bounds=bounds, level=0, path=())
        self._level_grids: dict[int, RegularGrid] = {}

    # ------------------------------------------------------------------
    # SpatialIndex protocol
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> BoundingBox:
        return self._bounds

    @property
    def root(self) -> IndexNode:
        return self._root

    def children(self, node: IndexNode) -> list[IndexNode]:
        if node.level >= self._height:
            return []
        return [
            IndexNode(bounds=b, level=node.level + 1, path=node.path + (i,))
            for i, b in enumerate(node.bounds.split(self._g))
        ]

    def locate_child(self, node: IndexNode, p: Point) -> IndexNode | None:
        if node.level >= self._height or not node.bounds.contains(p):
            return None
        sub = RegularGrid(node.bounds, self._g)
        cell = sub.locate(p)
        return IndexNode(
            bounds=cell.bounds, level=node.level + 1, path=node.path + (cell.index,)
        )

    def locate_child_indices(
        self, node: IndexNode, coords: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`locate_child` over an ``(m, 2)`` array.

        Uses the same half-open cell convention as
        :meth:`~repro.grid.regular.RegularGrid.locate` (top/right domain
        boundary folds into the last row/column), so it agrees with the
        scalar path point-for-point.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        if node.level >= self._height or coords.shape[0] == 0:
            return out
        b = node.bounds
        x = coords[:, 0]
        y = coords[:, 1]
        inside = (
            (x >= b.min_x) & (x <= b.max_x) & (y >= b.min_y) & (y <= b.max_y)
        )
        cell_w = b.width / self._g
        cell_h = b.height / self._g
        cols = np.minimum(
            ((x - b.min_x) / cell_w).astype(np.int64), self._g - 1
        )
        rows = np.minimum(
            ((y - b.min_y) / cell_h).astype(np.int64), self._g - 1
        )
        out[inside] = (rows * self._g + cols)[inside]
        return out

    def child_geometry(self, node: IndexNode) -> ChildGeometry | None:
        if node.level >= self._height:
            return None
        b = node.bounds
        # Same expressions as locate_child_indices, so the compiled
        # kernel's gathered arithmetic matches this index bitwise.
        return ChildGeometry(
            kind="grid",
            fanout=self._g * self._g,
            gx=self._g,
            gy=self._g,
            cell_w=b.width / self._g,
            cell_h=b.height / self._g,
        )

    def max_height(self) -> int:
        return self._height

    # ------------------------------------------------------------------
    # grid-specific structure
    # ------------------------------------------------------------------
    @property
    def granularity(self) -> int:
        """Per-level granularity ``g`` (fanout is ``g^2``)."""
        return self._g

    @property
    def height(self) -> int:
        """Number of levels below the virtual root."""
        return self._height

    @property
    def leaf_granularity(self) -> int:
        """Effective granularity ``g^h`` of the leaf level."""
        return self._g**self._height

    def level_granularity(self, level: int) -> int:
        """Global granularity ``g^level`` of a level (level 0 = root = 1)."""
        self._check_level(level)
        return self._g**level

    def level_grid(self, level: int) -> RegularGrid:
        """The global regular grid at ``level`` (cached)."""
        self._check_level(level)
        grid = self._level_grids.get(level)
        if grid is None:
            grid = RegularGrid(self._bounds, self.level_granularity(level))
            self._level_grids[level] = grid
        return grid

    def cell_side(self, level: int) -> float:
        """Side length ``L / g^level`` of a cell at ``level`` in km."""
        self._check_level(level)
        return self._bounds.side / self.level_granularity(level)

    def enclosing_cell(self, p: Point, level: int) -> Cell:
        """``EnclosingCell(x, i)`` of the paper: the global level-``level``
        cell containing ``p``."""
        return self.level_grid(level).locate(p)

    def node_cell(self, node: IndexNode) -> Cell:
        """The global grid cell corresponding to an index node."""
        if node.level == 0:
            raise GridError("the virtual root is not a grid cell")
        return self.level_grid(node.level).locate(node.bounds.center)

    def node_for_cell(self, level: int, row: int, col: int) -> IndexNode:
        """The index node for the global cell ``(row, col)`` at ``level``."""
        self._check_level(level)
        if level == 0:
            return self._root
        path = []
        for depth in range(1, level + 1):
            shift = self._g ** (level - depth)
            r = (row // shift) % self._g
            c = (col // shift) % self._g
            path.append(r * self._g + c)
        cell = self.level_grid(level).cell(row, col)
        return IndexNode(bounds=cell.bounds, level=level, path=tuple(path))

    def subgrid(self, node: IndexNode) -> RegularGrid:
        """The ``g x g`` grid partitioning an internal node's extent.

        This is the grid ``G_i`` over which MSM runs OPT at each step
        (Algorithm 1, line 7).
        """
        if node.level >= self._height:
            raise GridError(f"node at level {node.level} is a leaf; no subgrid")
        return RegularGrid(node.bounds, self._g)

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self._height):
            raise GridError(
                f"level {level} outside hierarchy of height {self._height}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalGrid(g={self._g}, h={self._height}, "
            f"leaf={self.leaf_granularity}x{self.leaf_granularity})"
        )
