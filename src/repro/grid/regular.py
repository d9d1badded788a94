"""Regular ``g x g`` grids over a bounding box.

The regular grid is the discretisation device of the whole paper: priors
are histograms over grid cells, OPT's location sets X = Z are the cell
centres, and the hierarchical index is a stack of regular grids.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import GridError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point, points_to_array
from repro.grid.cell import Cell


class RegularGrid:
    """A ``g x g`` regular partition of a bounding box.

    Cells are addressed in row-major order with row 0 at the bottom
    (minimum y).  Points on shared edges are assigned to the cell with the
    larger index (standard half-open convention), except on the domain's
    top/right boundary which folds into the last row/column so every point
    of the closed domain belongs to exactly one cell.
    """

    def __init__(self, bounds: BoundingBox, granularity: int):
        if granularity < 1:
            raise GridError(f"granularity must be >= 1, got {granularity}")
        self._bounds = bounds
        self._g = granularity
        self._cell_w = bounds.width / granularity
        self._cell_h = bounds.height / granularity

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> BoundingBox:
        """Spatial extent of the whole grid."""
        return self._bounds

    @property
    def granularity(self) -> int:
        """Number of cells per axis (``g``)."""
        return self._g

    @property
    def n_cells(self) -> int:
        """Total number of cells (``g^2``)."""
        return self._g * self._g

    @property
    def cell_width(self) -> float:
        """Cell extent along x in km."""
        return self._cell_w

    @property
    def cell_height(self) -> float:
        """Cell extent along y in km."""
        return self._cell_h

    def __len__(self) -> int:
        return self.n_cells

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegularGrid(g={self._g}, bounds={self._bounds})"

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def cell(self, row: int, col: int) -> Cell:
        """Return the cell at ``(row, col)``."""
        if not (0 <= row < self._g and 0 <= col < self._g):
            raise GridError(
                f"cell ({row}, {col}) outside a {self._g} x {self._g} grid"
            )
        b = BoundingBox(
            self._bounds.min_x + col * self._cell_w,
            self._bounds.min_y + row * self._cell_h,
            self._bounds.min_x + (col + 1) * self._cell_w,
            self._bounds.min_y + (row + 1) * self._cell_h,
        )
        return Cell(row=row, col=col, index=row * self._g + col, bounds=b)

    def cell_by_index(self, index: int) -> Cell:
        """Return the cell with row-major linear ``index``."""
        if not (0 <= index < self.n_cells):
            raise GridError(f"cell index {index} outside grid of {self.n_cells} cells")
        return self.cell(index // self._g, index % self._g)

    def cells(self) -> Iterator[Cell]:
        """Iterate over all cells in row-major order."""
        for index in range(self.n_cells):
            yield self.cell_by_index(index)

    def locate(self, p: Point) -> Cell:
        """Return the cell enclosing ``p``.

        Raises
        ------
        GridError
            If ``p`` lies outside the grid bounds.
        """
        if not self._bounds.contains(p):
            raise GridError(f"point {p} outside grid bounds {self._bounds}")
        col = min(int((p.x - self._bounds.min_x) / self._cell_w), self._g - 1)
        row = min(int((p.y - self._bounds.min_y) / self._cell_h), self._g - 1)
        return self.cell(row, col)

    def snap(self, p: Point) -> Point:
        """Snap ``p`` to the centre of its enclosing cell (its logical location)."""
        return self.locate(p).center

    def snap_clamped(self, p: Point) -> Point:
        """Snap ``p`` after clamping it into the grid bounds.

        Used when post-processing continuous mechanism output (planar
        Laplace noise can leave the domain).
        """
        return self.locate(self._bounds.clamp(p)).center

    # ------------------------------------------------------------------
    # bulk geometry (hot paths for LP construction and priors)
    # ------------------------------------------------------------------
    def centers(self) -> list[Point]:
        """All cell centres in row-major order."""
        return [c.center for c in self.cells()]

    def centers_array(self) -> np.ndarray:
        """All cell centres as an ``(n_cells, 2)`` float array."""
        half_w = self._cell_w / 2.0
        half_h = self._cell_h / 2.0
        cols = np.arange(self._g)
        xs = self._bounds.min_x + cols * self._cell_w + half_w
        ys = self._bounds.min_y + cols * self._cell_h + half_h
        gx, gy = np.meshgrid(xs, ys)  # gy varies by row, gx by col
        return np.column_stack([gx.ravel(), gy.ravel()])

    def locate_indices(self, coords: np.ndarray) -> np.ndarray:
        """Row-major cell index of each ``(n, 2)`` coordinate; -1 for a
        coordinate outside the grid bounds.

        The array form of :meth:`locate`, computed with the same
        expressions, so the two agree on every edge point.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        b = self._bounds
        x, y = coords[:, 0], coords[:, 1]
        inside = (x >= b.min_x) & (x <= b.max_x) & (y >= b.min_y) & (y <= b.max_y)
        cols = np.minimum(
            ((x[inside] - b.min_x) / self._cell_w).astype(np.int64), self._g - 1
        )
        rows = np.minimum(
            ((y[inside] - b.min_y) / self._cell_h).astype(np.int64), self._g - 1
        )
        index = np.full(coords.shape[0], -1, dtype=np.int64)
        index[inside] = rows * self._g + cols
        return index

    def histogram(self, points: Sequence[Point]) -> np.ndarray:
        """Count points per cell; out-of-bounds points are ignored.

        Returns a length ``n_cells`` integer array in row-major order.
        """
        index = self.locate_indices(points_to_array(points))
        return np.bincount(index[index >= 0], minlength=self.n_cells)

    def neighbors(self, cell: Cell, diagonal: bool = False) -> list[Cell]:
        """Return the 4- (or 8-, with ``diagonal=True``) neighbourhood of a cell."""
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if diagonal:
            offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        out = []
        for dr, dc in offsets:
            r, c = cell.row + dr, cell.col + dc
            if 0 <= r < self._g and 0 <= c < self._g:
                out.append(self.cell(r, c))
        return out

    def expected_snap_distance(self) -> float:
        """Mean distance from a uniform point in a cell to the cell centre.

        For a unit square this is the constant ~0.3826 (Finch [14], cited
        by the paper when discussing discretisation loss), scaled here by
        the cell side.
        """
        # E[dist to centre of unit square] = (sqrt(2) + asinh(1)) / 6
        unit = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0
        return unit * max(self._cell_w, self._cell_h)
