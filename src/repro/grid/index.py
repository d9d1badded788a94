"""Generic spatial-index protocol for the multi-step mechanism.

The paper presents MSM over a hierarchical grid but notes (Section 4,
footnote 4) that "the MSM concept applies to any hierarchical data
structure without node overlap".  This module defines the small protocol
MSM actually needs so that
:class:`~repro.grid.hierarchy.HierarchicalGrid`,
:class:`~repro.grid.quadtree.QuadtreeIndex`,
:class:`~repro.grid.kdtree.KDTreeIndex`,
:class:`~repro.grid.str_index.STRIndex` and the road-network
:class:`~repro.graph.partition.GraphPartitionIndex` are interchangeable.
Node regions need not be boxes: ``IndexNode.bounds`` is only required to
*enclose* the node's region (graph nodes carry vertex-id sets and use
their bounding box purely as an envelope).

Boundary convention
-------------------
Children tile their parent, so a point on a shared internal edge lies in
two *closed* child boxes.  Every locate path — scalar scan, vectorised
arithmetic, and the compiled kernel — resolves such ties with one
half-open convention: child extents are min-closed / max-open, and each
node's own max edges fold into its last cell.  Applied recursively down
a walk, only the domain's max edges behave as closed.  Comparison-based
paths (the default scan, the k-d split test) implement the convention
exactly; arithmetic grids realise it through floor-and-clamp, where a
float bitwise-equal to a stored child edge may consistently resolve to
either neighbour (the stored edge is not always the floor-division
breakpoint).  The binding contract in all cases: scalar
``locate_child`` and vectorised ``locate_child_indices`` agree
byte-for-byte, including on exact edge and corner points (pinned by
``tests/test_boundary_convention.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class IndexNode:
    """A node of a hierarchical space partition.

    Attributes
    ----------
    bounds:
        The node's spatial extent.  Children partition the parent's
        extent exactly (no overlap, no gap).
    level:
        Depth below the (virtual) root; the root has level 0.
    path:
        The sequence of child positions leading from the root to this
        node.  ``path`` uniquely identifies the node and is hashable, so
        it doubles as a cache key for precomputed mechanisms.
    """

    bounds: BoundingBox
    level: int
    path: tuple[int, ...]

    @property
    def center(self) -> Point:
        """Representative point of the node's region.

        The engine uses this as the node's location whenever it needs a
        single point (OPT child locations, reported points, matrix
        rows).  For box-tiled indexes it is the box centre; subclasses
        with non-box regions (e.g. graph partitions) override it with a
        point guaranteed to lie in the region (a medoid vertex).
        """
        return self.bounds.center


@dataclass(frozen=True, slots=True)
class ChildGeometry:
    """Array description of one node's child layout.

    The compiled walk kernel locates points among a node's children with
    pure array operations; this record is the per-node recipe.  Four
    layouts compile:

    * ``kind="grid"`` — a regular ``gx x gy`` grid of equal cells, child
      position row-major ``row * gx + col``;
    * ``kind="split-x"`` / ``"split-y"`` — one axis-aligned binary
      split, child position the 0/1 side;
    * ``kind="tiles"`` — the children's own boxes, scanned the way the
      default :meth:`SpatialIndex.locate_child` scans them (first
      half-open match, else the last closed match).  The kernel reads
      the child bounds it already stores, so this is the default for
      any box-tiled index (the STR index) and needs no extra fields;
    * ``kind="member"`` — membership, for regions that are not boxes
      (the road-network partition).  A point's *key* is the index of
      its nearest row of ``sites`` (an ``(k, 2)`` coordinate array
      shared by every member node of the index); ``labels[key]`` is the
      child position, or -1 where the key is not a member of the node.
      Membership is authoritative: the kernel applies no envelope test
      to member nodes.

    Child position must equal the child's ``path[-1]``.  The float
    fields must be the *same expressions* the index's own
    ``locate_child_indices`` computes (e.g. ``cell_w = bounds.width /
    g``), and ``sites`` must be the coordinates the index snaps to, so
    the kernel's gathered arithmetic is bitwise identical to the
    index's per-node locate.
    """

    kind: str  # "grid" | "split-x" | "split-y" | "tiles" | "member"
    fanout: int
    gx: int = 1
    gy: int = 1
    cell_w: float = 0.0
    cell_h: float = 0.0
    split: float = 0.0
    labels: np.ndarray | None = None
    sites: np.ndarray | None = None


class SpatialIndex(abc.ABC):
    """A hierarchical, non-overlapping partition of a bounding box.

    MSM only requires: a root covering the domain, an ordered child list
    for every internal node, and point location among a node's children.
    """

    @property
    @abc.abstractmethod
    def bounds(self) -> BoundingBox:
        """Extent of the whole indexed domain."""

    @property
    @abc.abstractmethod
    def root(self) -> IndexNode:
        """The virtual root node covering :attr:`bounds`."""

    @abc.abstractmethod
    def children(self, node: IndexNode) -> list[IndexNode]:
        """Ordered children of ``node``; empty list if ``node`` is a leaf."""

    def is_leaf(self, node: IndexNode) -> bool:
        """Return True if ``node`` has no children."""
        return not self.children(node)

    def locate_child(self, node: IndexNode, p: Point) -> IndexNode | None:
        """Return the child of ``node`` whose extent contains ``p``.

        Returns None when ``p`` is outside ``node`` (or ``node`` is a
        leaf).  The scan applies the index-wide boundary convention:
        each child is tested half-open (min-closed / max-open) first,
        so a point on a shared internal edge resolves to the higher
        cell; points on the node's own max edges match no half-open
        box and fall back to the last closed match, folding into the
        last cell — the same result the vectorised floor-and-clamp
        arithmetic produces.  Concrete indexes override with O(1)
        arithmetic where possible.
        """
        best: IndexNode | None = None
        for child in self.children(node):
            b = child.bounds
            if b.min_x <= p.x < b.max_x and b.min_y <= p.y < b.max_y:
                return child
            if b.contains(p):
                best = child
        return best

    def locate_child_indices(
        self, node: IndexNode, coords: np.ndarray
    ) -> np.ndarray:
        """Child position of each coordinate pair among ``node``'s children.

        ``coords`` is an ``(m, 2)`` array of x/y pairs; the result is a
        length-``m`` int64 array holding each point's child position
        (``child.path[-1]``), or ``-1`` where the point falls outside
        ``node`` (the batch walk then applies the Algorithm 1 lines 9-10
        uniform fallback).  The default implementation loops over
        :meth:`locate_child`; grids with arithmetic addressing override
        it with a fully vectorised version.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        out = np.full(coords.shape[0], -1, dtype=np.int64)
        if self.is_leaf(node):
            return out
        for i, (x, y) in enumerate(coords):
            child = self.locate_child(node, Point(float(x), float(y)))
            if child is not None:
                out[i] = child.path[-1]
        return out

    def membership_keys(self, coords: np.ndarray) -> np.ndarray | None:
        """Per-coordinate region keys, or None when regions are boxes.

        Indexes whose regions are not boxes return each coordinate's
        key (the graph partition: its nearest road vertex), so a caller
        testing the same coordinates against many nodes snaps them once
        and hands the keys to every :meth:`contains_mask` call.
        """
        return None

    def contains_mask(
        self,
        node: IndexNode,
        coords: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean mask of the coordinates lying in ``node``'s region.

        Used by the engine to fold a prior onto a node (e.g. the
        uniform-fallback weights of Algorithm 1).  The default applies
        the half-open convention to the node's box (min-closed /
        max-open), which partitions sibling extents exactly for
        box-tiled indexes, and ignores ``keys``; indexes whose regions
        are not boxes (the graph partition) override it with true
        region membership, read from ``keys`` when the caller passes
        :meth:`membership_keys` of the same coordinates.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        b = node.bounds
        return (
            (coords[:, 0] >= b.min_x)
            & (coords[:, 0] < b.max_x)
            & (coords[:, 1] >= b.min_y)
            & (coords[:, 1] < b.max_y)
        )

    def child_geometry(self, node: IndexNode) -> "ChildGeometry | None":
        """Compilable child layout of internal ``node``.

        The default locates among the children's own boxes
        (``kind="tiles"``), which replays :meth:`locate_child`'s scan;
        indexes with arithmetic or membership addressing override it.
        """
        return ChildGeometry(kind="tiles", fanout=len(self.children(node)))

    def max_height(self) -> int:
        """Maximum leaf depth of the index (root is depth 0)."""
        height = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            kids = self.children(node)
            if not kids:
                height = max(height, depth)
            else:
                stack.extend((k, depth + 1) for k in kids)
        return height

    def leaves(self) -> list[IndexNode]:
        """All leaf nodes, in depth-first order."""
        out: list[IndexNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            kids = self.children(node)
            if not kids:
                out.append(node)
            else:
                stack.extend(reversed(kids))
        return out

    def node_count(self) -> int:
        """Total number of nodes, including the root."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(self.children(node))
        return count
