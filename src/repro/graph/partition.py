"""Hierarchical graph partition playing the GIHI role.

The paper observes (Section 4, footnote 4) that MSM applies to *any*
hierarchical partition without overlap.  :class:`GraphPartitionIndex`
takes that literally for road networks: nodes are **vertex sets**, not
rectangles.  Each internal node's vertex set is split into ``fanout``
balanced, mostly-connected parts by METIS-style recursive BFS bisection
(grow a half from a peripheral seed until it holds its share of
vertices, recurse), down to ``height`` levels.

The partition is exposed through the ordinary
:class:`~repro.grid.index.SpatialIndex` protocol so the walk engine,
the node-mechanism cache, the privacy guard and warm-start all run
unchanged:

* a node's ``bounds`` is only an *envelope* of its vertices (sibling
  envelopes may overlap — nothing in the engine uses them to locate);
* ``locate_child`` / ``locate_child_indices`` snap the point to its
  nearest road vertex and look the vertex up in the child partition —
  scalar and vectorised paths share the exact same snap, so they agree
  byte-for-byte;
* ``contains_mask`` is true vertex-set membership, so the engine folds
  the prior onto real regions rather than onto envelopes;
  ``membership_keys`` exposes the snap, so a caller testing one
  coordinate set against many nodes snaps it once;
* ``child_geometry`` is a ``kind="member"`` layout: the per-vertex
  child-slot labels this index already locates with, plus the vertex
  coordinates it snaps to.  The compiled kernel snaps each batch once
  and locates every level with one label gather, bitwise identical to
  the index's own per-node snap-and-lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import GridError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.graph.city import RoadGraph
from repro.grid.index import ChildGeometry, IndexNode, SpatialIndex

#: Above this vertex count the medoid is approximated by the vertex
#: nearest the centroid (the exact medoid is O(k^2) in memory).
_EXACT_MEDOID_MAX = 1500


@dataclass(frozen=True, slots=True)
class GraphIndexNode(IndexNode):
    """An :class:`IndexNode` whose region is a road-vertex set.

    ``bounds`` is the padded envelope of the member vertices (envelopes
    of siblings may overlap; membership is authoritative).  ``center``
    is the medoid member vertex — a real network location, so OPT child
    locations and reported points always lie on the road graph.
    """

    vertex_ids: tuple[int, ...] = ()
    medoid: int = -1
    medoid_x: float = 0.0
    medoid_y: float = 0.0

    @property
    def center(self) -> Point:
        """The medoid member vertex's planar location."""
        return Point(self.medoid_x, self.medoid_y)


class _VertexBin(NamedTuple):
    index: int


class VertexBins:
    """Duck-typed ``RegularGrid`` stand-in binning points by vertex.

    :func:`repro.eval.privacy.sample_leaf_counts` only needs
    ``n_cells`` and ``locate(z).index``; over a road network the
    natural output cells are the vertices themselves.
    """

    def __init__(self, graph: RoadGraph):
        self._graph = graph

    @property
    def n_cells(self) -> int:
        return self._graph.n_vertices

    def locate(self, p: Point) -> _VertexBin:
        return _VertexBin(self._graph.nearest_vertex(p))


class GraphPartitionIndex(SpatialIndex):
    """Balanced hierarchical partition of a road graph's vertex set.

    Parameters
    ----------
    graph:
        The road network to partition.
    fanout:
        Children per internal node (each child receives
        ``1/fanout`` of the parent's vertices, up to rounding).
    height:
        Number of levels below the root; the graph must have at least
        ``fanout ** height`` vertices so every leaf is non-empty.
    """

    def __init__(self, graph: RoadGraph, fanout: int = 4, height: int = 2):
        if fanout < 2:
            raise GridError(f"fanout must be >= 2, got {fanout}")
        if height < 1:
            raise GridError(f"height must be >= 1, got {height}")
        n = graph.n_vertices
        if n < fanout**height:
            raise GridError(
                f"graph has {n} vertices; a fanout={fanout} height={height} "
                f"partition needs at least {fanout ** height}"
            )
        self._graph = graph
        self._fanout = fanout
        self._height = height
        self._pad = 1e-9 * max(
            1.0, graph.bounds.width, graph.bounds.height
        )
        self._children: dict[tuple[int, ...], list[GraphIndexNode]] = {}
        self._child_of_vertex: dict[tuple[int, ...], np.ndarray] = {}
        self._member: dict[tuple[int, ...], np.ndarray] = {}
        all_vs = np.arange(n, dtype=np.int64)
        self._root = self._make_node(all_vs, 0, ())
        self._build(self._root, all_vs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _make_node(
        self, vs: np.ndarray, level: int, path: tuple[int, ...]
    ) -> GraphIndexNode:
        coords = self._graph.coords
        pts = coords[vs]
        pad = self._pad
        bounds = BoundingBox(
            float(pts[:, 0].min()) - pad,
            float(pts[:, 1].min()) - pad,
            float(pts[:, 0].max()) + pad,
            float(pts[:, 1].max()) + pad,
        )
        med = self._medoid(vs)
        member = np.zeros(self._graph.n_vertices, dtype=bool)
        member[vs] = True
        self._member[path] = member
        return GraphIndexNode(
            bounds=bounds,
            level=level,
            path=path,
            vertex_ids=tuple(int(v) for v in vs),
            medoid=int(med),
            medoid_x=float(coords[med, 0]),
            medoid_y=float(coords[med, 1]),
        )

    def _medoid(self, vs: np.ndarray) -> int:
        """Member vertex minimising total planar distance to the others
        (nearest-to-centroid approximation for very large sets)."""
        pts = self._graph.coords[vs]
        if vs.size == 1:
            return int(vs[0])
        if vs.size > _EXACT_MEDOID_MAX:
            centroid = pts.mean(axis=0)
            best = int(
                np.argmin(np.hypot(*(pts - centroid).T))
            )
            return int(vs[best])
        diff = pts[:, None, :] - pts[None, :, :]
        total = np.sqrt((diff * diff).sum(axis=2)).sum(axis=1)
        return int(vs[int(np.argmin(total))])

    def _build(self, node: GraphIndexNode, vs: np.ndarray) -> None:
        if node.level >= self._height:
            return
        parts = self._balanced_parts(vs, self._fanout)
        vmap = np.full(self._graph.n_vertices, -1, dtype=np.int64)
        kids: list[GraphIndexNode] = []
        for pos, part in enumerate(parts):
            kid = self._make_node(part, node.level + 1, node.path + (pos,))
            kids.append(kid)
            vmap[part] = pos
        self._children[node.path] = kids
        self._child_of_vertex[node.path] = vmap
        for kid, part in zip(kids, parts):
            self._build(kid, part)

    def _balanced_parts(self, vs: np.ndarray, k: int) -> list[np.ndarray]:
        """Recursive balanced bisection of ``vs`` into ``k`` parts."""
        if k == 1:
            return [vs]
        k_left = k // 2
        target = int(round(vs.size * k_left / k))
        target = min(max(target, k_left), vs.size - (k - k_left))
        left = self._grow(vs, target)
        in_left = np.zeros(self._graph.n_vertices, dtype=bool)
        in_left[left] = True
        right = vs[~in_left[vs]]
        return self._balanced_parts(left, k_left) + self._balanced_parts(
            right, k - k_left
        )

    def _grow(self, vs: np.ndarray, target: int) -> np.ndarray:
        """Grow a ``target``-vertex region by BFS from a peripheral seed.

        When the induced subgraph is disconnected and a component runs
        dry before the target, growth restarts from the smallest
        untouched member vertex, so the result always has exactly
        ``target`` vertices.
        """
        csr = self._graph.csr
        indptr, indices = csr.indptr, csr.indices
        member = np.zeros(self._graph.n_vertices, dtype=bool)
        member[vs] = True
        seed = self._peripheral(vs, member)
        picked: list[int] = []
        visited = np.zeros(self._graph.n_vertices, dtype=bool)
        visited[seed] = True
        queue: deque[int] = deque([seed])
        fresh = iter(vs)
        while len(picked) < target:
            if not queue:
                for v in fresh:
                    v = int(v)
                    if not visited[v]:
                        visited[v] = True
                        queue.append(v)
                        break
                continue
            v = queue.popleft()
            picked.append(v)
            for nb in indices[indptr[v]:indptr[v + 1]]:
                nb = int(nb)
                if member[nb] and not visited[nb]:
                    visited[nb] = True
                    queue.append(nb)
        return np.sort(np.asarray(picked, dtype=np.int64))

    def _peripheral(self, vs: np.ndarray, member: np.ndarray) -> int:
        """A peripheral vertex: BFS-farthest (by hops) from ``vs[0]``
        within the induced subgraph, smallest id on ties."""
        csr = self._graph.csr
        indptr, indices = csr.indptr, csr.indices
        start = int(vs[0])
        dist = {start: 0}
        queue: deque[int] = deque([start])
        far, far_d = start, 0
        while queue:
            v = queue.popleft()
            d = dist[v]
            if d > far_d or (d == far_d and v < far):
                far, far_d = v, d
            for nb in indices[indptr[v]:indptr[v + 1]]:
                nb = int(nb)
                if member[nb] and nb not in dist:
                    dist[nb] = d + 1
                    queue.append(nb)
        return far

    # ------------------------------------------------------------------
    # SpatialIndex protocol
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoadGraph:
        return self._graph

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def height(self) -> int:
        return self._height

    @property
    def bounds(self) -> BoundingBox:
        return self._root.bounds

    @property
    def root(self) -> IndexNode:
        return self._root

    def children(self, node: IndexNode) -> list[IndexNode]:
        return list(self._children.get(node.path, ()))

    def locate_child(self, node: IndexNode, p: Point) -> IndexNode | None:
        kids = self._children.get(node.path)
        if kids is None:
            return None
        v = self._graph.nearest_vertex(p)
        pos = int(self._child_of_vertex[node.path][v])
        return kids[pos] if pos >= 0 else None

    def locate_child_indices(
        self, node: IndexNode, coords: np.ndarray
    ) -> np.ndarray:
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        vmap = self._child_of_vertex.get(node.path)
        if vmap is None or coords.shape[0] == 0:
            return np.full(coords.shape[0], -1, dtype=np.int64)
        return vmap[self._graph.nearest_vertices(coords)]

    def membership_keys(self, coords: np.ndarray) -> np.ndarray:
        return self._graph.nearest_vertices(coords)

    def contains_mask(
        self,
        node: IndexNode,
        coords: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> np.ndarray:
        if keys is None:
            keys = self.membership_keys(coords)
        return self._member[node.path][keys]

    def child_geometry(self, node: IndexNode) -> ChildGeometry | None:
        labels = self._child_of_vertex.get(node.path)
        if labels is None:
            return None
        return ChildGeometry(
            kind="member",
            fanout=self._fanout,
            labels=labels,
            sites=self._graph.coords,
        )

    def max_height(self) -> int:
        return self._height
