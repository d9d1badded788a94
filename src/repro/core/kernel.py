"""The compiled walk kernel: the index tree as flat arrays.

:class:`CompiledWalk` is the one implementation of the MSM level walk.
It holds the tree in struct-of-arrays form:

* **CSR child topology** over dense integer node ids (BFS order, root
  id 0): ``child_start``/``child_count`` index into ``child_ids``;
* **packed child geometry** per node (grid origin/cell size/shape, or
  the binary split coordinate) so locating a whole level of points is a
  handful of gathered array expressions.  Box-tiled nodes without
  arithmetic addressing (the STR index) locate among their children's
  stored bounds with the default scan's tie-break.  Every internal node
  of one level shares one kind (``level_kind``; a tree that mixes kinds
  on a level does not compile), so a level is located in one pass of
  that kind's expressions;
* **membership labels** for indexes whose regions are not boxes (the
  road-network partition): every member node's per-key child-slot
  labels concatenated into one ``member_labels`` array addressed by a
  per-node ``label_offset``.  Each point is snapped to its key (nearest
  of the ``snap_coords`` sites) once per batch, and a member level is
  one gather ``member_labels[label_offset[ids] + keys]``.  The snap is
  raster-first (:class:`_SnapIndex`): a table over the sites' envelope
  answers points in cells with one provably nearest site, and a
  cKDTree answers the rest;
* **stacked CDF arenas** per level: node mechanisms'
  :attr:`~repro.mechanisms.matrix.MechanismMatrix.cdf` rows
  concatenated into one contiguous ``(rows, fanout)`` array, with a
  per-node ``row_offset`` table, so sampling a level is one cross-node
  row gather and one vectorised CDF inversion.

:func:`compile_walk` builds the topology and geometry of the whole tree
(no LP is solved) and fills the CDF rows of the node mechanisms the
cache already holds.  An internal node whose mechanism is missing is
*pending* (``row_offset == -1``): the walk resolves a level's pending
nodes through a ``resolve`` hook — the engine's cache and resilient
solver — before that level draws anything, and continues on the grown
snapshot.  Growing is copy-on-write over the same node ids
(:meth:`CompiledWalk.with_entries`), so a concurrent walk never reads a
half-grown arena.  A snapshot whose ``complete`` flag is set skips the
pending check altogether.

The float fields are the *same expressions* each index's own locate
computes (the ``child_geometry`` contract), the snap's table holds a
site only where it is the strict nearest by a margin that covers float
rounding and sends everything else to a rebuild of the index's
nearest-site tree, and sampling uses the same comparison-count
inversion as ``MechanismMatrix.sample_rows``, so on a shared seed the
kernel is bitwise identical to the Algorithm-1 reference walk in
:mod:`repro.testing.oracle` — the test suite holds the two to byte
equality on every index in the repository.

A compiled walk records the cache ``version`` it was built against;
when the cache has since evicted, replaced or cleared entries the
engine refills its CDF rows from the cache
(:meth:`CompiledWalk.refilled`) — the eviction→invalidation contract.
Topology and geometry never depend on the cache, so they are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.exceptions import MechanismError
from repro.geo.point import Point
from repro.grid.index import IndexNode
from repro.mechanisms.matrix import invert_cdf_rows
from repro.obs import NOOP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import CacheEntry, NodeMechanismCache
    from repro.core.engine import WalkEngine

#: ``kind`` codes (int8): how a node's children are located.
KIND_TERMINAL = -1
KIND_GRID = 0
KIND_SPLIT_X = 1
KIND_SPLIT_Y = 2
KIND_MEMBER = 3
KIND_TILES = 4

_KIND_CODE = {
    "grid": KIND_GRID,
    "split-x": KIND_SPLIT_X,
    "split-y": KIND_SPLIT_Y,
    "member": KIND_MEMBER,
    "tiles": KIND_TILES,
}

#: The per-node array fields of :class:`CompiledWalk` and their dtypes,
#: in persistence order.
_NODE_ARRAYS = {
    "kind": np.int8,
    **dict.fromkeys(("min_x", "min_y", "max_x", "max_y", "cell_w", "cell_h"), float),
    **dict.fromkeys(("gx", "gy"), np.int64),
    **dict.fromkeys(("split", "center_x", "center_y"), float),
    **dict.fromkeys(
        ("level", "child_start", "child_count", "child_ids", "row_offset",
         "label_offset", "member_labels"),
        np.int64,
    ),
    "snap_coords": float,
    "degraded": bool,
}

#: ``resolve(walk, level, ids)`` hook: fill the pending nodes ``ids``
#: (distinct, in first-visit order) and return the grown snapshot.
Resolver = Callable[["CompiledWalk", int, np.ndarray], "CompiledWalk"]


@dataclass(frozen=True)
class LevelArrays:
    """One level's walk outcome, in arrays (for telemetry and traces).

    ``active`` holds batch indices (ascending), ``ids`` the node id each
    active point walked from, and ``x_hat``/``drifted``/``reported`` the
    per-point step outcome — everything the engine needs to materialise
    exact counters, traces and degradation reports lazily.
    """

    level: int
    active: np.ndarray
    ids: np.ndarray
    x_hat: np.ndarray
    drifted: np.ndarray
    reported: np.ndarray


class _SnapIndex:
    """Exact nearest-site lookup: a raster table first, a cKDTree after.

    The raster covers the sites' envelope with about ``8 * sqrt(k)``
    cells per axis (one cell on an axis the sites do not span).  A cell
    holds site ``s`` only when ``s`` is the nearest site of all four of
    its corners, each by a squared-distance gap ``d2**2 - d1**2`` above
    ``tol``; every other cell holds -1.  A point in a pure cell takes
    its entry; every other point (an impure cell, outside the envelope,
    non-finite) goes to ``tree``, a ``cKDTree`` over the sites built as
    :class:`~repro.graph.city.RoadGraph` builds its own, so ties and
    errors are the tree's.

    Why a table entry is exact: for sites ``s`` and ``t`` the gap
    ``f(p) = |p - t|**2 - |p - s|**2`` is affine in ``p``, so if it is
    at least ``tol`` at a cell's four corners it is at least ``tol``
    over the whole cell.  The margin absorbs float rounding, with
    ``D`` the envelope diagonal (a bound on every site-site and
    point-site distance inside the envelope), ``M`` the largest
    absolute envelope coordinate and ``eps`` the float64 unit
    roundoff: a squared distance is computed to within ``4 eps d**2``,
    so the corner gaps, the tree's top-two choice at a corner and the
    tree's comparisons (and pruning) at a query point each move a gap
    by at most ``8 eps D**2``; and the float cell assignment and
    corner coordinates place a point at most ``7 eps (M + D)`` outside
    its cell on each axis, where ``f`` changes by at most ``2 D`` per
    unit per axis.  That totals under ``60 eps D (D + M)``; ``tol`` is
    ``128 eps D (D + M)``, so a point in a pure cell has the table's
    site as the tree's strict nearest.  ``M`` keeps the bound valid for
    coordinates far from the origin.
    """

    def __init__(self, sites: np.ndarray) -> None:
        self.tree = cKDTree(sites)
        lo = sites.min(axis=0)
        hi = sites.max(axis=0)
        span = hi - lo
        r = max(1, round(8.0 * np.sqrt(sites.shape[0])))
        self.shape = tuple(int(r) if s > 0 else 1 for s in span)
        nx, ny = self.shape
        self.lo = lo
        self.hi = hi
        # cells per unit; 0 on an unspanned axis (every point: cell 0)
        self.scale = np.array(
            [n / s if s > 0 else 0.0 for n, s in zip(self.shape, span)]
        )
        self.xs = lo[0] + span[0] * np.arange(nx + 1) / nx
        self.ys = lo[1] + span[1] * np.arange(ny + 1) / ny
        self.xs[-1], self.ys[-1] = hi
        diag = float(np.hypot(*span))
        big = float(np.max(np.abs([lo, hi])))
        tol = 128.0 * np.finfo(float).eps * diag * (diag + big)
        cx, cy = np.meshgrid(self.xs, self.ys)  # (ny + 1, nx + 1)
        corners = np.column_stack([cx.ravel(), cy.ravel()])
        _, near = self.tree.query(corners, k=2)
        # the tree reports a lone site's missing neighbour as index k
        padded = np.vstack([sites, np.full((1, 2), np.inf)])
        d1, d2 = ((corners[:, None, :] - padded[near]) ** 2).sum(axis=2).T
        label = np.where(d2 - d1 > tol, near[:, 0], -1).reshape(ny + 1, nx + 1)
        cell = label[:-1, :-1]
        pure = (
            (cell >= 0)
            & (cell == label[1:, :-1])
            & (cell == label[:-1, 1:])
            & (cell == label[1:, 1:])
        )
        self.table = np.where(pure, cell, -1).astype(np.int64).ravel()

    def query(self, coords: np.ndarray) -> np.ndarray:
        """Index of each ``(m, 2)`` coordinate's nearest site (int64)."""
        x = coords[:, 0]
        y = coords[:, 1]
        (x0, y0), (x1, y1) = self.lo, self.hi
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        everywhere = bool(inside.all())
        if not everywhere:  # park the rest on cell 0 (no NaN casts)
            x = np.where(inside, x, x0)
            y = np.where(inside, y, y0)
        nx, ny = self.shape
        sx, sy = self.scale
        col = ((x - x0) * sx).astype(np.int64)
        np.minimum(col, nx - 1, out=col)
        row = ((y - y0) * sy).astype(np.int64)
        np.minimum(row, ny - 1, out=row)
        row *= nx
        row += col
        keys = self.table[row]
        if not everywhere:
            keys[~inside] = -1
        miss = np.flatnonzero(keys < 0)
        if miss.size:
            keys[miss] = self.tree.query(coords[miss])[1]
        return keys


@dataclass
class CompiledWalk:
    """The index tree compiled to flat arrays (see module docstring)."""

    # per-node geometry / topology (all indexed by node id)
    kind: np.ndarray  # int8 kind codes
    min_x: np.ndarray
    min_y: np.ndarray
    max_x: np.ndarray
    max_y: np.ndarray
    cell_w: np.ndarray
    cell_h: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    split: np.ndarray
    center_x: np.ndarray
    center_y: np.ndarray
    level: np.ndarray  # 0-based node depth
    child_start: np.ndarray
    child_count: np.ndarray
    child_ids: np.ndarray
    row_offset: np.ndarray  # start row in the node's level arena, -1 terminal/pending
    label_offset: np.ndarray  # start of the node's labels, -1 non-member
    member_labels: np.ndarray  # child slot per (member node, key), -1 outside
    snap_coords: np.ndarray  # (k, 2) sites a key indexes; (0, 2) when unused
    # per-node provenance (for lazy trace / degradation materialisation)
    degraded: np.ndarray  # bool
    source: list[str]
    reason: list[str]  # "" = no failure reason
    # per-level CDF arenas, index ``level`` (0-based)
    cdf_levels: list[np.ndarray]
    budgets: tuple[float, ...]
    #: root→node child-position paths, reconstructable from the CSR
    paths: list[tuple[int, ...]]
    #: cache content version this snapshot was compiled against
    cache_version: int = 0
    #: the index nodes behind the ids (None for a snapshot loaded from
    #: arrays; only a snapshot with nodes can resolve pending ones)
    nodes: list[IndexNode] | None = field(
        default=None, repr=False, compare=False
    )
    #: True when no internal node is pending
    complete: bool = field(init=False, repr=False, compare=False)
    #: the kind code every internal node of each level shares
    #: (``KIND_TERMINAL`` on a level without internal nodes)
    level_kind: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: nearest-site index over ``snap_coords``, built on first snap
    _snap_index: _SnapIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: every node's centre as a :class:`Point`, built on first use
    _center_points: list[Point] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        internal = self.child_count > 0
        self.complete = bool(np.all(self.row_offset[internal] >= 0))
        levels = self.level[internal]
        kinds = self.kind[internal]
        per_level = np.full(self.n_levels, KIND_TERMINAL, dtype=np.int8)
        per_level[levels] = kinds
        mixed = np.flatnonzero(per_level[levels] != kinds)
        if mixed.size:
            raise MechanismError(
                f"level {levels[mixed[0]] + 1} mixes child kinds"
            )
        self.level_kind = tuple(per_level.tolist())

    @property
    def n_nodes(self) -> int:
        return int(self.kind.size)

    @property
    def n_levels(self) -> int:
        return len(self.budgets)

    @property
    def nbytes(self) -> int:
        """Total bytes of the flat numeric arrays (what an arena maps).

        The per-level CDF arenas dominate; this is the figure the
        serving pool reports as ``repro_pool_arena_bytes`` — one copy
        machine-wide regardless of worker count.
        """
        total = sum(
            np.asarray(value).nbytes
            for key, value in self.to_arrays().items()
            if key not in ("source", "reason")
        )
        return int(total)

    # ------------------------------------------------------------------
    # the fused walk
    # ------------------------------------------------------------------
    def walk_arrays(
        self,
        coords: np.ndarray,
        rng: np.random.Generator,
        tracer: Any | None = None,
        resolve: Resolver | None = None,
    ) -> tuple[np.ndarray, list[LevelArrays]]:
        """Walk every point root-to-leaf with flat per-level passes.

        Returns the final node id per point plus the per-level arrays.
        Per level: pending nodes are resolved first (through
        ``resolve``; an incomplete snapshot without one raises
        :class:`~repro.exceptions.MechanismError`), then one
        ``rng.random(n_drifted)`` draw (skipped when no point drifted)
        picks the drifted points' uniform children and one
        ``rng.random(n_active)`` draw inverts the CDF rows, both in
        ascending batch order.  Each level is located by the one kind
        its internal nodes share (``level_kind``).  A member tree snaps
        every point to its key once, up front, and locates each level
        with one label gather.  On a level where every point is still
        walking (every level of a uniform-depth tree) the batch arrays
        are used as they are, not gathered.  With a ``tracer`` each
        level opens a ``level`` span
        holding ``locate`` (with ``drifted``), ``sample`` and
        ``descend`` spans, after the resolve hook's own spans.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        n = coords.shape[0]
        cur = np.zeros(n, dtype=np.int64)
        levels: list[LevelArrays] = []
        if n == 0:
            return cur, levels
        span = (tracer if tracer is not None else NOOP.tracer).span
        x = coords[:, 0]
        y = coords[:, 1]
        keys = self._snap(coords) if self.snap_coords.shape[0] else None
        walk = self
        for lvl, kind in enumerate(self.level_kind):
            active = np.flatnonzero(walk.child_count[cur] > 0)
            if active.size == 0:
                break
            every = active.size == n
            ids = cur if every else cur[active]
            with span("level", level=lvl + 1, epsilon=self.budgets[lvl]):
                if not walk.complete:
                    walk = walk._fill_pending(ids, lvl + 1, resolve)
                with span("locate", n=active.size) as sp:
                    if kind == KIND_MEMBER:
                        # membership is authoritative: no envelope test
                        # (sibling envelopes overlap, and a point outside
                        # one can still snap to a member vertex)
                        x_hat = walk.member_labels[
                            walk.label_offset[ids]
                            + (keys if every else keys[active])
                        ]
                    elif every:
                        x_hat = walk._locate_boxes(kind, ids, x, y)
                    else:
                        x_hat = walk._locate_boxes(
                            kind, ids, x[active], y[active]
                        )
                    drifted = x_hat < 0
                    n_drifted = int(drifted.sum())
                    if n_drifted:
                        r = rng.random(n_drifted)
                        fan = walk.child_count[ids[drifted]]
                        x_hat[drifted] = np.minimum(
                            (r * fan).astype(np.int64), fan - 1
                        )
                    if sp is not None:
                        sp.attributes["drifted"] = n_drifted
                with span("sample", n=active.size):
                    u = rng.random(active.size)
                    reported = invert_cdf_rows(
                        walk.cdf_levels[lvl][walk.row_offset[ids] + x_hat], u
                    )
                with span("descend", n=active.size):
                    child = walk.child_ids[walk.child_start[ids] + reported]
                    if every:  # ``ids`` is ``cur``: keep it intact
                        cur = child
                    else:
                        cur[active] = child
            levels.append(
                LevelArrays(lvl + 1, active, ids, x_hat, drifted, reported)
            )
        return cur, levels

    def _fill_pending(
        self, ids: np.ndarray, level: int, resolve: Resolver | None
    ) -> "CompiledWalk":
        """This snapshot, or the one ``resolve`` grows to cover ``ids``."""
        pending = ids[self.row_offset[ids] < 0]
        if pending.size == 0:
            return self
        if resolve is None:
            raise MechanismError(
                f"compiled walk lacks {np.unique(pending).size} level-{level} "
                f"node mechanisms and has no resolver"
            )
        # distinct ids in first-visit order, the order the reference
        # walk meets (and builds) them
        _, first = np.unique(pending, return_index=True)
        return resolve(self, level, pending[np.sort(first)])

    def _locate_boxes(
        self, kind: int, ids: np.ndarray, ax: np.ndarray, ay: np.ndarray
    ) -> np.ndarray:
        """Child slot of each active point among the children of its
        node, every one of ``kind`` grid, split or tiles; -1 (drifted)
        outside the node's box."""
        min_x = self.min_x[ids]
        min_y = self.min_y[ids]
        if kind == KIND_GRID:
            gx = self.gx[ids]
            cols = np.minimum(
                ((ax - min_x) / self.cell_w[ids]).astype(np.int64), gx - 1
            )
            rows = np.minimum(
                ((ay - min_y) / self.cell_h[ids]).astype(np.int64),
                self.gy[ids] - 1,
            )
            x_hat = rows * gx + cols
        elif kind == KIND_SPLIT_X:
            x_hat = (ax >= self.split[ids]).astype(np.int64)
        elif kind == KIND_SPLIT_Y:
            x_hat = (ay >= self.split[ids]).astype(np.int64)
        else:
            x_hat = self._locate_tiles(ids, ax, ay)
        inside = (
            (ax >= min_x)
            & (ax <= self.max_x[ids])
            & (ay >= min_y)
            & (ay <= self.max_y[ids])
        )
        x_hat[~inside] = -1
        return x_hat

    def _locate_tiles(
        self, ids: np.ndarray, ax: np.ndarray, ay: np.ndarray
    ) -> np.ndarray:
        """Replay :meth:`~repro.grid.index.SpatialIndex.locate_child`'s
        scan over each node's child boxes: the first half-open match,
        else the last closed match, else -1."""
        fanout = int(self.child_count[ids[0]])  # one fanout per level
        kids = self.child_ids[self.child_start[ids][:, None] + np.arange(fanout)]
        px = ax[:, None]
        py = ay[:, None]
        low = (self.min_x[kids] <= px) & (self.min_y[kids] <= py)
        max_x = self.max_x[kids]
        max_y = self.max_y[kids]
        closed = low & (px <= max_x) & (py <= max_y)
        half_open = low & (px < max_x) & (py < max_y)
        last_closed = fanout - 1 - closed[:, ::-1].argmax(axis=1)
        slot = np.where(
            half_open.any(axis=1), half_open.argmax(axis=1), last_closed
        )
        return np.where(closed.any(axis=1), slot, -1)

    @property
    def center_points(self) -> list[Point]:
        """Every node's centre (the point a walk ending there reports)
        as a :class:`Point`, indexed by node id.  Built once per tree
        and shared by every grown or refilled snapshot, so a batch's
        outputs are one gather over immutable points."""
        if self._center_points is None:
            self._center_points = list(
                map(Point, self.center_x.tolist(), self.center_y.tolist())
            )
        return self._center_points

    def _snap(self, coords: np.ndarray) -> np.ndarray:
        """Key of each ``(m, 2)`` coordinate: its nearest site's index.

        The :class:`_SnapIndex` is built from ``snap_coords`` on first
        use.  Points in a raster cell with one provably nearest site
        take it from the table; the rest query a cKDTree built with the
        construction :class:`~repro.graph.city.RoadGraph` uses, so ties
        resolve exactly as the index's own snap does.
        """
        if self._snap_index is None:
            self._snap_index = _SnapIndex(self.snap_coords)
        return self._snap_index.query(coords)

    # ------------------------------------------------------------------
    # growing and packing (copy-on-write)
    # ------------------------------------------------------------------
    def with_entries(
        self, ids: Sequence[int], entries: Sequence["CacheEntry"]
    ) -> "CompiledWalk":
        """A copy with the CDF rows of pending nodes ``ids`` filled in.

        ``self`` is left untouched and node ids are shared, so walks in
        flight on the old snapshot stay valid.  Nodes already filled
        (by a concurrent expansion) are skipped; new rows are appended
        to their level's arena in the order given.
        """
        row_offset = self.row_offset.copy()
        degraded = self.degraded.copy()
        source = list(self.source)
        reason = list(self.reason)
        cdf_levels = list(self.cdf_levels)
        blocks: dict[int, list[np.ndarray]] = {}
        for node_id, entry in zip(ids, entries):
            node_id = int(node_id)
            if row_offset[node_id] >= 0:
                continue
            fanout = int(self.child_count[node_id])
            if entry.matrix.shape != (fanout, fanout):
                raise MechanismError(
                    f"node {self.paths[node_id]}: mechanism shape "
                    f"{entry.matrix.shape} does not match its {fanout} "
                    f"children"
                )
            lvl = int(self.level[node_id])
            rows = blocks.setdefault(lvl, [])
            row_offset[node_id] = cdf_levels[lvl].shape[0] + fanout * len(rows)
            rows.append(entry.matrix.cdf)
            degraded[node_id] = entry.degraded
            source[node_id] = entry.source
            reason[node_id] = entry.reason or ""
        for lvl, rows in blocks.items():
            cdf_levels[lvl] = np.concatenate([cdf_levels[lvl], *rows])
        return self._with_rows(
            row_offset=row_offset,
            degraded=degraded,
            source=source,
            reason=reason,
            cdf_levels=cdf_levels,
        )

    def refilled(self, cache: "NodeMechanismCache") -> "CompiledWalk":
        """This tree's topology and geometry with every CDF row taken
        from ``cache`` afresh, stamped with the cache's version.

        Rows come from the cache's counter-neutral ``_peek``; a node
        the cache lacks (or has evicted) is pending again and resolves
        on its next visit.  Needs the snapshot's ``nodes``.
        """
        version = cache.version  # read first: a later change makes us stale
        cached = [
            (node_id, cache._peek(self.nodes[node_id].path))
            for node_id in np.flatnonzero(self.child_count > 0).tolist()
        ]
        cached = [(i, entry) for i, entry in cached if entry is not None]
        n_nodes = self.n_nodes
        empty = self._with_rows(
            row_offset=np.full(n_nodes, -1, dtype=np.int64),
            degraded=np.zeros(n_nodes, dtype=bool),
            source=[""] * n_nodes,
            reason=[""] * n_nodes,
            cdf_levels=[np.empty((0, cdf.shape[1])) for cdf in self.cdf_levels],
            cache_version=version,
        )
        return empty.with_entries(*zip(*cached)) if cached else empty

    def packed(self) -> "CompiledWalk":
        """The same snapshot with every level's rows in node-id order —
        the layout a compile from a warm cache produces, so compiles of
        the same cache content are bitwise equal however they grew."""
        row_offset = np.full_like(self.row_offset, -1)
        cdf_levels = []
        for lvl, cdf in enumerate(self.cdf_levels):
            ids = np.flatnonzero((self.level == lvl) & (self.row_offset >= 0))
            fanout = cdf.shape[1]
            rows = self.row_offset[ids][:, None] + np.arange(fanout)
            cdf_levels.append(cdf[rows.ravel()])
            row_offset[ids] = np.arange(ids.size) * fanout
        return self._with_rows(row_offset=row_offset, cdf_levels=cdf_levels)

    def _with_rows(self, **changes: Any) -> "CompiledWalk":
        """``dataclasses.replace`` over row state, keeping the caches
        built from the geometry (snap index, centre points)."""
        out = replace(self, **changes)
        out._snap_index = self._snap_index
        out._center_points = self._center_points
        return out

    # ------------------------------------------------------------------
    # persistence / comparison
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to plain arrays for ``np.savez`` persistence."""
        out = {key: getattr(self, key) for key in _NODE_ARRAYS}
        out["source"] = np.asarray(self.source, dtype=np.str_)
        out["reason"] = np.asarray(self.reason, dtype=np.str_)
        out["budgets"] = np.asarray(self.budgets, dtype=float)
        out["n_cdf_levels"] = np.asarray(len(self.cdf_levels), dtype=np.int64)
        for lvl, cdf in enumerate(self.cdf_levels):
            out[f"cdf_{lvl}"] = cdf
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "CompiledWalk":
        """Rebuild from :meth:`to_arrays` output (paths from the CSR)."""
        fields = {
            key: np.asarray(arrays[key], dtype=dtype)
            for key, dtype in _NODE_ARRAYS.items()
        }
        child_start = fields["child_start"]
        child_count = fields["child_count"]
        child_ids = fields["child_ids"]
        paths: list[tuple[int, ...]] = [()] * child_start.size
        for node in range(child_start.size):
            base = child_start[node]
            for slot in range(child_count[node]):
                paths[int(child_ids[base + slot])] = paths[node] + (slot,)
        n_cdf = int(np.asarray(arrays["n_cdf_levels"]).item())
        return cls(
            **fields,
            source=[str(s) for s in arrays["source"]],
            reason=[str(s) for s in arrays["reason"]],
            cdf_levels=[
                np.asarray(arrays[f"cdf_{lvl}"], dtype=float)
                for lvl in range(n_cdf)
            ],
            budgets=tuple(float(b) for b in np.asarray(arrays["budgets"])),
            paths=paths,
        )

    def equals(self, other: "CompiledWalk") -> bool:
        """Bitwise equality of everything the walk consumes.

        ``cache_version`` is session-local state and deliberately not
        compared; the store uses this to verify that a persisted arena
        still matches a fresh compile of the adopted cache.  ``source``
        and ``reason`` are provenance labels the walk only reads for
        *degraded* nodes (to materialise their substitution records), so
        they are compared at degraded positions only — a warm-started
        cache legitimately relabels clean entries ``source="store"``.
        """
        mine = self.to_arrays()
        theirs = other.to_arrays()
        if mine.keys() != theirs.keys():
            return False
        degraded = np.asarray(mine["degraded"], dtype=bool)
        for key in mine:
            a, b = mine[key], theirs[key]
            if key in ("source", "reason"):
                if a.shape != b.shape:
                    return False
                if not np.array_equal(a[degraded], b[degraded]):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True


def compile_walk(engine: "WalkEngine") -> CompiledWalk:
    """Compile an engine's index tree with every cached node mechanism.

    Topology and child geometry are built for every node down to the
    walk's depth; no LP is solved.  Node mechanisms come from the
    cache's counter-neutral ``_peek`` (so compiling does not distort
    hit/miss statistics, and proxy caches keep their drop semantics);
    an internal node whose entry is not cached is left pending for the
    walk to resolve on first visit.

    Raises :class:`~repro.exceptions.MechanismError` when the tree
    cannot be packed: an internal node without child geometry, a
    child's path slot that disagrees with its list position, a level
    that mixes fanouts or child kinds, or member nodes that share the
    tree with box nodes or disagree on their snap sites or label
    length.
    """
    index = engine.index
    budgets = engine.budgets
    n_levels = len(budgets)

    nodes = [index.root]
    child_start: list[int] = []
    child_count: list[int] = []
    child_ids: list[int] = []
    geometries = []  # per node: its ChildGeometry, None when terminal
    fanout_of_level: dict[int, int] = {}
    node_id = 0
    while node_id < len(nodes):  # BFS: ``nodes`` doubles as the queue
        node = nodes[node_id]
        node_id += 1
        children = index.children(node) if node.level < n_levels else []
        fanout = len(children)
        child_start.append(len(child_ids))
        child_count.append(fanout)
        if not children:
            geometries.append(None)
            continue
        geometry = index.child_geometry(node)
        if geometry is None or geometry.fanout != fanout:
            raise MechanismError(
                f"node {node.path}: no child geometry for its {fanout} children"
            )
        if fanout_of_level.setdefault(node.level, fanout) != fanout:
            raise MechanismError(f"level {node.level + 1} mixes fanouts")
        for slot, child in enumerate(children):
            if child.path != node.path + (slot,):
                raise MechanismError(
                    f"node {node.path}: child {slot} has path {child.path}"
                )
            child_ids.append(len(nodes))
            nodes.append(child)
        geometries.append(geometry)

    n_nodes = len(nodes)
    kind = np.full(n_nodes, KIND_TERMINAL, dtype=np.int8)
    cell_w = np.zeros(n_nodes)
    cell_h = np.zeros(n_nodes)
    gx = np.ones(n_nodes, dtype=np.int64)
    gy = np.ones(n_nodes, dtype=np.int64)
    split = np.zeros(n_nodes)
    label_offset = np.full(n_nodes, -1, dtype=np.int64)
    label_blocks: list[np.ndarray] = []
    sites: np.ndarray | None = None
    n_internal = 0
    for node_id, geometry in enumerate(geometries):
        if geometry is None:
            continue
        n_internal += 1
        kind[node_id] = _KIND_CODE[geometry.kind]
        if geometry.kind == "grid":
            gx[node_id] = geometry.gx
            gy[node_id] = geometry.gy
            cell_w[node_id] = geometry.cell_w
            cell_h[node_id] = geometry.cell_h
        elif geometry.kind in ("split-x", "split-y"):
            split[node_id] = geometry.split
        elif geometry.kind == "member":
            if sites is None:
                sites = np.array(geometry.sites, dtype=float)
            elif not np.array_equal(sites, geometry.sites):
                raise MechanismError("member nodes disagree on snap sites")
            if geometry.labels.shape != (sites.shape[0],):
                raise MechanismError(
                    f"node {nodes[node_id].path}: {geometry.labels.shape[0]} "
                    f"labels for {sites.shape[0]} snap sites"
                )
            label_offset[node_id] = len(label_blocks) * sites.shape[0]
            label_blocks.append(geometry.labels)
    if label_blocks and len(label_blocks) != n_internal:
        raise MechanismError("a tree locates by membership or by boxes")

    boxes = [n.bounds for n in nodes]
    min_x, min_y, max_x, max_y = np.array(
        [(b.min_x, b.min_y, b.max_x, b.max_y) for b in boxes], dtype=float
    ).T.copy()
    # a plain IndexNode's centre is its box centre; subclasses (graph
    # nodes) may override it
    center_x, center_y = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    for node_id, node in enumerate(nodes):
        if type(node) is not IndexNode:
            center_x[node_id], center_y[node_id] = node.center
    walk = CompiledWalk(
        kind=kind,
        min_x=min_x,
        min_y=min_y,
        max_x=max_x,
        max_y=max_y,
        cell_w=cell_w,
        cell_h=cell_h,
        gx=gx,
        gy=gy,
        split=split,
        center_x=center_x,
        center_y=center_y,
        level=np.array([n.level for n in nodes], dtype=np.int64),
        child_start=np.asarray(child_start, dtype=np.int64),
        child_count=np.asarray(child_count, dtype=np.int64),
        child_ids=np.asarray(child_ids, dtype=np.int64),
        row_offset=np.full(n_nodes, -1, dtype=np.int64),
        label_offset=label_offset,
        member_labels=(
            np.concatenate(label_blocks).astype(np.int64)
            if label_blocks
            else np.empty(0, dtype=np.int64)
        ),
        snap_coords=sites if sites is not None else np.empty((0, 2)),
        degraded=np.zeros(n_nodes, dtype=bool),
        source=[""] * n_nodes,
        reason=[""] * n_nodes,
        cdf_levels=[
            np.empty((0, fanout_of_level.get(lvl, 0)))
            for lvl in range(n_levels)
        ],
        budgets=budgets,
        paths=[n.path for n in nodes],
        nodes=nodes,
    )
    return walk.refilled(engine.cache)
