"""The compiled walk kernel: the warmed tree as flat arrays.

The staged :meth:`~repro.core.engine.WalkEngine.walk` is organised
around Python objects — ``IndexNode`` groups, per-node ``CacheEntry``
lookups, per-point ``StepTrace`` construction.  That shape is right for
cold caches, adaptive indexes and fault handling, but it caps the warm
hot path at Python speed.

:class:`CompiledWalk` is the same warmed tree *compiled* to a
struct-of-arrays form:

* **CSR child topology** over dense integer node ids (BFS order, root
  id 0): ``child_start``/``child_count`` index into ``child_ids``;
* **packed child geometry** per node (grid origin/cell size/shape, or
  the binary split coordinate) so locating a whole level of points is a
  handful of gathered array expressions;
* **membership labels** for indexes whose regions are not boxes (the
  road-network partition): every member node's per-key child-slot
  labels concatenated into one ``member_labels`` array addressed by a
  per-node ``label_offset``.  Each point is snapped to its key (nearest
  of the ``snap_coords`` sites) once per batch, and a member level is
  one gather ``member_labels[label_offset[ids] + keys]``;
* **stacked CDF arenas** per level: every warmed node's
  :attr:`~repro.mechanisms.matrix.MechanismMatrix.cdf` rows
  concatenated into one contiguous ``(rows, fanout)`` array, with a
  per-node ``row_offset`` table, so sampling a level is one cross-node
  row gather and one vectorised CDF inversion.

The float fields are the *same expressions* the staged path computes
(each index's ``child_geometry`` contract), the snap rebuilds the
index's own nearest-site tree from the stored site coordinates, and
sampling uses the same comparison-count inversion as
``MechanismMatrix.sample_rows``, so under the engine's unified
per-level RNG scheme the compiled walk is bitwise identical to the
staged walk — the differential fuzz suite holds the two to byte
equality.  Every index in the repository compiles except the STR
index, whose quantile tiling exports no child geometry.

A compiled walk is a snapshot: it records the cache ``version`` it was
built against, and the engine drops it (falling back to the staged
path, or recompiling) when the cache has since evicted or replaced
entries — the eviction→invalidation contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
from scipy.spatial import cKDTree

from repro.mechanisms.matrix import invert_cdf_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import WalkEngine

#: ``kind`` codes (int8): how a node's children are located.
KIND_TERMINAL = -1
KIND_GRID = 0
KIND_SPLIT_X = 1
KIND_SPLIT_Y = 2
KIND_MEMBER = 3

_KIND_CODE = {
    "grid": KIND_GRID,
    "split-x": KIND_SPLIT_X,
    "split-y": KIND_SPLIT_Y,
    "member": KIND_MEMBER,
}


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


@dataclass
class CompiledWalk:
    """The warmed tree compiled to flat arrays (see module docstring)."""

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
    row_offset: np.ndarray  # start row in the node's level arena, -1 terminal
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
    #: nearest-site tree over ``snap_coords``, built on first snap
    _snap_tree: cKDTree | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
    ) -> tuple[np.ndarray, list[LevelArrays]]:
        """Walk every point root-to-leaf with flat per-level passes.

        Returns the final node id per point plus the per-level arrays.
        RNG consumption per level matches the staged path exactly: one
        ``rng.random(n_drifted)`` draw (skipped when no point drifted)
        followed by one ``rng.random(n_active)`` draw, both in ascending
        batch order.  A member tree snaps every point to its key once,
        up front, and locates each level with one label gather.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        n = coords.shape[0]
        cur = np.zeros(n, dtype=np.int64)
        levels: list[LevelArrays] = []
        if n == 0:
            return cur, levels
        x = coords[:, 0]
        y = coords[:, 1]
        keys = self._snap(coords) if self.snap_coords.shape[0] else None
        for lvl in range(self.n_levels):
            active = np.flatnonzero(self.child_count[cur] > 0)
            if active.size == 0:
                break
            span_ctx = (
                tracer.span("level", level=lvl + 1, epsilon=self.budgets[lvl])
                if tracer is not None
                else None
            )
            if span_ctx is not None:
                span_ctx.__enter__()
            try:
                ids = cur[active]
                if keys is None:
                    x_hat = self._locate_boxes(ids, x[active], y[active])
                else:
                    # membership is authoritative: no envelope test
                    # (sibling envelopes overlap, and a point outside
                    # one can still snap to a member vertex)
                    x_hat = self.member_labels[
                        self.label_offset[ids] + keys[active]
                    ]
                drifted = x_hat < 0
                n_drifted = int(drifted.sum())
                if n_drifted:
                    r = rng.random(n_drifted)
                    fan = self.child_count[ids[drifted]]
                    x_hat[drifted] = np.minimum(
                        (r * fan).astype(np.int64), fan - 1
                    )
                u = rng.random(active.size)
                arena_rows = self.row_offset[ids] + x_hat
                reported = invert_cdf_rows(
                    self.cdf_levels[lvl][arena_rows], u
                )
                cur[active] = self.child_ids[
                    self.child_start[ids] + reported
                ]
                levels.append(
                    LevelArrays(
                        level=lvl + 1,
                        active=active,
                        ids=ids,
                        x_hat=x_hat,
                        drifted=drifted,
                        reported=reported,
                    )
                )
            finally:
                if span_ctx is not None:
                    span_ctx.__exit__(None, None, None)
        return cur, levels

    def _locate_boxes(
        self, ids: np.ndarray, ax: np.ndarray, ay: np.ndarray
    ) -> np.ndarray:
        """Child slot of each active point among its grid or split
        node's children; -1 (drifted) outside the node's box."""
        kinds = self.kind[ids]
        x_hat = np.full(ids.size, -1, dtype=np.int64)
        grid_mask = kinds == KIND_GRID
        if grid_mask.any():
            gids = ids[grid_mask]
            cols = np.minimum(
                (
                    (ax[grid_mask] - self.min_x[gids]) / self.cell_w[gids]
                ).astype(np.int64),
                self.gx[gids] - 1,
            )
            rows = np.minimum(
                (
                    (ay[grid_mask] - self.min_y[gids]) / self.cell_h[gids]
                ).astype(np.int64),
                self.gy[gids] - 1,
            )
            x_hat[grid_mask] = rows * self.gx[gids] + cols
        sx_mask = kinds == KIND_SPLIT_X
        if sx_mask.any():
            x_hat[sx_mask] = (
                ax[sx_mask] >= self.split[ids[sx_mask]]
            ).astype(np.int64)
        sy_mask = kinds == KIND_SPLIT_Y
        if sy_mask.any():
            x_hat[sy_mask] = (
                ay[sy_mask] >= self.split[ids[sy_mask]]
            ).astype(np.int64)
        inside = (
            (ax >= self.min_x[ids])
            & (ax <= self.max_x[ids])
            & (ay >= self.min_y[ids])
            & (ay <= self.max_y[ids])
        )
        x_hat[~inside] = -1
        return x_hat

    def _snap(self, coords: np.ndarray) -> np.ndarray:
        """Key of each ``(m, 2)`` coordinate: its nearest site's index.

        The tree is rebuilt from ``snap_coords`` on first use with the
        construction :class:`~repro.graph.city.RoadGraph` uses, so ties
        resolve exactly as the index's own snap does.
        """
        if self._snap_tree is None:
            self._snap_tree = cKDTree(self.snap_coords)
        _, idx = self._snap_tree.query(coords)
        return np.asarray(idx, dtype=np.int64)

    # ------------------------------------------------------------------
    # persistence / comparison
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to plain arrays for ``np.savez`` persistence."""
        out: dict[str, np.ndarray] = {
            "kind": self.kind,
            "min_x": self.min_x,
            "min_y": self.min_y,
            "max_x": self.max_x,
            "max_y": self.max_y,
            "cell_w": self.cell_w,
            "cell_h": self.cell_h,
            "gx": self.gx,
            "gy": self.gy,
            "split": self.split,
            "center_x": self.center_x,
            "center_y": self.center_y,
            "level": self.level,
            "child_start": self.child_start,
            "child_count": self.child_count,
            "child_ids": self.child_ids,
            "row_offset": self.row_offset,
            "label_offset": self.label_offset,
            "member_labels": self.member_labels,
            "snap_coords": self.snap_coords,
            "degraded": self.degraded,
            "source": np.asarray(self.source, dtype=np.str_),
            "reason": np.asarray(self.reason, dtype=np.str_),
            "budgets": np.asarray(self.budgets, dtype=float),
            "n_cdf_levels": np.asarray(len(self.cdf_levels), dtype=np.int64),
        }
        for lvl, cdf in enumerate(self.cdf_levels):
            out[f"cdf_{lvl}"] = cdf
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "CompiledWalk":
        """Rebuild from :meth:`to_arrays` output (paths from the CSR)."""
        n_cdf = int(np.asarray(arrays["n_cdf_levels"]).item())
        child_start = np.asarray(arrays["child_start"], dtype=np.int64)
        child_count = np.asarray(arrays["child_count"], dtype=np.int64)
        child_ids = np.asarray(arrays["child_ids"], dtype=np.int64)
        n_nodes = child_start.size
        paths: list[tuple[int, ...]] = [()] * n_nodes
        for node in range(n_nodes):
            base = child_start[node]
            for slot in range(child_count[node]):
                paths[int(child_ids[base + slot])] = paths[node] + (slot,)
        return cls(
            kind=np.asarray(arrays["kind"], dtype=np.int8),
            min_x=np.asarray(arrays["min_x"], dtype=float),
            min_y=np.asarray(arrays["min_y"], dtype=float),
            max_x=np.asarray(arrays["max_x"], dtype=float),
            max_y=np.asarray(arrays["max_y"], dtype=float),
            cell_w=np.asarray(arrays["cell_w"], dtype=float),
            cell_h=np.asarray(arrays["cell_h"], dtype=float),
            gx=np.asarray(arrays["gx"], dtype=np.int64),
            gy=np.asarray(arrays["gy"], dtype=np.int64),
            split=np.asarray(arrays["split"], dtype=float),
            center_x=np.asarray(arrays["center_x"], dtype=float),
            center_y=np.asarray(arrays["center_y"], dtype=float),
            level=np.asarray(arrays["level"], dtype=np.int64),
            child_start=child_start,
            child_count=child_count,
            child_ids=child_ids,
            row_offset=np.asarray(arrays["row_offset"], dtype=np.int64),
            label_offset=np.asarray(arrays["label_offset"], dtype=np.int64),
            member_labels=np.asarray(arrays["member_labels"], dtype=np.int64),
            snap_coords=np.asarray(arrays["snap_coords"], dtype=float),
            degraded=np.asarray(arrays["degraded"], dtype=bool),
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


def compile_walk(
    engine: "WalkEngine", build_missing: bool = False
) -> CompiledWalk | None:
    """Compile an engine's warmed tree, or return None if not compilable.

    Grid and split nodes compile to packed arithmetic, and member nodes
    (the road-network partition) to one flat label array over the
    shared snap sites.  Not compilable means: a reachable internal node
    has no ``child_geometry`` (adaptive tilings like the STR index), a
    child's path slot disagrees with its list position, member nodes
    share the tree with box nodes or disagree on their snap sites or
    label length, a level mixes fanouts
    (its arena would be ragged), or — with ``build_missing=False`` — a
    needed entry is not in the cache.  ``build_missing=True`` solves
    misses through the engine's normal resolve path (counting builds
    and degradations exactly like a precompute).

    Lookups for already-cached entries go through the cache's
    counter-neutral ``_peek``, so compiling from a warm cache does not
    distort hit/miss statistics (and proxy caches keep their drop
    semantics).
    """
    index = engine.index
    budgets = engine.budgets
    n_levels = len(budgets)
    cache = engine.cache

    root = index.root
    nodes = [root]
    kids_slices: list[tuple[int, int]] = []  # (start, count) per node
    child_ids_list: list[int] = []
    matrices = []  # per internal node: (node_id, level, CacheEntry)
    queue = deque([0])
    while queue:
        node_id = queue.popleft()
        node = nodes[node_id]
        if node.level >= n_levels:
            kids_slices.append((len(child_ids_list), 0))
            continue
        children = index.children(node)
        if not children:
            kids_slices.append((len(child_ids_list), 0))
            continue
        geometry = index.child_geometry(node)
        if geometry is None or len(children) != geometry.fanout:
            return None
        for slot, child in enumerate(children):
            if child.path != node.path + (slot,):
                return None  # slot != position: CSR reconstruction breaks
        entry = cache._peek(node.path)
        if entry is None:
            if not build_missing:
                return None
            entry = engine.resolve(node, node.level + 1, children)
        if entry.matrix.shape != (len(children), len(children)):
            return None
        matrices.append((node_id, node.level, entry, geometry))
        start = len(child_ids_list)
        for child in children:
            child_id = len(nodes)
            nodes.append(child)
            child_ids_list.append(child_id)
            queue.append(child_id)
        kids_slices.append((start, len(children)))

    n_nodes = len(nodes)
    kind = np.full(n_nodes, KIND_TERMINAL, dtype=np.int8)
    min_x = np.empty(n_nodes)
    min_y = np.empty(n_nodes)
    max_x = np.empty(n_nodes)
    max_y = np.empty(n_nodes)
    cell_w = np.zeros(n_nodes)
    cell_h = np.zeros(n_nodes)
    gx = np.ones(n_nodes, dtype=np.int64)
    gy = np.ones(n_nodes, dtype=np.int64)
    split = np.zeros(n_nodes)
    center_x = np.empty(n_nodes)
    center_y = np.empty(n_nodes)
    level = np.empty(n_nodes, dtype=np.int64)
    child_start = np.empty(n_nodes, dtype=np.int64)
    child_count = np.empty(n_nodes, dtype=np.int64)
    row_offset = np.full(n_nodes, -1, dtype=np.int64)
    label_offset = np.full(n_nodes, -1, dtype=np.int64)
    label_blocks: list[np.ndarray] = []
    sites: np.ndarray | None = None
    degraded = np.zeros(n_nodes, dtype=bool)
    source = ["" for _ in range(n_nodes)]
    reason = ["" for _ in range(n_nodes)]

    for node_id, node in enumerate(nodes):
        b = node.bounds
        min_x[node_id] = b.min_x
        min_y[node_id] = b.min_y
        max_x[node_id] = b.max_x
        max_y[node_id] = b.max_y
        center = node.center
        center_x[node_id] = center.x
        center_y[node_id] = center.y
        level[node_id] = node.level
        start, count = kids_slices[node_id]
        child_start[node_id] = start
        child_count[node_id] = count

    per_level_fanout: dict[int, int] = {}
    per_level_rows: dict[int, int] = {}
    per_level_matrices: dict[int, list] = {lvl: [] for lvl in range(n_levels)}
    for node_id, lvl, entry, geometry in matrices:
        fanout = entry.matrix.shape[1]
        known = per_level_fanout.setdefault(lvl, fanout)
        if known != fanout:
            return None  # ragged level: no contiguous arena
        row_offset[node_id] = per_level_rows.get(lvl, 0)
        per_level_rows[lvl] = row_offset[node_id] + entry.matrix.shape[0]
        per_level_matrices[lvl].append(entry.matrix)
        kind[node_id] = _KIND_CODE[geometry.kind]
        if geometry.kind == "grid":
            gx[node_id] = geometry.gx
            gy[node_id] = geometry.gy
            cell_w[node_id] = geometry.cell_w
            cell_h[node_id] = geometry.cell_h
        elif geometry.kind == "member":
            if sites is None:
                sites = np.array(geometry.sites, dtype=float)
            elif not np.array_equal(sites, geometry.sites):
                return None  # one snap per batch needs one site set
            if geometry.labels.shape != (sites.shape[0],):
                return None
            label_offset[node_id] = len(label_blocks) * sites.shape[0]
            label_blocks.append(geometry.labels)
        else:
            split[node_id] = geometry.split
        degraded[node_id] = entry.degraded
        source[node_id] = entry.source
        reason[node_id] = entry.reason or ""
    if label_blocks and len(label_blocks) != len(matrices):
        return None  # a tree locates by membership or by boxes, not both

    cdf_levels = []
    for lvl in range(n_levels):
        mats = per_level_matrices[lvl]
        if mats:
            cdf_levels.append(np.concatenate([m.cdf for m in mats], axis=0))
        else:
            cdf_levels.append(np.empty((0, 0)))

    return CompiledWalk(
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
        level=level,
        child_start=child_start,
        child_count=child_count,
        child_ids=np.asarray(child_ids_list, dtype=np.int64),
        row_offset=row_offset,
        label_offset=label_offset,
        member_labels=(
            np.concatenate(label_blocks).astype(np.int64)
            if label_blocks
            else np.empty(0, dtype=np.int64)
        ),
        snap_coords=sites if sites is not None else np.empty((0, 2)),
        degraded=degraded,
        source=source,
        reason=reason,
        cdf_levels=cdf_levels,
        budgets=budgets,
        paths=[node.path for node in nodes],
        cache_version=cache.version,
    )
