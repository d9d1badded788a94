"""The unified MSM walk engine.

Every sanitisation in the library — one point or fifty thousand — runs
through :class:`WalkEngine` on one walk implementation, the compiled
kernel (:mod:`repro.core.kernel`):

    locate  → resolve → sample  → descend → finalise
    (snap     (cache /   (vector-  (pick      (optional
    to a      resilient  ised CDF  reported   optimal
    child)    solver)    draw)     child)     remap)

The engine compiles its index tree once (topology and geometry, no LP)
and the kernel resolves node mechanisms on first visit, so a cold
single sample builds exactly the nodes its walk reaches — the paper's
"solve only the tiny OPT at each node a walk reaches".  The scalar path
is literally a batch of one:
:meth:`~repro.core.msm.MultiStepMechanism.sample_with_report` calls the
same engine code as
:meth:`~repro.core.msm.MultiStepMechanism.sanitize_batch`, so the two
are byte-identical under a shared seed.  The staged Algorithm-1 walk
survives only as the test oracle, :mod:`repro.testing.oracle`.

The optional finalise step is :class:`OptimalRemapPostProcessor`, the
optimal Bayesian remap of Chatzikokolakis et al. ("Trading Optimality
for Performance in Location Privacy"): a deterministic output-only
transformation that by the data-processing inequality never weakens
GeoInd and never increases posterior-expected loss.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.exceptions import (
    DegradedModeWarning,
    MechanismError,
    SolverError,
)
from repro.geo.metric import EUCLIDEAN, Metric
from repro.geo.point import Point, points_to_array
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.index import IndexNode, SpatialIndex
from repro.mechanisms.exponential import exponential_matrix_from_locations
from repro.mechanisms.matrix import MechanismMatrix
from repro.mechanisms.optimal import optimal_mechanism_from_locations
from repro.mechanisms.remap import optimal_remap_assignment
from repro.obs import NOOP, MetricsSnapshot, Observability
from repro.priors.base import GridPrior
from repro.privacy.guard import guard_mechanism
from repro.core.cache import CacheEntry, NodeMechanismCache
from repro.core.kernel import CompiledWalk, LevelArrays, compile_walk
from repro.core.resilience import (
    DegradationReport,
    DegradedNode,
    ResilientSolver,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.msm import MultiStepMechanism


class StepTrace(NamedTuple):
    """One level of an MSM walk, for inspection and tests (immutable)."""

    level: int
    node_path: tuple[int, ...]
    x_hat_index: int
    x_hat_random: bool
    reported_index: int
    degraded: bool = False
    mechanism: str = "opt"


class WalkResult(NamedTuple):
    """A sanitised point plus the full account of how it was produced.

    Immutable and hashable.  ``raw_point`` is set by the finalise step
    (the optimal remap) to the point the walk itself produced, so
    provenance survives the output transformation; it is None when no
    remap ran.
    """

    point: Point
    trace: tuple[StepTrace, ...]
    degradation: DegradationReport
    raw_point: Point | None = None


#: The degradation report of every walk that ran on LP-optimal
#: mechanisms only (immutable, so all clean walks share it).
CLEAN = DegradationReport(())

#: Build a result or step from one complete field tuple: the tuple
#: constructor a NamedTuple's ``_make`` uses, without its per-call
#: Python frame (the walk builds one per report and level).
_new_result = partial(tuple.__new__, WalkResult)
_new_step = partial(tuple.__new__, StepTrace)


@dataclass(frozen=True)
class TelemetrySummary:
    """The per-batch account :meth:`WalkEngine.run_report` attaches.

    Built from the metrics-registry delta accrued by one batch, so its
    numbers are the observability layer's numbers — the telemetry-vs-
    truth tests cross-check them against the engine's own counters.
    """

    n_points: int
    wall_seconds: float
    lp_seconds: float
    lp_solves: int
    cache_hits: int
    cache_misses: int
    cache_builds: int
    degraded_steps: int
    degraded_walks: int
    snapshot: MetricsSnapshot

    @property
    def points_per_second(self) -> float:
        """Batch throughput (0.0 for an instantaneous empty batch)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_points / self.wall_seconds


@dataclass(frozen=True)
class WalkReport:
    """A batch's results plus (when observability is on) its telemetry."""

    results: tuple[WalkResult, ...]
    telemetry: TelemetrySummary | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i):
        return self.results[i]


# ----------------------------------------------------------------------
# the finalise step
# ----------------------------------------------------------------------
class OptimalRemapPostProcessor:
    """Optimal Bayesian remap over the walk's leaf outputs.

    On observing walk output ``z``, report instead the leaf centre
    minimising the posterior-expected quality loss under the modelling
    prior (Chatzikokolakis et al.; also the utility lever Bordenabe et
    al.'s optimal-mechanism construction exploits).  The remap table is
    built lazily on first use from the *exact* end-to-end walk matrix
    (:meth:`~repro.core.msm.MultiStepMechanism.to_matrix`), which
    restricts this post-processor to analysis-scale instances over a
    :class:`~repro.grid.hierarchy.HierarchicalGrid`; the per-query cost
    once built is one dictionary lookup.

    Being a deterministic function of the mechanism output alone, the
    remap never weakens GeoInd, and by construction it never increases
    the prior-expected loss of the end-to-end mechanism.
    """

    #: short label recorded in the ``finalise`` span
    name = "optimal-remap"

    def __init__(self, msm: "MultiStepMechanism", dq: Metric | None = None):
        if not isinstance(msm.index, HierarchicalGrid):
            raise MechanismError(
                f"the optimal remap needs a HierarchicalGrid index, got "
                f"{type(msm.index).__name__}"
            )
        self._msm = msm
        self._dq = dq
        self._table: dict[int, Point] | None = None
        self._leaf_grid = None

    @property
    def table(self) -> dict[int, Point]:
        """Leaf cell index -> remapped output (built lazily, then cached).

        Keyed by the leaf grid's cell index rather than raw coordinates,
        so walk outputs (node-bounds centres) and matrix outputs (grid
        centres) cannot miss each other over float rounding."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    @property
    def leaf_grid(self):
        """The grid whose cells key :attr:`table` (built with it)."""
        self.table
        return self._leaf_grid

    def assignment(self) -> np.ndarray:
        """The remap assignment over the end-to-end matrix outputs."""
        matrix, prior = self._end_to_end()
        dq = self._dq if self._dq is not None else self._msm.dq
        return optimal_remap_assignment(matrix, prior, dq)

    def _end_to_end(self) -> tuple[MechanismMatrix, np.ndarray]:
        from repro.priors.aggregate import aggregate_mass

        msm = self._msm
        matrix = msm.to_matrix()
        depth = min(msm.height, msm.index.max_height())
        leaf_grid = msm.index.level_grid(depth)
        self._leaf_grid = leaf_grid
        mass = aggregate_mass(msm.prior, leaf_grid)
        total = mass.sum()
        if total <= 0:
            prior = np.full(leaf_grid.n_cells, 1.0 / leaf_grid.n_cells)
        else:
            prior = mass / total
        return matrix, prior

    def _build_table(self) -> dict[int, Point]:
        matrix, prior = self._end_to_end()
        dq = self._dq if self._dq is not None else self._msm.dq
        assignment = optimal_remap_assignment(matrix, prior, dq)
        outputs = matrix.outputs
        return {
            z_index: outputs[int(w)]
            for z_index, w in enumerate(assignment)
        }

    def remap(self, coords: np.ndarray) -> list[Point]:
        """The remapped output of each ``(n, 2)`` walk output: one
        array locate on the leaf grid, then a table gather."""
        table = self.table
        cells = self._leaf_grid.locate_indices(coords)
        outside = np.flatnonzero(cells < 0)
        if outside.size:
            x, y = coords[outside[0]].tolist()
            raise MechanismError(
                f"walk output {Point(x, y)} is outside the remap "
                f"table's leaf grid; was the index changed after the "
                f"table was built?"
            )
        return list(map(table.__getitem__, cells.tolist()))

    def finalise(self, results: list[WalkResult]) -> list[WalkResult]:
        """Remap every walk output, keeping it as ``raw_point``."""
        remapped = self.remap(points_to_array([w.point for w in results]))
        return [
            w._replace(point=point, raw_point=w.point)
            for w, point in zip(results, remapped)
        ]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class WalkEngine:
    """The MSM level walk over one index, on the compiled kernel.

    The engine owns the walk configuration (index, per-level budgets,
    prior, metrics, resilient solver, guard/degrade policy, node cache)
    and the kernel snapshot, and exposes the step the kernel calls
    back into — :meth:`resolve_many` (cache or solve) — plus the
    :meth:`walk` loop and its points-only twin :meth:`sample_many`.
    :class:`~repro.core.msm.MultiStepMechanism` is a thin facade over an
    engine.  ``postprocessor`` is the optional finalise step (the
    optimal remap), wired by
    :meth:`~repro.core.msm.MultiStepMechanism.enable_remap`.
    """

    def __init__(
        self,
        index: SpatialIndex,
        budgets: Sequence[float],
        prior: GridPrior,
        dq: Metric = EUCLIDEAN,
        dx: Metric = EUCLIDEAN,
        backend: str = "highs-ds",
        spanner_dilation: float | None = None,
        solver: ResilientSolver | None = None,
        degrade: bool = True,
        guard: bool = True,
        cache: NodeMechanismCache | None = None,
        obs: Observability | None = None,
    ):
        self._index = index
        self._budgets = tuple(float(b) for b in budgets)
        self._prior = prior
        self._dq = dq
        self._dx = dx
        self._backend = backend
        self._spanner_dilation = spanner_dilation
        self._solver = solver if solver is not None else ResilientSolver()
        self._degrade = degrade
        self._guard = guard
        self._cache = cache if cache is not None else NodeMechanismCache()
        self.postprocessor: OptimalRemapPostProcessor | None = None
        self._lp_seconds = 0.0
        self._compiled: CompiledWalk | None = None
        # guards swapping ``_compiled``; walks read snapshots lock-free
        self._lock = threading.Lock()
        self.bind_observability(obs if obs is not None else NOOP)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def index(self) -> SpatialIndex:
        return self._index

    @property
    def budgets(self) -> tuple[float, ...]:
        return self._budgets

    @property
    def prior(self) -> GridPrior:
        return self._prior

    @property
    def dq(self) -> Metric:
        return self._dq

    @property
    def dx(self) -> Metric:
        return self._dx

    @property
    def cache(self) -> NodeMechanismCache:
        return self._cache

    @property
    def spanner_dilation(self) -> float | None:
        """The Δ-spanner dilation the cold LP builds run with (None = exact)."""
        return self._spanner_dilation

    @property
    def compiled(self) -> CompiledWalk | None:
        """The current kernel snapshot (None before the first walk or
        compile; possibly incomplete — see ``CompiledWalk.complete``)."""
        return self._compiled

    @property
    def solver(self) -> ResilientSolver:
        return self._solver

    @property
    def observability(self) -> Observability:
        """The bound observability handle (the shared no-op by default)."""
        return self._obs

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle and propagate it downward.

        When ``obs`` is enabled the cache and resilient solver are
        rebound too (so their metrics land in the same registry) and the
        configured per-level budgets are published as gauges.  The
        disabled default deliberately does *not* touch the cache or
        solver — they may carry their own binding, and the hot path must
        stay untouched.
        """
        self._obs = obs
        if obs.enabled:
            self._cache.bind_observability(obs)
            self._solver.bind_observability(obs)
            for level, eps in enumerate(self._budgets, start=1):
                obs.metrics.gauge(
                    "repro_budget_level_epsilon", level=level
                ).set(eps)

    @property
    def lp_seconds(self) -> float:
        """Cumulative wall-clock spent solving per-node LPs."""
        return self._lp_seconds

    # ------------------------------------------------------------------
    # the kernel snapshot
    # ------------------------------------------------------------------
    def compile(self, build: bool = True) -> CompiledWalk | None:
        """Compile the kernel with every reachable node mechanism.

        ``build=True`` solves the nodes the cache lacks through the
        normal resolve path (like a precompute) and always returns a
        complete snapshot; ``build=False`` returns None unless every
        reachable entry is already cached.  Rows are laid out in
        node-id order, so compiles of the same cache content are
        bitwise equal.  Raises
        :class:`~repro.exceptions.MechanismError` when the index
        cannot be packed into flat arrays.
        """
        walk = compile_walk(self)
        if not walk.complete:
            if not build:
                return None
            for depth in range(len(self._budgets)):
                pending = np.flatnonzero(
                    (walk.level == depth)
                    & (walk.child_count > 0)
                    & (walk.row_offset < 0)
                )
                if pending.size:
                    walk = walk.with_entries(
                        pending, self._resolve_ids(walk, depth + 1, pending)
                    )
            walk = walk.packed()
        with self._lock:
            self._compiled = walk
        return walk

    def adopt_compiled(self, compiled: CompiledWalk) -> None:
        """Adopt an externally built complete snapshot (e.g. a store
        sidecar)."""
        if not compiled.complete:
            raise MechanismError("cannot adopt an incomplete kernel snapshot")
        with self._lock:
            self._compiled = compiled

    def _snapshot(self) -> CompiledWalk:
        """The current snapshot.  When the cache has since evicted,
        replaced or cleared entries, a stale snapshot keeps its
        topology and refills its rows from the cache; one without index
        nodes (loaded from arrays) is compiled afresh."""
        compiled = self._compiled
        version = self._cache.version
        if compiled is None or compiled.cache_version != version:
            with self._lock:
                compiled = self._compiled
                if compiled is None or compiled.cache_version != version:
                    compiled = self._compiled = (
                        compile_walk(self)
                        if compiled is None or compiled.nodes is None
                        else compiled.refilled(self._cache)
                    )
        return compiled

    def _grow(
        self, walk: CompiledWalk, level: int, ids: np.ndarray
    ) -> CompiledWalk:
        """The kernel's resolve hook: resolve pending nodes ``ids`` and
        swap in the grown snapshot (copy-on-write).

        Grows the engine's newest snapshot when it shares ``walk``'s
        cache version (a concurrent walk may have filled other nodes
        since), else ``walk`` itself.
        """
        entries = self._resolve_ids(walk, level, ids)
        with self._lock:
            base = self._compiled
            if base is None or base.cache_version != walk.cache_version:
                base = walk
            grown = self._compiled = base.with_entries(ids, entries)
        return grown

    def _resolve_ids(
        self, walk: CompiledWalk, level: int, ids: np.ndarray
    ) -> list[CacheEntry]:
        """Resolve the mechanisms of snapshot nodes ``ids`` (in order)."""
        nodes = walk.nodes
        group_nodes: dict[tuple[int, ...], IndexNode] = {}
        children_of: dict[tuple[int, ...], list[IndexNode]] = {}
        for node_id in ids.tolist():
            node = nodes[node_id]
            start = int(walk.child_start[node_id])
            stop = start + int(walk.child_count[node_id])
            group_nodes[node.path] = node
            children_of[node.path] = [
                nodes[c] for c in walk.child_ids[start:stop].tolist()
            ]
        entries = self.resolve_many(level, group_nodes, children_of)
        return [entries[path] for path in group_nodes]

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[Point],
        rng: np.random.Generator,
        trace: bool = True,
    ) -> list[WalkResult]:
        """Sanitise ``points`` in-process, with batch metrics when
        observability is on.

        ``trace=False`` skips per-point :class:`StepTrace`
        materialisation (results carry an empty trace tuple); sampled
        points, degradation reports and telemetry are unaffected.
        """
        return self._metered(self.walk, list(points), rng, trace)

    def sample_many(
        self, points: Sequence[Point], rng: np.random.Generator
    ) -> list[Point]:
        """Like :meth:`run`, but return only the reported points: the
        same walk and random stream, with no result objects built."""
        return self._metered(self._walk_points, list(points), rng)

    def _metered(self, walk, points: list[Point], rng, *args):
        """``walk(points, rng, *args)``, counted and timed as one batch
        when observability is on."""
        if not self._obs.enabled or not points:
            return walk(points, rng, *args)
        metrics = self._obs.metrics
        start = time.perf_counter()
        out = walk(points, rng, *args)
        elapsed = time.perf_counter() - start
        metrics.counter("repro_walk_batches_total").inc()
        metrics.counter("repro_walk_points_total").inc(len(points))
        metrics.histogram("repro_sanitize_seconds").observe(elapsed)
        return out

    def run_report(
        self,
        points: Sequence[Point],
        rng: np.random.Generator,
        trace: bool = True,
    ) -> WalkReport:
        """Like :meth:`run`, but wrap the results in a :class:`WalkReport`.

        With observability enabled the report carries a
        :class:`TelemetrySummary` built from the registry delta this
        batch accrued; disabled, ``telemetry`` is None.
        """
        if not self._obs.enabled:
            return WalkReport(results=tuple(self.run(points, rng, trace=trace)))
        before = self._obs.snapshot()
        start = time.perf_counter()
        results = self.run(points, rng, trace=trace)
        wall = time.perf_counter() - start
        delta = self._obs.snapshot().since(before)
        degraded_walks = sum(
            1 for w in results if not w.degradation.clean
        )
        telemetry = TelemetrySummary(
            n_points=len(results),
            wall_seconds=wall,
            lp_seconds=delta.counter_total("repro_lp_solve_seconds_total"),
            lp_solves=int(delta.counter_total("repro_lp_solves_total")),
            cache_hits=int(delta.counter_total("repro_cache_hits_total")),
            cache_misses=int(delta.counter_total("repro_cache_misses_total")),
            cache_builds=int(delta.counter_total("repro_cache_builds_total")),
            degraded_steps=int(
                delta.counter_total("repro_walk_degraded_steps_total")
            ),
            degraded_walks=degraded_walks,
            snapshot=delta,
        )
        return WalkReport(results=tuple(results), telemetry=telemetry)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def walk(
        self,
        points: Sequence[Point],
        rng: np.random.Generator,
        trace: bool = True,
    ) -> list[WalkResult]:
        """The level walk on the compiled kernel, for any batch.

        Semantically each point gets an independent Algorithm-1 walk
        with a per-point
        :class:`~repro.core.resilience.DegradationReport` (and, with
        ``trace=True``, full :class:`StepTrace` provenance).  The fused
        loop in :meth:`CompiledWalk.walk_arrays` touches no Python
        objects; nodes the cache lacks are resolved level by level
        through :meth:`resolve_many` before the level draws, and
        results are built once afterwards from the per-level arrays:
        traces only when requested, degradation reports only for the
        (usually empty) degraded subset — every clean walk shares
        :data:`CLEAN`.  Telemetry counters are computed exactly from
        the same arrays.  A batch of one *is* the scalar path.
        """
        points = list(points)
        n = len(points)
        if n == 0:
            return []
        with self._obs.tracer.span("walk", n=n, path="kernel"):
            compiled, final_ids, levels = self._walk_ids(points, rng)
            outputs, walked = self._outputs(compiled, final_ids, keep_raw=True)
            reports = self._reports(compiled, levels, n)
            traces = self._traces(compiled, levels, n) if trace else None
            fields = zip(
                outputs,
                repeat(()) if traces is None else traces,
                repeat(CLEAN) if reports is None else reports,
                repeat(None) if walked is None else walked,
            )
            return list(map(_new_result, fields))

    def _walk_points(
        self, points: list[Point], rng: np.random.Generator
    ) -> list[Point]:
        """:meth:`walk`'s reported points alone."""
        if not points:
            return []
        with self._obs.tracer.span("walk", n=len(points), path="kernel"):
            compiled, final_ids, _ = self._walk_ids(points, rng)
            return self._outputs(compiled, final_ids, keep_raw=False)[0]

    def _walk_ids(
        self, points: list[Point], rng: np.random.Generator
    ) -> tuple[CompiledWalk, np.ndarray, list[LevelArrays]]:
        """Run the kernel over ``points``; return the snapshot grown by
        its first visits, each point's final node id and the per-level
        arrays.  Records the step metrics when observability is on."""
        compiled = self._snapshot()
        if compiled.child_count[0] == 0:
            raise MechanismError(
                "index root has no children; nothing to report"
            )
        obs = self._obs

        def resolve(walk: CompiledWalk, level: int, ids: np.ndarray):
            nonlocal compiled
            compiled = self._grow(walk, level, ids)
            return compiled

        final_ids, levels = compiled.walk_arrays(
            points_to_array(points),
            rng,
            tracer=obs.tracer if obs.enabled else None,
            resolve=resolve,
        )
        if obs.enabled:
            degraded = np.zeros(final_ids.size, dtype=bool)
            for ld in levels:
                self._record_level_arrays(ld, compiled)
                degraded[ld.active[compiled.degraded[ld.ids]]] = True
            obs.metrics.counter("repro_walk_degraded_walks_total").inc(
                int(degraded.sum())
            )
        return compiled, final_ids, levels

    def _outputs(
        self, compiled: CompiledWalk, final_ids: np.ndarray, keep_raw: bool
    ) -> tuple[list[Point], list[Point] | None]:
        """The finalise step: each walk's reported point — its final
        node's centre, remapped when a remap is wired — and, with
        ``keep_raw`` and a remap, the walk's own points (else None)."""
        post = self.postprocessor
        with self._obs.tracer.span(
            "finalise",
            n=final_ids.size,
            post="none" if post is None else post.name,
        ):
            remapped = None if post is None else post.remap(
                np.column_stack(
                    (compiled.center_x[final_ids], compiled.center_y[final_ids])
                )
            )
        if remapped is not None and not keep_raw:
            return remapped, None
        walked = list(map(compiled.center_points.__getitem__, final_ids.tolist()))
        return (walked, None) if remapped is None else (remapped, walked)

    @staticmethod
    def _reports(
        compiled: CompiledWalk, levels: list[LevelArrays], n: int
    ) -> list[DegradationReport] | None:
        """Each walk's degradation report; None when every walk is
        clean."""
        substitutions: dict[int, list[DegradedNode]] = {}
        for ld in levels:
            hit = np.flatnonzero(compiled.degraded[ld.ids])
            eps = compiled.budgets[ld.level - 1]
            for i, node_id in zip(
                ld.active[hit].tolist(), ld.ids[hit].tolist()
            ):
                substitutions.setdefault(i, []).append(
                    DegradedNode(
                        node_path=compiled.paths[node_id],
                        level=ld.level,
                        epsilon=eps,
                        fallback=compiled.source[node_id],
                        reason=compiled.reason[node_id] or "",
                    )
                )
        if not substitutions:
            return None
        reports = [CLEAN] * n
        for i, nodes in substitutions.items():
            reports[i] = DegradationReport(tuple(nodes))
        return reports

    @staticmethod
    def _traces(
        compiled: CompiledWalk, levels: list[LevelArrays], n: int
    ) -> list[tuple[StepTrace, ...]]:
        """Each walk's per-level :class:`StepTrace` tuple, read from the
        level arrays through one ``tolist`` each."""
        paths = compiled.paths.__getitem__
        degraded = compiled.degraded.tolist().__getitem__
        source = compiled.source.__getitem__
        traces: list[list[StepTrace]] = [[] for _ in range(n)]
        for ld in levels:
            ids = ld.ids.tolist()
            steps = zip(
                repeat(ld.level),
                map(paths, ids),
                ld.x_hat.tolist(),
                ld.drifted.tolist(),
                ld.reported.tolist(),
                map(degraded, ids),
                map(source, ids),
            )
            for i, step in zip(ld.active.tolist(), map(_new_step, steps)):
                traces[i].append(step)
        return list(map(tuple, traces))

    def _record_level_arrays(
        self, ld: LevelArrays, compiled: CompiledWalk
    ) -> None:
        """Exact per-level step metrics from the kernel's arrays (only
        called when observability is on).

        ``on_track`` counts non-drifted steps whose reported child equals
        the true child — the numerator of the achieved same-cell
        probability Pr[x|x] that the budget allocation (Section 5 of the
        paper) promises to keep >= rho at every level:
        ``on_track / (steps - drifted)``.
        """
        metrics = self._obs.metrics
        n_steps = int(ld.active.size)
        n_drifted = int(ld.drifted.sum())
        on_track = int((~ld.drifted & (ld.reported == ld.x_hat)).sum())
        metrics.counter("repro_walk_steps_total", level=ld.level).inc(n_steps)
        if n_drifted:
            metrics.counter(
                "repro_walk_drifted_total", level=ld.level
            ).inc(n_drifted)
        metrics.counter(
            "repro_walk_on_track_total", level=ld.level
        ).inc(on_track)
        degraded_steps = int(compiled.degraded[ld.ids].sum())
        if degraded_steps:
            metrics.counter(
                "repro_walk_degraded_steps_total", level=ld.level
            ).inc(degraded_steps)

    # -- resolve --------------------------------------------------------
    def resolve(
        self,
        node: IndexNode,
        level: int,
        children: Sequence[IndexNode],
    ) -> CacheEntry:
        """The validated step mechanism for one node (cache or solve)."""
        return self.resolve_many(
            level, {node.path: node}, {node.path: list(children)}
        )[node.path]

    def resolve_many(
        self,
        level: int,
        group_nodes: dict[tuple[int, ...], IndexNode],
        children_of: dict[tuple[int, ...], list[IndexNode]],
    ) -> dict[tuple[int, ...], CacheEntry]:
        """Bulk get-or-build: each distinct internal node of a level is
        solved exactly once (through the resilient chain), guarded, and
        cached before any point samples from it."""
        paths = [path for path, kids in children_of.items() if kids]
        with self._obs.tracer.span("resolve", nodes=len(paths)):
            return self._cache.get_or_build_many(
                paths,
                lambda path: self.solve_step(
                    group_nodes[path], level, children_of[path]
                ),
            )

    def solve_step(
        self,
        node: IndexNode,
        level: int,
        children: Sequence[IndexNode],
    ) -> tuple[MechanismMatrix, dict]:
        """Solve (or degrade to) one node's step mechanism and guard it.

        Fail-closed contract: the returned matrix has either been
        solved optimally through the resilient fallback chain or — when
        that chain is exhausted and degradation is enabled — replaced
        by the closed-form exponential mechanism at the same per-level
        epsilon.  Either way the privacy guard validates it before it
        may be cached or sampled from; a guard violation raises instead
        of ever letting the walk sample from a bad matrix.  Returns the
        matrix with the provenance dict
        :meth:`~repro.core.cache.NodeMechanismCache.put` expects.
        """
        locations = [child.center for child in children]
        sub_prior = self.child_prior(children)
        eps = self._budgets[level - 1]
        start = time.perf_counter()
        degraded_reason: str | None = None
        try:
            try:
                result = optimal_mechanism_from_locations(
                    eps,
                    locations,
                    sub_prior,
                    self._dq,
                    dx=self._dx,
                    backend=self._backend,
                    spanner_dilation=self._spanner_dilation,
                    solver=self._solver,
                )
                matrix = result.matrix
            except SolverError as exc:
                if not self._degrade:
                    raise
                degraded_reason = f"{type(exc).__name__}: {exc}"
                matrix = exponential_matrix_from_locations(
                    locations, eps, dx=self._dx
                )
                warnings.warn(
                    DegradedModeWarning(
                        f"level-{level} OPT solve failed at node "
                        f"{node.path}; serving the exponential fallback "
                        f"at eps={eps:.4g} (utility is sub-optimal, "
                        f"privacy unchanged)"
                    ),
                    stacklevel=2,
                )
        finally:
            elapsed = time.perf_counter() - start
            self._lp_seconds += elapsed
            if self._obs.enabled:
                metrics = self._obs.metrics
                metrics.counter(
                    "repro_lp_solve_seconds_total", level=level
                ).inc(elapsed)
                metrics.counter(
                    "repro_lp_solves_total", level=level
                ).inc()
        if self._guard:
            guard_mechanism(matrix, eps, dx=self._dx)
        return (
            matrix,
            dict(
                degraded=degraded_reason is not None,
                source="exponential" if degraded_reason is not None else "opt",
                reason=degraded_reason,
                level=level,
                epsilon=eps,
            ),
        )

    @cached_property
    def _prior_keys(self) -> np.ndarray | None:
        """The index's membership keys of the prior-grid centres."""
        return self._index.membership_keys(self._prior.grid.centers_array())

    def child_prior(self, children: Sequence[IndexNode]) -> np.ndarray:
        """Global prior mass restricted to ``children`` and renormalised.

        Region membership is delegated to the index's
        :meth:`~repro.grid.index.SpatialIndex.contains_mask`, so
        non-box partitions (the graph index) fold the prior onto their
        true regions rather than onto bounding-box envelopes.  Their
        :meth:`~repro.grid.index.SpatialIndex.membership_keys` snap of
        the prior centres is computed once per engine and reused by
        every node.
        """
        centers = self._prior.grid.centers_array()
        keys = self._prior_keys
        probs = self._prior.probabilities
        masses = np.zeros(len(children))
        for j, child in enumerate(children):
            inside = self._index.contains_mask(child, centers, keys)
            masses[j] = probs[inside].sum()
        total = masses.sum()
        if total <= 0:
            return np.full(len(children), 1.0 / len(children))
        return masses / total
