"""The Multi-Step Mechanism (MSM) — Algorithm 1 of the paper.

MSM sanitises a location by walking a hierarchical spatial index from
the root: at every level it solves (or fetches from cache) the *optimal
mechanism* over the current node's children, snaps the true location to
the child containing it (or a uniformly random child when the walk has
already drifted away — Algorithm 1, lines 9-10), samples a reported
child from the mechanism row, and descends into it.  The final level's
sampled centre is the reported location.

Each level consumes a slice of the privacy budget; by sequential
composition the full walk satisfies GeoInd at the budget sum.  Utility
is protected by the budget-allocation model of
:mod:`repro.core.budget`, which keeps the probability of "staying on
track" at least ``rho`` per level for as long as the budget lasts.

The walk itself lives in :mod:`repro.core.engine`: this class is a thin
facade over one :class:`~repro.core.engine.WalkEngine`, so the scalar
path (:meth:`MultiStepMechanism.sample_with_report`) and the batch path
(:meth:`MultiStepMechanism.sanitize_batch`) are the *same* compiled
walk — a scalar call is a batch of one, byte-identical under a shared
seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import BudgetError, MechanismError
from repro.geo.metric import EUCLIDEAN, Metric
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.index import IndexNode, SpatialIndex
from repro.mechanisms.base import Mechanism
from repro.mechanisms.matrix import MechanismMatrix
from repro.priors.base import GridPrior
from repro.privacy.guard import guarded_matrix
from repro.core.budget.allocation import BudgetPlan, allocate_budget
from repro.core.cache import CacheEntry, NodeMechanismCache
from repro.core.engine import (
    OptimalRemapPostProcessor,
    StepTrace,
    TelemetrySummary,
    WalkEngine,
    WalkReport,
    WalkResult,
)
from repro.obs import Observability
from repro.core.resilience import (
    DegradationReport,
    DegradedNode,
    ResilienceConfig,
    ResilientSolver,
)

__all__ = [
    "MultiStepMechanism",
    "StepTrace",
    "TelemetrySummary",
    "WalkReport",
    "WalkResult",
]


class MultiStepMechanism(Mechanism):
    """MSM over any :class:`~repro.grid.index.SpatialIndex`.

    Parameters
    ----------
    index:
        The hierarchical partition to walk (a
        :class:`~repro.grid.hierarchy.HierarchicalGrid` for the paper's
        GIHI; quadtree/k-d variants for the future-work ablations).
    budgets:
        Per-level privacy budgets, top level first.  The walk stops at
        ``len(budgets)`` levels or at a leaf, whichever comes first.
    prior:
        Global prior on a fine regular grid over the same domain; each
        step restricts and renormalises it to the node's children.
    dq:
        Utility-loss metric optimised by each per-step OPT.
    dx:
        Distinguishability metric of the GeoInd constraints.
    backend:
        LP backend name (see :mod:`repro.lp`); becomes the *first* entry
        of the resilient solver's fallback chain.
    spanner_dilation:
        Optional constraint-reduction dilation forwarded to each OPT.
    resilience:
        Fallback-chain policy; defaults to the standard chain starting
        at ``backend``.  Ignored when an explicit ``solver`` is given.
    solver:
        A pre-built :class:`~repro.core.resilience.ResilientSolver`
        (the fault-injection harness passes one wrapping a scripted
        solve function).
    degrade:
        When True (default), a level whose OPT solve is unrecoverable
        is served by the closed-form exponential mechanism at that
        level's epsilon — same privacy, same budget spend, lower
        utility — and the substitution is recorded.  When False the
        walk raises instead (strict fail-stop).
    guard:
        When True (default), every step matrix is validated by the
        privacy guard before it may be sampled from; violations raise
        :class:`~repro.exceptions.PrivacyViolationError`.
    cache:
        An externally-owned :class:`NodeMechanismCache` (the fault
        harness uses this to inject cache faults); a fresh one by
        default.
    remap:
        When True, every walk output goes through the optimal Bayesian
        remap (:class:`~repro.core.engine.OptimalRemapPostProcessor`,
        the finalise step).  Needs a
        :class:`~repro.grid.hierarchy.HierarchicalGrid` index.

    Use :meth:`build` for the end-to-end constructor that also runs the
    budget allocator.
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
        resilience: ResilienceConfig | None = None,
        solver: ResilientSolver | None = None,
        degrade: bool = True,
        guard: bool = True,
        cache: NodeMechanismCache | None = None,
        remap: bool = False,
        obs: Observability | None = None,
    ):
        budgets = tuple(float(b) for b in budgets)
        if not budgets:
            raise BudgetError("MSM needs at least one level budget")
        if any(b <= 0 for b in budgets):
            raise BudgetError(f"all level budgets must be positive: {budgets}")
        if solver is None:
            config = (
                resilience
                if resilience is not None
                else ResilienceConfig.starting_with(backend)
            )
            solver = ResilientSolver(config)
        self._engine = WalkEngine(
            index,
            budgets,
            prior,
            dq=dq,
            dx=dx,
            backend=backend,
            spanner_dilation=spanner_dilation,
            solver=solver,
            degrade=degrade,
            guard=guard,
            cache=cache,
            obs=obs,
        )
        if remap:
            self.enable_remap()
        self.epsilon = sum(budgets)
        self.name = "MSM"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        epsilon: float,
        granularity: int,
        prior: GridPrior,
        rho: float = 0.8,
        dq: Metric = EUCLIDEAN,
        dx: Metric = EUCLIDEAN,
        backend: str = "highs-ds",
        max_height: int = 16,
        spanner_dilation: float | None = None,
        resilience: ResilienceConfig | None = None,
        solver: ResilientSolver | None = None,
        degrade: bool = True,
        guard: bool = True,
        cache: NodeMechanismCache | None = None,
        remap: bool = False,
        obs: Observability | None = None,
    ) -> "MultiStepMechanism":
        """Allocate the budget (Algorithm 2) and build MSM over a GIHI.

        The index height is whatever the allocator decides; the prior's
        grid provides the domain bounds.
        """
        plan = allocate_budget(
            epsilon,
            granularity,
            prior.grid.bounds.side,
            rho=rho,
            max_height=max_height,
        )
        return cls.from_plan(
            plan,
            prior,
            dq=dq,
            dx=dx,
            backend=backend,
            spanner_dilation=spanner_dilation,
            resilience=resilience,
            solver=solver,
            degrade=degrade,
            guard=guard,
            cache=cache,
            remap=remap,
            obs=obs,
        )

    @classmethod
    def from_plan(
        cls,
        plan: BudgetPlan,
        prior: GridPrior,
        dq: Metric = EUCLIDEAN,
        dx: Metric = EUCLIDEAN,
        backend: str = "highs-ds",
        spanner_dilation: float | None = None,
        resilience: ResilienceConfig | None = None,
        solver: ResilientSolver | None = None,
        degrade: bool = True,
        guard: bool = True,
        cache: NodeMechanismCache | None = None,
        remap: bool = False,
        obs: Observability | None = None,
    ) -> "MultiStepMechanism":
        """Build MSM over a GIHI shaped by an existing budget plan."""
        index = HierarchicalGrid(
            prior.grid.bounds, plan.granularity, plan.height
        )
        msm = cls(
            index,
            plan.budgets,
            prior,
            dq=dq,
            dx=dx,
            backend=backend,
            spanner_dilation=spanner_dilation,
            resilience=resilience,
            solver=solver,
            degrade=degrade,
            guard=guard,
            cache=cache,
            remap=remap,
            obs=obs,
        )
        msm._plan = plan
        if obs is not None and obs.enabled:
            obs.metrics.gauge("repro_budget_rho_target").set(plan.rho)
        return msm

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    _plan: BudgetPlan | None = None

    @property
    def engine(self) -> WalkEngine:
        """The walk engine everything below routes through."""
        return self._engine

    @property
    def index(self) -> SpatialIndex:
        """The hierarchical index MSM walks."""
        return self._engine.index

    @property
    def budgets(self) -> tuple[float, ...]:
        """Per-level budgets, top first."""
        return self._engine.budgets

    @property
    def plan(self) -> BudgetPlan | None:
        """The budget plan, when MSM was built through the allocator."""
        return self._plan

    @property
    def prior(self) -> GridPrior:
        """The global fine-grained prior."""
        return self._engine.prior

    @property
    def dq(self) -> Metric:
        """The utility-loss metric each per-step OPT optimises."""
        return self._engine.dq

    @property
    def cache(self) -> NodeMechanismCache:
        """The per-node mechanism cache."""
        return self._engine.cache

    @property
    def solver(self) -> ResilientSolver:
        """The resilient LP solver every per-level OPT goes through."""
        return self._engine.solver

    @property
    def spanner_dilation(self) -> float | None:
        """The Δ-spanner dilation cold LP builds use (None = exact LP)."""
        return self._engine.spanner_dilation

    @property
    def lp_seconds(self) -> float:
        """Cumulative wall-clock spent solving per-node LPs."""
        return self._engine.lp_seconds

    @property
    def observability(self) -> Observability:
        """The engine's observability handle (the no-op by default)."""
        return self._engine.observability

    @property
    def height(self) -> int:
        """Number of levels the walk descends."""
        return len(self._engine.budgets)

    @property
    def postprocessor(self) -> OptimalRemapPostProcessor | None:
        """The optimal remap of the finalise step, when one is wired."""
        return self._engine.postprocessor

    def enable_remap(self, dq: Metric | None = None) -> None:
        """Wire the optimal Bayesian remap into the finalise stage.

        Works on any MSM over a hierarchical grid, including one
        restored from an offline bundle; the remap table is built
        lazily on the first sanitisation.  Raises
        :class:`~repro.exceptions.MechanismError` for any other index,
        whose walk has no leaf grid to remap over.
        """
        self._engine.postprocessor = OptimalRemapPostProcessor(self, dq=dq)

    # ------------------------------------------------------------------
    # the walk — every entry point is the same engine pipeline
    # ------------------------------------------------------------------
    def sample(self, x: Point, rng: np.random.Generator) -> Point:
        return self.sample_with_report(x, rng).point

    def sample_with_trace(
        self, x: Point, rng: np.random.Generator
    ) -> tuple[Point, list[StepTrace]]:
        """Sanitise ``x`` and return the per-level walk trace."""
        result = self.sample_with_report(x, rng)
        return (result.point, list(result.trace))

    def sample_with_report(
        self, x: Point, rng: np.random.Generator
    ) -> WalkResult:
        """Sanitise ``x`` with the full trace and degradation report.

        A batch of one through the engine — byte-identical to
        ``sanitize_batch([x], rng)[0]`` under a shared seed.  Every
        step matrix sampled here has passed the privacy guard (at that
        level's epsilon) when guarding is enabled; the
        :class:`~repro.core.resilience.DegradationReport` lists exactly
        the levels served by a substituted fallback mechanism.
        """
        return self._engine.run([x], rng)[0]

    def sanitize_batch(
        self,
        xs: Sequence[Point],
        rng: np.random.Generator,
        trace: bool = True,
    ) -> list[WalkResult]:
        """Sanitise many locations in one engine run.

        Every point gets its own independent walk, full
        :class:`StepTrace` provenance and per-point
        :class:`~repro.core.resilience.DegradationReport`.  The whole
        batch runs on the compiled kernel
        (:class:`~repro.core.kernel.CompiledWalk`) in one flat pass
        per level: every active point is located at once, the level's
        node mechanisms not yet cached are resolved first (each
        distinct node's LP solved exactly once, through the resilient
        chain), and the level's draws are one cross-node CDF
        inversion.  The whole batch walks in-process and shares one
        random stream.  Degradation
        applies per node: when a node's solve is unrecoverable,
        exactly the points walking through that node carry the
        substituted mechanism in their traces, and only those.

        ``trace=False`` skips per-point :class:`StepTrace`
        materialisation — sampled points, degradation reports and
        telemetry are unchanged, but results carry empty traces.  It
        is the hot-path configuration: without a remap, every clean
        walk's result is the one shared by all walks ending at its
        node (compare results by value, not identity), so the call
        builds no object per report; only walks through a degraded
        node get results of their own.
        """
        return self._engine.run(xs, rng, trace=trace)

    def sanitize_batch_report(
        self,
        xs: Sequence[Point],
        rng: np.random.Generator,
        trace: bool = True,
    ) -> WalkReport:
        """Like :meth:`sanitize_batch`, wrapped in a
        :class:`~repro.core.engine.WalkReport` whose ``telemetry``
        summarises the batch's metrics delta when observability is
        enabled (None otherwise)."""
        return self._engine.run_report(xs, rng, trace=trace)

    def sample_many(
        self, xs: Sequence[Point], rng: np.random.Generator
    ) -> list[Point]:
        """Batch sanitisation via the vectorised walk (same distribution
        as per-point :meth:`sample`, far higher throughput).  Only the
        reported points are built: no traces, reports or result
        objects; byte-identical to the ``point`` fields of
        :meth:`sanitize_batch` under a shared seed."""
        return self._engine.sample_many(xs, rng)

    def degradation_summary(self) -> DegradationReport:
        """Substitutions across every node solved so far (whole cache)."""
        substitutions = []
        for path, entry in sorted(self.cache.degraded_entries().items()):
            substitutions.append(
                DegradedNode(
                    node_path=path,
                    level=entry.level if entry.level is not None else len(path) + 1,
                    epsilon=entry.epsilon if entry.epsilon is not None else 0.0,
                    fallback=entry.source,
                    reason=entry.reason or "",
                )
            )
        return DegradationReport(tuple(substitutions))

    def _walk_distribution(self, x: Point) -> tuple[list[IndexNode], np.ndarray]:
        """Exact stop-node distribution of the walk for location ``x``.

        Expands the full walk tree (``fanout^height`` leaves), folding
        the lines-9-10 random fallback in closed form: when the current
        node does not contain ``x``, the effective mechanism row is the
        uniform mixture of all rows.  Returns the nodes at which the
        walk terminates with their probabilities; index-agnostic (only
        ``children`` / ``locate_child`` are used).
        """
        index = self.index
        budgets = self.budgets
        stops: list[IndexNode] = []
        probs: list[float] = []

        def walk(node: IndexNode, level: int, mass: float) -> None:
            children = index.children(node)
            if level > len(budgets) or not children:
                stops.append(node)
                probs.append(mass)
                return
            matrix = self._step_mechanism(node, level, children)
            child_of_x = index.locate_child(node, x)
            if child_of_x is not None:
                row = matrix.row(child_of_x.path[-1])
            else:
                row = matrix.k.mean(axis=0)
            for j, child in enumerate(children):
                p = float(row[j])
                if p > 0:
                    walk(child, level + 1, mass * p)

        walk(index.root, 1, 1.0)
        return (stops, np.asarray(probs))

    def reported_distribution(self, x: Point) -> tuple[list[Point], np.ndarray]:
        """Exact output distribution of the walk for actual location ``x``.

        The point of each stop node is its ``center`` (box centre for
        planar indexes, medoid vertex for graph partitions).  This is
        the distribution of the *walk itself* — the finalise stage, a
        deterministic output transformation, is intentionally not
        folded in.  Used for exact expected-loss computation and for
        the privacy product-matrix tests.
        """
        stops, probs = self._walk_distribution(x)
        return ([node.center for node in stops], probs)

    def stop_nodes(self) -> list[IndexNode]:
        """Nodes at which walks can terminate, in depth-first order.

        These are the leaves of the index truncated at the budgeted
        height — the exact support of :meth:`reported_distribution` for
        every input.
        """
        index = self.index
        max_level = len(self.budgets)
        out: list[IndexNode] = []
        stack = [(index.root, 1)]
        while stack:
            node, level = stack.pop()
            children = index.children(node)
            if level > max_level or not children:
                out.append(node)
            else:
                stack.extend((c, level + 1) for c in reversed(children))
        return out

    def expected_loss(self, x: Point, dq: Metric | None = None) -> float:
        """Exact expected utility loss for actual location ``x``."""
        metric = dq if dq is not None else self.dq
        points, probs = self.reported_distribution(x)
        losses = np.asarray([metric(x, z) for z in points])
        return float(probs @ losses)

    def to_matrix(self, guard: bool = False) -> MechanismMatrix:
        """The exact end-to-end mechanism over the walk's stop points.

        Over a :class:`~repro.grid.hierarchy.HierarchicalGrid` the stop
        points are the leaf-cell centres in row-major grid order; over
        any other index (STR, k-d, graph partition) they are the
        :meth:`stop_nodes` representative points in depth-first order.
        Either way the result is the dense product of the whole walk —
        it makes MSM a first-class citizen of everything that consumes
        matrices: GeoInd verification, Bayesian remapping, inference
        attacks and exact expected-loss computation.  Cost is
        O(leaves * fanout^height); meant for analysis-scale instances,
        not the online path.

        With ``guard=True`` the product matrix is additionally verified
        to be ``sum(budgets)``-GeoInd under plain ``dx`` before being
        returned.  The default leaves it off because MSM's rigorous
        guarantee is stated against the *hierarchical* metric
        (:mod:`repro.privacy.hierarchical`); the per-step matrices the
        online path samples from are always guarded regardless.
        """
        index = self.index
        if isinstance(index, HierarchicalGrid):
            depth = min(self.height, index.height)
            leaf_grid = index.level_grid(depth)
            centers = leaf_grid.centers()
            k = np.zeros((len(centers), len(centers)))
            for i, x in enumerate(centers):
                points, probs = self.reported_distribution(x)
                for p, mass in zip(points, probs):
                    k[i, leaf_grid.locate(p).index] += mass
            return guarded_matrix(
                centers,
                centers,
                k,
                epsilon=self.epsilon if guard else None,
                dx=self._engine.dx,
            )
        stops = self.stop_nodes()
        row_of = {node.path: j for j, node in enumerate(stops)}
        centers = [node.center for node in stops]
        k = np.zeros((len(stops), len(stops)))
        for i, x in enumerate(centers):
            nodes, probs = self._walk_distribution(x)
            for node, mass in zip(nodes, probs):
                k[i, row_of[node.path]] += mass
        return guarded_matrix(
            centers,
            centers,
            k,
            epsilon=self.epsilon if guard else None,
            dx=self._engine.dx,
        )

    # ------------------------------------------------------------------
    # offline precomputation
    # ------------------------------------------------------------------
    def precompute(self, max_nodes: int | None = None) -> int:
        """Solve and cache every node mechanism reachable by a walk.

        Returns the number of newly solved nodes.  ``max_nodes`` caps
        the work (useful for very deep adaptive indexes); uncapped, the
        cache holds one matrix per internal node above the walk depth —
        the paper's "tens of megabytes" offline bundle.
        """
        solved = 0
        queue: list[tuple[IndexNode, int]] = [(self.index.root, 1)]
        while queue:
            node, level = queue.pop()
            if level > self.height:
                continue
            children = self.index.children(node)
            if not children:
                continue
            if node.path not in self.cache:
                self._step_mechanism(node, level, children)
                solved += 1
                if max_nodes is not None and solved >= max_nodes:
                    return solved
            queue.extend((child, level + 1) for child in children)
        return solved

    # ------------------------------------------------------------------
    # internals — thin delegations into the engine's resolve stage
    # ------------------------------------------------------------------
    def _step_mechanism(
        self,
        node: IndexNode,
        level: int,
        children: Sequence[IndexNode],
    ) -> MechanismMatrix:
        """The validated step matrix for one node (see :meth:`_step_entry`)."""
        return self._step_entry(node, level, children).matrix

    def _step_entry(
        self,
        node: IndexNode,
        level: int,
        children: Sequence[IndexNode],
    ) -> CacheEntry:
        """The step mechanism for one node, via the engine's resolve
        stage (cache by node path, resilient solve on a miss, guard
        before it may be sampled from)."""
        return self._engine.resolve(node, level, children)
