"""Tests for the unified walk engine (`repro.core.engine`).

Covers the engine's load-bearing claims: the scalar path is a batch
of one (byte-identical results under a shared seed), the locate,
resolve and sample steps behave as Algorithm 1 says, and the optimal
remap transforms outputs without ever touching the guarantee (the
guarded step matrices are unchanged and the prior-expected loss never
goes up).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MechanismError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point, points_to_array
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.kdtree import KDTreeIndex
from repro.grid.quadtree import QuadtreeIndex
from repro.grid.regular import RegularGrid
from repro.mechanisms.matrix import invert_cdf_rows
from repro.priors.base import GridPrior
from repro.privacy.guard import guard_mechanism
from repro.core.cache import NodeMechanismCache
from repro.core.engine import (
    CLEAN,
    OptimalRemapPostProcessor,
    StepTrace,
    WalkEngine,
    WalkResult,
)
from repro.core.resilience import DegradationReport
from repro.core.msm import MultiStepMechanism


@pytest.fixture(scope="module")
def square20() -> BoundingBox:
    return BoundingBox.square(Point(0.0, 0.0), 20.0)


@pytest.fixture(scope="module")
def uniform9(square20) -> GridPrior:
    return GridPrior.uniform(RegularGrid(square20, 9))


@pytest.fixture(scope="module")
def msm2(square20, uniform9) -> MultiStepMechanism:
    """A warm two-level MSM (g = 3, 81 leaves) over a uniform prior."""
    msm = MultiStepMechanism(
        HierarchicalGrid(square20, 3, 2), (0.5, 0.7), uniform9
    )
    msm.precompute()
    return msm


def uniform_points(n: int, seed: int, side: float = 20.0) -> list[Point]:
    coords = np.random.default_rng(seed).uniform(0.0, side, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


# ----------------------------------------------------------------------
# the headline contract: scalar == batch of one
# ----------------------------------------------------------------------
class TestScalarIsBatchOfOne:
    @pytest.mark.parametrize(
        "x", [Point(3.3, 12.8), Point(10.0, 10.0), Point(-5.0, 40.0)],
        ids=["off-center", "center", "out-of-domain"],
    )
    def test_walkresult_equality_under_shared_seed(self, msm2, x):
        scalar = msm2.sample_with_report(x, np.random.default_rng(7))
        batch = msm2.sanitize_batch([x], np.random.default_rng(7))
        assert len(batch) == 1
        assert scalar == batch[0]

    def test_engine_run_is_the_shared_implementation(self, msm2, rng):
        x = Point(4.4, 4.4)
        via_facade = msm2.sample_with_report(x, np.random.default_rng(3))
        via_engine = msm2.engine.run([x], np.random.default_rng(3))[0]
        assert via_facade == via_engine

    def test_sample_many_matches_sanitize_batch(self, msm2):
        xs = uniform_points(40, seed=5)
        points = msm2.sample_many(xs, np.random.default_rng(13))
        walks = msm2.sanitize_batch(xs, np.random.default_rng(13))
        assert points == [w.point for w in walks]

    @pytest.mark.parametrize("remap", [False, True], ids=["plain", "remap"])
    def test_sample_many_is_traceless_batch_points(
        self, square20, uniform9, remap
    ):
        """``sample_many`` builds no result objects, yet reports exactly
        the points a traceless batch reports, remap or not."""
        msm = MultiStepMechanism(
            HierarchicalGrid(square20, 3, 2), (0.5, 0.7), uniform9,
            remap=remap,
        )
        xs = uniform_points(300, seed=21) + [Point(-1.0, 5.0)]
        points = msm.sample_many(xs, np.random.default_rng(17))
        walks = msm.sanitize_batch(xs, np.random.default_rng(17), trace=False)
        assert points == [w.point for w in walks]
        assert all(type(p) is Point for p in points)
        if remap:
            assert all(w.raw_point is not None for w in walks)


# ----------------------------------------------------------------------
# the result types: a pinned public contract
# ----------------------------------------------------------------------
class TestResultTypes:
    def _step(self) -> StepTrace:
        return StepTrace(
            level=1, node_path=(0,), x_hat_index=2, x_hat_random=False,
            reported_index=3, degraded=True, mechanism="exponential",
        )

    def test_keyword_construction_and_fields(self):
        step = self._step()
        assert (step.level, step.node_path, step.x_hat_index) == (1, (0,), 2)
        assert (step.x_hat_random, step.reported_index) == (False, 3)
        assert (step.degraded, step.mechanism) == (True, "exponential")
        plain = StepTrace(
            level=2, node_path=(0, 1), x_hat_index=0, x_hat_random=True,
            reported_index=0,
        )
        assert (plain.degraded, plain.mechanism) == (False, "opt")
        walk = WalkResult(
            point=Point(1.0, 2.0), trace=(step,),
            degradation=DegradationReport(()),
        )
        assert walk.point == Point(1.0, 2.0)
        assert walk.trace == (step,)
        assert walk.degradation.clean
        assert walk.raw_point is None
        remapped = WalkResult(
            point=Point(1.0, 2.0), trace=(), degradation=CLEAN,
            raw_point=Point(3.0, 4.0),
        )
        assert remapped.raw_point == Point(3.0, 4.0)

    @pytest.mark.parametrize(
        "field", ["point", "trace", "degradation", "raw_point"]
    )
    def test_results_are_immutable(self, field):
        walk = WalkResult(point=Point(1.0, 2.0), trace=(), degradation=CLEAN)
        with pytest.raises(AttributeError):
            setattr(walk, field, None)

    @pytest.mark.parametrize(
        "field",
        ["level", "node_path", "x_hat_index", "x_hat_random",
         "reported_index", "degraded", "mechanism"],
    )
    def test_steps_are_immutable(self, field):
        with pytest.raises(AttributeError):
            setattr(self._step(), field, None)

    def test_results_are_hashable(self, msm2):
        walks = msm2.sanitize_batch(
            uniform_points(20, seed=3), np.random.default_rng(3)
        )
        assert len({hash(w) for w in walks}) > 1
        assert {walks[0], walks[0]} == {walks[0]}
        assert hash(self._step()) == hash(self._step())

    def test_clean_walks_share_one_report(self, msm2):
        walks = msm2.sanitize_batch(
            uniform_points(20, seed=3), np.random.default_rng(3), trace=False
        )
        assert all(w.degradation is CLEAN for w in walks)
        assert all(w.trace == () for w in walks)

    def test_points_to_array(self):
        empty = points_to_array([])
        assert empty.shape == (0, 2) and empty.dtype == np.float64
        assert points_to_array([Point(1.5, -2.0)]).tolist() == [[1.5, -2.0]]
        pts = uniform_points(50, seed=8)
        coords = points_to_array(pts)
        assert coords.shape == (50, 2)
        assert coords.tolist() == [[p.x, p.y] for p in pts]


# ----------------------------------------------------------------------
# per-stage unit tests
# ----------------------------------------------------------------------
class TestStages:
    @pytest.fixture()
    def engine(self, square20, uniform9) -> WalkEngine:
        return WalkEngine(
            HierarchicalGrid(square20, 3, 2), (0.5, 0.7), uniform9
        )

    def test_locate_snaps_inside_points(self, engine, rng):
        pts = [Point(1.0, 1.0), Point(19.0, 19.0), Point(10.0, 1.0)]
        walks = engine.run(pts, rng)
        first = [w.trace[0] for w in walks]
        assert [s.x_hat_index for s in first] == [0, 8, 1]
        assert not any(s.x_hat_random for s in first)

    def test_locate_randomises_drifted_points(self, engine):
        pts = [Point(-3.0, 5.0), Point(25.0, 25.0)]
        fanout = len(engine.index.children(engine.index.root))
        draws = set()
        for seed in range(30):
            walks = engine.run(pts, np.random.default_rng(seed))
            first = [w.trace[0] for w in walks]
            assert all(s.x_hat_random for s in first)
            assert all(0 <= s.x_hat_index < fanout for s in first)
            draws.update(s.x_hat_index for s in first)
        assert len(draws) > 1  # actually random, not a constant fill

    def test_resolve_solves_once_then_hits_cache(self, engine):
        root = engine.index.root
        children = engine.index.children(root)
        first = engine.resolve(root, 1, children)
        builds = engine.cache.builds
        again = engine.resolve(root, 1, children)
        assert engine.cache.builds == builds
        assert again.matrix is first.matrix
        assert first.level == 1
        assert first.epsilon == pytest.approx(0.5)
        assert not first.degraded

    def test_resolve_many_skips_leaf_groups(self, engine):
        root = engine.index.root
        entries = engine.resolve_many(1, {root.path: root}, {root.path: []})
        assert entries == {}
        assert engine.cache.builds == 0

    def test_sample_is_vectorised_cdf_inversion(self, engine):
        """The kernel's cross-node CDF inversion draws exactly what the
        node matrix's own ``sample_rows`` draws from the same uniforms."""
        root = engine.index.root
        children = engine.index.children(root)
        entry = engine.resolve(root, 1, children)
        x_hat = np.asarray([0, 4, 8, 4])
        u = np.random.default_rng(17).random(x_hat.size)
        a = invert_cdf_rows(entry.matrix.cdf[x_hat], u)
        b = entry.matrix.sample_rows(x_hat, u=u)
        assert a.tolist() == b.tolist()
        assert ((0 <= a) & (a < len(children))).all()

    def test_run_empty_batch(self, engine, rng):
        assert engine.run([], rng) == []

    def test_run_rejects_childless_root(self, square20, uniform9, rng):
        leaf_only = QuadtreeIndex(square20, [], capacity=64)
        engine = WalkEngine(leaf_only, (0.5,), uniform9)
        with pytest.raises(MechanismError, match="no children"):
            engine.run([Point(5.0, 5.0)], rng)


# ----------------------------------------------------------------------
# adopting another cache's entries
# ----------------------------------------------------------------------
class TestCacheMerge:
    def test_cache_merge_keeps_existing_entries(self):
        a, b = NodeMechanismCache(), NodeMechanismCache()
        from repro.mechanisms.exponential import (
            exponential_matrix_from_locations,
        )
        locs = [Point(0.0, 0.0), Point(1.0, 0.0)]
        m1 = exponential_matrix_from_locations(locs, 1.0)
        m2 = exponential_matrix_from_locations(locs, 2.0)
        a.put((0,), m1, level=1, epsilon=1.0)
        b.put((0,), m2, level=1, epsilon=2.0)
        b.put((1,), m2, level=1, epsilon=2.0)
        adopted = a.merge(b.snapshot())
        assert adopted == 1
        assert a.get((0,)) is m1  # local entry wins
        assert a.get((1,)) is m2


# ----------------------------------------------------------------------
# the optimal-remap finalise step
# ----------------------------------------------------------------------
class TestOptimalRemap:
    @pytest.fixture(scope="class")
    def msm_remap(self, square20, uniform9) -> MultiStepMechanism:
        msm = MultiStepMechanism(
            HierarchicalGrid(square20, 3, 2), (0.5, 0.7), uniform9,
            remap=True,
        )
        msm.precompute()
        return msm

    def test_remap_flag_wires_the_postprocessor(self, msm_remap):
        assert isinstance(msm_remap.postprocessor, OptimalRemapPostProcessor)

    @pytest.mark.parametrize("kind", ["quadtree", "kdtree"])
    def test_remap_refuses_non_grid_index(self, kind, square20, uniform9):
        """The remap reads the leaf grid of a HierarchicalGrid; any
        other index is refused when the remap is wired, not at the
        first sanitisation."""
        points = uniform_points(200, seed=12)
        if kind == "quadtree":
            index = QuadtreeIndex(square20, points, capacity=40, max_depth=3)
        else:
            index = KDTreeIndex(square20, points, max_depth=2)
        with pytest.raises(MechanismError, match="HierarchicalGrid"):
            MultiStepMechanism(index, (0.5, 0.7), uniform9, remap=True)
        msm = MultiStepMechanism(index, (0.5, 0.7), uniform9)
        with pytest.raises(MechanismError, match="HierarchicalGrid"):
            msm.enable_remap()
        assert msm.postprocessor is None

    def test_outputs_are_remapped_with_provenance(self, msm_remap, rng):
        walks = msm_remap.sanitize_batch(uniform_points(50, seed=4), rng)
        table = msm_remap.postprocessor.table
        grid = msm_remap.postprocessor.leaf_grid
        for walk in walks:
            assert walk.raw_point is not None
            assert walk.point == table[grid.locate(walk.raw_point).index]
            assert len(walk.trace) == 2  # walk provenance survives

    def test_scalar_batch_equality_holds_with_remap(self, msm_remap):
        x = Point(7.7, 2.2)
        scalar = msm_remap.sample_with_report(x, np.random.default_rng(5))
        batch = msm_remap.sanitize_batch([x], np.random.default_rng(5))
        assert scalar == batch[0]

    def test_remap_never_increases_expected_loss(self, msm_remap, uniform9):
        k = msm_remap.to_matrix()
        assignment = msm_remap.postprocessor.assignment()
        prior = np.full(len(k.inputs), 1.0 / len(k.inputs))
        before = k.expected_loss(prior, msm_remap.dq)
        after = k.with_remap(assignment).expected_loss(prior, msm_remap.dq)
        assert after <= before + 1e-12

    def test_remap_actually_moves_some_output(self, square20):
        """Under a skewed prior the stage is not a no-op: some walk
        output is remapped toward the mass.  (Under the uniform prior
        of the other tests the optimal remap is correctly the
        identity.)"""
        grid = RegularGrid(square20, 3)
        probs = np.full(grid.n_cells, 0.01)
        probs[0] = 1.0
        skewed = GridPrior(grid, probs / probs.sum())
        msm = MultiStepMechanism(
            HierarchicalGrid(square20, 3, 1), (0.4,), skewed, remap=True,
        )
        table = msm.postprocessor.table
        leaf_grid = msm.postprocessor.leaf_grid
        moved = [
            z_index for z_index, w in table.items()
            if leaf_grid.locate(w).index != z_index
        ]
        assert moved
        # and a walk that lands on a moved leaf really is rerouted
        landed = WalkResult(
            point=leaf_grid.cell_by_index(moved[0]).bounds.center,
            trace=(),
            degradation=DegradationReport(()),
        )
        (finalised,) = msm.postprocessor.finalise([landed])
        assert finalised.raw_point == landed.point
        assert leaf_grid.locate(finalised.point).index != moved[0]

    def test_output_off_the_leaf_grid_is_refused(self, msm_remap):
        stray = WalkResult(
            point=Point(25.0, 5.0), trace=(), degradation=CLEAN
        )
        with pytest.raises(
            MechanismError, match=r"walk output Point\(x=25.0, y=5.0\) is "
            r"outside the remap table's leaf grid"
        ):
            msm_remap.postprocessor.finalise([stray])

    def test_step_matrices_still_pass_the_guard(self, msm_remap, rng):
        """Remap is output-only: every matrix the engine sampled from
        still satisfies per-level GeoInd exactly as without remap."""
        msm_remap.sanitize_batch(uniform_points(30, seed=9), rng)
        assert len(msm_remap.cache) > 0
        for path, entry in msm_remap.cache.snapshot().items():
            guard_mechanism(entry.matrix, entry.epsilon)

    def test_session_passthrough(self, square20):
        from repro.core.session import SanitizationSession
        from repro.priors.base import GridPrior as GP

        prior = GP.uniform(RegularGrid(square20, 4))
        session = SanitizationSession(
            10.0, 1.5, prior, granularity=2, remap=True,
        )
        assert isinstance(
            session.mechanism.postprocessor, OptimalRemapPostProcessor
        )
        report = session.report(Point(5.0, 5.0), np.random.default_rng(1))
        assert session.spent == pytest.approx(1.5)
        assert prior.grid.bounds.contains(report.reported)


# ----------------------------------------------------------------------
# the batch walk over adaptive indexes (vectorised locate overrides)
# ----------------------------------------------------------------------
class TestAdaptiveIndexBatch:
    @pytest.fixture(scope="class")
    def sample_points(self) -> list[Point]:
        return uniform_points(300, seed=77)

    @pytest.fixture(scope="class")
    def quadtree(self, square20, sample_points) -> QuadtreeIndex:
        return QuadtreeIndex(
            square20, sample_points, capacity=40, max_depth=4
        )

    @pytest.fixture(scope="class")
    def kdtree(self, square20, sample_points) -> KDTreeIndex:
        return KDTreeIndex(square20, sample_points, max_depth=3)

    @pytest.mark.parametrize("index_name", ["quadtree", "kdtree"])
    def test_vectorised_locate_agrees_with_scalar(
        self, index_name, request
    ):
        from repro.grid.index import SpatialIndex

        index = request.getfixturevalue(index_name)
        pts = uniform_points(500, seed=88) + [Point(-1.0, 5.0)]
        coords = np.asarray([(p.x, p.y) for p in pts])
        stack = [index.root]
        checked = 0
        while stack:
            node = stack.pop()
            kids = index.children(node)
            if not kids:
                continue
            stack.extend(kids)
            fast = index.locate_child_indices(node, coords)
            slow = SpatialIndex.locate_child_indices(index, node, coords)
            assert fast.tolist() == slow.tolist()
            checked += 1
        assert checked >= 3  # the walk above actually exercised the tree

    @pytest.mark.parametrize("index_name", ["quadtree", "kdtree"])
    def test_sanitize_batch_over_adaptive_index(
        self, index_name, request, square20, uniform9
    ):
        index = request.getfixturevalue(index_name)
        msm = MultiStepMechanism(index, (0.6, 0.6), uniform9)
        xs = uniform_points(80, seed=99)
        walks = msm.sanitize_batch(xs, np.random.default_rng(6))
        assert len(walks) == len(xs)
        for walk in walks:
            assert square20.contains(walk.point)
            assert 1 <= len(walk.trace) <= 2
        # scalar == batch-of-one holds over adaptive indexes too
        x = xs[0]
        scalar = msm.sample_with_report(x, np.random.default_rng(12))
        batch = msm.sanitize_batch([x], np.random.default_rng(12))
        assert scalar == batch[0]
