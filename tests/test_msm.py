"""Unit and integration tests for the Multi-Step Mechanism."""

import numpy as np
import pytest

from repro.exceptions import BudgetError
from repro.geo.metric import EUCLIDEAN
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.kdtree import KDTreeIndex
from repro.grid.quadtree import QuadtreeIndex
from repro.core.budget.allocation import allocate_budget_fixed_height
from repro.core.msm import MultiStepMechanism


@pytest.fixture
def msm2(fine_prior) -> MultiStepMechanism:
    """A two-level MSM at g = 3 (eps = 0.9 yields height 2 at rho 0.8)."""
    msm = MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)
    assert msm.height == 2
    return msm


class TestConstruction:
    def test_build_uses_allocator(self, fine_prior):
        msm = MultiStepMechanism.build(0.5, 4, fine_prior)
        assert msm.plan is not None
        assert sum(msm.budgets) == pytest.approx(0.5)
        assert msm.epsilon == pytest.approx(0.5)

    def test_explicit_budgets(self, fine_prior, square20):
        index = HierarchicalGrid(square20, 3, 2)
        msm = MultiStepMechanism(index, (0.3, 0.2), fine_prior)
        assert msm.height == 2
        assert msm.plan is None

    def test_budget_validation(self, fine_prior, square20):
        index = HierarchicalGrid(square20, 3, 2)
        with pytest.raises(BudgetError):
            MultiStepMechanism(index, (), fine_prior)
        with pytest.raises(BudgetError):
            MultiStepMechanism(index, (0.3, 0.0), fine_prior)
        with pytest.raises(BudgetError):
            MultiStepMechanism(index, (0.3, -0.1), fine_prior)


class TestSampling:
    def test_output_is_a_leaf_center(self, msm2, rng):
        index = msm2.index
        leaf_centers = {
            leaf.bounds.center.as_tuple() for leaf in index.leaves()
        }
        for x in (Point(1, 1), Point(10, 10), Point(19, 19)):
            z = msm2.sample(x, rng)
            assert z.as_tuple() in leaf_centers

    def test_trace_levels(self, msm2, rng):
        _, trace = msm2.sample_with_trace(Point(5, 5), rng)
        assert [t.level for t in trace] == [1, 2]
        assert trace[0].node_path == ()
        assert len(trace[1].node_path) == 1

    def test_trace_records_descent(self, msm2, rng):
        _, trace = msm2.sample_with_trace(Point(5, 5), rng)
        # The level-2 node is the child picked at level 1.
        assert trace[1].node_path[0] == trace[0].reported_index

    def test_budget_concentration(self, fine_prior, square20, rng):
        """With a huge budget, MSM reports the true leaf cell."""
        index = HierarchicalGrid(square20, 3, 2)
        msm = MultiStepMechanism(index, (50.0, 50.0), fine_prior)
        x = Point(10.1, 9.9)
        hits = 0
        for _ in range(50):
            z = msm.sample(x, rng)
            leaf = index.level_grid(2).locate(x)
            if z == leaf.center:
                hits += 1
        assert hits >= 45

    def test_determinism_given_seed(self, msm2):
        a = msm2.sample(Point(3, 3), np.random.default_rng(5))
        b = msm2.sample(Point(3, 3), np.random.default_rng(5))
        assert a == b

    def test_walk_stops_at_index_leaves(self, fine_prior, square20, rng):
        """More budgets than index levels: walk ends at the index leaf."""
        index = HierarchicalGrid(square20, 3, 1)
        msm = MultiStepMechanism(index, (0.2, 0.2, 0.1), fine_prior)
        z = msm.sample(Point(5, 5), rng)
        level1_centers = {
            c.center.as_tuple() for c in index.level_grid(1).cells()
        }
        assert z.as_tuple() in level1_centers


class TestCacheAndPrecompute:
    def test_cache_reuse(self, msm2, rng):
        msm2.sample(Point(5, 5), rng)
        misses_after_first = msm2.cache.misses
        builds_after_first = msm2.cache.builds
        msm2.sample(Point(5, 5), rng)
        # The root mechanism is cached; the level-2 node may differ per
        # draw, but the root never misses or builds again.  (A warm walk
        # reads the kernel snapshot, so it counts no cache hit.)
        assert msm2.cache.misses <= misses_after_first + 1
        assert msm2.cache.builds <= builds_after_first + 1
        assert () in msm2.cache

    def test_precompute_covers_reachable_tree(self, msm2):
        solved = msm2.precompute()
        # Root + 9 level-1 nodes.
        assert solved == 10
        assert len(msm2.cache) == 10
        # No more LP work afterwards.
        before = msm2.lp_seconds
        msm2.sample(Point(2, 2), np.random.default_rng(0))
        assert msm2.lp_seconds == before

    def test_precompute_max_nodes(self, fine_prior):
        msm = MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)
        assert msm.precompute(max_nodes=3) == 3

    def test_cache_size_reporting(self, msm2):
        msm2.precompute()
        assert msm2.cache.size_bytes == 10 * 9 * 9 * 8


class TestExactDistribution:
    def test_distribution_sums_to_one(self, msm2):
        for x in (Point(0.5, 0.5), Point(10, 10), Point(19.5, 0.5)):
            _, probs = msm2.reported_distribution(x)
            assert probs.sum() == pytest.approx(1.0)

    def test_distribution_matches_monte_carlo(self, msm2, rng):
        x = Point(7, 13)
        points, probs = msm2.reported_distribution(x)
        exact = {p.as_tuple(): q for p, q in zip(points, probs)}
        counts: dict = {}
        n = 4000
        for _ in range(n):
            z = msm2.sample(x, rng).as_tuple()
            counts[z] = counts.get(z, 0) + 1
        for z, count in counts.items():
            # Match empirical frequencies within CLT noise.
            assert count / n == pytest.approx(
                exact.get(z, 0.0), abs=4 * np.sqrt(0.25 / n) + 0.01
            )

    def test_expected_loss_consistency(self, msm2, rng):
        x = Point(7, 13)
        exact = msm2.expected_loss(x)
        mc = np.mean(
            [x.distance_to(msm2.sample(x, rng)) for _ in range(3000)]
        )
        assert exact == pytest.approx(mc, rel=0.1)

    def test_expected_loss_metric_override(self, msm2):
        from repro.geo.metric import SQUARED_EUCLIDEAN

        x = Point(7, 13)
        d = msm2.expected_loss(x, dq=EUCLIDEAN)
        d2 = msm2.expected_loss(x, dq=SQUARED_EUCLIDEAN)
        # Jensen: E[d]^2 <= E[d^2].
        assert d * d <= d2 + 1e-9


class TestUtilityOrdering:
    def test_more_budget_less_loss(self, fine_prior, rng):
        """Across a wide budget range, average loss must fall."""
        xs = [Point(float(x), float(y))
              for x, y in rng.uniform(1, 19, size=(120, 2))]
        losses = []
        for eps in (0.1, 0.9):
            msm = MultiStepMechanism.build(eps, 3, fine_prior, rho=0.8)
            losses.append(
                np.mean([x.distance_to(msm.sample(x, rng)) for x in xs])
            )
        assert losses[1] < losses[0]

    def test_dq_is_passed_to_each_step(self, fine_prior, square20):
        """Each per-node OPT optimises the configured metric: at the root
        step, the d2-built matrix has (weakly) lower prior-weighted d2
        loss than the d-built one.  (Pointwise, or end-to-end through the
        greedy hierarchy, no such ordering is guaranteed.)"""
        from repro.geo.metric import SQUARED_EUCLIDEAN
        from repro.priors.aggregate import restrict_prior

        plan = allocate_budget_fixed_height(0.9, 3, square20.side, height=2)
        msm_d = MultiStepMechanism.from_plan(plan, fine_prior, dq=EUCLIDEAN)
        msm_d2 = MultiStepMechanism.from_plan(
            plan, fine_prior, dq=SQUARED_EUCLIDEAN
        )
        msm_d.precompute(max_nodes=1)
        msm_d2.precompute(max_nodes=1)
        root_d = msm_d.cache.get(())
        root_d2 = msm_d2.cache.get(())
        index = msm_d.index
        root_prior = restrict_prior(
            fine_prior, index.subgrid(index.root)
        ).probabilities
        assert root_d2.expected_loss(
            root_prior, SQUARED_EUCLIDEAN
        ) <= root_d.expected_loss(root_prior, SQUARED_EUCLIDEAN) + 1e-9
        assert not np.allclose(root_d.k, root_d2.k)


class TestAdaptiveIndexes:
    def test_msm_over_quadtree(self, fine_prior, small_dataset, rng):
        sample = small_dataset.sample_requests(1500, rng)
        index = QuadtreeIndex(
            small_dataset.bounds, sample, capacity=200, max_depth=3
        )
        msm = MultiStepMechanism(index, (0.2, 0.2, 0.2), fine_prior)
        z = msm.sample(sample[0], rng)
        assert small_dataset.bounds.contains(z)

    def test_msm_over_kdtree(self, fine_prior, small_dataset, rng):
        sample = small_dataset.sample_requests(800, rng)
        index = KDTreeIndex(small_dataset.bounds, sample, max_depth=4)
        msm = MultiStepMechanism(index, (0.1, 0.1, 0.2, 0.2), fine_prior)
        z = msm.sample(sample[0], rng)
        assert small_dataset.bounds.contains(z)

    def test_kdtree_distribution_sums_to_one(self, fine_prior,
                                             small_dataset, rng):
        sample = small_dataset.sample_requests(500, rng)
        index = KDTreeIndex(small_dataset.bounds, sample, max_depth=3)
        msm = MultiStepMechanism(index, (0.2, 0.2, 0.2), fine_prior)
        _, probs = msm.reported_distribution(Point(10, 10))
        assert probs.sum() == pytest.approx(1.0)

class TestBatchWalk:
    def test_empty_batch(self, msm2, rng):
        assert msm2.sanitize_batch([], rng) == []

    def test_outputs_are_leaf_centers(self, msm2, rng):
        leaf_centers = {
            leaf.bounds.center.as_tuple() for leaf in msm2.index.leaves()
        }
        xs = [Point(1, 1), Point(10, 10), Point(19, 19)] * 5
        walks = msm2.sanitize_batch(xs, rng)
        assert len(walks) == len(xs)
        for walk in walks:
            assert walk.point.as_tuple() in leaf_centers

    def test_traces_record_full_descent(self, msm2, rng):
        walks = msm2.sanitize_batch([Point(5, 5), Point(15, 2)], rng)
        for walk in walks:
            assert [t.level for t in walk.trace] == [1, 2]
            assert walk.trace[0].node_path == ()
            # Level 2 descends into the child reported at level 1.
            assert walk.trace[1].node_path == (
                walk.trace[0].reported_index,
            )
            # Output is the centre of the leaf the walk ended in.
            leaf_path = walk.trace[1].node_path + (
                walk.trace[1].reported_index,
            )
            node = msm2.index.root
            for child_index in leaf_path:
                node = msm2.index.children(node)[child_index]
            assert walk.point == node.bounds.center
            assert walk.degradation.clean

    def test_sample_many_matches_batch_points(self, msm2):
        xs = [Point(2, 2), Point(10, 10), Point(18, 18)] * 4
        points = msm2.sample_many(xs, np.random.default_rng(7))
        walks = msm2.sanitize_batch(xs, np.random.default_rng(7))
        assert points == [w.point for w in walks]

    def test_batch_determinism_given_seed(self, msm2):
        xs = [Point(3, 3), Point(12, 8)] * 10
        a = msm2.sanitize_batch(xs, np.random.default_rng(11))
        b = msm2.sanitize_batch(xs, np.random.default_rng(11))
        assert [w.point for w in a] == [w.point for w in b]
        assert [w.trace for w in a] == [w.trace for w in b]

    def test_precomputed_batch_does_no_lp_work(self, msm2):
        msm2.precompute()
        before = msm2.lp_seconds
        builds_before = msm2.cache.builds
        msm2.sanitize_batch(
            [Point(4, 4), Point(16, 16)] * 8, np.random.default_rng(3)
        )
        assert msm2.lp_seconds == before
        assert msm2.cache.builds == builds_before

    def test_cold_batch_solves_each_node_once(self, square20):
        from repro.grid.regular import RegularGrid
        from repro.priors.base import GridPrior

        prior = GridPrior.uniform(RegularGrid(square20, 9))
        index = HierarchicalGrid(square20, 3, 2)
        msm = MultiStepMechanism(index, (0.5, 0.7), prior)
        rng = np.random.default_rng(20190326)
        coords = rng.uniform(0.0, 20.0, size=(500, 2))
        msm.sanitize_batch(
            [Point(float(x), float(y)) for x, y in coords], rng
        )
        # 500 points over 9 level-1 cells reach every level-2 node, yet
        # each distinct node is built exactly once: root + 9 children.
        assert msm.cache.builds == 10
        assert len(msm.cache) == 10

    def test_outside_point_gets_random_x_hat(self, msm2, rng):
        walks = msm2.sanitize_batch([Point(-50.0, -50.0)], rng)
        assert walks[0].trace[0].x_hat_random
        in_domain = msm2.sanitize_batch([Point(5.0, 5.0)], rng)
        assert not in_domain[0].trace[0].x_hat_random

    def test_batch_over_adaptive_index(self, fine_prior, small_dataset, rng):
        sample = small_dataset.sample_requests(600, rng)
        index = QuadtreeIndex(
            small_dataset.bounds, sample, capacity=150, max_depth=3
        )
        msm = MultiStepMechanism(index, (0.2, 0.2, 0.2), fine_prior)
        walks = msm.sanitize_batch(sample[:40], rng)
        assert len(walks) == 40
        for walk in walks:
            assert small_dataset.bounds.contains(walk.point)
            # Uneven quadtree depth: traces may stop before 3 levels.
            assert 1 <= len(walk.trace) <= 3
