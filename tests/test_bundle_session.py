"""Tests for offline bundles and sanitisation sessions.

A bundle is the mechanism arena ``repro bundle`` writes
(:func:`~repro.core.store.write_mechanism`), read back by
:func:`~repro.core.store.load_mechanism`.
"""

import numpy as np
import pytest

from repro.exceptions import BudgetError, MechanismError
from repro.geo.point import Point
from repro.grid.kdtree import KDTreeIndex
from repro.core.msm import MultiStepMechanism
from repro.core.session import SanitizationSession
from repro.core.store import load_mechanism, write_mechanism


@pytest.fixture
def msm(fine_prior) -> MultiStepMechanism:
    return MultiStepMechanism.build(0.9, 3, fine_prior, rho=0.8)


class TestBundle:
    def test_roundtrip_preserves_everything(self, msm, tmp_path):
        arena = write_mechanism(msm, tmp_path / "austin")
        assert arena.n_nodes == 1 + 9 + 81  # root, level 1, leaves
        assert arena.nbytes > 0
        assert sum(arena.budgets) == pytest.approx(0.9)

        restored = load_mechanism(arena.directory)
        assert restored.budgets == pytest.approx(msm.budgets)
        assert restored.height == msm.height
        assert restored.prior.probabilities == pytest.approx(
            msm.prior.probabilities
        )
        assert len(restored.cache) == 10  # root + 9 level-1 nodes
        # the arena stores CDF rows; their steps give back the solved
        # matrices to float round-off (a cumsum and a diff apart)
        for path in [(), (0,), (4,), (8,)]:
            original = msm.cache.get(path)
            again = restored.cache.get(path)
            assert np.allclose(original.k, again.k, rtol=0, atol=1e-15)
            assert again.inputs == original.inputs

    def test_restored_mechanism_needs_no_lp(self, msm, tmp_path, rng):
        arena = write_mechanism(msm, tmp_path / "b")
        restored = load_mechanism(arena.directory)
        before = restored.lp_seconds
        for _ in range(20):
            restored.sample(Point(10, 10), rng)
        assert restored.lp_seconds == before
        assert restored.cache.builds == 0

    def test_restored_distribution_matches(self, msm, tmp_path):
        arena = write_mechanism(msm, tmp_path / "b")
        restored = load_mechanism(arena.directory)
        x = Point(7.3, 12.8)
        pts_a, probs_a = msm.reported_distribution(x)
        pts_b, probs_b = restored.reported_distribution(x)
        dist_a = {p.as_tuple(): q for p, q in zip(pts_a, probs_a)}
        dist_b = {p.as_tuple(): q for p, q in zip(pts_b, probs_b)}
        assert set(dist_a) == set(dist_b)
        for key, value in dist_a.items():
            assert dist_b[key] == pytest.approx(value, abs=1e-12)

    def test_sample_from_bundle_one_shot(self, msm, tmp_path):
        arena = write_mechanism(msm, tmp_path / "b")
        z = load_mechanism(arena.directory).sample(
            Point(5, 5), np.random.default_rng(3)
        )
        assert msm.index.bounds.contains(z)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MechanismError, match="not found"):
            load_mechanism(tmp_path / "nope")

    def test_adaptive_index_rejected(self, fine_prior, small_dataset,
                                     rng, tmp_path):
        sample = small_dataset.sample_requests(200, rng)
        index = KDTreeIndex(small_dataset.bounds, sample, max_depth=2)
        msm = MultiStepMechanism(index, (0.2, 0.2), fine_prior)
        with pytest.raises(MechanismError, match="HierarchicalGrid"):
            write_mechanism(msm, tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_dq_metric_survives_roundtrip(self, fine_prior, tmp_path):
        from repro.geo.metric import SQUARED_EUCLIDEAN

        msm = MultiStepMechanism.build(
            0.9, 3, fine_prior, rho=0.8, dq=SQUARED_EUCLIDEAN
        )
        arena = write_mechanism(msm, tmp_path / "b")
        restored = load_mechanism(arena.directory)
        assert restored.dq.name == "squared_euclidean"


class TestSession:
    def test_budget_arithmetic(self, fine_prior, rng):
        session = SanitizationSession(
            lifetime_epsilon=1.0, per_report_epsilon=0.3, prior=fine_prior,
            granularity=3,
        )
        assert session.reports_remaining == 3
        x = Point(10, 10)
        session.report(x, rng)
        session.report(x, rng)
        assert session.spent == pytest.approx(0.6)
        assert session.remaining == pytest.approx(0.4)
        assert session.reports_remaining == 1

    def test_exhaustion_refuses_and_preserves_privacy(self, fine_prior, rng):
        session = SanitizationSession(
            lifetime_epsilon=0.5, per_report_epsilon=0.25, prior=fine_prior,
            granularity=3,
        )
        x = Point(5, 5)
        session.report(x, rng)
        session.report(x, rng)
        assert not session.can_report()
        with pytest.raises(BudgetError, match="exhausted"):
            session.report(x, rng)
        assert len(session.history) == 2

    def test_history_records(self, fine_prior, rng):
        session = SanitizationSession(
            lifetime_epsilon=0.6, per_report_epsilon=0.2, prior=fine_prior,
            granularity=3,
        )
        r0 = session.report(Point(4, 4), rng)
        r1 = session.report(Point(6, 6), rng)
        assert r0.sequence == 0 and r1.sequence == 1
        assert r0.epsilon_remaining == pytest.approx(0.4)
        assert r1.epsilon_remaining == pytest.approx(0.2)
        assert session.history[0].actual == Point(4, 4)

    def test_parameter_validation(self, fine_prior):
        with pytest.raises(BudgetError):
            SanitizationSession(1.0, 0.0, fine_prior)
        with pytest.raises(BudgetError):
            SanitizationSession(0.2, 0.5, fine_prior)

    def test_precompute_then_fast_reports(self, fine_prior, rng):
        session = SanitizationSession(
            lifetime_epsilon=3.0, per_report_epsilon=0.3, prior=fine_prior,
            granularity=3,
        )
        session.precompute()
        lp_before = session.mechanism.lp_seconds
        for _ in range(5):
            session.report(Point(10, 10), rng)
        assert session.mechanism.lp_seconds == lp_before
