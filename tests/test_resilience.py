"""Tests for the fail-closed resilience layer.

Covers the fallback chain (ResilientSolver), the privacy-invariant
guard, end-to-end walk degradation with exact DegradationReports,
session budget accounting under failure, and bundle round-trips of
degraded mechanisms — all driven through the deterministic fault
harness rather than by mocking scipy.
"""

import numpy as np
import pytest

from repro.core import (
    MultiStepMechanism,
    ResilienceConfig,
    ResilientSolver,
    SanitizationSession,
)
from repro.core.store import load_mechanism, write_mechanism
from repro.exceptions import (
    DegradedModeWarning,
    InfeasibleProblemError,
    PrivacyViolationError,
    SolverError,
    SolverRetryExhaustedError,
)
from repro.geo.metric import EUCLIDEAN
from repro.geo.point import Point
from repro.grid.regular import RegularGrid
from repro.lp import LinearProgramBuilder, solve
from repro.lp.result import LPStatus
from repro.mechanisms.exponential import exponential_matrix
from repro.mechanisms.optimal import build_optimal_program
from repro.priors.base import GridPrior
from repro.privacy.geoind import empirical_epsilon
from repro.privacy.guard import guard_mechanism, guarded_matrix
from repro.serve.arena import MechanismArena
from repro.testing import rewrite_arena_array
from repro.testing.faults import (
    FaultInjectingSolver,
    LatencyFault,
    RaiseFault,
    StatusFault,
)

pytestmark = pytest.mark.faults


@pytest.fixture
def tiny_lp():
    """min x0  s.t.  x0 >= 1."""
    b = LinearProgramBuilder(1)
    b.set_objective({0: 1.0})
    b.add_ge({0: 1.0}, 1.0)
    return b.build()


@pytest.fixture(scope="module")
def uniform9(square20) -> GridPrior:
    """Uniform prior on a 9 x 9 grid — fine enough for a 2-level MSM."""
    return GridPrior.uniform(RegularGrid(square20, 9))


def make_resilient(rules, **config_kwargs):
    """A ResilientSolver whose raw solves run through the fault harness."""
    injector = FaultInjectingSolver(rules)
    solver = ResilientSolver(
        ResilienceConfig(**config_kwargs), solve_fn=injector
    )
    return solver, injector


def make_msm(prior, rules, degrade=True, guard=True, epsilon=0.9,
             granularity=3):
    """A small MSM whose LP solves run through the fault harness."""
    injector = FaultInjectingSolver(rules)
    solver = ResilientSolver(
        ResilienceConfig.starting_with("highs-ds"), solve_fn=injector
    )
    msm = MultiStepMechanism.build(
        epsilon, granularity, prior,
        solver=solver, degrade=degrade, guard=guard,
    )
    return msm, injector


class TestResilienceConfig:
    def test_defaults_are_the_documented_chain(self):
        cfg = ResilienceConfig()
        assert cfg.backends == ("highs-ds", "highs-ipm", "simplex")
        assert cfg.max_attempts_per_backend == 2

    def test_starting_with_reorders(self):
        cfg = ResilienceConfig.starting_with("simplex")
        assert cfg.backends == ("simplex", "highs-ds", "highs-ipm")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backends": ()},
            {"backends": ("no-such-backend",)},
            {"max_attempts_per_backend": 0},
            {"attempt_time_limit": 0.0},
            {"time_limit_growth": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SolverError):
            ResilienceConfig(**kwargs)


class TestResilientSolver:
    def test_clean_solve_first_backend_wins(self, tiny_lp):
        solver, inj = make_resilient([])
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert record.winner == "highs-ds"
        assert record.n_attempts == 1
        assert record.attempts[0].ok
        assert inj.n_calls == 1

    def test_broken_backend_falls_through_chain(self, tiny_lp):
        solver, inj = make_resilient([RaiseFault(backend="highs-ds")])
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert record.winner == "highs-ipm"
        # two failed highs-ds attempts (retryable error), then success
        assert [a.backend for a in record.attempts] == [
            "highs-ds", "highs-ds", "highs-ipm",
        ]
        assert record.attempts[0].error is not None

    def test_flaky_backend_recovers_on_retry(self, tiny_lp):
        solver, _ = make_resilient([RaiseFault(first_n=1)])
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert record.winner == "highs-ds"
        assert record.n_attempts == 2
        assert record.attempts[1].attempt == 2

    def test_structural_exception_skips_retries(self, tiny_lp):
        solver, _ = make_resilient(
            [
                RaiseFault(
                    backend="highs-ds", exc_factory=InfeasibleProblemError
                )
            ]
        )
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        # one attempt on highs-ds (no retry — deterministic failure),
        # then straight to the next backend
        assert [a.backend for a in solver.last_record.attempts] == [
            "highs-ds", "highs-ipm",
        ]

    def test_structural_status_skips_retries(self, tiny_lp):
        solver, _ = make_resilient(
            [StatusFault(LPStatus.INFEASIBLE, backend="highs-ds")]
        )
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert [a.backend for a in record.attempts] == [
            "highs-ds", "highs-ipm",
        ]
        assert record.attempts[0].status is LPStatus.INFEASIBLE

    def test_retryable_status_retries_same_backend(self, tiny_lp):
        solver, _ = make_resilient(
            [StatusFault(LPStatus.NUMERICAL, backend="highs-ds")]
        )
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert [a.backend for a in record.attempts] == [
            "highs-ds", "highs-ds", "highs-ipm",
        ]
        assert record.winner == "highs-ipm"

    def test_exhaustion_raises_with_all_attempts(self, tiny_lp):
        solver, inj = make_resilient([RaiseFault()])
        with pytest.raises(SolverRetryExhaustedError) as excinfo:
            solver.solve(tiny_lp)
        exc = excinfo.value
        assert isinstance(exc, SolverError)  # catchable as plain SolverError
        # 3 backends x 2 attempts each: the full chain was tried
        assert len(exc.attempts) == 6
        assert inj.n_calls == 6
        assert {a.backend for a in exc.attempts} == {
            "highs-ds", "highs-ipm", "simplex",
        }
        record = solver.last_record
        assert not record.succeeded
        assert record.winner is None

    def test_time_limit_grows_until_latency_fits(self, tiny_lp):
        solver, _ = make_resilient(
            [LatencyFault(seconds=1.5)], attempt_time_limit=1.0
        )
        result = solver.solve(tiny_lp)
        assert result.is_optimal
        record = solver.last_record
        assert record.winner == "highs-ds"
        assert record.attempts[0].status is LPStatus.TIME_LIMIT
        assert record.attempts[0].time_limit == pytest.approx(1.0)
        # retry with the grown budget (x2) fits the 1.5s latency
        assert record.attempts[1].time_limit == pytest.approx(2.0)
        assert result.solve_seconds >= 1.5  # simulated, no wall clock

    def test_caller_time_limit_caps_attempts(self, tiny_lp):
        solver, inj = make_resilient([], attempt_time_limit=10.0)
        solver.solve(tiny_lp, time_limit=1.0)
        assert inj.calls[0].time_limit == pytest.approx(1.0)  # min of the two

    def test_history_accumulates(self, tiny_lp):
        solver, _ = make_resilient([])
        solver.solve(tiny_lp)
        solver.solve(tiny_lp)
        assert len(solver.history) == 2
        assert all(r.succeeded for r in solver.history)


class TestScipyStatusReporting:
    """Satellite: raw scipy status/message surfaced on LPResult."""

    def test_optimal_records_raw_status(self, tiny_lp):
        result = solve(tiny_lp, backend="highs-ds")
        assert result.is_optimal
        assert result.raw_status == 0
        assert result.message  # scipy's human-readable text is kept

    def test_infeasible_records_raw_status(self):
        b = LinearProgramBuilder(1)
        b.set_objective({0: 1.0})
        b.add_ge({0: 1.0}, 1.0)
        b.add_le({0: 1.0}, 0.0)
        result = solve(b.build(), backend="highs-ds")
        assert result.status is LPStatus.INFEASIBLE
        assert result.raw_status == 2
        assert result.message

    def test_time_limit_maps_to_dedicated_status(self, square20):
        # A real OPT program big enough that HiGHS cannot finish in 1ms.
        grid = RegularGrid(square20, 7)
        locations = grid.centers()
        prior = np.full(len(locations), 1.0 / len(locations))
        program = build_optimal_program(1.0, locations, prior, EUCLIDEAN)
        result = solve(program, backend="highs-ds", time_limit=1e-3)
        assert result.status is LPStatus.TIME_LIMIT
        assert result.raw_status == 1
        assert "time limit" in result.message.lower()


class TestPrivacyGuard:
    def test_exponential_mechanism_passes(self, square20):
        matrix = exponential_matrix(RegularGrid(square20, 3), 0.5)
        report = guard_mechanism(matrix, 0.5)
        assert report.satisfied
        assert report.epsilon_tight <= 0.5 + 1e-9

    def test_guard_rejects_wrong_epsilon_claim(self, square20):
        matrix = exponential_matrix(RegularGrid(square20, 3), 0.5)
        with pytest.raises(PrivacyViolationError):
            guard_mechanism(matrix, 0.05)  # tight eps is ~0.5

    def test_guard_rejects_nonpositive_epsilon(self, square20):
        matrix = exponential_matrix(RegularGrid(square20, 3), 0.5)
        with pytest.raises(PrivacyViolationError):
            guard_mechanism(matrix, 0.0)

    def test_guarded_matrix_rejects_identity(self, square20):
        # The identity is row-stochastic but infinitely distinguishing:
        # each location emits an output no other location can.
        centers = RegularGrid(square20, 3).centers()
        with pytest.raises(PrivacyViolationError):
            guarded_matrix(centers, centers, np.eye(9), epsilon=1.0)

    def test_guarded_matrix_without_epsilon_skips_geoind(self, square20):
        centers = RegularGrid(square20, 3).centers()
        matrix = guarded_matrix(centers, centers, np.eye(9), epsilon=None)
        assert matrix.k.shape == (9, 9)


class TestDegradedWalk:
    """The issue's acceptance scenarios, end to end."""

    def test_scipy_outage_rescued_by_simplex_chain(self, square20, rng):
        # Every scipy solve fails; the dense simplex backend still
        # produces the true optimum, so nothing degrades.  Granularity 2
        # keeps the per-node LP at 16 variables — the size class the
        # from-scratch simplex handles comfortably.
        prior = GridPrior.uniform(RegularGrid(square20, 8))
        msm, inj = make_msm(
            prior, [RaiseFault(backend="highs")], granularity=2
        )
        walk = msm.sample_with_report(Point(4.0, 5.0), rng)
        assert walk.degradation.clean
        assert all(not s.degraded for s in walk.trace)
        assert all(r.winner == "simplex" for r in msm.solver.history)
        assert any(c.backend == "simplex" for c in inj.calls)

    def test_total_outage_degrades_every_level(self, uniform9, rng):
        msm, _ = make_msm(uniform9, [RaiseFault()])
        assert msm.height >= 2
        with pytest.warns(DegradedModeWarning):
            walk = msm.sample_with_report(Point(4.0, 5.0), rng)
        # availability: a point inside the domain was still produced
        assert uniform9.grid.bounds.contains(walk.point)
        # the report lists exactly the substituted levels — all of them
        assert walk.degradation.degraded_levels == tuple(
            range(1, msm.height + 1)
        )
        assert all(s.degraded for s in walk.trace)
        assert all(s.mechanism == "exponential" for s in walk.trace)
        # every substituted matrix passes the guard at its allocated eps
        for sub in walk.degradation.substitutions:
            entry = msm.cache.entry(sub.node_path)
            assert entry.degraded and entry.source == "exponential"
            guard_mechanism(entry.matrix, sub.epsilon)
            tight, _ = empirical_epsilon(entry.matrix)
            assert tight <= sub.epsilon + 1e-9
            assert "SolverRetryExhaustedError" in sub.reason

    def test_level_two_only_failure_is_reported_exactly(self, uniform9, rng):
        # The first LP (the root / level-1 node) solves; everything
        # after fails — the level-2 scenario from the issue.
        msm, _ = make_msm(uniform9, [RaiseFault(after=1)])
        assert msm.height >= 2
        with pytest.warns(DegradedModeWarning):
            walk = msm.sample_with_report(Point(4.0, 5.0), rng)
        assert walk.degradation.degraded_levels == (2,)
        assert [s.degraded for s in walk.trace] == [False, True]
        assert walk.trace[0].mechanism == "opt"
        assert walk.trace[1].mechanism == "exponential"
        summary = msm.degradation_summary()
        assert summary.degraded_levels == (2,)
        assert not summary.clean

    def test_degradation_disabled_raises(self, uniform9, rng):
        msm, _ = make_msm(uniform9, [RaiseFault()], degrade=False)
        with pytest.raises(SolverRetryExhaustedError):
            msm.sample(Point(4.0, 5.0), rng)
        # fail-closed: nothing half-solved was cached
        assert len(msm.cache) == 0

    def test_degraded_node_is_cached_not_resolved(self, uniform9, rng):
        msm, inj = make_msm(uniform9, [RaiseFault()])
        with pytest.warns(DegradedModeWarning):
            msm.precompute()
        calls_after_precompute = inj.n_calls
        walk = msm.sample_with_report(Point(4.0, 5.0), rng)
        assert not walk.degradation.clean
        # the walk was served entirely from the (degraded) cache —
        # degradation is sticky, not re-attempted per sample
        assert inj.n_calls == calls_after_precompute

    def test_clean_walk_report_is_clean(self, uniform9, rng):
        msm, _ = make_msm(uniform9, [])
        walk = msm.sample_with_report(Point(4.0, 5.0), rng)
        assert walk.degradation.clean
        assert walk.degradation.degraded_levels == ()
        assert walk.degradation.describe() == "no degradation"
        assert msm.degradation_summary().clean


class TestSessionDegradation:
    def test_degraded_report_spends_exactly_one_budget(self, uniform9, rng):
        inj = FaultInjectingSolver([RaiseFault()])
        solver = ResilientSolver(ResilienceConfig(), solve_fn=inj)
        session = SanitizationSession(
            2.0, 0.9, uniform9, granularity=3, solver=solver
        )
        with pytest.warns(DegradedModeWarning):
            report = session.report(Point(4.0, 5.0), rng)
        assert report.degraded
        assert report.degraded_levels
        assert report.epsilon_spent == pytest.approx(0.9)
        assert session.spent == pytest.approx(0.9)
        assert session.ever_degraded
        assert len(session.degradation_history) == 1
        assert not session.degradation_history[0].clean

    def test_failed_report_spends_nothing_when_degradation_off(
        self, uniform9, rng
    ):
        inj = FaultInjectingSolver([RaiseFault()])
        solver = ResilientSolver(ResilienceConfig(), solve_fn=inj)
        session = SanitizationSession(
            2.0, 0.9, uniform9, granularity=3, solver=solver, degrade=False
        )
        with pytest.raises(SolverRetryExhaustedError):
            session.report(Point(4.0, 5.0), rng)
        assert session.spent == 0.0
        assert session.history == []
        assert not session.ever_degraded


class TestBundleDegradation:
    def test_degraded_bundle_round_trips(self, uniform9, rng, tmp_path):
        msm, _ = make_msm(uniform9, [RaiseFault()])
        with pytest.warns(DegradedModeWarning):
            arena = write_mechanism(msm, tmp_path / "degraded")
        assert arena.n_nodes > 0
        loaded = load_mechanism(arena.directory)
        # degradation provenance survives the round trip
        original = msm.degradation_summary()
        restored = loaded.degradation_summary()
        assert restored.degraded_levels == original.degraded_levels
        assert restored.substitutions == original.substitutions
        assert all(
            s.fallback == "exponential" for s in restored.substitutions
        )
        # and the restored mechanism samples without any solver work
        walk = loaded.sample_with_report(Point(4.0, 5.0), rng)
        assert not walk.degradation.clean

    def test_tampered_bundle_fails_closed(self, uniform9, rng, tmp_path):
        msm, _ = make_msm(uniform9, [])
        arena = write_mechanism(msm, tmp_path / "clean")
        # doctor the root's rows into the (infinitely distinguishing)
        # identity and re-checksum the file: only the guard can tell
        n = msm.cache.get(()).shape[0]
        rewrite_arena_array(
            arena.directory, "cdf_0", np.cumsum(np.eye(n), axis=1)
        )
        with pytest.raises(PrivacyViolationError):
            load_mechanism(arena.directory)
        # the escape hatch for offline analysis still works
        raw = MechanismArena.open(arena.directory, verify=False)
        assert raw.matrices is None
        assert raw.compiled().complete

    def test_clean_bundle_still_loads_clean(self, uniform9, tmp_path):
        msm, _ = make_msm(uniform9, [])
        arena = write_mechanism(msm, tmp_path / "clean2")
        loaded = load_mechanism(arena.directory)
        assert loaded.degradation_summary().clean
