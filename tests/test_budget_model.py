"""Unit and property tests for the budget model (lattice sums, Phi,
Problem 1, Algorithm 2)."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetError
from repro.core.engine import WalkResult
from repro.core.ledger import BudgetLedger
from repro.core.resilience import DegradationReport
from repro.core.session import SanitizationSession, ShardBudgetBook
from repro.geo.point import Point
from repro.core.budget import (
    allocate_budget,
    allocate_budget_fixed_height,
    dirichlet_beta,
    lattice_sum,
    lattice_sum_direct,
    lattice_sum_series,
    min_epsilon_for_rho,
    min_lattice_parameter,
    phi,
    phi_for_grid,
    riemann_zeta,
    series_coefficient,
    truncation_radius,
)


class _CountingMechanism:
    """A stub per-report mechanism: echoes each point and counts how
    many it sampled (no LP work, pure accounting)."""

    name = "echo"

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.sampled = 0

    def sample_with_report(self, x, rng):
        self.sampled += 1
        return WalkResult(
            point=x, trace=(), degradation=DegradationReport(())
        )

    def sanitize_batch(self, xs, rng):
        return [self.sample_with_report(x, rng) for x in xs]


class _Drive(NamedTuple):
    """What one admission path delivered from a fresh lifetime."""

    delivered: int
    sampled: Callable[[], int]
    admit_next: Callable[[], object]


def _drive_session_report(lifetime, per_report, tmp_path) -> _Drive:
    mechanism = _CountingMechanism(per_report)
    session = SanitizationSession(lifetime, per_report, mechanism=mechanism)
    rng = np.random.default_rng(0)
    delivered = 0
    while session.can_report():
        session.report(Point(1.0, 1.0), rng)
        delivered += 1
    return _Drive(
        delivered,
        lambda: mechanism.sampled,
        lambda: session.report(Point(1.0, 1.0), rng),
    )


def _drive_session_batch(lifetime, per_report, tmp_path) -> _Drive:
    mechanism = _CountingMechanism(per_report)
    session = SanitizationSession(lifetime, per_report, mechanism=mechanism)
    rng = np.random.default_rng(0)
    records = session.report_batch(
        [Point(1.0, 1.0)] * session.reports_remaining, rng
    )
    return _Drive(
        len(records),
        lambda: mechanism.sampled,
        lambda: session.report_batch([Point(1.0, 1.0)], rng),
    )


def _drive_book(lifetime, per_report, ledger) -> _Drive:
    book = ShardBudgetBook(lifetime, per_report, ledger=ledger)
    # ask for more than can fit: admit_many refuses the excess per
    # request, and each admitted request is sampled, then settled
    outcomes = book.admit_many(["u"] * (book.reports_remaining("u") + 2))
    admitted = [o for o in outcomes if not isinstance(o, BudgetError)]
    for entry_id in admitted:
        book.settle("u", entry_id)
    return _Drive(
        len(admitted), lambda: len(admitted), lambda: book.admit("u")
    )


def _drive_book_with_ledger(lifetime, per_report, tmp_path) -> _Drive:
    ledger = BudgetLedger(tmp_path / "journal")
    try:
        return _drive_book(lifetime, per_report, ledger)
    finally:
        ledger.close()


_ADMISSION_PATHS = {
    "session-report": _drive_session_report,
    "session-batch": _drive_session_batch,
    "book": lambda lifetime, per_report, tmp_path: _drive_book(
        lifetime, per_report, None
    ),
    "book-ledger": _drive_book_with_ledger,
}

#: Lifetimes just short of a whole number of reports (where the
#: product ``n * per_report`` and ``n`` sequential spends disagree),
#: and every divisor 1..50 of a unit lifetime.
_ADMISSION_GRID = [
    pytest.param(0.399999999, 0.1, id="0.399999999-per-0.1"),
    pytest.param(0.599999999, 0.1, id="0.599999999-per-0.1"),
] + [
    pytest.param(1.0, 1.0 / d, id=f"1.0-per-1_{d}") for d in range(1, 51)
]


class TestSpecialFunctions:
    def test_dirichlet_beta_known_values(self):
        # beta(1) = pi/4, beta(2) = Catalan, beta(3) = pi^3/32.
        assert dirichlet_beta(1.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert dirichlet_beta(2.0) == pytest.approx(0.9159655941772190, abs=1e-12)
        assert dirichlet_beta(3.0) == pytest.approx(math.pi**3 / 32, abs=1e-12)

    def test_dirichlet_beta_matches_series(self):
        u = 1.5
        direct = sum((-1) ** n / (2 * n + 1) ** u for n in range(200000))
        assert dirichlet_beta(u) == pytest.approx(direct, abs=1e-7)

    def test_riemann_zeta_known_value(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(BudgetError):
            dirichlet_beta(0.0)
        with pytest.raises(BudgetError):
            riemann_zeta(1.0)
        with pytest.raises(BudgetError):
            series_coefficient(0)


class TestLatticeSum:
    def test_validation(self):
        with pytest.raises(BudgetError):
            lattice_sum_direct(0.0)
        with pytest.raises(BudgetError):
            lattice_sum_series(-1.0)
        with pytest.raises(BudgetError):
            lattice_sum_series(7.0)  # beyond 2 pi

    def test_truncation_radius_monotone(self):
        assert truncation_radius(0.5) > truncation_radius(2.0)

    def test_limits(self):
        # T -> 1 as s -> inf (only the origin survives).
        assert lattice_sum_direct(50.0) == pytest.approx(1.0, abs=1e-12)
        # T ~ 2 pi / s^2 as s -> 0 (Poisson leading term).
        s = 0.01
        assert lattice_sum(s) == pytest.approx(2 * math.pi / s**2, rel=1e-3)

    def test_first_shells_dominate_at_large_s(self):
        # T(s) ~ 1 + 4 e^{-s} + 4 e^{-s sqrt(2)} for large s (the four
        # axis neighbours plus the four diagonal ones).
        s = 12.0
        two_shells = 4 * math.exp(-s) + 4 * math.exp(-s * math.sqrt(2))
        assert lattice_sum_direct(s) - 1.0 == pytest.approx(
            two_shells, rel=1e-4
        )

    @given(st.floats(min_value=0.2, max_value=3.9))
    @settings(max_examples=40, deadline=None)
    def test_series_matches_direct_sum(self, s):
        """The paper's Eq. (8)/(9) agrees with brute-force summation."""
        assert lattice_sum_series(s) == pytest.approx(
            lattice_sum_direct(s), rel=1e-10
        )

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert lattice_sum(lo) > lattice_sum(hi)

    def test_dispatch_is_continuous_at_cutoff(self):
        below = lattice_sum(3.999999)
        above = lattice_sum(4.000001)
        assert below == pytest.approx(above, rel=1e-6)


class TestPhi:
    def test_phi_in_unit_interval(self):
        for eps in (0.05, 0.5, 2.0):
            for side in (1.0, 5.0, 10.0):
                value = phi(eps, side)
                assert 0.0 < value < 1.0

    def test_phi_increases_with_budget(self):
        assert phi(0.2, 5.0) < phi(0.5, 5.0) < phi(1.5, 5.0)

    def test_phi_increases_with_cell_size(self):
        assert phi(0.5, 2.0) < phi(0.5, 10.0)

    def test_phi_for_grid_parametrisation(self):
        assert phi_for_grid(0.5, 20.0, 4) == pytest.approx(phi(0.5, 5.0))

    def test_validation(self):
        with pytest.raises(BudgetError):
            phi(0.0, 5.0)
        with pytest.raises(BudgetError):
            phi(0.5, 0.0)
        with pytest.raises(BudgetError):
            phi_for_grid(0.5, 20.0, 0)


class TestProblem1:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8, 0.95])
    def test_root_achieves_target(self, rho):
        s = min_lattice_parameter(rho)
        assert 1.0 / lattice_sum(s) == pytest.approx(rho, abs=1e-8)

    def test_monotone_in_rho(self):
        assert min_lattice_parameter(0.5) < min_lattice_parameter(0.9)

    def test_epsilon_scales_inversely_with_cell(self):
        e1 = min_epsilon_for_rho(0.8, 10.0)
        e2 = min_epsilon_for_rho(0.8, 5.0)
        assert e2 == pytest.approx(2 * e1, rel=1e-9)

    def test_phi_at_solution_meets_rho(self):
        eps = min_epsilon_for_rho(0.7, 6.67)
        assert phi(eps, 6.67) == pytest.approx(0.7, abs=1e-6)

    def test_validation(self):
        with pytest.raises(BudgetError):
            min_lattice_parameter(0.0)
        with pytest.raises(BudgetError):
            min_lattice_parameter(1.0)
        with pytest.raises(BudgetError):
            min_epsilon_for_rho(0.8, 0.0)


class TestAlgorithm2:
    def test_budgets_sum_to_total(self):
        for eps in (0.1, 0.5, 1.3, 4.0):
            plan = allocate_budget(eps, 3, 20.0, rho=0.8)
            assert sum(plan.budgets) == pytest.approx(eps)

    def test_all_budgets_positive(self):
        plan = allocate_budget(2.0, 3, 20.0, rho=0.8)
        assert all(b > 0 for b in plan.budgets)

    def test_requirements_grow_by_g(self):
        plan = allocate_budget(5.0, 3, 20.0, rho=0.8)
        for r1, r2 in zip(plan.requirements, plan.requirements[1:]):
            assert r2 == pytest.approx(3 * r1, rel=1e-9)

    def test_height_grows_with_budget(self):
        h = [
            allocate_budget(eps, 3, 20.0, rho=0.8).height
            for eps in (0.3, 0.9, 3.0)
        ]
        assert h[0] <= h[1] <= h[2]
        assert h[0] == 1 and h[2] >= 2

    def test_small_budget_single_starved_level(self):
        plan = allocate_budget(0.1, 4, 20.0, rho=0.8)
        assert plan.height == 1
        assert plan.is_starved
        assert plan.starved_levels == (0,)

    def test_exact_requirement_not_starved(self):
        req = min_epsilon_for_rho(0.8, 20.0 / 3)
        plan = allocate_budget(req, 3, 20.0, rho=0.8)
        assert plan.height == 1
        assert not plan.is_starved

    def test_upper_levels_fully_funded(self):
        plan = allocate_budget(1.5, 3, 20.0, rho=0.8)
        assert plan.height >= 2
        for i in range(plan.height - 1):
            assert plan.budgets[i] == pytest.approx(plan.requirements[i])

    def test_max_height_respected(self):
        plan = allocate_budget(100.0, 2, 20.0, rho=0.5, max_height=3)
        assert plan.height == 3
        assert sum(plan.budgets) == pytest.approx(100.0)

    def test_leaf_granularity(self):
        plan = allocate_budget(0.9, 4, 20.0, rho=0.8)
        assert plan.leaf_granularity == 4**plan.height

    def test_validation(self):
        with pytest.raises(BudgetError):
            allocate_budget(0.0, 3, 20.0)
        with pytest.raises(BudgetError):
            allocate_budget(0.5, 1, 20.0)
        with pytest.raises(BudgetError):
            allocate_budget(0.5, 3, 0.0)
        with pytest.raises(BudgetError):
            allocate_budget(0.5, 3, 20.0, max_height=0)

    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.4, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_any_inputs(self, eps, g, rho):
        plan = allocate_budget(eps, g, 20.0, rho=rho)
        assert sum(plan.budgets) == pytest.approx(eps)
        assert all(b > 0 for b in plan.budgets)
        assert 1 <= plan.height <= 16
        # Only the last level may be starved.
        assert all(i == plan.height - 1 for i in plan.starved_levels)


class TestBudgetProperties:
    """Property layer for the budget model (PR-2 satellite).

    Pins down the three contracts the batch engine leans on: the
    allocation responds monotonically to the same-cell target ``rho``,
    no allocator ever hands out more budget than the caller configured,
    and the two ``T(s)`` implementations agree to 1e-9 across the
    crossover region where the library switches between them.
    """

    @given(
        st.floats(min_value=0.35, max_value=0.95),
        st.floats(min_value=0.35, max_value=0.95),
        st.floats(min_value=2.0, max_value=15.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_requirement_monotone_in_rho(self, a, b, side):
        """A stricter same-cell target never gets cheaper."""
        lo, hi = sorted((a, b))
        assume(hi - lo > 1e-6)
        assert min_epsilon_for_rho(lo, side) <= min_epsilon_for_rho(hi, side)

    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.35, max_value=0.9),
        st.floats(min_value=0.35, max_value=0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_allocation_monotone_in_rho(self, eps, g, a, b):
        """Raising rho never deepens the tree and never lowers the
        per-level requirements the allocator funds against."""
        lo, hi = sorted((a, b))
        assume(hi - lo > 1e-6)
        plan_lo = allocate_budget(eps, g, 20.0, rho=lo)
        plan_hi = allocate_budget(eps, g, 20.0, rho=hi)
        assert plan_hi.height <= plan_lo.height
        shared = min(plan_lo.height, plan_hi.height)
        for i in range(shared):
            assert (
                plan_hi.requirements[i]
                >= plan_lo.requirements[i] * (1.0 - 1e-9)
            )

    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.4, max_value=0.95),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_budgets_sum_at_most_epsilon(self, eps, g, rho, height):
        """No allocator hands out more than the configured budget."""
        free = allocate_budget(eps, g, 20.0, rho=rho)
        pinned = allocate_budget_fixed_height(
            eps, g, 20.0, height=height, rho=rho
        )
        for plan in (free, pinned):
            assert sum(plan.budgets) <= eps * (1.0 + 1e-9)
            assert all(b > 0 for b in plan.budgets)

    @given(st.floats(min_value=3.0, max_value=5.5))
    @settings(max_examples=60, deadline=None)
    def test_series_matches_direct_in_crossover_region(self, s):
        """Eq. (8)/(9) series vs brute-force lattice sum around the
        dispatch cutoff at s = 4: both sides of the switch must agree
        to 1e-9 so the budget model is continuous in s."""
        assert lattice_sum_series(s) == pytest.approx(
            lattice_sum_direct(s), rel=1e-9
        )


class TestFixedHeight:
    def test_respects_height_and_total(self):
        plan = allocate_budget_fixed_height(0.5, 4, 20.0, height=2)
        assert plan.height == 2
        assert sum(plan.budgets) == pytest.approx(0.5)
        assert all(b > 0 for b in plan.budgets)

    def test_greedy_when_affordable(self):
        """Matches free allocation when Algorithm 2 would pick the height."""
        free = allocate_budget(0.5, 3, 20.0, rho=0.8)
        assert free.height == 2
        pinned = allocate_budget_fixed_height(0.5, 3, 20.0, height=2, rho=0.8)
        assert pinned.budgets == pytest.approx(free.budgets)

    def test_top_heavy_fallback_when_starved(self):
        plan = allocate_budget_fixed_height(0.5, 4, 20.0, height=2, rho=0.8)
        # requirement at level 1 (0.62) exceeds the whole budget: the
        # split is top-heavy with inverse-requirement weights g : 1.
        assert plan.budgets[0] == pytest.approx(0.4, rel=1e-6)
        assert plan.budgets[1] == pytest.approx(0.1, rel=1e-6)

    def test_validation(self):
        with pytest.raises(BudgetError):
            allocate_budget_fixed_height(0.5, 4, 20.0, height=0)
        with pytest.raises(BudgetError):
            allocate_budget_fixed_height(0.0, 4, 20.0, height=2)


class TestAccountantAdmissionConsistency:
    """The unified relative-tolerance admission rule
    (:func:`repro.privacy.composition.fits_budget`) must make the
    accountant's *prediction* of affordable reports equal the number of
    spends that actually succeed — the two code paths used to apply
    different nudges and could disagree by one report near exact
    exhaustion (e.g. total=1.0, per-report=0.1: ten spends succeed but
    the old floor-division predicted nine)."""

    @given(
        total=st.floats(min_value=1e-6, max_value=1e4),
        divisor=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_affordable_equals_successful_spends(self, total, divisor):
        from repro.privacy.composition import BudgetAccountant

        per_report = total / divisor
        accountant = BudgetAccountant(total=total)
        predicted = accountant.affordable(per_report)
        succeeded = 0
        while accountant.can_spend(per_report):
            accountant.spend(per_report)
            succeeded += 1
            assert succeeded <= predicted + divisor  # runaway guard
        assert succeeded == predicted
        # and afterwards the accountant predicts exactly zero more
        assert accountant.affordable(per_report) == 0

    @given(
        total=st.floats(min_value=1e-3, max_value=100.0),
        per_report=st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_affordable_with_unrelated_amounts(self, total, per_report):
        """Same property when per-report does not divide the total."""
        from repro.privacy.composition import BudgetAccountant

        assume(per_report <= total)
        accountant = BudgetAccountant(total=total)
        predicted = accountant.affordable(per_report)
        succeeded = 0
        while accountant.can_spend(per_report):
            accountant.spend(per_report)
            succeeded += 1
        assert succeeded == predicted

    @given(
        total=st.floats(min_value=1e-3, max_value=100.0),
        per_report=st.floats(min_value=1e-4, max_value=10.0),
        spent=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_can_afford_is_affordable_at_least(
        self, total, per_report, spent, n
    ):
        """The admission predicate is the exact count, cut short."""
        from repro.privacy.composition import BudgetAccountant

        accountant = BudgetAccountant(total=total)
        for _ in range(spent):
            if not accountant.can_spend(per_report):
                break
            accountant.spend(per_report)
        assert accountant.can_afford(per_report, n) == (
            accountant.affordable(per_report) >= n
        )

    @pytest.mark.parametrize("path", sorted(_ADMISSION_PATHS))
    @pytest.mark.parametrize("lifetime, per_report", _ADMISSION_GRID)
    def test_admission_conformance(
        self, path, lifetime, per_report, tmp_path
    ):
        """Every path that admits reports delivers exactly the starting
        ``affordable`` count, then refuses, and never raises
        :class:`BudgetError` after sampling."""
        from repro.privacy.composition import BudgetAccountant

        affordable = BudgetAccountant(total=lifetime).affordable(per_report)
        drive = _ADMISSION_PATHS[path](lifetime, per_report, tmp_path)
        assert drive.delivered == affordable
        with pytest.raises(BudgetError):
            drive.admit_next()
        assert drive.sampled() == drive.delivered

    def test_report_batch_refuses_what_it_cannot_settle(self):
        """0.1 + 0.1 + 0.1 leaves 0.399999999 short of a fourth 0.1, so
        a batch of four is refused whole: nothing sampled or spent."""
        mechanism = _CountingMechanism(0.1)
        session = SanitizationSession(
            0.399999999, 0.1, mechanism=mechanism
        )
        with pytest.raises(BudgetError):
            session.report_batch(
                [Point(1.0, 1.0)] * 4, np.random.default_rng(0)
            )
        assert mechanism.sampled == 0
        assert session.spent == 0.0
        assert session.history == []

    def test_report_batch_delivers_what_reports_remaining_promises(self):
        """Six sequential 0.1 spends fit 0.599999999 although their
        product ``6 * 0.1`` does not: a batch of six is delivered."""
        session = SanitizationSession(
            0.599999999, 0.1, mechanism=_CountingMechanism(0.1)
        )
        assert session.reports_remaining == 6
        records = session.report_batch(
            [Point(1.0, 1.0)] * 6, np.random.default_rng(0)
        )
        assert [r.sequence for r in records] == list(range(6))
        assert not session.can_report()

    @pytest.mark.parametrize(
        "lifetime, per_report",
        [
            (math.inf, 0.1),
            (math.nan, 0.1),
            (1.0, math.inf),
            (1.0, math.nan),
            (1.0, 0.0),
            (0.1, 0.5),
        ],
    )
    def test_book_and_session_refuse_invalid_budgets(
        self, lifetime, per_report
    ):
        """An infinite lifetime would make ``affordable`` loop forever;
        every budget must be finite and positive, and one report must
        fit the lifetime."""
        with pytest.raises(BudgetError):
            ShardBudgetBook(lifetime, per_report)
        with pytest.raises(BudgetError):
            SanitizationSession(
                lifetime, per_report, mechanism=_CountingMechanism(0.1)
            )


# ----------------------------------------------------------------------
# sharded serving: routing purity + the cross-restart spend invariant
# ----------------------------------------------------------------------
class TestShardRoutingProperty:
    """The pool's shard router must be a stable *pure* function of
    ``(user_id, n_workers)`` — it names which journal file owns a
    user's spend, so any ambient dependence (process hash salt, map
    iteration order, locale) would double-track budgets."""

    @given(
        user=st.text(max_size=64),
        workers=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_stable_pure_and_in_range(self, user, workers):
        import hashlib

        from repro.serve.pool import shard_for_user

        shard = shard_for_user(user, workers)
        assert 0 <= shard < workers
        # idempotent under repetition (no hidden state)
        assert shard_for_user(user, workers) == shard
        # pinned to the documented definition: SHA-256 of the UTF-8
        # id, first 8 bytes big-endian, mod the worker count —
        # changing this is an on-disk data-migration event
        digest = hashlib.sha256(user.encode("utf-8")).digest()
        assert shard == int.from_bytes(digest[:8], "big") % workers

    @given(user=st.text(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_single_worker_pool_is_total(self, user):
        from repro.serve.pool import shard_for_user

        assert shard_for_user(user, 1) == 0


class TestCrossRestartBudgetInvariant:
    """Per-user spend summed across shard restarts never exceeds the
    lifetime budget: every incarnation of a shard worker replays its
    journal into a fresh :class:`ShardBudgetBook` before admitting,
    so delivered reports across any kill/restart schedule stay within
    what one uninterrupted accountant would have allowed."""

    @given(
        attempts_per_life=st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=1,
            max_size=4,
        ),
        affordable=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_delivered_spend_bounded_across_restarts(
        self, attempts_per_life, affordable
    ):
        import tempfile
        from pathlib import Path

        from repro.core.ledger import BudgetLedger, replay_journal
        from repro.serve.pool import ShardBudgetBook

        per = 0.5  # dyadic: multiples are exact in floats
        lifetime = per * affordable
        delivered = 0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shard.journal"
            for attempts in attempts_per_life:
                ledger = BudgetLedger(path, sync=False)
                book = ShardBudgetBook(lifetime, per, ledger=ledger)
                for _ in range(attempts):
                    try:
                        entry_id = book.admit("u")
                    except BudgetError:
                        continue
                    book.settle("u", entry_id)
                    delivered += 1
                ledger.close()  # the restart boundary
            replay = replay_journal(path)
        # the invariant: total delivered spend fits the lifetime
        assert delivered * per <= lifetime
        # and restarts lose nothing: exactly the affordable count is
        # delivered, no more (no reset) and no less (no phantom spend)
        assert delivered == min(affordable, sum(attempts_per_life))
        assert replay.spent_for("u") == delivered * per

    @given(
        plan=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # settled
                st.integers(min_value=0, max_value=2),  # orphaned
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_orphaned_reservations_replay_as_spend(self, plan):
        """A reservation with no commit (the worker died holding it)
        must replay as spend — fail closed — so delivered + orphaned
        together never exceed the lifetime."""
        import tempfile
        from pathlib import Path

        from repro.core.ledger import BudgetLedger, replay_journal
        from repro.serve.pool import ShardBudgetBook

        per = 0.5
        lifetime = 2.0  # affords 4 reports
        delivered = orphaned = 0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shard.journal"
            for settled_n, orphan_n in plan:
                ledger = BudgetLedger(path, sync=False)
                book = ShardBudgetBook(lifetime, per, ledger=ledger)
                for _ in range(settled_n):
                    try:
                        entry_id = book.admit("u")
                    except BudgetError:
                        continue
                    book.settle("u", entry_id)
                    delivered += 1
                for _ in range(orphan_n):
                    try:
                        book.admit("u")  # reserved, never settled
                        orphaned += 1
                    except BudgetError:
                        continue
                ledger.close()  # orphans stay open in the journal
            replay = replay_journal(path)
        assert (delivered + orphaned) * per <= lifetime
        # replay counts every orphan as spent: >= the delivered spend
        assert replay.spent_for("u") == (delivered + orphaned) * per
