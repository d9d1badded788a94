"""Sanitisation sessions: many reports under one lifetime budget.

The paper sanitises one location per invocation; a deployed client
reports repeatedly, and by sequential composition every report spends
part of the user's lifetime GeoInd budget.  That bookkeeping happens
in one place, the :class:`ShardBudgetBook`: one
:class:`~repro.privacy.composition.BudgetAccountant` per user,
outstanding reservations, and an optional crash-safe ledger.  A
serving-pool worker keeps one book for its shard's users; a
:class:`SanitizationSession` is a book of one user around one
precomputed per-report mechanism, which refuses overdrafts and
exposes the remaining protection level at any time.

This is an engineering extension of the paper (its Section 2.2
composability discussion, applied in the opposite direction), not one
of its experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import BudgetError, LedgerError
from repro.geo.metric import EUCLIDEAN, Metric
from repro.geo.point import Point
from repro.mechanisms.base import Mechanism
from repro.priors.base import GridPrior
from repro.privacy.composition import BudgetAccountant, check_budgets
from repro.core.engine import WalkResult
from repro.core.ledger import BudgetLedger
from repro.core.msm import MultiStepMechanism
from repro.core.resilience import DegradationReport, ResilienceConfig, ResilientSolver
from repro.obs import NOOP, Observability


@dataclass(frozen=True)
class SessionReport:
    """One sanitised report issued by a session.

    ``degraded_levels`` is non-empty when some walk level was served by
    the resilience layer's fallback mechanism; the report still spends
    exactly ``epsilon_spent`` and satisfies the same guarantee.
    """

    sequence: int
    actual: Point
    reported: Point
    epsilon_spent: float
    epsilon_remaining: float
    degraded_levels: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether any level of this report's walk was substituted."""
        return bool(self.degraded_levels)


class ShardBudgetBook:
    """Per-user lifetime budgets: the one admission and spend path.

    One :class:`~repro.privacy.composition.BudgetAccountant` per user,
    plus the ledger's reserve → sample → commit protocol.  A serving
    pool worker keeps one book for its shard's users; a
    :class:`SanitizationSession` is a book of one user.  Admission is a
    single accountant predicate,
    :meth:`~repro.privacy.composition.BudgetAccountant.can_afford` over
    the user's settled spend plus outstanding reservations, so it costs
    O(reports reserved), and :meth:`settle` spends with the very
    arithmetic that predicate simulated.  On construction with a
    ledger, replayed spend (committed *and* orphaned reservations —
    fail closed) is restored into the accountants before any request
    is admitted, and orphans are settled as final spend.

    Not thread-safe: a shard worker processes batches serially, which
    is exactly why per-user admission here has no race to close.
    """

    def __init__(
        self,
        lifetime_epsilon: float,
        per_report_epsilon: float,
        ledger: BudgetLedger | None = None,
    ):
        check_budgets(lifetime_epsilon, per_report_epsilon)
        self._lifetime = float(lifetime_epsilon)
        self._per_report = float(per_report_epsilon)
        self._ledger = ledger
        self._accounts: dict[str, BudgetAccountant] = {}
        self._reports: dict[str, int] = {}
        # reservations admitted but not yet settled — several requests
        # for one user can share a batch, and admission must count the
        # earlier ones or the batch overdrafts at settle time
        self._outstanding: dict[str, int] = {}
        self.replayed_users = 0
        self.replayed_epsilon = 0.0
        self.ledger_errors = 0
        if ledger is not None:
            replayed = ledger.spent_by_user()
            for user in sorted(replayed):
                epsilon = replayed[user]
                if epsilon <= 0:
                    continue
                self._account(user).restore(epsilon, label="ledger-replay")
                # number on from the replayed spend, so no sequence is
                # reused; failure charges may leave gaps
                self._reports[user] = round(epsilon / self._per_report)
                self.replayed_users += 1
                self.replayed_epsilon += epsilon
            for entry_id in sorted(ledger.open_reservations()):
                ledger.commit(entry_id)

    @property
    def per_report_epsilon(self) -> float:
        return self._per_report

    @property
    def users(self) -> int:
        return len(self._accounts)

    def _account(self, user: str) -> BudgetAccountant:
        account = self._accounts.get(user)
        if account is None:
            account = BudgetAccountant(total=self._lifetime)
            self._accounts[user] = account
        return account

    def spent_for(self, user: str) -> float:
        return self._account(user).spent

    def remaining_for(self, user: str) -> float:
        return self._account(user).remaining

    def reports_for(self, user: str) -> int:
        return self._reports.get(user, 0)

    def reports_remaining(self, user: str) -> int:
        """How many further reports ``user`` can be admitted: exact,
        since it simulates every remaining spend."""
        outstanding = self._outstanding.get(user, 0)
        return self._account(user).affordable(self._per_report) - outstanding

    def can_admit(self, user: str) -> bool:
        return self.refusal(user) is None

    def refusal(self, user: str, n: int = 1) -> BudgetError | None:
        """None when ``n`` more reports for ``user`` fit on top of its
        outstanding reservations, else the error refusing them."""
        account = self._account(user)
        outstanding = self._outstanding.get(user, 0)
        if account.can_afford(self._per_report, outstanding + n):
            return None
        return BudgetError(
            f"user {user!r}: lifetime budget exhausted — it cannot cover "
            f"{n} more report(s) (remaining {account.remaining:.4g}, "
            f"{outstanding} reserved, per-report {self._per_report:.4g})"
        )

    def admit(self, user: str) -> str | None:
        """Admit one request: :meth:`admit_many` of one user, raising
        its :class:`~repro.exceptions.BudgetError` on refusal."""
        outcome = self.admit_many([user])[0]
        if isinstance(outcome, BudgetError):
            raise outcome
        return outcome

    def admit_many(
        self, users: list[str]
    ) -> list[str | None | BudgetError]:
        """Admission-check a micro-batch and journal its reservations.

        Each check counts the user's *outstanding* reservations on top
        of settled spend, so admitting N same-user requests into one
        batch can never overdraft at settle time.  Returns, per user,
        the ledger entry id of its reservation (None without a ledger)
        or the :class:`~repro.exceptions.BudgetError` that refused it.
        The admitted reservations are journalled in one group append —
        one fsync — and are durable before this returns, so the caller
        may sample afterwards knowing a crash replays the spend.  If
        that append raises, the error propagates and nothing may
        sample; the reservations stay outstanding, since any of them
        may have reached the journal.
        """
        outcomes: list[str | None | BudgetError] = []
        admitted: list[int] = []
        for user in users:
            refusal = self.refusal(user)
            if refusal is None:
                self._outstanding[user] = self._outstanding.get(user, 0) + 1
                admitted.append(len(outcomes))
            outcomes.append(refusal)
        if self._ledger is not None and admitted:
            entry_ids = self._ledger.reserve_many(
                [(users[slot], self._per_report) for slot in admitted]
            )
            for slot, entry_id in zip(admitted, entry_ids):
                outcomes[slot] = entry_id
        return outcomes

    def settle(self, user: str, entry_id: str | None) -> int:
        """Spend one delivered report; returns its per-user sequence."""
        sequence = self._reports.get(user, 0)
        self._account(user).spend(
            self._per_report, label=f"report-{sequence}"
        )
        self._reports[user] = sequence + 1
        self._close_reservation(user)
        self._commit(entry_id)
        return sequence

    def charge_failure(self, user: str, entry_id: str | None) -> None:
        """Fail closed: the walk may have drawn before failing."""
        self._account(user).restore(
            self._per_report, label="failed-report"
        )
        self._close_reservation(user)
        self._commit(entry_id)

    def _close_reservation(self, user: str) -> None:
        count = self._outstanding.get(user, 0)
        if count <= 1:
            self._outstanding.pop(user, None)
        else:
            self._outstanding[user] = count - 1

    def _commit(self, entry_id: str | None) -> None:
        if self._ledger is None or entry_id is None:
            return
        try:
            self._ledger.commit(entry_id)
        except LedgerError:
            # an uncommitted reservation replays as spent — the
            # fail-closed direction; never kill the worker over it
            self.ledger_errors += 1


#: The one user a session's book accounts for.
_USER = "session"


class SanitizationSession:
    """Issue repeated GeoInd reports under a lifetime budget.

    Parameters
    ----------
    lifetime_epsilon:
        Total budget this user is willing to spend, ever.
    per_report_epsilon:
        Budget consumed by each report.
    prior:
        Global prior for the MSM built internally.
    granularity:
        MSM per-level fanout parameter ``g``.
    rho:
        Same-cell probability target for the budget allocator.
    dq:
        Utility metric the per-step mechanisms optimise.
    remap:
        When True, every report goes through the optimal Bayesian remap
        (a deterministic output-only transformation, so the accountant's
        arithmetic is unchanged).
    metrics:
        When True, the session builds a live
        :class:`~repro.obs.Observability` handle (metrics registry +
        recording tracer) and threads it through the whole stack —
        engine, cache, resilient solver, LP backends.  Inspect it via
        :attr:`observability`; export with :mod:`repro.obs.export`.
        Off by default: the disabled path costs nothing.
    mechanism:
        A pre-built per-report mechanism to use instead of building a
        fresh MSM, so many sessions can share one warm engine (and one
        node cache); only the budget bookkeeping stays per-session.
        The mechanism's epsilon must not exceed the per-report spend —
        a session must never charge less than the privacy its reports
        consume.
    obs:
        An externally-owned observability handle, so several sessions'
        budget metrics can land in one registry.  Overrides
        ``metrics``.

    The per-report mechanism is built once and reused (its randomness
    comes from the caller-supplied generator), so a session's marginal
    cost per report is just the MSM walk.  Sessions are not
    thread-safe; concurrent callers must serialise externally.
    """

    def __init__(
        self,
        lifetime_epsilon: float,
        per_report_epsilon: float,
        prior: GridPrior | None = None,
        granularity: int = 4,
        rho: float = 0.8,
        dq: Metric = EUCLIDEAN,
        backend: str = "highs-ds",
        resilience: ResilienceConfig | None = None,
        solver: ResilientSolver | None = None,
        degrade: bool = True,
        guard: bool = True,
        remap: bool = False,
        metrics: bool = False,
        mechanism: Mechanism | None = None,
        obs: Observability | None = None,
    ):
        check_budgets(
            lifetime_epsilon,
            per_report_epsilon,
            getattr(mechanism, "epsilon", None),
        )
        self._book = ShardBudgetBook(lifetime_epsilon, per_report_epsilon)
        if obs is not None:
            self._obs = obs
        else:
            self._obs = (
                Observability.collecting(trace=True) if metrics else NOOP
            )
        if self._obs.enabled:
            self._obs.metrics.gauge("repro_budget_rho_target").set(rho)
            self._obs.metrics.gauge(
                "repro_session_epsilon_remaining"
            ).set(self.remaining)
        if mechanism is not None:
            self._mechanism = mechanism
        else:
            if prior is None:
                raise BudgetError(
                    "a prior is required when no pre-built mechanism is given"
                )
            self._mechanism = MultiStepMechanism.build(
                per_report_epsilon, granularity, prior, rho=rho, dq=dq,
                backend=backend, resilience=resilience, solver=solver,
                degrade=degrade, guard=guard, remap=remap, obs=self._obs,
            )
        self._history: list[SessionReport] = []
        self._degradations: list[DegradationReport] = []

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mechanism(self) -> Mechanism:
        """The underlying per-report mechanism."""
        return self._mechanism

    @property
    def observability(self) -> Observability:
        """The session's observability handle (no-op unless built with
        ``metrics=True``)."""
        return self._obs

    @property
    def per_report_epsilon(self) -> float:
        """Budget each report consumes."""
        return self._book.per_report_epsilon

    @property
    def spent(self) -> float:
        """Budget consumed so far."""
        return self._book.spent_for(_USER)

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self._book.remaining_for(_USER)

    @property
    def reports_remaining(self) -> int:
        """How many further reports the lifetime budget affords.

        Exact: the book simulates the accountant's own arithmetic, so
        this equals the number of :meth:`report` calls that will
        actually succeed, and the largest batch :meth:`report_batch`
        admits.
        """
        return self._book.reports_remaining(_USER)

    @property
    def history(self) -> list[SessionReport]:
        """All reports issued so far, in order."""
        return list(self._history)

    @property
    def degradation_history(self) -> list[DegradationReport]:
        """Per-report degradation accounts, aligned with :attr:`history`."""
        return list(self._degradations)

    @property
    def ever_degraded(self) -> bool:
        """Whether any report so far ran on a substituted mechanism."""
        return any(not d.clean for d in self._degradations)

    def can_report(self) -> bool:
        """Whether another report fits the remaining budget."""
        return self._book.can_admit(_USER)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def precompute(self) -> int:
        """Warm the mechanism cache (the offline step).

        A no-op (returning 0) for shared mechanisms without an offline
        precomputation step.
        """
        precompute = getattr(self._mechanism, "precompute", None)
        return 0 if precompute is None else precompute()

    def report(self, x: Point, rng: np.random.Generator) -> SessionReport:
        """Sanitise ``x``, spending one report's budget.

        Raises
        ------
        BudgetError
            When the lifetime budget cannot cover another report; the
            actual location is *not* sampled in that case.
        SolverRetryExhaustedError
            When a level's solve is unrecoverable and degradation is
            disabled.  No budget is spent in that case either — the
            failed walk never sampled from an unguarded matrix.
        """
        self._admit(1)
        walk = self._mechanism.sample_with_report(x, rng)
        return self._settle([x], [walk])[0]

    def _admit(self, n: int) -> None:
        """Refuse, before anything samples, ``n`` reports the book
        cannot cover.  Nothing is reserved: the caller samples and
        settles in one call, so a walk that raises leaves nothing to
        undo and spends nothing."""
        refusal = self._book.refusal(_USER, n)
        if refusal is not None:
            self._record_refusal()
            raise refusal

    def _settle(
        self, xs: Sequence[Point], walks: Sequence[WalkResult]
    ) -> list[SessionReport]:
        """Spend one report's budget per walk and record it."""
        records = []
        for x, walk in zip(xs, walks):
            record = SessionReport(
                sequence=self._book.settle(_USER, None),
                actual=x,
                reported=walk.point,
                epsilon_spent=self.per_report_epsilon,
                epsilon_remaining=self.remaining,
                degraded_levels=walk.degradation.degraded_levels,
            )
            self._history.append(record)
            self._degradations.append(walk.degradation)
            records.append(record)
        self._record_reports(len(records))
        return records

    def _record_reports(self, n: int) -> None:
        """Session-level budget metrics after ``n`` admitted reports."""
        if not self._obs.enabled:
            return
        metrics = self._obs.metrics
        metrics.counter("repro_session_reports_total").inc(n)
        metrics.counter("repro_session_epsilon_spent_total").inc(
            n * self.per_report_epsilon
        )
        metrics.gauge("repro_session_epsilon_remaining").set(self.remaining)

    def _record_refusal(self) -> None:
        if self._obs.enabled:
            self._obs.metrics.counter("repro_session_refusals_total").inc()

    def report_batch(
        self, xs: Sequence[Point], rng: np.random.Generator
    ) -> list[SessionReport]:
        """Sanitise a batch of locations through the vectorised walk.

        Spends one report's budget per point and is all-or-nothing: the
        book must afford every one of the batch's spends *before* any
        location is sampled, so a partial batch can never leak a walk
        the accountant would have refused, and an admitted batch never
        overdrafts while it settles.  Every point still gets its
        own :class:`SessionReport` (sequence number, spend, degradation
        provenance), exactly as if reported one by one.

        Raises
        ------
        BudgetError
            When the remaining budget cannot cover ``len(xs)`` reports;
            nothing is sampled and nothing is spent in that case.
        """
        points = list(xs)
        if not points:
            return []
        self._admit(len(points))
        walks = self._mechanism.sanitize_batch(points, rng)
        return self._settle(points, walks)
