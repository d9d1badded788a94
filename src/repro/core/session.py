"""Sanitisation sessions: many reports under one lifetime budget.

The paper sanitises one location per invocation; a deployed client
reports repeatedly, and by sequential composition every report spends
part of the user's lifetime GeoInd budget.  A
:class:`SanitizationSession` owns that bookkeeping: it holds one
precomputed MSM per per-report budget, spends through a
:class:`~repro.privacy.composition.BudgetAccountant`, refuses
overdrafts, and exposes the remaining protection level at any time.

This is an engineering extension of the paper (its Section 2.2
composability discussion, applied in the opposite direction), not one
of its experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import BudgetError
from repro.geo.metric import EUCLIDEAN, Metric
from repro.geo.point import Point
from repro.mechanisms.base import Mechanism
from repro.priors.base import GridPrior
from repro.privacy.composition import BudgetAccountant, budget_slack
from repro.core.engine import WalkResult
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
        if per_report_epsilon <= 0:
            raise BudgetError(
                f"per-report budget must be positive, got {per_report_epsilon}"
            )
        if per_report_epsilon > lifetime_epsilon:
            raise BudgetError(
                f"per-report budget {per_report_epsilon} exceeds lifetime "
                f"budget {lifetime_epsilon}"
            )
        self._accountant = BudgetAccountant(total=lifetime_epsilon)
        self._per_report = float(per_report_epsilon)
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
            mech_eps = getattr(mechanism, "epsilon", None)
            if mech_eps is not None and (
                mech_eps > per_report_epsilon + budget_slack(mech_eps)
            ):
                raise BudgetError(
                    f"shared mechanism spends epsilon={mech_eps:.4g} per "
                    f"report, more than the session's per-report budget "
                    f"{per_report_epsilon:.4g}"
                )
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
        return self._per_report

    @property
    def spent(self) -> float:
        """Budget consumed so far."""
        return self._accountant.spent

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self._accountant.remaining

    @property
    def reports_remaining(self) -> int:
        """How many further reports the lifetime budget affords.

        Exact: delegates to
        :meth:`~repro.privacy.composition.BudgetAccountant.affordable`,
        which simulates the accountant's own arithmetic, so this equals
        the number of :meth:`report` calls that will actually succeed.
        (The float floor-division with its own nudge that lived here
        could disagree with ``can_spend`` by one report.)
        """
        return self._accountant.affordable(self._per_report)

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
        return self._accountant.can_spend(self._per_report)

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
        if not self.can_report():
            self._record_refusal()
            raise BudgetError(
                f"lifetime budget exhausted after {len(self._history)} "
                f"reports (remaining {self.remaining:.4g} < "
                f"per-report {self._per_report:.4g})"
            )
        walk = self._mechanism.sample_with_report(x, rng)
        return self.record_walk(x, walk)

    def record_walk(self, x: Point, walk: WalkResult) -> SessionReport:
        """Spend one report's budget for a walk sampled externally.

        :meth:`report` samples and records through here; a caller that
        samples several sessions' locations in one shared batch records
        each outcome the same way (spend, history, degradation
        provenance, metrics).

        Raises
        ------
        BudgetError
            When the lifetime budget cannot cover the report; nothing
            is spent or recorded in that case.  Callers that sample
            *before* recording must admission-check first with
            :meth:`can_report`.
        """
        if not self.can_report():
            self._record_refusal()
            raise BudgetError(
                f"lifetime budget exhausted after {len(self._history)} "
                f"reports (remaining {self.remaining:.4g} < "
                f"per-report {self._per_report:.4g})"
            )
        self._accountant.spend(
            self._per_report, label=f"report-{len(self._history)}"
        )
        record = SessionReport(
            sequence=len(self._history),
            actual=x,
            reported=walk.point,
            epsilon_spent=self._per_report,
            epsilon_remaining=self.remaining,
            degraded_levels=walk.degradation.degraded_levels,
        )
        self._history.append(record)
        self._degradations.append(walk.degradation)
        self._record_reports(1)
        return record

    def _record_reports(self, n: int) -> None:
        """Session-level budget metrics after ``n`` admitted reports."""
        if not self._obs.enabled:
            return
        metrics = self._obs.metrics
        metrics.counter("repro_session_reports_total").inc(n)
        metrics.counter("repro_session_epsilon_spent_total").inc(
            n * self._per_report
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
        whole batch must fit the remaining lifetime budget *before* any
        location is sampled, so a partial batch can never leak a walk
        the accountant would have refused.  Every point still gets its
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
        needed = len(points) * self._per_report
        if not self._accountant.can_spend(needed):
            self._record_refusal()
            raise BudgetError(
                f"lifetime budget cannot cover a batch of {len(points)} "
                f"reports (remaining {self.remaining:.4g} < needed "
                f"{needed:.4g}); no report was issued"
            )
        walks = self._mechanism.sanitize_batch(points, rng)
        records: list[SessionReport] = []
        for x, walk in zip(points, walks):
            self._accountant.spend(
                self._per_report, label=f"report-{len(self._history)}"
            )
            record = SessionReport(
                sequence=len(self._history),
                actual=x,
                reported=walk.point,
                epsilon_spent=self._per_report,
                epsilon_remaining=self.remaining,
                degraded_levels=walk.degradation.degraded_levels,
            )
            self._history.append(record)
            self._degradations.append(walk.degradation)
            records.append(record)
        self._record_reports(len(records))
        return records
