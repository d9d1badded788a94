"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries while still being able to
discriminate finer failure modes.

Failure-mode contract of the sanitisation path
----------------------------------------------
The resilience layer (:mod:`repro.core.resilience`) makes the pipeline
fail *closed*: on any solver trouble the system may lose utility, never
privacy.  The relevant signals are:

:class:`SolverError`
    Generic LP-substrate failure.  Raised directly by the backends on
    malformed programs and by :func:`repro.lp.solve_or_raise` on any
    non-optimal terminal status.

:class:`InfeasibleProblemError` / :class:`UnboundedProblemError`
    Structural LP outcomes.  The resilient solver does **not** retry the
    same backend on these (a deterministic solver would fail again) but
    still advances to the next backend in the chain, because HiGHS
    occasionally misreports badly-scaled programs as infeasible.

:class:`SolverRetryExhaustedError`
    Fires when every backend in a :class:`~repro.core.resilience.ResilientSolver`
    chain has been tried up to its retry budget and none produced an
    optimal solution.  Carries the full per-attempt record in
    :attr:`SolverRetryExhaustedError.attempts` for diagnosis.  When MSM
    degradation is disabled this error propagates out of
    ``MultiStepMechanism.sample`` — the request is refused rather than
    served from an unsolved mechanism.

:class:`DegradedModeWarning`
    A :class:`Warning` (not an error) emitted exactly once per index
    node when MSM substitutes the closed-form exponential mechanism for
    an unsolvable per-level OPT.  The substitute runs at the *same*
    per-level epsilon, so privacy and budget accounting are unchanged;
    the warning (plus the walk's ``DegradationReport``) tells operators
    that utility is now sub-optimal at that node.

:class:`PrivacyViolationError`
    The last line of defence: the mandatory matrix guard
    (:func:`repro.privacy.guard.guard_mechanism`) found a mechanism that
    is not row-stochastic, not non-negative, or not epsilon-GeoInd.  No
    code path samples from a matrix that failed the guard — including
    matrices restored from an on-disk bundle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.resilience import SolveAttempt


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """A geometric argument is malformed (degenerate box, bad coordinate)."""


class GridError(ReproError):
    """A grid or index operation received inconsistent parameters."""


class PriorError(ReproError):
    """A prior distribution is malformed (negative mass, wrong shape)."""


class DatasetError(ReproError):
    """A dataset could not be loaded, parsed, or generated."""


class SolverError(ReproError):
    """The linear-programming substrate failed to produce a solution."""


class InfeasibleProblemError(SolverError):
    """The linear program has no feasible point."""


class UnboundedProblemError(SolverError):
    """The linear program is unbounded below."""


class SolverRetryExhaustedError(SolverError):
    """Every backend in a fallback chain failed within its retry budget.

    Attributes
    ----------
    attempts:
        The per-attempt :class:`~repro.core.resilience.SolveAttempt`
        records, in the order they were made, covering every backend of
        the chain.
    """

    def __init__(self, message: str, attempts: Sequence["SolveAttempt"] = ()):
        super().__init__(message)
        self.attempts = tuple(attempts)


class MechanismError(ReproError):
    """A mechanism was constructed or invoked with invalid parameters."""


class PrivacyViolationError(ReproError):
    """A mechanism matrix fails the geo-indistinguishability constraints."""


class BudgetError(ReproError):
    """Privacy-budget accounting failed (exhausted or invalid budget)."""


class EvaluationError(ReproError):
    """An experiment harness was configured inconsistently."""


class ObservabilityError(ReproError):
    """The observability layer (:mod:`repro.obs`) was misused.

    Raised on contract violations in instrumentation itself — a counter
    asked to decrease, a metric name re-registered as a different type,
    histogram bucket edges that differ across merged snapshots, or a
    span closed out of order.  Never raised by the engine's hot path
    when observability is disabled.
    """


class ServeError(ReproError):
    """The serving front-end refused or failed a request.

    Raised on overload (the pending-request queue is full), on requests
    outside the served domain, on requests submitted to (or still
    pending in) a stopped pool, on requests whose deadline elapsed
    before dispatch, and on requests to a shard whose worker crashed.  Budget refusals raise
    :class:`BudgetError` instead — they are an admission-control
    decision, not a serving failure.

    Attributes
    ----------
    reason:
        A short machine-readable category (``"overload"``,
        ``"domain"``, ``"stopped"``, ``"timeout"``, ``"abandoned"``,
        ``"failed"``) or None for uncategorised failures.  The serving
        front-end's bounded retry loop treats ``"overload"`` as
        transient and everything else as final.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class LedgerError(ReproError):
    """The durable budget ledger was misused or cannot be written.

    Raised on malformed reserve/commit sequences (committing an unknown
    entry id, reserving a non-positive epsilon) and on unwritable
    journal files.  *Never* raised for corruption found
    while replaying a journal — torn tails and flipped bytes are an
    expected crash outcome; replay degrades fail-closed (skips the
    unreadable entries, counts every readable reservation as spent) and
    reports them through :class:`~repro.core.ledger.LedgerReplay`
    instead of refusing to open.
    """


class CircuitOpenError(SolverError):
    """The solver circuit breaker is open: the solve was refused without
    being attempted.

    A :class:`~repro.core.resilience.CircuitBreakerSolver` raises this
    after repeated chain-exhausted failures, so the walk engine's
    degradation path serves the closed-form exponential fallback
    immediately instead of burning a full retry chain per node while
    the LP substrate is down.  Subclasses :class:`SolverError`, so
    every existing fail-closed handler treats it as one more solver
    failure — utility may degrade, privacy never does.
    """


class DegradedModeWarning(Warning):
    """MSM substituted a closed-form fallback for an unsolvable OPT level.

    Privacy is unaffected (the substitute satisfies the same per-level
    epsilon); utility at the affected node is no longer optimal.
    """
