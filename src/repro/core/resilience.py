"""Fail-closed resilience layer for the LP substrate.

MSM's correctness rests on an LP solve succeeding at every level of the
GIHI walk (Algorithm 1 of the paper), but solvers fail in practice:
HiGHS hits numerical trouble on badly-scaled GeoInd constraint blocks,
wall-clock limits fire under load, and a production client serving
millions of reports cannot crash a request.  This module provides the
degradation machinery the rest of :mod:`repro.core` is wired through:

* :class:`ResilientSolver` — wraps the LP substrate with a configurable
  fallback chain (by default scipy ``highs-ds`` → ``highs-ipm`` → the
  dense from-scratch ``simplex``), bounded retries with growing
  per-attempt time limits, and structured :class:`SolveAttempt` /
  :class:`SolveRecord` failure records.  When the whole chain fails it
  raises :class:`~repro.exceptions.SolverRetryExhaustedError` carrying
  every attempt — it never returns a non-optimal solution.

* :class:`DegradationReport` / :class:`DegradedNode` — the per-walk
  account of which MSM levels had their optimal mechanism replaced by
  the closed-form exponential fallback.  The fallback runs at exactly
  the level's allocated epsilon, so degradation trades utility for
  availability while privacy and budget accounting are untouched.

The privacy argument for the whole layer is the asymmetry between the
two mechanisms involved: Bordenabe et al.'s OPT needs a successful LP
solve, whereas the exponential mechanism (and the planar Laplace it
approximates) satisfies the *same* epsilon-GeoInd guarantee
unconditionally.  On failure we may lose utility; we never lose privacy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import (
    InfeasibleProblemError,
    SolverError,
    SolverRetryExhaustedError,
    UnboundedProblemError,
)
from repro.lp import BACKENDS, solve as lp_solve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.obs import NOOP, Observability

#: Statuses worth retrying on the *same* backend (with a grown time
#: limit): transient resource limits and numerical trouble.
RETRYABLE_STATUSES = frozenset(
    {LPStatus.NUMERICAL, LPStatus.ITERATION_LIMIT, LPStatus.TIME_LIMIT}
)

#: Structural outcomes: a deterministic backend will reproduce them, so
#: the chain skips straight to the next backend (which may still succeed
#: — HiGHS occasionally misreports badly-scaled programs as infeasible).
STRUCTURAL_STATUSES = frozenset({LPStatus.INFEASIBLE, LPStatus.UNBOUNDED})

#: The type ResilientSolver delegates raw solves to — signature of
#: :func:`repro.lp.solve`.  The fault-injection harness substitutes its
#: own implementation here.
SolveFn = Callable[..., LPResult]


@dataclass(frozen=True)
class SolveAttempt:
    """One backend invocation inside a resilient solve."""

    backend: str
    attempt: int
    status: LPStatus | None
    raw_status: int | None
    error: str | None
    time_limit: float | None
    seconds: float

    @property
    def ok(self) -> bool:
        """True when this attempt produced a proven optimum."""
        return self.status is LPStatus.OPTIMAL

    def describe(self) -> str:
        """One-line human-readable summary for logs and error messages."""
        outcome = self.error or (self.status.value if self.status else "?")
        limit = f", limit={self.time_limit:.3g}s" if self.time_limit else ""
        return f"{self.backend}#{self.attempt}: {outcome}{limit}"


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for :class:`ResilientSolver`.

    Parameters
    ----------
    backends:
        The fallback chain, tried in order.
    max_attempts_per_backend:
        Retry budget per backend for retryable statuses/errors;
        structural outcomes advance to the next backend immediately.
    attempt_time_limit:
        Wall-clock cap (seconds) for the *first* attempt on each
        backend; ``None`` means uncapped.  The dense simplex backend
        ignores time limits.
    time_limit_growth:
        Multiplier applied to the time limit on every retry, so a solve
        stopped by the clock gets a genuinely larger budget instead of
        deterministically failing again.
    """

    backends: tuple[str, ...] = ("highs-ds", "highs-ipm", "simplex")
    max_attempts_per_backend: int = 2
    attempt_time_limit: float | None = None
    time_limit_growth: float = 2.0

    def __post_init__(self) -> None:
        if not self.backends:
            raise SolverError("resilience chain needs at least one backend")
        unknown = [b for b in self.backends if b not in BACKENDS]
        if unknown:
            raise SolverError(
                f"unknown backends in resilience chain: {unknown}; "
                f"known: {BACKENDS}"
            )
        if self.max_attempts_per_backend < 1:
            raise SolverError("max_attempts_per_backend must be >= 1")
        if self.attempt_time_limit is not None and self.attempt_time_limit <= 0:
            raise SolverError("attempt_time_limit must be positive or None")
        if self.time_limit_growth < 1.0:
            raise SolverError("time_limit_growth must be >= 1")

    @classmethod
    def starting_with(cls, backend: str, **kwargs) -> "ResilienceConfig":
        """A default chain re-ordered to try ``backend`` first."""
        default = cls.__dataclass_fields__["backends"].default
        rest = tuple(b for b in default if b != backend)
        return cls(backends=(backend, *rest), **kwargs)


@dataclass(frozen=True)
class SolveRecord:
    """The complete attempt history of one resilient solve."""

    n_vars: int
    n_constraints: int
    attempts: tuple[SolveAttempt, ...]
    winner: str | None

    @property
    def succeeded(self) -> bool:
        """Whether any attempt produced an optimum."""
        return self.winner is not None

    @property
    def n_attempts(self) -> int:
        """Total backend invocations made."""
        return len(self.attempts)


class ResilientSolver:
    """LP solving with a fallback chain; returns optima or raises.

    The contract is fail-closed: :meth:`solve` either returns an
    :class:`LPResult` whose status is ``OPTIMAL`` or raises a typed
    :class:`~repro.exceptions.SolverError` — callers never see a
    garbage solution vector.  Implements the
    :class:`repro.lp.LPSolver` protocol.

    Parameters
    ----------
    config:
        The fallback policy; defaults to the standard three-backend
        chain with two attempts each.
    solve_fn:
        The raw solve callable, defaulting to :func:`repro.lp.solve`.
        The fault-injection harness
        (:class:`repro.testing.faults.FaultInjectingSolver`) slots in
        here, which is what makes the whole chain testable without
        monkey-patching scipy internals.
    """

    #: observability handle; shadowed per instance by bind_observability.
    _obs = NOOP

    def __init__(
        self,
        config: ResilienceConfig | None = None,
        solve_fn: SolveFn | None = None,
    ):
        self._config = config if config is not None else ResilienceConfig()
        self._solve_fn: SolveFn = solve_fn if solve_fn is not None else lp_solve
        self._history: list[SolveRecord] = []

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle.

        When enabled, every solve is wrapped in an ``lp.solve`` span and
        per-backend attempt/retry/fallback counters are recorded; the
        handle is also forwarded to ``solve_fn`` as an ``obs`` keyword so
        the backend layer can instrument itself (the default
        :func:`repro.lp.solve` and the fault-injection harness both
        accept it)."""
        self._obs = obs

    @property
    def config(self) -> ResilienceConfig:
        """The fallback policy in force."""
        return self._config

    @property
    def history(self) -> list[SolveRecord]:
        """Attempt records of every solve issued through this solver."""
        return list(self._history)

    @property
    def last_record(self) -> SolveRecord | None:
        """The most recent solve's record, if any."""
        return self._history[-1] if self._history else None

    def solve(
        self, problem: LinearProgram, time_limit: float | None = None
    ) -> LPResult:
        """Solve ``problem`` through the fallback chain.

        ``time_limit`` caps each attempt in addition to the configured
        ``attempt_time_limit`` (the smaller of the two applies; retries
        still grow their budget from that base).

        Raises
        ------
        SolverRetryExhaustedError
            When every backend failed within its retry budget.  The
            exception carries all :class:`SolveAttempt` records.
        """
        obs = self._obs
        if not obs.enabled:
            return self._solve_chain(problem, time_limit, {})
        with obs.tracer.span(
            "lp.solve",
            n_vars=problem.n_vars,
            n_constraints=problem.n_constraints,
        ) as sp:
            try:
                return self._solve_chain(problem, time_limit, {"obs": obs})
            finally:
                # both outcomes append a record before leaving the chain
                self._record_outcome(obs, sp, self._history[-1])

    def _record_outcome(self, obs: Observability, sp, record) -> None:
        metrics = obs.metrics
        for attempt in record.attempts:
            metrics.counter(
                "repro_solver_attempts_total", backend=attempt.backend
            ).inc()
            if attempt.attempt > 1:
                metrics.counter(
                    "repro_solver_retries_total", backend=attempt.backend
                ).inc()
        if record.winner is None:
            metrics.counter("repro_solver_exhausted_total").inc()
        elif record.winner != self._config.backends[0]:
            metrics.counter(
                "repro_solver_fallbacks_total", backend=record.winner
            ).inc()
        if sp is not None:
            sp.attributes["winner"] = record.winner
            sp.attributes["attempts"] = record.n_attempts

    def _solve_chain(
        self,
        problem: LinearProgram,
        time_limit: float | None,
        extra: dict,
    ) -> LPResult:
        cfg = self._config
        attempts: list[SolveAttempt] = []
        for backend in cfg.backends:
            limit = _combine_limits(cfg.attempt_time_limit, time_limit)
            for attempt in range(1, cfg.max_attempts_per_backend + 1):
                start = time.perf_counter()
                try:
                    result = self._solve_fn(
                        problem, backend=backend, time_limit=limit, **extra
                    )
                except (InfeasibleProblemError, UnboundedProblemError) as exc:
                    attempts.append(
                        _failed_attempt(backend, attempt, limit, start, exc=exc)
                    )
                    break  # structural: next backend
                except Exception as exc:  # noqa: BLE001 - fail closed on any
                    attempts.append(
                        _failed_attempt(backend, attempt, limit, start, exc=exc)
                    )
                    limit = _grow(limit, cfg.time_limit_growth)
                    continue
                if result.is_optimal:
                    attempts.append(
                        SolveAttempt(
                            backend=backend,
                            attempt=attempt,
                            status=result.status,
                            raw_status=result.raw_status,
                            error=None,
                            time_limit=limit,
                            seconds=result.solve_seconds,
                        )
                    )
                    self._history.append(
                        SolveRecord(
                            n_vars=problem.n_vars,
                            n_constraints=problem.n_constraints,
                            attempts=tuple(attempts),
                            winner=backend,
                        )
                    )
                    return result
                attempts.append(
                    SolveAttempt(
                        backend=backend,
                        attempt=attempt,
                        status=result.status,
                        raw_status=result.raw_status,
                        error=None,
                        time_limit=limit,
                        seconds=result.solve_seconds,
                    )
                )
                if result.status in STRUCTURAL_STATUSES:
                    break  # deterministic failure: next backend
                limit = _grow(limit, cfg.time_limit_growth)
        record = SolveRecord(
            n_vars=problem.n_vars,
            n_constraints=problem.n_constraints,
            attempts=tuple(attempts),
            winner=None,
        )
        self._history.append(record)
        summary = "; ".join(a.describe() for a in attempts)
        raise SolverRetryExhaustedError(
            f"all {len(cfg.backends)} backends exhausted after "
            f"{len(attempts)} attempts ({summary})",
            attempts=attempts,
        )


def _combine_limits(a: float | None, b: float | None) -> float | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _grow(limit: float | None, factor: float) -> float | None:
    return None if limit is None else limit * factor


def _failed_attempt(
    backend: str,
    attempt: int,
    limit: float | None,
    start: float,
    exc: Exception,
) -> SolveAttempt:
    return SolveAttempt(
        backend=backend,
        attempt=attempt,
        status=None,
        raw_status=None,
        error=f"{type(exc).__name__}: {exc}",
        time_limit=limit,
        seconds=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerConfig:
    """Policy knobs for :class:`CircuitBreakerSolver`.

    Parameters
    ----------
    failure_threshold:
        Consecutive chain-exhausted solves that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before half-opening to let one
        probe solve through.
    """

    failure_threshold: int = 3
    reset_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise SolverError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise SolverError("reset_timeout must be positive")


class CircuitBreakerSolver:
    """A circuit breaker around a :class:`ResilientSolver`.

    The resilient chain already retries and falls back per solve; under
    a *persistent* substrate outage (a broken scipy install, a poisoned
    environment) every node of a walk still burns the full chain before
    the engine degrades it.  The breaker bounds that cost: after
    ``failure_threshold`` consecutive exhausted chains it **opens** and
    refuses further solves instantly with
    :class:`~repro.exceptions.CircuitOpenError` — a
    :class:`~repro.exceptions.SolverError` subclass, so the engine's
    existing degradation path serves the closed-form exponential
    mechanism at the same per-level epsilon, immediately and fail-closed.
    After ``reset_timeout`` seconds the breaker **half-opens**: exactly
    one probe solve is let through; success closes the circuit, failure
    re-opens it for another timeout.

    Implements the same ``solve`` protocol as
    :class:`ResilientSolver`, so it slots in anywhere one does
    (``MultiStepMechanism.build(solver=...)``, and through its
    ``**msm_kwargs`` ``ServingPool.build``).  Thread-safe; the probe slot is claimed under a lock so
    concurrent half-open callers cannot stampede the substrate.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        inner: ResilientSolver | None = None,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self._inner = inner if inner is not None else ResilientSolver()
        self._breaker_config = (
            config if config is not None else BreakerConfig()
        )
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        self._obs = NOOP
        self.trips = 0
        self.short_circuits = 0

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle (also bound to the inner
        solver)."""
        self._obs = obs
        self._inner.bind_observability(obs)
        self._record_state()

    @property
    def inner(self) -> ResilientSolver:
        """The wrapped resilient solver."""
        return self._inner

    @property
    def config(self) -> ResilienceConfig:
        """The inner solver's fallback policy (protocol parity)."""
        return self._inner.config

    @property
    def breaker_config(self) -> BreakerConfig:
        """The breaker policy in force."""
        return self._breaker_config

    @property
    def state(self) -> str:
        """Current breaker state (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def history(self) -> list[SolveRecord]:
        """The inner solver's attempt records (protocol parity)."""
        return self._inner.history

    @property
    def last_record(self) -> SolveRecord | None:
        """The inner solver's most recent record (protocol parity)."""
        return self._inner.last_record

    def solve(
        self, problem: LinearProgram, time_limit: float | None = None
    ) -> LPResult:
        """Solve through the breaker.

        Raises
        ------
        CircuitOpenError
            When the breaker is open (or half-open with the probe slot
            already taken) — the solve was not attempted.
        SolverRetryExhaustedError
            When the inner chain was attempted and failed; also counts
            toward tripping the breaker.
        """
        from repro.exceptions import CircuitOpenError

        probe = False
        with self._lock:
            self._maybe_half_open()
            if self._state == self.OPEN or (
                self._state == self.HALF_OPEN and self._probe_in_flight
            ):
                self.short_circuits += 1
                if self._obs.enabled:
                    self._obs.metrics.counter(
                        "repro_breaker_short_circuits_total"
                    ).inc()
                raise CircuitOpenError(
                    f"solver circuit breaker is {self._state} after "
                    f"{self._consecutive_failures} consecutive chain "
                    f"failures; degrading without attempting the solve"
                )
            if self._state == self.HALF_OPEN:
                probe = self._probe_in_flight = True
        try:
            result = self._inner.solve(problem, time_limit=time_limit)
        except SolverError:
            with self._lock:
                if probe:
                    self._probe_in_flight = False
                self._consecutive_failures += 1
                threshold = self._breaker_config.failure_threshold
                if (
                    self._state == self.HALF_OPEN
                    or self._consecutive_failures >= threshold
                ):
                    self._trip()
            raise
        with self._lock:
            if probe:
                self._probe_in_flight = False
            self._consecutive_failures = 0
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self._opened_at = None
                self._record_state()
        return result

    def _maybe_half_open(self) -> None:
        """Open → half-open once the reset timeout elapsed; caller
        holds the lock."""
        if self._state == self.OPEN and self._opened_at is not None:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self._breaker_config.reset_timeout:
                self._state = self.HALF_OPEN
                self._probe_in_flight = False
                self._record_state()

    def _trip(self) -> None:
        """Move to open; caller holds the lock."""
        self._state = self.OPEN
        self._opened_at = self._clock()
        self.trips += 1
        if self._obs.enabled:
            self._obs.metrics.counter("repro_breaker_trips_total").inc()
        self._record_state()

    def _record_state(self) -> None:
        if self._obs.enabled:
            level = {self.CLOSED: 0, self.HALF_OPEN: 1, self.OPEN: 2}
            self._obs.metrics.gauge("repro_breaker_state").set(
                level[self._state]
            )


# ----------------------------------------------------------------------
# degradation accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegradedNode:
    """One index node whose OPT was replaced by the closed-form fallback."""

    node_path: tuple[int, ...]
    level: int
    epsilon: float
    fallback: str
    reason: str


@dataclass(frozen=True)
class DegradationReport:
    """Which levels of a walk (or cache) run on substituted mechanisms.

    An empty report (``clean`` is True) means every step used its
    LP-optimal mechanism.  Substituted steps still satisfy their
    allocated per-level epsilon — degradation is a utility statement,
    never a privacy one.
    """

    substitutions: tuple[DegradedNode, ...] = field(default=())

    @property
    def clean(self) -> bool:
        """True when nothing was substituted."""
        return not self.substitutions

    @property
    def degraded_levels(self) -> tuple[int, ...]:
        """Sorted distinct levels with a substituted mechanism."""
        return tuple(sorted({s.level for s in self.substitutions}))

    def describe(self) -> str:
        """Human-readable one-liner for logs."""
        if self.clean:
            return "no degradation"
        parts = [
            f"level {s.level} (eps={s.epsilon:.4g}, {s.fallback})"
            for s in self.substitutions
        ]
        return "degraded: " + "; ".join(parts)
