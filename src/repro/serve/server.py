"""The serving envelope and its stats snapshot.

:class:`ServerConfig` carries the knobs of the serving tier
(:class:`~repro.serve.pool.ServingPool`): the per-user lifetime budget,
the per-report charge, and the micro-batching policy.
:class:`ServerStats` is the plain counter snapshot each shard keeps and
the pool folds together through :meth:`ServerStats.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for a :class:`~repro.serve.pool.ServingPool`.

    Attributes
    ----------
    lifetime_epsilon:
        Lifetime GeoInd budget granted to each user.
    per_report_epsilon:
        Budget one sanitised report is charged.  It must cover the
        served mechanism's epsilon (the sum of its level budgets); the
        pool refuses an arena that spends more per walk.
    coalesce_window:
        Extra time (seconds) a shard's feeder waits after the first
        pending request to gather more into the same micro-batch.  The
        default zero waits for nothing, yet still batches: the feeder
        takes every request already queued — those that arrived while
        the previous batch was in flight — and dispatches at once.
    max_batch:
        Hard cap on micro-batch size; a full batch dispatches
        immediately without waiting out the window.
    max_pending:
        Bound on queued-but-unanswered requests; submissions beyond it
        are shed with :class:`~repro.exceptions.ServeError` (reason
        ``overload``) rather than queueing unboundedly.
    """

    lifetime_epsilon: float
    per_report_epsilon: float
    coalesce_window: float = 0.0
    max_batch: int = 512
    max_pending: int = 10_000


@dataclass
class ServerStats:
    """A plain snapshot of serving counters (always available, even
    with observability disabled)."""

    requests: int = 0
    completed: int = 0
    rejected_budget: int = 0
    rejected_overload: int = 0
    rejected_domain: int = 0
    batches: int = 0
    coalesced: int = 0
    failed: int = 0
    sessions: int = 0
    max_batch_points: int = 0
    abandoned: int = 0
    replayed_users: int = 0
    replayed_epsilon: float = 0.0
    #: worker-process respawns after a crash
    respawns: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    #: fields combined with ``max`` by :meth:`merge`; everything else
    #: (counts, epsilon totals) adds.
    _MERGE_MAX = ("max_batch_points",)

    def merge(self, other: "ServerStats") -> "ServerStats":
        """Combine two stats snapshots from *disjoint* serving shards.

        Same algebra as :meth:`repro.obs.metrics.MetricsSnapshot.merge`
        — associative and commutative, so N workers' stats fold in any
        order (tree-reduce, incremental, stragglers last) to the same
        totals.  Counters add; ``max_batch_points`` takes the max.
        ``sessions`` adds because the pool shards users by stable hash:
        a user's budget lives in exactly one shard, so shard session
        counts are disjoint by construction.
        """
        merged = ServerStats()
        for key in self.__dict__:
            a, b = getattr(self, key), getattr(other, key)
            setattr(
                merged, key, max(a, b) if key in self._MERGE_MAX else a + b
            )
        return merged
