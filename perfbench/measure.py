"""What every workload shares: sizes, the run record, statistics.

A workload returns a :class:`Run`: its metrics by name with their unit,
the requests it attempted and saw fail, the output checks it made, and
ungated figures (tails with their sample counts, counts of work) that
``run.py`` prints but does not gate.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

#: The untraced run prints these on every workload (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "mean_loss_km": "km",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "ontime_share": "share",
    "answered_share": "share",
}

#: The traced run prints these on every workload; a layer the workload
#: never calls reads 0.
PER_LAYER = {
    "priors.empirical_prior_s": "s",
    "msm.precompute_s": "s",
    "msm.node_builds": "count",
    "lp.solves": "count",
    "lp.solve_s": "s",
    "engine.child_prior_s": "s",
    "kernel.compile_s": "s",
    "arena.freeze_s": "s",
    "pool.start_s": "s",
    "kernel.walk_arrays_ns": "ns",
    "engine.walk_ns": "ns",
    "msm.sanitize_batch_ns": "ns",
    "graph.nearest_vertices_ns": "ns",
    "pool.submit_us": "us",
    "pool.batches": "count",
    "pool.mean_batch_size": "count",
    "budget.admit_settle_us": "us",
    "budget.admit_settle_long_us": "us",
    "ledger.reserve_commit_us": "us",
    "loadgen.late_p99_ms": "ms",
    "loadgen.overload_retries": "count",
    "trace.reports_per_s_overhead_pct": "%",
    "trace.p50_ms_overhead_pct": "%",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``run.py`` always uses the defaults;
    the smoke tests pass :data:`TINY`."""

    #: reports per ``sanitize_batch`` call on the publish workloads
    batch: int = 10_000
    #: full program set-ups per run, at least this many and for at
    #: least ``setup_seconds``; ``setup_s`` is their median
    setup_reps: int = 3
    setup_seconds: float = 2.0
    #: share of the Gowalla-Austin check-ins generated
    fraction: float = 1.0
    #: offered rate of ``serve-open`` (requests per second)
    open_rate: float = 200.0
    #: requests per drained backlog on ``serve-backlog``
    backlog_chunk: int = 1_000


TINY = Sizes(batch=300, setup_reps=1, setup_seconds=0.0, fraction=0.05,
             open_rate=100.0, backlog_chunk=100)


@dataclass
class Run:
    """The outcome of one workload run."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    figures: dict[str, str] = field(default_factory=dict)

    def metric(self, name: str, value: float) -> None:
        if name not in END_TO_END and name not in PER_LAYER:
            raise KeyError(f"{name!r} is not a benchmark metric")
        self.metrics[name] = float(value)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values, q: float) -> tuple[float, int]:
    """The ``q`` percentile (an observed sample, so a failure counted as
    infinitely slow stays infinite) and how many samples lie beyond it."""
    arr = np.asarray(values, dtype=float)
    value = float(np.percentile(arr, q, method="higher"))
    return value, int((arr > value).sum())


def span_total(tracer, name: str) -> float:
    """Seconds spent in every recorded span called ``name``."""
    return sum(span.duration for span in tracer.find(name))


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident set of this process, plus that of the largest
    finished child (the pool worker) when asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0
