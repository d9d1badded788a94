"""Observability for the walk engine: metrics, spans, exporters.

One object travels through the stack: an :class:`Observability` handle
bundling a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer`.  Every instrumented component
(engine, cache, resilient solver, LP backends, session, LBS harness)
holds one, defaulting to the module-level :data:`NOOP` handle.

The no-overhead-when-disabled contract
--------------------------------------
Instrumentation is written so the disabled path costs almost nothing:

* metric emission is guarded by ``if obs.enabled:`` — one attribute
  read per *node group or level*, never per point;
* span creation under the :class:`~repro.obs.trace.NoopTracer` returns
  one shared, stateless context manager that yields ``None``;
* expensive span attributes (array reductions, path strings) are only
  computed when the yielded span object is not ``None``.

The acceptance criterion (the disabled path within 3% of
uninstrumented) is priced by the repository benchmark's
``trace.*_overhead_pct`` layers (``perfbench/run.py --trace 1``).

Enabling
--------
``Observability.collecting()`` builds a live handle::

    obs = Observability.collecting(trace=True)
    session = SanitizationSession(..., metrics=True)   # or via the CLI:
    # repro sanitize ... --metrics out.prom --trace-out spans.jsonl

The serving pool gives each worker process its own registry and merges
the per-worker snapshots into the parent registry
(:meth:`~repro.serve.pool.ServingPool.collect_metrics`), so pool-wide
totals do not depend on the order workers report in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    LATENCY_EDGES,
    SIZE_EDGES,
    Counter,
    Gauge,
    Histogram,
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    MetricValue,
)
from repro.obs.trace import NoopTracer, RecordingTracer, Span, Tracer

__all__ = [
    "LATENCY_EDGES",
    "SIZE_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricValue",
    "NoopTracer",
    "RecordingTracer",
    "Span",
    "Tracer",
    "NOOP",
    "Observability",
]


@dataclass
class Observability:
    """The handle instrumented components hold.

    ``enabled`` is the single hot-path guard: components check it before
    touching the registry.  The tracer is consulted unconditionally (its
    noop implementation is itself near-free), so trace-only and
    metrics-only configurations both work.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=NoopTracer)
    enabled: bool = False

    @classmethod
    def collecting(cls, trace: bool = False) -> "Observability":
        """A live handle: fresh registry, optionally a recording tracer."""
        return cls(
            metrics=MetricsRegistry(),
            tracer=RecordingTracer() if trace else NoopTracer(),
            enabled=True,
        )

    def snapshot(self) -> MetricsSnapshot:
        """Shorthand for ``self.metrics.snapshot()``."""
        return self.metrics.snapshot()

    @property
    def spans(self) -> list[Span]:
        """Recorded root spans (empty under a noop tracer)."""
        tracer = self.tracer
        return list(tracer.roots) if isinstance(tracer, RecordingTracer) else []


#: The shared disabled handle — the default on every component.  Its
#: registry exists (so accidental writes are harmless, not crashes) but
#: ``enabled`` is False, and the tracer records nothing.
NOOP = Observability()
