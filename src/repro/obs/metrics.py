"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is the numerical half of the observability layer
(:mod:`repro.obs`): every load-bearing signal of the walk engine — LP
seconds per level, cache hits, degradation counts, end-to-end latency —
lands in one :class:`MetricsRegistry` as a counter, gauge or
fixed-bucket histogram.

Two properties carry the whole design:

* **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot`
  returns a frozen, sorted :class:`MetricsSnapshot`; histograms use
  *fixed* bucket edges chosen at creation time, never adaptive ones, so
  the same workload produces the same snapshot structure every run and
  golden-file tests stay byte-stable.

* **Mergeable snapshots.**  The serving pool gives every worker
  process its own registry and merges the per-worker snapshots into the
  frontend's (:meth:`~repro.serve.pool.ServingPool.collect_metrics`).
  For that to be sound, :meth:`MetricsSnapshot.merge` must be
  associative and commutative: counters and histogram buckets add,
  gauges take the maximum (the only order-free combination for
  level-style values).  Both laws are pinned down in
  ``tests/test_obs.py``.

The registry is plain-Python and picklable (snapshots cross the pool's
pipes) and is *not* thread-safe — the engine is single-threaded per
process, and workers never share a registry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.exceptions import ObservabilityError

#: Default latency bucket upper bounds (seconds).  Spans four orders of
#: magnitude: sub-millisecond cache hits up to multi-second cold LP
#: sweeps.  Fixed so snapshots are deterministic across runs.
LATENCY_EDGES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)

#: Default size bucket upper bounds (batch sizes).
SIZE_EDGES: tuple[float, ...] = (
    1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0, 262144.0,
)

#: A label set in canonical form: sorted ``(key, value)`` pairs.
Labels = tuple[tuple[str, str], ...]


def _canonical_labels(labels: dict[str, object]) -> Labels:
    """Sort and stringify a label mapping so it can key a metric."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (events, seconds, points)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0 — counters never go down)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (remaining budget, per-level epsilon)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Observations bucketed by fixed upper-bound edges.

    ``edges`` are the finite bucket upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the tail.  ``counts[i]`` holds the
    number of observations ``<= edges[i]`` exclusive of earlier buckets
    (plain buckets, cumulated only at export time, which is what the
    Prometheus text format expects).
    """

    __slots__ = ("name", "labels", "edges", "counts", "sum", "count")

    def __init__(self, name: str, labels: Labels, edges: tuple[float, ...]):
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ObservabilityError(
                f"histogram {name} needs strictly increasing bucket "
                f"edges, got {edges}"
            )
        self.name = name
        self.labels = labels
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1


# ----------------------------------------------------------------------
# snapshots — the frozen, mergeable view
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricValue:
    """One counter or gauge reading."""

    name: str
    labels: Labels
    value: float


@dataclass(frozen=True)
class HistogramValue:
    """One histogram reading (plain per-bucket counts, not cumulative)."""

    name: str
    labels: Labels
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, deterministic view of a registry.

    All three tuples are sorted by ``(name, labels)``, so two snapshots
    of identical registry states compare equal and export to identical
    text.  Merging is pure (returns a new snapshot), associative and
    commutative — the algebra the serving pool's per-worker merges
    rely on.
    """

    counters: tuple[MetricValue, ...] = ()
    gauges: tuple[MetricValue, ...] = ()
    histograms: tuple[HistogramValue, ...] = ()

    # -- lookups -------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        """The counter's value, 0.0 when absent."""
        key = _canonical_labels(labels)
        for m in self.counters:
            if m.name == name and m.labels == key:
                return m.value
        return 0.0

    def gauge_value(self, name: str, **labels) -> float:
        """The gauge's value, 0.0 when absent."""
        key = _canonical_labels(labels)
        for m in self.gauges:
            if m.name == name and m.labels == key:
                return m.value
        return 0.0

    def histogram_value(self, name: str, **labels) -> HistogramValue | None:
        """The full histogram reading, None when absent."""
        key = _canonical_labels(labels)
        for h in self.histograms:
            if h.name == name and h.labels == key:
                return h
        return None

    def counter_total(self, name: str) -> float:
        """Sum of a counter across every label set (e.g. all levels)."""
        return sum(m.value for m in self.counters if m.name == name)

    def label_values(self, name: str, label: str) -> tuple[str, ...]:
        """Sorted distinct values of ``label`` on counters named ``name``."""
        values = {
            v for m in self.counters if m.name == name
            for k, v in m.labels if k == label
        }
        return tuple(sorted(values))

    # -- algebra -------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots: counters and histogram buckets add,
        gauges take the maximum.  Associative and commutative, so any
        merge order over any worker partition yields the same snapshot."""
        counters: dict[tuple[str, Labels], float] = {
            (m.name, m.labels): m.value for m in self.counters
        }
        for m in other.counters:
            key = (m.name, m.labels)
            counters[key] = counters.get(key, 0.0) + m.value
        gauges: dict[tuple[str, Labels], float] = {
            (m.name, m.labels): m.value for m in self.gauges
        }
        for m in other.gauges:
            key = (m.name, m.labels)
            gauges[key] = max(gauges.get(key, m.value), m.value)
        hists: dict[tuple[str, Labels], HistogramValue] = {
            (h.name, h.labels): h for h in self.histograms
        }
        for h in other.histograms:
            key = (h.name, h.labels)
            mine = hists.get(key)
            if mine is None:
                hists[key] = h
                continue
            if mine.edges != h.edges:
                raise ObservabilityError(
                    f"histogram {h.name} bucket edges differ across "
                    f"snapshots: {mine.edges} vs {h.edges}"
                )
            hists[key] = HistogramValue(
                name=h.name,
                labels=h.labels,
                edges=h.edges,
                counts=tuple(a + b for a, b in zip(mine.counts, h.counts)),
                sum=mine.sum + h.sum,
                count=mine.count + h.count,
            )
        return MetricsSnapshot(
            counters=tuple(
                MetricValue(n, la, v)
                for (n, la), v in sorted(counters.items())
            ),
            gauges=tuple(
                MetricValue(n, la, v)
                for (n, la), v in sorted(gauges.items())
            ),
            histograms=tuple(h for _, h in sorted(hists.items())),
        )

    def since(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The delta accrued after ``earlier`` was taken.

        Counters and histograms subtract (entries that did not change
        are dropped); gauges keep their current value — a gauge is a
        level, not an accumulation, so "the delta" is just its reading.
        Used to attach per-batch telemetry summaries without resetting
        the long-lived registry.
        """
        base_counters = {
            (m.name, m.labels): m.value for m in earlier.counters
        }
        counters = []
        for m in self.counters:
            delta = m.value - base_counters.get((m.name, m.labels), 0.0)
            if delta != 0.0:
                counters.append(MetricValue(m.name, m.labels, delta))
        base_hists = {
            (h.name, h.labels): h for h in earlier.histograms
        }
        hists = []
        for h in self.histograms:
            base = base_hists.get((h.name, h.labels))
            if base is None:
                if h.count:
                    hists.append(h)
                continue
            if base.edges != h.edges:
                raise ObservabilityError(
                    f"histogram {h.name} bucket edges changed between "
                    f"snapshots: {base.edges} vs {h.edges}"
                )
            if h.count == base.count:
                continue
            hists.append(
                HistogramValue(
                    name=h.name,
                    labels=h.labels,
                    edges=h.edges,
                    counts=tuple(
                        a - b for a, b in zip(h.counts, base.counts)
                    ),
                    sum=h.sum - base.sum,
                    count=h.count - base.count,
                )
            )
        return MetricsSnapshot(
            counters=tuple(counters),
            gauges=self.gauges,
            histograms=tuple(hists),
        )


@dataclass
class MetricsRegistry:
    """The live metric store every instrumented component writes into.

    ``counter``/``gauge``/``histogram`` get-or-create by ``(name,
    labels)``; re-requesting a name with a different metric type (or a
    histogram with different edges) raises — a name means one thing.
    """

    _metrics: dict[tuple[str, Labels], object] = field(default_factory=dict)

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter for ``(name, labels)``."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge for ``(name, labels)``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        edges: tuple[float, ...] = LATENCY_EDGES,
        **labels,
    ) -> Histogram:
        """Get or create the fixed-edge histogram for ``(name, labels)``."""
        hist = self._get_or_create(Histogram, name, labels, edges=edges)
        if hist.edges != tuple(float(e) for e in edges):
            raise ObservabilityError(
                f"histogram {name} already registered with edges "
                f"{hist.edges}, requested {tuple(edges)}"
            )
        return hist

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise ObservabilityError(
                f"metric {name} is a {type(metric).__name__}, "
                f"requested as {cls.__name__}"
            )
        return metric

    def snapshot(self) -> MetricsSnapshot:
        """A frozen, sorted view of the current state."""
        counters, gauges, hists = [], [], []
        for (name, labels), metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters.append(MetricValue(name, labels, metric.value))
            elif isinstance(metric, Gauge):
                gauges.append(MetricValue(name, labels, metric.value))
            else:
                hists.append(
                    HistogramValue(
                        name=name,
                        labels=labels,
                        edges=metric.edges,
                        counts=tuple(metric.counts),
                        sum=metric.sum,
                        count=metric.count,
                    )
                )
        return MetricsSnapshot(
            counters=tuple(counters),
            gauges=tuple(gauges),
            histograms=tuple(hists),
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (e.g. a pool worker's) into this registry.

        Same semantics as :meth:`MetricsSnapshot.merge`: counters and
        histogram buckets add, gauges take the maximum.
        """
        for m in snapshot.counters:
            self.counter(m.name, **dict(m.labels)).inc(m.value)
        for m in snapshot.gauges:
            gauge = self.gauge(m.name, **dict(m.labels))
            gauge.set(max(gauge.value, m.value))
        for h in snapshot.histograms:
            hist = self.histogram(h.name, edges=h.edges, **dict(h.labels))
            for i, c in enumerate(h.counts):
                hist.counts[i] += c
            hist.sum += h.sum
            hist.count += h.count

    def clear(self) -> None:
        """Drop every metric."""
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)
