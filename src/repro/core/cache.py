"""Per-node mechanism cache for the multi-step mechanism.

The LP an MSM step solves depends only on the index node (its children's
geometry and restricted prior) and the level budget — not on the user
location.  Caching solved matrices per node therefore makes repeat
queries O(h) row samples, and precomputing the whole reachable tree is
exactly the paper's offline component: "download in advance (offline) a
set of maps annotated with additional pre-computed information"
(Section 3.1).

Since the resilience layer landed, the cache stores a
:class:`CacheEntry` per node rather than a bare matrix: the entry keeps
the provenance every degradation report needs — whether the node runs
on its LP optimum or on the substituted closed-form fallback, at which
level and epsilon, and why.

Since the serving layer landed, the cache is also a *resource*: it is
memory-bounded (least-recently-used eviction against a configurable
byte budget, so a long-lived server over a deep index cannot grow
without bound) and thread-safe (a server's request threads and warm-up
paths may race on it; builds are single-flight per node so a race
solves each LP exactly once).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.mechanisms.matrix import MechanismMatrix
from repro.obs import NOOP, Observability


@dataclass(frozen=True)
class CacheEntry:
    """One node's mechanism plus the provenance the resilience layer needs.

    Attributes
    ----------
    matrix:
        The (guard-validated) step mechanism.
    degraded:
        True when the LP solve failed and ``matrix`` is the closed-form
        fallback rather than the optimum.
    source:
        Where the matrix came from: ``"opt"``, ``"exponential"`` (the
        degradation fallback), ``"bundle"`` (restored from disk) or
        ``"store"`` (warm-started from a persistent mechanism store).
    reason:
        The failure that triggered degradation, when ``degraded``.
    level:
        The walk level this node's mechanism serves (1-based).
    epsilon:
        The per-level budget the matrix was validated against.
    """

    matrix: MechanismMatrix
    degraded: bool = False
    source: str = "opt"
    reason: str | None = None
    level: int | None = None
    epsilon: float | None = None

    @property
    def size_bytes(self) -> int:
        """Resident size this entry charges against the cache budget.

        The matrix payload dominates (the location lists are shared
        ``Point`` objects), so the accounting uses the dense kernel's
        byte count.
        """
        return int(self.matrix.k.nbytes)


class NodeMechanismCache:
    """Maps an index-node path to its solved step mechanism.

    The node path is a complete key because MSM fixes the per-level
    budget, metric and prior at construction time.

    Parameters
    ----------
    max_bytes:
        Optional resident-size budget.  When set, inserting an entry
        that pushes :attr:`resident_bytes` past the budget evicts the
        least-recently-used entries until the cache fits again (the
        entry just inserted is never evicted, so a single oversized
        matrix still serves — the cache is then exactly one entry
        large).  ``None`` (the default) keeps the historical unbounded
        behaviour.

    Thread safety
    -------------
    All public methods are safe to call from multiple threads.  Builds
    triggered through :meth:`get_or_build_many` are *single-flight per
    node path*: concurrent misses on the same path serialise on a
    per-path lock and only the first caller invokes the build factory;
    the rest adopt its entry.  Entries are immutable
    (:class:`CacheEntry` is frozen), so a reader can never observe a
    torn value — it sees either nothing or a complete, guarded entry.
    """

    # observability handle; a plain class attribute (not set in
    # ``__init__``) so old pickles restore cleanly.
    # bind_observability() shadows it per instance.
    _obs = NOOP

    # content-change counter; a class attribute (not set in ``__init__``)
    # for the same old-pickle reason.  Instance writes shadow it.
    _version = 0

    def __init__(self, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(
                f"cache byte budget must be positive, got {max_bytes}"
            )
        self._store: OrderedDict[tuple[int, ...], CacheEntry] = OrderedDict()
        self._max_bytes = max_bytes
        self._resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.merges = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self._lock = threading.RLock()
        self._build_locks: dict[tuple[int, ...], threading.Lock] = {}

    # ------------------------------------------------------------------
    # pickling — locks cannot cross process boundaries; everything else
    # (store content, counters, budget) travels with the pickled cache.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_build_locks", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._build_locks = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def max_bytes(self) -> int | None:
        """The resident-size budget (None = unbounded)."""
        return self._max_bytes

    @max_bytes.setter
    def max_bytes(self, budget: int | None) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(
                f"cache byte budget must be positive, got {budget}"
            )
        with self._lock:
            self._max_bytes = budget
            self._evict_to_budget(protect=None)

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle (metrics mirror the counters)."""
        self._obs = obs

    @property
    def version(self) -> int:
        """Monotone content-change counter.

        Bumped whenever an entry leaves or changes: a :meth:`put` that
        replaces an entry, an eviction, :meth:`clear`.  A fresh insert
        does not bump it — a kernel snapshot lacking the new node just
        resolves it on first visit.  The compiled walk kernel records
        the version it was built against and rebuilds when it no longer
        matches — the eviction→invalidation contract.
        """
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def get(self, path: tuple[int, ...]) -> MechanismMatrix | None:
        """Look up the solved matrix for a node, counting hit/miss."""
        entry = self.entry(path)
        return None if entry is None else entry.matrix

    def _record_hit(self) -> None:
        """Count a hit on this object *and* in the metrics registry."""
        with self._lock:
            self.hits += 1
        if self._obs.enabled:
            self._obs.metrics.counter("repro_cache_hits_total").inc()

    def _record_miss(self) -> None:
        """Count a miss on this object *and* in the metrics registry."""
        with self._lock:
            self.misses += 1
        if self._obs.enabled:
            self._obs.metrics.counter("repro_cache_misses_total").inc()

    def entry(self, path: tuple[int, ...]) -> CacheEntry | None:
        """Look up the full cache entry for a node, counting hit/miss.

        A hit refreshes the entry's recency (it becomes the last in
        line for eviction).
        """
        with self._lock:
            entry = self._store.get(path)
            if entry is not None:
                self._store.move_to_end(path)
        if entry is None:
            self._record_miss()
        else:
            self._record_hit()
        return entry

    def _peek(self, path: tuple[int, ...]) -> CacheEntry | None:
        """Recency- and counter-neutral lookup (single-flight recheck)."""
        with self._lock:
            return self._store.get(path)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(
        self,
        path: tuple[int, ...],
        matrix: MechanismMatrix,
        degraded: bool = False,
        source: str = "opt",
        reason: str | None = None,
        level: int | None = None,
        epsilon: float | None = None,
    ) -> CacheEntry:
        """Store a solved matrix (with provenance) for a node.

        When a byte budget is configured, the insert may evict
        least-recently-used entries (never the one being inserted).
        """
        entry = CacheEntry(
            matrix=matrix,
            degraded=degraded,
            source=source,
            reason=reason,
            level=level,
            epsilon=epsilon,
        )
        with self._lock:
            old = self._store.get(path)
            if old is not None:
                self._resident_bytes -= old.size_bytes
                self._version += 1
            self._store[path] = entry
            self._store.move_to_end(path)
            self._resident_bytes += entry.size_bytes
            self._evict_to_budget(protect=path)
        self._record_residency()
        return entry

    def _evict_to_budget(self, protect: tuple[int, ...] | None) -> None:
        """Drop LRU entries until the budget fits.  Caller holds the lock."""
        if self._max_bytes is None:
            return
        evicted = 0
        evicted_bytes = 0
        while self._resident_bytes > self._max_bytes:
            victim_path = next(
                (p for p in self._store if p != protect), None
            )
            if victim_path is None:
                break
            victim = self._store.pop(victim_path)
            self._resident_bytes -= victim.size_bytes
            evicted += 1
            evicted_bytes += victim.size_bytes
        if evicted:
            self.evictions += evicted
            self.evicted_bytes += evicted_bytes
            self._version += 1
            if self._obs.enabled:
                metrics = self._obs.metrics
                metrics.counter("repro_cache_evictions_total").inc(evicted)
                metrics.counter(
                    "repro_cache_evicted_bytes_total"
                ).inc(evicted_bytes)

    def _record_residency(self) -> None:
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.gauge("repro_cache_resident_bytes").set(
                self._resident_bytes
            )
            metrics.gauge("repro_cache_entries").set(len(self._store))

    def _build_lock(self, path: tuple[int, ...]) -> threading.Lock:
        with self._lock:
            lock = self._build_locks.get(path)
            if lock is None:
                lock = self._build_locks[path] = threading.Lock()
            return lock

    def get_or_build_many(
        self,
        paths: Iterable[tuple[int, ...]],
        build: Callable[[tuple[int, ...]], tuple[MechanismMatrix, dict]],
    ) -> dict[tuple[int, ...], CacheEntry]:
        """Bulk get-or-build: one lookup per distinct path, solving misses.

        This is the batch sanitiser's cache warm-up: every distinct node
        of a walk level costs exactly one lookup and — on a miss — one
        call to ``build(path)``, which must return ``(matrix,
        provenance)`` where ``provenance`` holds the :meth:`put` keyword
        arguments (``degraded``/``source``/``reason``/``level``/
        ``epsilon``).  Built entries are stored through :meth:`put` and
        looked up through :meth:`entry`, so subclasses that intercept
        those (e.g. the fault harness's ``FlakyCacheProxy``) keep their
        semantics on the bulk path, and the ``hits``/``misses`` counters
        stay accurate.  ``builds`` counts the factory invocations.

        Concurrency: builds are single-flight per path.  Two threads
        missing on the same node serialise on a per-path lock; the
        loser of the race rechecks the store and adopts the winner's
        entry instead of solving the LP a second time.

        Fault safety: a ``build`` failure propagates to the caller, but
        entries built before the failure are already cached — a
        mid-batch fault costs only the affected node, never work that
        already succeeded.
        """
        obs = self._obs
        if not obs.enabled:
            out: dict[tuple[int, ...], CacheEntry] = {}
            for path in paths:
                entry = self.entry(path)
                if entry is None:
                    entry = self._build_single_flight(path, build)
                out[path] = entry
            return out
        tracer = obs.tracer
        out = {}
        for path in paths:
            with tracer.span("resolve.node", path="/".join(map(str, path))) as sp:
                with tracer.span("cache.get"):
                    entry = self.entry(path)
                hit = entry is not None
                if entry is None:
                    with tracer.span("cache.build"):
                        entry = self._build_single_flight(path, build)
                if sp is not None:
                    sp.attributes["cache_hit"] = hit
                    sp.attributes["degraded"] = entry.degraded
            out[path] = entry
        return out

    def _build_single_flight(
        self,
        path: tuple[int, ...],
        build: Callable[[tuple[int, ...]], tuple[MechanismMatrix, dict]],
    ) -> CacheEntry:
        """Build one missing entry, losing gracefully to a parallel winner."""
        with self._build_lock(path):
            entry = self._peek(path)
            if entry is not None:
                return entry
            matrix, provenance = build(path)
            with self._lock:
                self.builds += 1
            if self._obs.enabled:
                self._obs.metrics.counter("repro_cache_builds_total").inc()
            return self.put(path, matrix, **provenance)

    def snapshot(self) -> dict[tuple[int, ...], CacheEntry]:
        """A shallow copy of the store (entries are frozen, so safe to
        ship across process boundaries for :meth:`merge`)."""
        with self._lock:
            return dict(self._store)

    def merge(self, entries: dict[tuple[int, ...], CacheEntry]) -> int:
        """Adopt entries solved elsewhere (e.g. another cache's
        :meth:`snapshot`).

        Already-known paths are kept as-is — the local entry was solved
        and guarded first, and identical inputs yield identical LPs, so
        there is nothing to reconcile.  New entries go through
        :meth:`put` so proxy subclasses keep their interception
        semantics.  Returns the number of newly adopted entries.
        """
        adopted = 0
        for path, entry in entries.items():
            if path in self:
                continue
            self.put(
                path,
                entry.matrix,
                degraded=entry.degraded,
                source=entry.source,
                reason=entry.reason,
                level=entry.level,
                epsilon=entry.epsilon,
            )
            adopted += 1
        with self._lock:
            self.merges += 1
        if self._obs.enabled:
            self._obs.metrics.counter("repro_cache_merges_total").inc()
            self._obs.metrics.counter("repro_cache_adopted_total").inc(adopted)
        return adopted

    def degraded_entries(self) -> dict[tuple[int, ...], CacheEntry]:
        """All nodes currently running on a substituted mechanism."""
        with self._lock:
            return {p: e for p, e in self._store.items() if e.degraded}

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, path: tuple[int, ...]) -> bool:
        with self._lock:
            return path in self._store

    def clear(self) -> None:
        """Drop all cached matrices and reset the counters."""
        with self._lock:
            self._store.clear()
            self._resident_bytes = 0
            self.hits = 0
            self.misses = 0
            self.builds = 0
            self.merges = 0
            self.evictions = 0
            self.evicted_bytes = 0
            self._version += 1
        self._record_residency()

    @property
    def resident_bytes(self) -> int:
        """Exact resident footprint of the cached matrices (O(1))."""
        with self._lock:
            return self._resident_bytes

    @property
    def size_bytes(self) -> int:
        """Approximate memory footprint of the cached matrices."""
        return self.resident_bytes
