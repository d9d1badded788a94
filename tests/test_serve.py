"""Concurrency suite for the serving stack: bounded cache, persistent
store, and the serving pool's front half.

Three layers, three contracts:

* :class:`NodeMechanismCache` under contention — parallel get-or-build
  races build each node exactly once (single-flight), eviction under
  concurrent access never serves a torn or invalid entry, and the
  resident footprint respects the byte budget at all times;
* :class:`MechanismStore` — a second engine with the same configuration
  warm-starts with **zero** LP solves, configuration drift lands on a
  different fingerprint, and a stale file under the right name is
  rejected rather than served;
* :class:`ServingPool` admission — concurrent users get exactly the
  reports their lifetime budgets afford (reservations close the racing
  overdraft), requests coalesce into micro-batches, overload sheds,
  stop/submit races never strand a request, an arena spending more
  than the per-report charge is refused, and a chi-square check (under
  the ``statistical`` marker, ledger on and off) confirms the pool is
  distribution-identical to direct ``sanitize_batch``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.cache import NodeMechanismCache
from repro.core.msm import MultiStepMechanism
from repro.core.store import MechanismStore, config_fingerprint
from repro.exceptions import BudgetError, MechanismError, ServeError
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.mechanisms.matrix import MechanismMatrix
from repro.priors.base import GridPrior
from repro.serve import MechanismArena, ServerConfig, ServingPool

SEED = 20190326


def _toy_matrix(n: int = 4, seed: int = 0) -> MechanismMatrix:
    rng = np.random.default_rng(seed)
    k = rng.random((n, n)) + 0.1
    k /= k.sum(axis=1, keepdims=True)
    pts = [Point(float(i), 0.0) for i in range(n)]
    return MechanismMatrix(pts, pts, k)


# ----------------------------------------------------------------------
# cache: bounded memory + thread safety
# ----------------------------------------------------------------------
class TestCacheEviction:
    def test_lru_eviction_respects_budget(self):
        m = _toy_matrix()
        cache = NodeMechanismCache(max_bytes=2 * m.k.nbytes)
        cache.put((0,), m)
        cache.put((1,), m)
        cache.put((2,), m)  # evicts (0,), the least recently used
        assert (0,) not in cache
        assert (1,) in cache and (2,) in cache
        assert cache.evictions == 1
        assert cache.evicted_bytes == m.k.nbytes
        assert cache.resident_bytes <= cache.max_bytes

    def test_hit_refreshes_recency(self):
        m = _toy_matrix()
        cache = NodeMechanismCache(max_bytes=2 * m.k.nbytes)
        cache.put((0,), m)
        cache.put((1,), m)
        cache.entry((0,))  # (0,) is now most recent; (1,) becomes LRU
        cache.put((2,), m)
        assert (0,) in cache and (1,) not in cache

    def test_oversized_entry_still_serves(self):
        """A single matrix above the budget is kept (cache of one)."""
        m = _toy_matrix(8)
        cache = NodeMechanismCache(max_bytes=m.k.nbytes // 2)
        cache.put((0,), m)
        assert (0,) in cache
        cache.put((1,), m)  # evicts (0,) but keeps the newcomer
        assert (1,) in cache and (0,) not in cache
        assert len(cache) == 1

    def test_shrinking_budget_evicts_immediately(self):
        m = _toy_matrix()
        cache = NodeMechanismCache()
        for i in range(6):
            cache.put((i,), m)
        cache.max_bytes = 2 * m.k.nbytes
        assert len(cache) == 2
        assert cache.resident_bytes <= cache.max_bytes
        with pytest.raises(ValueError):
            cache.max_bytes = 0

    def test_unbounded_cache_never_evicts(self):
        m = _toy_matrix()
        cache = NodeMechanismCache()
        for i in range(50):
            cache.put((i,), m)
        assert len(cache) == 50
        assert cache.evictions == 0


class TestCacheConcurrency:
    def test_parallel_get_or_build_single_flight(self):
        """Many threads racing on the same paths: each node is built
        exactly once and everyone adopts the winner's entry."""
        cache = NodeMechanismCache()
        paths = [(i,) for i in range(6)]
        build_calls: dict[tuple[int, ...], int] = {p: 0 for p in paths}
        call_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def build(path):
            with call_lock:
                build_calls[path] += 1
            return _toy_matrix(seed=path[0]), {"level": 1}

        def worker():
            barrier.wait()  # maximise the race window
            return cache.get_or_build_many(paths, build)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [pool.submit(worker).result for _ in range(8)]
            results = [r() for r in results]

        assert all(set(r) == set(paths) for r in results)
        assert all(calls == 1 for calls in build_calls.values())
        assert cache.builds == len(paths)
        # every thread got the same (immutable) entry per path
        for path in paths:
            entries = {id(r[path]) for r in results}
            assert len(entries) == 1

    def test_eviction_under_concurrent_access_never_torn(self):
        """Readers racing writers on a tightly bounded cache observe
        either nothing or a complete entry — never a torn one — and the
        byte budget holds at every observation point."""
        m = _toy_matrix()
        cache = NodeMechanismCache(max_bytes=3 * m.k.nbytes)
        n_paths, n_ops = 12, 300
        errors: list[str] = []

        def writer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(n_ops):
                path = (int(rng.integers(n_paths)),)
                cache.put(path, _toy_matrix(seed=path[0]), level=1)
                if cache.resident_bytes > cache.max_bytes:
                    errors.append("budget exceeded")

        def reader(seed):
            rng = np.random.default_rng(seed)
            for _ in range(n_ops):
                path = (int(rng.integers(n_paths)),)
                entry = cache.entry(path)
                if entry is None:
                    continue
                k = entry.matrix.k
                if not np.allclose(k.sum(axis=1), 1.0):
                    errors.append(f"torn entry at {path}")
                if entry.size_bytes != k.nbytes:
                    errors.append(f"bad size accounting at {path}")

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(3)
        ] + [
            threading.Thread(target=reader, args=(s,)) for s in range(3, 7)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.resident_bytes <= cache.max_bytes
        assert cache.evictions > 0  # the budget actually bit

    def test_counters_consistent_after_race(self):
        """hits + misses == lookups even under contention."""
        cache = NodeMechanismCache()
        paths = [(i,) for i in range(4)]

        def build(path):
            return _toy_matrix(seed=path[0]), {}

        def worker():
            for _ in range(50):
                cache.get_or_build_many(paths, build)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == 4 * 50 * len(paths)
        assert cache.builds == len(paths)


# ----------------------------------------------------------------------
# persistent store
# ----------------------------------------------------------------------
@pytest.fixture
def store_prior(square20) -> GridPrior:
    return GridPrior.uniform(RegularGrid(square20, 4))


def _store_msm(square20, prior, budgets=(0.5, 0.6)) -> MultiStepMechanism:
    index = HierarchicalGrid(square20, 2, 2)
    return MultiStepMechanism(index, budgets, prior)


class TestMechanismStore:
    def test_build_then_warm_start_zero_solves(
        self, tmp_path, square20, store_prior, rng
    ):
        store = MechanismStore(tmp_path / "store")
        first = _store_msm(square20, store_prior)
        record = store.get_or_build(first)
        assert record.outcome == "built"
        assert first.cache.builds > 0
        assert store.path_for(first).exists()

        second = _store_msm(square20, store_prior)
        record = store.get_or_build(second)
        assert record.outcome == "hit"
        assert record.adopted == len(second.cache)
        assert second.cache.builds == 0
        # the warm engine serves without a single further LP solve
        second.sanitize_batch(
            [Point(3.0, 3.0), Point(17.0, 12.0)], rng
        )
        assert second.cache.builds == 0
        sources = {
            e.source for e in second.cache.snapshot().values()
        }
        assert sources == {"store"}

    def test_bounded_cache_engine_persists_complete_bundle(
        self, tmp_path, square20, store_prior
    ):
        """Regression: an engine whose LRU cache cannot hold the full
        tree must still persist every node.  Eviction of the root
        between precompute and the save traversal used to truncate the
        bundle to zero nodes (the skipped node's subtree was never
        visited), silently defeating warm-start."""
        store = MechanismStore(tmp_path / "store")
        index = HierarchicalGrid(square20, 2, 2)
        tight = MultiStepMechanism(
            index,
            (0.5, 0.6),
            store_prior,
            cache=NodeMechanismCache(max_bytes=300),
        )
        record = store.get_or_build(tight)
        assert record.outcome == "built"
        assert tight.cache.evictions > 0  # the bound actually bit

        fresh = _store_msm(square20, store_prior)
        record = store.get_or_build(fresh)
        assert record.outcome == "hit"
        assert record.adopted == 5  # root + 4 level-1 nodes: complete
        assert fresh.cache.builds == 0

    def test_fingerprint_sensitive_to_config(self, square20, store_prior):
        a = _store_msm(square20, store_prior, budgets=(0.5, 0.6))
        b = _store_msm(square20, store_prior, budgets=(0.5, 0.7))
        assert config_fingerprint(a) != config_fingerprint(b)
        other_prior = GridPrior.uniform(RegularGrid(square20, 8))
        c = _store_msm(square20, other_prior)
        assert config_fingerprint(a) != config_fingerprint(c)
        assert config_fingerprint(a) == config_fingerprint(
            _store_msm(square20, store_prior)
        )

    def test_stale_entry_rejected_not_served(
        self, tmp_path, square20, store_prior
    ):
        """A file under the right fingerprint but wrong content (renamed
        or tampered) raises instead of silently serving."""
        store = MechanismStore(tmp_path / "store")
        a = _store_msm(square20, store_prior, budgets=(0.5, 0.6))
        store.get_or_build(a)
        b = _store_msm(square20, store_prior, budgets=(0.5, 0.7))
        # simulate an operator renaming a's bundle onto b's key
        store.path_for(a).rename(store.path_for(b))
        with pytest.raises(MechanismError, match="epsilon split"):
            store.warm_start(b)

    def test_concurrent_get_or_build_builds_once(
        self, tmp_path, square20, store_prior
    ):
        store = MechanismStore(tmp_path / "store")
        mechanisms = [
            _store_msm(square20, store_prior) for _ in range(4)
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            records = list(pool.map(store.get_or_build, mechanisms))
        outcomes = sorted(r.outcome for r in records)
        assert outcomes == ["built", "hit", "hit", "hit"]
        assert len(store.entries()) == 1
        assert sum(m.cache.builds for m in mechanisms) == len(
            mechanisms[0].cache
        )

    def test_miss_returns_none(self, tmp_path, square20, store_prior):
        store = MechanismStore(tmp_path / "store")
        msm = _store_msm(square20, store_prior)
        assert store.warm_start(msm) is None
        assert msm not in store

    def test_racing_saves_on_cold_fingerprint_leave_valid_bundle(
        self, tmp_path, square20, store_prior
    ):
        """Two threads racing get_or_build on the *same* cold
        fingerprint through the save path: whatever interleaving wins,
        the published bundle (and its checksum sidecar) must be
        complete and warm-startable — no torn file, no stale sidecar."""
        store = MechanismStore(tmp_path / "store")
        barrier = threading.Barrier(2)
        outcomes: list[str] = []
        lock = threading.Lock()

        def racer():
            msm = _store_msm(square20, store_prior)
            barrier.wait()  # maximise overlap on the cold slot
            record = store.get_or_build(msm)
            with lock:
                outcomes.append(record.outcome)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["built", "hit"]
        assert len(store.entries()) == 1

        # the surviving bundle verifies end to end: checksum matches
        # and a fresh engine adopts every node without a solve
        fresh = _store_msm(square20, store_prior)
        record = store.get_or_build(fresh)
        assert record.outcome == "hit"
        assert fresh.cache.builds == 0
        sidecar = store.checksum_path(record.path)
        assert sidecar.exists()
        assert not (store.root / ".quarantine").exists()


# ----------------------------------------------------------------------
# serving pool: admission, coalescing, shutdown races
# ----------------------------------------------------------------------
@pytest.fixture
def serve_prior(square20) -> GridPrior:
    return GridPrior.uniform(RegularGrid(square20, 4))


@pytest.fixture(scope="module")
def serve_arena(square20, tmp_path_factory) -> MechanismArena:
    """A g=2 mechanism at epsilon 1.0, frozen once for the module."""
    prior = GridPrior.uniform(RegularGrid(square20, 4))
    msm = MultiStepMechanism.build(1.0, 2, prior)
    msm.precompute()
    return MechanismArena.freeze(
        msm.engine.compile(build=True),
        tmp_path_factory.mktemp("serve") / "arena",
    )


def _pool(
    arena,
    lifetime=4.0,
    window=0.01,
    max_pending=10_000,
    workers=1,
    ledger_dir=None,
) -> ServingPool:
    config = ServerConfig(
        lifetime_epsilon=lifetime,
        per_report_epsilon=1.0,
        coalesce_window=window,
        max_pending=max_pending,
    )
    return ServingPool(
        arena, config, workers=workers, ledger_dir=ledger_dir, seed=SEED
    )


def _outcome(request, timeout=10.0):
    """A submitted request's report, or the exception it failed with."""
    try:
        return request.future.result(timeout=timeout)
    except (BudgetError, ServeError) as exc:
        return exc


class TestServerAdmission:
    def test_concurrent_users_get_exact_budget(self, serve_arena, tmp_path):
        """8 users x 6 racing requests against a 4-report lifetime on
        2 shards: exactly 4 succeed per user, the rest fail as
        BudgetError, and the journals charge exactly what was
        delivered."""
        completed: dict[str, int] = {}
        refused: dict[str, int] = {}
        lock = threading.Lock()

        with _pool(
            serve_arena, workers=2, ledger_dir=tmp_path / "ledgers"
        ) as pool:
            def client(uid):
                rng = np.random.default_rng(abs(hash(uid)) % 2**32)
                for _ in range(6):
                    x = Point(
                        float(rng.uniform(0, 20)), float(rng.uniform(0, 20))
                    )
                    try:
                        pool.report(uid, x)
                        with lock:
                            completed[uid] = completed.get(uid, 0) + 1
                    except BudgetError:
                        with lock:
                            refused[uid] = refused.get(uid, 0) + 1

            threads = [
                threading.Thread(target=client, args=(f"u{i}",))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            replay = pool.ledger_replay()

        assert all(completed[f"u{i}"] == 4 for i in range(8))
        assert all(refused[f"u{i}"] == 2 for i in range(8))
        stats = pool.stats()
        assert (stats.completed, stats.rejected_budget) == (32, 16)
        assert stats.sessions == 8
        for i in range(8):
            assert replay.spent_for(f"u{i}") == pytest.approx(4.0)

    def test_requests_coalesce_into_one_batch(self, serve_arena):
        """Submissions landing inside the window walk as one batch."""
        pool = _pool(serve_arena, lifetime=100.0, window=0.25)
        with pool:
            pending = [
                pool.submit("u", Point(5.0 + i * 0.1, 5.0))
                for i in range(10)
            ]
            for request in pending:
                request.future.result(timeout=30)
        stats = pool.stats()
        assert stats.batches == 1
        assert stats.coalesced == 9
        assert stats.max_batch_points == 10

    def test_overload_sheds(self, serve_arena):
        pool = _pool(serve_arena, max_pending=0)
        with pool:
            with pytest.raises(ServeError, match="shedding") as err:
                pool.submit("u", Point(5.0, 5.0))
            assert err.value.reason == "overload"
        assert pool.stats().rejected_overload == 1

    def test_out_of_domain_rejected(self, serve_arena):
        with _pool(serve_arena) as pool:
            with pytest.raises(ServeError, match="outside the served"):
                pool.report("u", Point(25.0, 5.0))
        assert pool.stats().rejected_domain == 1

    def test_stopped_server_refuses(self, serve_arena):
        pool = _pool(serve_arena)
        with pytest.raises(ServeError, match="not running"):
            pool.report("u", Point(5.0, 5.0))
        pool.start()
        pool.report("u", Point(5.0, 5.0))
        pool.stop()
        with pytest.raises(ServeError, match="not running"):
            pool.report("u", Point(5.0, 5.0))

    def test_concurrent_stop_vs_submit_never_hangs(self, serve_arena):
        """Threads hammering submit() while stop() lands in the middle:
        every accepted request must resolve — completed, or failed
        closed with a ServeError — and none may hang on its future.

        Guards the enqueue-under-lock invariant: a request slipping
        into a shard inbox after its stop sentinel would wait forever."""
        pool = _pool(serve_arena, lifetime=1000.0, window=0.001, workers=2)
        accepted: list = []
        lock = threading.Lock()
        start_gate = threading.Event()

        def submitter(seed):
            rng = np.random.default_rng(seed)
            start_gate.wait()
            for i in range(100):
                try:
                    r = pool.submit(
                        f"u{seed}",
                        Point(float(rng.uniform(0, 20)),
                              float(rng.uniform(0, 20))),
                    )
                except ServeError:
                    continue  # refused at admission: fine, fail closed
                with lock:
                    accepted.append(r)

        pool.start()
        threads = [
            threading.Thread(target=submitter, args=(s,))
            for s in range(4)
        ]
        for t in threads:
            t.start()
        start_gate.set()
        time.sleep(0.005)  # let submissions overlap the stop
        pool.stop()
        for t in threads:
            t.join()

        assert accepted, "race never materialised"
        for request in accepted:
            outcome = _outcome(request)
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ServeError)
                assert outcome.reason == "stopped"

    def test_stop_during_coalesce_window_fails_pending(self, serve_arena):
        """stop() landing while requests sit in the coalescing window:
        they resolve promptly — delivered, or failed closed."""
        pool = _pool(serve_arena, lifetime=100.0, window=5.0)
        pool.start()
        pending = [
            pool.submit("u", Point(5.0 + i * 0.1, 5.0)) for i in range(5)
        ]
        began = time.monotonic()
        pool.stop()  # well inside the 5 s window
        assert time.monotonic() - began < 4.0
        for request in pending:
            outcome = _outcome(request)
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ServeError)

    def test_restart_after_stop_serves_again(self, serve_prior, tmp_path):
        """A ``build()`` pool owns its arena directory; stop() must not
        delete it, so the pool restarts — and with a ledger the spend
        carries across every restart."""
        config = ServerConfig(
            lifetime_epsilon=10.0,
            per_report_epsilon=1.0,
            coalesce_window=0.01,
        )
        pool = ServingPool.build(
            serve_prior,
            config,
            workers=1,
            granularity=2,
            seed=SEED,
            ledger_dir=tmp_path / "ledgers",
        )
        for _ in range(3):
            pool.start()
            pool.submit("u", Point(5.0, 5.0)).future.result(timeout=30)
            pool.stop()
        pool.start()
        report = pool.report("u", Point(5.0, 5.0), timeout=30)
        pool.stop()
        assert report.epsilon_remaining == pytest.approx(6.0)
        assert pool.ledger_replay().spent_for("u") == pytest.approx(4.0)

    def test_shared_mechanism_epsilon_must_fit(
        self, serve_arena, serve_prior
    ):
        """Neither a session nor the pool may charge less than the
        shared mechanism spends: an epsilon-1.0 walk cannot be served
        at a 0.5 per-report charge."""
        from repro.core.session import SanitizationSession

        config = ServerConfig(lifetime_epsilon=10.0, per_report_epsilon=0.5)
        with pytest.raises(BudgetError, match="more than the per-report"):
            ServingPool(serve_arena, config, workers=1)
        msm = MultiStepMechanism.build(1.0, 2, serve_prior)
        with pytest.raises(BudgetError, match="more than the session"):
            SanitizationSession(
                lifetime_epsilon=10.0, per_report_epsilon=0.5, mechanism=msm
            )
        # charging more than the walk spends is conservative, and fine
        ServingPool(
            serve_arena,
            ServerConfig(lifetime_epsilon=10.0, per_report_epsilon=1.5),
            workers=1,
        )


@pytest.mark.statistical
class TestPoolDistributionEquivalence:
    @pytest.mark.parametrize("ledger", [False, True])
    def test_pool_matches_direct_batch_chi_square(
        self, serve_prior, tmp_path, ledger
    ):
        """The multi-worker pool is the same mechanism: >= 20k samples
        across 4 worker processes (each with its own RNG stream,
        walking the shared zero-copy arena) against direct
        ``sanitize_batch``, two-sample chi-square at alpha = 1%.

        Process parallelism, micro-batching, the mmap'd arena and the
        reserve → sample → commit journal are all scheduling/storage
        concerns — none may perturb the sampled distribution."""
        from scipy import stats

        n = 20_000
        n_users = 40
        x = Point(3.0, 3.0)
        msm = MultiStepMechanism.build(1.0, 2, serve_prior)
        msm.precompute()
        compiled = msm.engine.compile(build=True)
        arena = MechanismArena.freeze(compiled, tmp_path / "arena")
        config = ServerConfig(
            # each user's own 500 reports, and one to spare: admission
            # simulates every remaining spend, so a 20k lifetime would
            # spend minutes in budget arithmetic this test is not about
            lifetime_epsilon=float(n // n_users + 1),
            per_report_epsilon=1.0,
            coalesce_window=0.02,
            max_batch=512,
            max_pending=2 * n,
        )
        pool = ServingPool(
            arena,
            config,
            workers=4,
            ledger_dir=tmp_path / "ledgers" if ledger else None,
            seed=SEED,
        )
        with pool:
            handles = [
                pool.submit(f"user-{i % n_users}", x) for i in range(n)
            ]
            reports = [h.future.result(timeout=300) for h in handles]
        assert pool.stats().completed == n
        # all four workers actually sampled (no degenerate routing)
        assert all(s.batches > 0 for s in pool.shard_stats())
        if ledger:
            replay = pool.ledger_replay()
            assert sum(replay.spent.values()) == pytest.approx(n * 1.0)
            assert replay.open_reservations == {}

        leaf_grid = msm.index.level_grid(msm.height)
        pooled = np.zeros(leaf_grid.n_cells)
        for r in reports:
            pooled[leaf_grid.locate(r.reported).index] += 1

        direct_walks = msm.sanitize_batch(
            [x] * n, np.random.default_rng(SEED + 1)
        )
        direct = np.zeros(leaf_grid.n_cells)
        for w in direct_walks:
            direct[leaf_grid.locate(w.point).index] += 1

        keep = (pooled + direct) > 0
        table = np.vstack([pooled[keep], direct[keep]])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01, (
            f"pool vs direct distributions diverge (p={p_value:.4f})"
        )
