"""Multi-worker serving pool suite: arena, sharding, crash recovery.

Four contracts, mirroring the serve-stack suite one layer up:

* :class:`MechanismArena` — freezing a compiled walk and mapping it
  back is **bitwise** (``CompiledWalk.equals``), the manifest checksums
  make tampering and truncation detectable (an unverifiable arena must
  never serve), and publication is atomic (no manifest ⇒ no arena);
* :class:`ServingPool` routing — users land on the shard the stable
  hash names, budgets are enforced per user exactly as in the serial
  session, and the pool-wide stats fold from per-shard stats through
  the associative merge;
* restart — a pool reopened over the same per-shard journals replays
  every shard's spend before admitting a request (fail closed), every
  restarted worker draws a fresh random stream, and a pool with no
  journals refuses to restart at all;
* chaos (``chaos`` marker) — SIGKILL of one worker mid-batch is
  detected, the shard respawns with its journal replayed, and no other
  shard's sessions are disturbed; without a journal the shard is not
  respawned, so no user regains a spent budget; and workers whose
  frontend is SIGKILLed exit instead of lingering as orphans.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core.msm import MultiStepMechanism
from repro.exceptions import BudgetError, PrivacyViolationError, ServeError
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.priors.base import GridPrior
from repro.testing import rewrite_arena_array
from repro.serve import (
    ArenaError,
    MechanismArena,
    ServerConfig,
    ServingPool,
    shard_for_user,
)

SEED = 20190326


@pytest.fixture(scope="module")
def pool_msm(square20) -> MultiStepMechanism:
    """A small warmed mechanism shared by the pool tests (g=2, h=2)."""
    index = HierarchicalGrid(square20, 2, 2)
    prior = GridPrior.uniform(RegularGrid(square20, 4))
    msm = MultiStepMechanism(index, (0.6, 0.9), prior)
    msm.precompute()
    return msm


@pytest.fixture(scope="module")
def frozen_arena(pool_msm, tmp_path_factory) -> MechanismArena:
    compiled = pool_msm.engine.compile(build=True)
    assert compiled is not None
    return MechanismArena.freeze(
        compiled, tmp_path_factory.mktemp("arena") / "msm.arena"
    )


def _config(lifetime=6.0, per_report=1.5, window=0.01, **kw) -> ServerConfig:
    return ServerConfig(
        lifetime_epsilon=lifetime,
        per_report_epsilon=per_report,
        coalesce_window=window,
        **kw,
    )


def _pool(arena, workers=2, ledger_dir=None, **kw) -> ServingPool:
    return ServingPool(
        arena,
        kw.pop("config", _config()),
        workers=workers,
        ledger_dir=ledger_dir,
        seed=kw.pop("seed", SEED),
        **kw,
    )


def _user_on_shard(shard: int, n_shards: int, salt: str = "u") -> str:
    """A user id the stable hash places on ``shard``."""
    for i in range(10_000):
        user = f"{salt}{i}"
        if shard_for_user(user, n_shards) == shard:
            return user
    raise AssertionError("no user found for shard")  # pragma: no cover


# ----------------------------------------------------------------------
# the stable shard hash
# ----------------------------------------------------------------------
class TestShardHash:
    def test_pinned_values(self):
        """The routing function is part of the on-disk contract (it
        names which journal holds a user's spend), so its values are
        pinned forever — a change here is a data-migration event."""
        assert shard_for_user("user-0007", 4) == 1
        assert shard_for_user("alice", 4) == 3
        assert shard_for_user("bob", 7) == 1
        assert shard_for_user("", 3) == 1

    def test_range_and_determinism(self):
        for i in range(100):
            user = f"user-{i}"
            for n in (1, 2, 3, 8):
                shard = shard_for_user(user, n)
                assert 0 <= shard < n
                assert shard == shard_for_user(user, n)

    def test_rejects_empty_pool(self):
        with pytest.raises(ServeError):
            shard_for_user("u", 0)


# ----------------------------------------------------------------------
# the arena
# ----------------------------------------------------------------------
class TestArena:
    def test_roundtrip_is_bitwise(self, pool_msm, frozen_arena):
        compiled = pool_msm.engine.compile(build=True)
        assert frozen_arena.compiled().equals(compiled)

    def test_mapped_arrays_are_readonly(self, frozen_arena):
        walk = frozen_arena.compiled()
        with pytest.raises(ValueError):
            walk.center_x[0] = 99.0

    def test_walks_match_direct_engine(self, pool_msm, frozen_arena):
        """Same seed through the arena-mapped walk and the engine's own
        compiled walk: identical leaf ids (zero-copy, zero drift)."""
        compiled = pool_msm.engine.compile(build=True)
        coords = np.column_stack(
            [
                np.linspace(0.5, 19.5, 64),
                np.linspace(19.5, 0.5, 64),
            ]
        )
        direct, _ = compiled.walk_arrays(
            coords, np.random.default_rng(SEED)
        )
        mapped, _ = frozen_arena.compiled().walk_arrays(
            coords, np.random.default_rng(SEED)
        )
        assert np.array_equal(direct, mapped)

    def test_bounds_and_contains(self, frozen_arena):
        min_x, min_y, max_x, max_y = frozen_arena.bounds
        assert (min_x, min_y) == (0.0, 0.0)
        assert max_x == max_y == 20.0
        assert frozen_arena.contains(3.0, 3.0)
        assert not frozen_arena.contains(-1.0, 3.0)

    def test_tampered_array_refuses_to_open(self, pool_msm, tmp_path):
        compiled = pool_msm.engine.compile(build=True)
        arena = MechanismArena.freeze(compiled, tmp_path / "a")
        victim = next(arena.directory.glob("*.npy"))
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ArenaError):
            MechanismArena.open(arena.directory)

    def test_missing_manifest_is_no_arena(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArenaError):
            MechanismArena.open(tmp_path / "empty")

    def test_store_exports_arena(self, pool_msm, square20, tmp_path):
        """The store's arena is what a store-built pool maps: the same
        bitwise artifact, published once and not rewritten on a hit."""
        from repro.core.store import MechanismStore

        store = MechanismStore(tmp_path / "store")
        record = store.get_or_build(pool_msm)
        assert record.arena.directory == store.path_for(pool_msm)
        assert record.arena.compiled().equals(
            pool_msm.engine.compile(build=True)
        )

        def build() -> ServingPool:
            return ServingPool.build(
                pool_msm.prior,
                _config(per_report=1.5),
                workers=1,
                granularity=2,
                store=store,
            )

        built = build()
        stamps = {f.name: f.stat().st_ino for f in built.arena.directory.iterdir()}
        hit = build()
        assert hit.arena.directory == built.arena.directory
        assert hit.arena.directory.parent == store.root
        assert {
            f.name: f.stat().st_ino for f in hit.arena.directory.iterdir()
        } == stamps

    def test_refreeze_keeps_live_mappings(self, pool_msm, square20, tmp_path):
        """Publishing over a mapped arena leaves the mapping intact:
        the old files are unlinked, never truncated and rewritten."""
        target = tmp_path / "a"
        first = MechanismArena.open(
            MechanismArena.freeze(
                pool_msm.engine.compile(build=True), target
            ).directory
        )
        walk = first.compiled()
        before = [np.array(cdf) for cdf in walk.cdf_levels]
        other = MultiStepMechanism(
            HierarchicalGrid(square20, 2, 2),
            (0.9, 1.2),  # same shape, another epsilon
            pool_msm.prior,
        )
        second = MechanismArena.freeze(other.engine.compile(build=True), target)
        assert second.budgets == (0.9, 1.2)
        for cdf, old in zip(walk.cdf_levels, before):
            assert np.array_equal(cdf, old)
        assert not np.array_equal(second.compiled().cdf_levels[0], before[0])
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    def test_guard_at_open_refuses_rechecksummed_edit(
        self, pool_msm, tmp_path
    ):
        """An edited node whose manifest SHA-256 was rewritten to match
        passes the checksums; the guard at open still refuses it, in
        the loader and in every pool worker."""
        arena = MechanismArena.freeze(
            pool_msm.engine.compile(build=True), tmp_path / "a"
        )
        cdf = np.array(arena.compiled().cdf_levels[0])
        cdf[0] = 1.0  # the root's first row: all mass on one child
        rewrite_arena_array(arena.directory, "cdf_0", cdf)
        with pytest.raises(PrivacyViolationError, match="guard"):
            MechanismArena.open(arena.directory)
        pool = _pool(arena, workers=1)
        with pytest.raises(ServeError) as info:
            pool.start()
        assert info.value.reason == "worker-init"
        assert "PrivacyViolationError" in str(info.value)


# ----------------------------------------------------------------------
# pool serving
# ----------------------------------------------------------------------
class TestPoolServing:
    def test_reports_across_workers(self, frozen_arena):
        """40 users x 2 reports over 2 workers: every report lands in
        the domain, spends exactly per-report, and the merged stats
        equal the submitted totals."""
        with _pool(frozen_arena, workers=2) as pool:
            handles = [
                pool.submit(f"user-{i}", Point(3.0 + i % 5, 4.0))
                for i in range(40)
                for _ in range(2)
            ]
            reports = [h.future.result(timeout=60) for h in handles]
        for report in reports:
            assert frozen_arena.contains(
                report.reported.x, report.reported.y
            )
            assert report.epsilon_spent == 1.5
        stats = pool.stats()
        assert stats.requests == stats.completed == 80
        assert stats.sessions == 40
        shard_sessions = [s.sessions for s in pool.shard_stats()]
        assert sum(shard_sessions) == 40
        assert all(n > 0 for n in shard_sessions)

    def test_budget_enforced_per_user(self, frozen_arena):
        """lifetime 6.0 / per-report 1.5 = exactly 4 reports, then
        BudgetError — same arithmetic as the serial session."""
        with _pool(frozen_arena, workers=2) as pool:
            for _ in range(4):
                report = pool.report("greedy", Point(3.0, 3.0))
            assert report.epsilon_remaining == pytest.approx(0.0)
            with pytest.raises(BudgetError):
                pool.report("greedy", Point(3.0, 3.0))
            # other users (even on the same shard) are unaffected
            other = _user_on_shard(
                pool.shard_for("greedy"), pool.workers, salt="other"
            )
            assert pool.report(other, Point(3.0, 3.0)).sequence == 0

    def test_out_of_domain_rejected_at_frontend(self, frozen_arena):
        with _pool(frozen_arena, workers=1) as pool:
            with pytest.raises(ServeError) as err:
                pool.submit("u", Point(-5.0, 3.0))
            assert err.value.reason == "domain"
        assert pool.stats().rejected_domain == 1

    def test_stopped_pool_refuses(self, frozen_arena):
        pool = _pool(frozen_arena, workers=1)
        pool.start()
        pool.stop()
        with pytest.raises(ServeError) as err:
            pool.submit("u", Point(3.0, 3.0))
        assert err.value.reason == "stopped"

    def test_users_route_to_their_hash_shard(self, frozen_arena):
        """Each shard's session count equals the number of distinct
        users whose stable hash names that shard."""
        users = [f"user-{i}" for i in range(30)]
        with _pool(frozen_arena, workers=3) as pool:
            for user in users:
                pool.report(user, Point(9.0, 9.0))
            per_shard = [s.sessions for s in pool.shard_stats()]
        expected = [0, 0, 0]
        for user in users:
            expected[shard_for_user(user, 3)] += 1
        assert per_shard == expected

    def test_worker_metrics_fold_into_frontend(self, frozen_arena):
        from repro.obs import Observability

        obs = Observability.collecting(trace=False)
        with _pool(frozen_arena, workers=2, obs=obs) as pool:
            for i in range(20):
                pool.report(f"user-{i}", Point(5.0, 5.0))
            merged = pool.collect_metrics()
        assert (
            merged.counter_total("repro_pool_worker_points_total") == 20
        )
        assert merged.counter_total("repro_pool_requests_total") == 20


class TestAsyncFrontend:
    def test_async_reports_and_stats(self, frozen_arena):
        import asyncio

        from repro.serve import AsyncSanitizationFrontend

        async def scenario():
            pool = _pool(frozen_arena, workers=2)
            async with AsyncSanitizationFrontend(pool) as frontend:
                results = await frontend.report_many(
                    [(f"user-{i}", Point(4.0, 6.0)) for i in range(12)]
                )
                stats = frontend.stats()
                return results, stats

        results, stats = asyncio.run(scenario())
        assert len(results) == 12
        for report in results:
            assert not isinstance(report, Exception)
            assert report.epsilon_spent == 1.5
        assert stats.completed == 12

    def test_async_budget_error_propagates(self, frozen_arena):
        import asyncio

        from repro.serve import AsyncSanitizationFrontend

        async def scenario():
            pool = _pool(frozen_arena, workers=1)
            async with AsyncSanitizationFrontend(pool) as frontend:
                return await frontend.report_many(
                    [("one-user", Point(4.0, 6.0))] * 6
                )

        results = asyncio.run(scenario())
        delivered = [r for r in results if not isinstance(r, Exception)]
        refused = [r for r in results if isinstance(r, BudgetError)]
        assert len(delivered) == 4  # lifetime 6.0 / per-report 1.5
        assert len(refused) == 2


# ----------------------------------------------------------------------
# restart: per-shard journals replay
# ----------------------------------------------------------------------
class TestPoolRestart:
    def test_restart_replays_every_shard(self, frozen_arena, tmp_path):
        ledgers = tmp_path / "ledgers"
        users = [f"user-{i}" for i in range(12)]
        with _pool(frozen_arena, workers=3, ledger_dir=ledgers) as pool:
            for user in users:
                pool.report(user, Point(3.0, 3.0))
                pool.report(user, Point(7.0, 7.0))
        # a fresh pool over the same journals: every shard pre-charged
        with _pool(frozen_arena, workers=3, ledger_dir=ledgers) as pool:
            stats = pool.stats()
            assert stats.replayed_users == 12
            assert stats.replayed_epsilon == pytest.approx(12 * 2 * 1.5)
            # lifetime 6.0 at 1.5/report: 2 spent + 2 left per user
            for user in users:
                pool.report(user, Point(5.0, 5.0))
                report = pool.report(user, Point(5.0, 5.0))
                assert report.epsilon_remaining == pytest.approx(0.0)
                with pytest.raises(BudgetError):
                    pool.report(user, Point(5.0, 5.0))

    def test_restart_draws_fresh_randomness(self, frozen_arena, tmp_path):
        """A restarted worker must not replay its predecessor's random
        stream: the same users reporting the same locations after a
        restart get independent draws, not a copy of the first run's
        noise (which would correlate reports the accountant charges as
        independent)."""
        pool = _pool(
            frozen_arena,
            workers=1,
            ledger_dir=tmp_path / "ledgers",
            config=_config(lifetime=100.0),
        )
        runs = []
        for _ in range(2):
            with pool:
                runs.append(
                    [
                        pool.report(f"user-{i}", Point(9.0, 9.0)).reported
                        for i in range(32)
                    ]
                )
        assert runs[0] != runs[1]

    def test_restart_continues_report_sequence(self, square20, tmp_path):
        """A restarted ledgered pool numbers a user's next report after
        the replayed ones: a sequence number is never handed out twice."""
        pool = ServingPool.build(
            GridPrior.uniform(RegularGrid(square20, 4)),
            _config(lifetime=100.0, per_report=2.0),
            workers=1,
            granularity=2,
            seed=SEED,
            ledger_dir=tmp_path / "ledgers",
        )
        with pool:
            first = [
                pool.report("alice", Point(5.0, 5.0)).sequence
                for _ in range(3)
            ]
        with pool:
            report = pool.report("alice", Point(5.0, 5.0))
        assert first == [0, 1, 2]
        assert report.sequence == 3
        assert report.epsilon_remaining == pytest.approx(92.0)

    def test_restart_without_ledger_refuses(self, frozen_arena):
        """Without journals the stopped workers took every user's spend
        with them; a restart would hand out fresh lifetimes, so it is
        refused (fail closed)."""
        pool = _pool(frozen_arena, workers=1)
        pool.start()
        pool.report("u", Point(3.0, 3.0))
        pool.stop()
        with pytest.raises(ServeError, match="cannot restart") as err:
            pool.start()
        assert err.value.reason == "stopped"
        assert not pool.running

    def test_replay_merge_covers_all_shards(self, frozen_arena, tmp_path):
        """``ledger_replay`` (the offline merge over shard journals)
        agrees with what the pool actually charged."""
        ledgers = tmp_path / "ledgers"
        with _pool(frozen_arena, workers=2, ledger_dir=ledgers) as pool:
            for i in range(10):
                pool.report(f"user-{i}", Point(3.0, 3.0))
            replay = pool.ledger_replay()
        assert len(replay.spent) == 10
        for user, spent in replay.spent.items():
            assert spent == pytest.approx(1.5)


# ----------------------------------------------------------------------
# natural batching
# ----------------------------------------------------------------------
class TestNaturalBatching:
    def test_queued_requests_form_one_batch_without_a_window(
        self, frozen_arena
    ):
        """With ``coalesce_window=0`` the feeder waits for nothing, yet
        still batches: the N requests already queued when it wakes go
        to the worker as one batch, not N one-request batches.

        The worker is stopped (SIGSTOP) while the feeder round-trips a
        metrics snapshot through it, so the feeder cannot take a request
        until all N sit in its inbox behind the snapshot."""
        n = 6
        config = _config(lifetime=100.0, window=0.0)
        with _pool(frozen_arena, workers=1, config=config) as pool:
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                snapshots = threading.Thread(target=pool.worker_snapshots)
                snapshots.start()
                handles = [
                    pool.submit(f"user-{i}", Point(3.0 + i, 4.0))
                    for i in range(n)
                ]
            finally:
                os.kill(pid, signal.SIGCONT)
            snapshots.join(timeout=30)
            assert not snapshots.is_alive()
            for handle in handles:
                handle.future.result(timeout=30)
        stats = pool.stats()
        assert stats.completed == n
        assert stats.batches == 1
        assert stats.coalesced == n - 1

    def test_one_coalesce_default(self):
        """``repro serve`` and the load benchmark take their window from
        ``ServerConfig``, whose default dispatches at once."""
        from repro.bench.load import LoadSpec
        from repro.cli import build_parser

        default = ServerConfig(1.0, 1.0).coalesce_window
        assert default == 0.0
        assert LoadSpec().coalesce_window == default
        args = build_parser().parse_args(["serve", "--epsilon", "0.5"])
        assert args.coalesce_window == default


# ----------------------------------------------------------------------
# chaos: SIGKILL one worker mid-batch
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestPoolChaos:
    def test_sigkill_one_worker_respawns_and_replays(
        self, frozen_arena, tmp_path
    ):
        """Kill shard 0's worker while it holds traffic.  The
        dispatcher must detect the dead shard, respawn it with its
        journal replayed (spend restored fail-closed), and leave shard
        1's users entirely undisturbed."""
        ledgers = tmp_path / "ledgers"
        config = _config(
            lifetime=1000.0 * 1.5, per_report=1.5, window=0.002
        )
        victim_user = _user_on_shard(0, 2, salt="victim")
        bystander = _user_on_shard(1, 2, salt="bystander")
        with _pool(
            frozen_arena, workers=2, ledger_dir=ledgers, config=config
        ) as pool:
            # establish spend on both shards
            for _ in range(5):
                pool.report(victim_user, Point(3.0, 3.0))
                pool.report(bystander, Point(7.0, 7.0))
            spent_before = pool.ledger_replay().spent_for(victim_user)
            assert spent_before == pytest.approx(5 * 1.5)

            # load shard 0 and kill its worker mid-stream
            victim_pid = pool.worker_pids()[0]
            handles = [
                pool.submit(victim_user, Point(3.0, 3.0))
                for _ in range(64)
            ]
            os.kill(victim_pid, signal.SIGKILL)
            crashed = delivered = 0
            for handle in handles:
                try:
                    handle.future.result(timeout=60)
                    delivered += 1
                except ServeError as exc:
                    assert exc.reason == "worker-crashed"
                    crashed += 1
            assert crashed + delivered == 64

            # the shard is serving again, with a fresh worker
            deadline = time.monotonic() + 30.0
            while pool.worker_pids()[0] in (victim_pid, None):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            report = pool.report(victim_user, Point(3.0, 3.0))
            assert report.epsilon_spent == 1.5
            stats = pool.stats()
            assert stats.respawns >= 1

            # fail closed: everything journalled before and during the
            # crash replays as spend — never less than was delivered
            replayed = pool.ledger_replay().spent_for(victim_user)
            assert replayed >= spent_before + delivered * 1.5

            # the other shard never noticed
            bystander_shard = pool.shard_stats()[1]
            assert bystander_shard.failed == 0
            assert bystander_shard.respawns == 0
            assert pool.report(
                bystander, Point(7.0, 7.0)
            ).epsilon_spent == 1.5

    def test_sigkill_without_ledger_fails_closed(self, frozen_arena):
        """lifetime 3.0 at 1.5 per report affords one user 2 reports.
        Without a journal a respawned worker would start with empty
        accountants, so after every SIGKILL the user could spend a fresh
        lifetime.  The shard is not respawned instead: its requests fail
        with ``worker-crashed`` and the user gets 2 reports in total."""
        config = _config(lifetime=3.0, per_report=1.5)
        delivered = 0
        with _pool(frozen_arena, workers=1, config=config) as pool:
            for _ in range(3):
                for _ in range(2):
                    try:
                        pool.report("u", Point(3.0, 3.0))
                        delivered += 1
                    except (BudgetError, ServeError):
                        pass
                pid = pool.worker_pids()[0]
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            assert delivered == 2
            assert pool.worker_pids() == [None]
            with pytest.raises(ServeError) as err:
                pool.report("u", Point(3.0, 3.0))
            assert err.value.reason == "worker-crashed"
            stats = pool.stats()
            assert stats.respawns == 0
            assert stats.failed >= 1

    def test_frontend_sigkill_leaves_no_orphan_workers(
        self, frozen_arena, tmp_path
    ):
        """SIGKILL the frontend process alone: its workers must read EOF
        on their request pipes and exit, not block on ``recv`` forever
        holding journals and inherited file descriptors."""
        script = tmp_path / "frontend.py"
        script.write_text(_FRONTEND)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(frozen_arena.directory)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(p) for p in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    "workers outlived their frontend"
                )
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()


_FRONTEND = textwrap.dedent("""
    import sys
    import time

    from repro.serve import ServerConfig, ServingPool

    pool = ServingPool(sys.argv[1], ServerConfig(10.0, 1.5), workers=2)
    pool.start()
    print(*pool.worker_pids(), flush=True)
    time.sleep(600)
""")


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")
