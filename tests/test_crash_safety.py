"""Crash-safety suite: the durable budget ledger under scripted deaths.

The invariant under test, at every injected crash point and every form
of file corruption: **the replayed per-user spend is at least what the
user actually received, and never exceeds the configured lifetime
budget.**  Failures may cost utility (a refused request, a rebuilt
bundle); they must never refund epsilon.

Layers:

* journal semantics — replay, idempotent ids, torn tails, mid-file
  corruption, compaction, sequence continuity;
* crash points — :class:`~repro.testing.CrashingLedger` dies between
  reserve and commit (and around every other op) under the pool's own
  batch protocol (``_run_pool_batch`` over a :class:`ShardBudgetBook`),
  while the journal survives for a fresh book — a respawned worker —
  to replay;
* deadlines and cancellation — a request whose caller gave up is
  dropped before it reaches a worker, so it never reserves or samples;
* the circuit breaker — trips after consecutive chain failures,
  short-circuits while open, half-opens on a (fake) timer, closes on a
  good probe;
* store recovery — corrupt or truncated bundles are quarantined and
  rebuilt, never served and never fatal;
* process level (``chaos`` marker) — SIGKILL against a live
  ``repro serve --ledger-dir`` process tree, then replay + warm restart
  over the surviving journal.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.ledger import BudgetLedger, replay_journal
from repro.core.resilience import (
    BreakerConfig,
    CircuitBreakerSolver,
    ResilienceConfig,
    ResilientSolver,
)
from repro.core.store import MechanismStore
from repro.exceptions import (
    BudgetError,
    CircuitOpenError,
    LedgerError,
    ServeError,
    SolverRetryExhaustedError,
)
from repro.geo.point import Point
from repro.grid.regular import RegularGrid
from repro.lp import LinearProgramBuilder
from repro.priors.base import GridPrior
from repro.obs import NOOP
from repro.serve import (
    MechanismArena,
    ServerConfig,
    ServingPool,
    ShardBudgetBook,
    shard_journal_path,
)
from repro.serve.pool import _run_pool_batch
from repro.testing import (
    CrashError,
    CrashingLedger,
    CrashPoint,
    FaultInjectingSolver,
    RaiseFault,
    corrupt_journal_entry,
    flip_byte,
    truncate_tail,
)

SEED = 20190326
EPS = 1.0


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
@pytest.fixture
def serve_prior(square20) -> GridPrior:
    return GridPrior.uniform(RegularGrid(square20, 4))


@pytest.fixture(scope="module")
def serve_arena(square20, tmp_path_factory) -> MechanismArena:
    """A g=2 mechanism at epsilon ``EPS``, frozen once for the module."""
    from repro.core.msm import MultiStepMechanism

    prior = GridPrior.uniform(RegularGrid(square20, 4))
    msm = MultiStepMechanism.build(EPS, 2, prior)
    msm.precompute()
    return MechanismArena.freeze(
        msm.engine.compile(build=True),
        tmp_path_factory.mktemp("crash") / "arena",
    )


def _pool(arena, ledger_dir, lifetime=4.0, window=0.01) -> ServingPool:
    config = ServerConfig(
        lifetime_epsilon=lifetime,
        per_report_epsilon=EPS,
        coalesce_window=window,
    )
    return ServingPool(
        arena, config, workers=1, ledger_dir=ledger_dir, seed=SEED
    )


def _batch(walk, book, items) -> list[tuple]:
    """One worker batch, in-process: admit, sample, settle."""
    return _run_pool_batch(
        walk, book, np.random.default_rng(SEED), NOOP, items
    )


def _delivered(outcomes) -> int:
    return sum(1 for outcome in outcomes if outcome[0] == "ok")


def _journal_invariant(path, delivered: dict[str, int], lifetime: float):
    """The acceptance invariant: replayed spend bounds what each user
    received, without exceeding the lifetime budget."""
    replay = replay_journal(path)
    for user, n in delivered.items():
        assert replay.spent_for(user) >= n * EPS - 1e-9, (
            f"{user}: replayed {replay.spent_for(user)} < delivered {n}"
        )
    for user, spent in replay.spent.items():
        assert spent <= lifetime + 1e-9, (
            f"{user}: replayed {spent} exceeds lifetime {lifetime}"
        )
    return replay


# ----------------------------------------------------------------------
# journal semantics
# ----------------------------------------------------------------------
class TestLedgerReplay:
    def test_reserve_commit_release_roundtrip(self, tmp_path):
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            a = ledger.reserve("u1", 0.5)
            b = ledger.reserve("u1", 0.5)
            c = ledger.reserve("u2", 1.0)
            ledger.commit(a)
            ledger.release(b)  # provably never sampled
            assert ledger.spent_for("u1") == pytest.approx(0.5)
            assert ledger.spent_for("u2") == pytest.approx(1.0)

        replay = replay_journal(path)
        assert replay.spent_for("u1") == pytest.approx(0.5)
        # c was never settled: an open reservation still counts as spend
        assert replay.spent_for("u2") == pytest.approx(1.0)
        assert set(replay.open_reservations) == {c}
        assert replay.corrupt_lines == 0

    def test_open_reservation_is_spend_after_crash(self, tmp_path):
        """Reserve, then 'crash' (drop the handle without commit): the
        epsilon is gone — fail closed."""
        path = tmp_path / "journal"
        ledger = BudgetLedger(path)
        ledger.reserve("u", 2.0)
        # no commit, no close: simulate the process dying here
        del ledger
        replay = replay_journal(path)
        assert replay.spent_for("u") == pytest.approx(2.0)
        assert len(replay.open_reservations) == 1

    def test_duplicate_reserve_id_counts_once(self, tmp_path):
        """A retried append after an ambiguous crash cannot
        double-charge: replay dedups reservations by id."""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            ledger.reserve("u", 1.0)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines) + lines[-1])  # replayed append
        replay = replay_journal(path)
        assert replay.spent_for("u") == pytest.approx(1.0)

    def test_release_after_commit_is_noop(self, tmp_path):
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            a = ledger.reserve("u", 1.0)
            ledger.commit(a)
            ledger.release(a)  # late refund attempt: the commit wins
            ledger.commit(a)  # and double-settle is idempotent
            assert ledger.spent_for("u") == pytest.approx(1.0)
        assert replay_journal(path).spent_for("u") == pytest.approx(1.0)

    def test_settle_unknown_id_raises(self, tmp_path):
        with BudgetLedger(tmp_path / "journal") as ledger:
            with pytest.raises(LedgerError, match="unknown"):
                ledger.commit("ghost-1")
            with pytest.raises(LedgerError, match="unknown"):
                ledger.release("ghost-1")
            with pytest.raises(LedgerError, match="positive"):
                ledger.reserve("u", 0.0)

    def test_torn_tail_skipped_never_fatal(self, tmp_path):
        """The classic crash artefact: a partial final line.  Replay
        skips it, counts it, and keeps every whole entry."""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            a = ledger.reserve("u", 1.0)
            ledger.commit(a)
            ledger.reserve("u", 1.0)
        truncate_tail(path, 7)  # tear the last reserve mid-line
        replay = replay_journal(path)
        assert replay.corrupt_lines == 1
        # the torn reserve is lost, the committed one fully counted
        assert replay.spent_for("u") == pytest.approx(1.0)
        # and a fresh ledger opens over the damage without raising
        with BudgetLedger(path) as reopened:
            assert reopened.spent_for("u") == pytest.approx(1.0)

    def test_append_after_torn_tail_replays(self, tmp_path):
        """A ledger reopened over a torn tail must start its first entry
        on a fresh line: glued onto the fragment, a delivered report's
        reservation would be lost to the next replay (an undercount)."""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            ledger.commit(ledger.reserve("u", 1.0))
            ledger.reserve("u", 1.0)
        truncate_tail(path, 7)
        with BudgetLedger(path) as reopened:
            reopened.commit(reopened.reserve("u", 1.0))
            assert reopened.spent_for("u") == pytest.approx(2.0)
        replay = replay_journal(path)
        assert replay.corrupt_lines == 1  # only the torn fragment
        assert replay.spent_for("u") == pytest.approx(2.0)

    def test_corrupt_release_never_refunds(self, tmp_path):
        """A flipped byte in a *release* line must not matter: releases
        only ever subtract, so losing one errs toward counting spend."""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            a = ledger.reserve("u", 1.0)
            ledger.release(a)
            assert ledger.spent_for("u") == 0.0
        corrupt_journal_entry(path, 1)  # destroy the release line
        replay = replay_journal(path)
        assert replay.corrupt_lines == 1
        # without its release the reservation replays as spend: the
        # corruption *increased* the account, never refunded it
        assert replay.spent_for("u") == pytest.approx(1.0)

    def test_corruption_only_increases_spend(self, tmp_path):
        """Flip a byte in every line, one at a time: no single-line
        corruption may ever make any user's replayed spend exceed the
        uncorrupted account... in the refund direction.  (Losing a
        reserve loses its spend; losing its release regains it — both
        safe; a *gain* above reserved epsilon would be a bug.)"""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            a = ledger.reserve("u1", 1.0)
            b = ledger.reserve("u2", 2.0)
            ledger.commit(a)
            ledger.release(b)
        baseline = replay_journal(path)
        n_lines = len(path.read_bytes().splitlines())
        pristine = path.read_bytes()
        for line_no in range(n_lines):
            path.write_bytes(pristine)
            corrupt_journal_entry(path, line_no)
            replay = replay_journal(path)
            assert replay.corrupt_lines == 1
            # total reserved epsilon is the hard ceiling per user
            assert replay.spent_for("u1") <= 1.0 + 1e-9
            assert replay.spent_for("u2") <= 2.0 + 1e-9
        assert baseline.spent_for("u1") == pytest.approx(1.0)

    def test_compaction_preserves_accounts_and_open_entries(
        self, tmp_path
    ):
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            for _ in range(5):
                ledger.commit(ledger.reserve("u1", 0.5))
            open_id = ledger.reserve("u2", 1.5)
            size_before = path.stat().st_size
            entries = ledger.compact()
            assert entries == 2  # one snapshot + one open reserve
            assert path.stat().st_size < size_before
            assert ledger.spent_for("u1") == pytest.approx(2.5)
            # the re-emitted reservation is still settleable
            ledger.commit(open_id)

        replay = replay_journal(path)
        assert replay.spent_for("u1") == pytest.approx(2.5)
        assert replay.spent_for("u2") == pytest.approx(1.5)
        assert replay.open_reservations == {}

    def test_sequence_continues_after_compaction_and_reopen(
        self, tmp_path
    ):
        """Fresh ids after compaction/reopen never collide with ids
        still live in the journal (a collision would dedup a *real*
        reservation away — an undercount)."""
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            ids = [ledger.reserve("u", 0.1) for _ in range(4)]
            ledger.compact()
            ids.append(ledger.reserve("u", 0.1))
        with BudgetLedger(path) as reopened:
            ids.append(reopened.reserve("u", 0.1))
            assert len(set(ids)) == len(ids)
            assert reopened.spent_for("u") == pytest.approx(0.6)


# ----------------------------------------------------------------------
# crash points: die between reserve and commit (and everywhere else)
# ----------------------------------------------------------------------
class TestCrashPoints:
    def test_crash_between_reserve_and_commit(self, tmp_path):
        """The canonical window: the reservation is durable, the commit
        never happens.  Replay counts the spend."""
        path = tmp_path / "journal"
        ledger = CrashingLedger(
            BudgetLedger(path),
            [CrashPoint("commit", nth=1, when="before")],
        )
        entry = ledger.reserve("u", EPS)
        with pytest.raises(CrashError):
            ledger.commit(entry)
        # the "dead process" leaves an open reservation behind
        replay = replay_journal(path)
        assert replay.spent_for("u") == pytest.approx(EPS)
        assert entry in replay.open_reservations

    def test_crash_after_commit_counts_once(self, tmp_path):
        path = tmp_path / "journal"
        ledger = CrashingLedger(
            BudgetLedger(path),
            [CrashPoint("commit", nth=1, when="after")],
        )
        entry = ledger.reserve("u", EPS)
        with pytest.raises(CrashError):
            ledger.commit(entry)  # durable, but the caller never knew
        assert replay_journal(path).spent_for("u") == pytest.approx(EPS)

    def test_crash_after_reserve_in_server_fails_closed(
        self, tmp_path, serve_arena
    ):
        """A worker dying right after journalling an admission: no
        report is delivered, and a respawned worker's book replays the
        epsilon as spent."""
        path = tmp_path / "journal"
        crashing = CrashingLedger(
            BudgetLedger(path),
            [CrashPoint("reserve", nth=2, when="after")],
        )
        walk = serve_arena.compiled()
        book = ShardBudgetBook(4.0, EPS, ledger=crashing)
        delivered = _delivered(_batch(walk, book, [("u", 5.0, 5.0)]))
        assert delivered == 1
        with pytest.raises(CrashError):
            _batch(walk, book, [("u", 6.0, 6.0)])
        crashing.close()

        replay = _journal_invariant(path, {"u": delivered}, lifetime=4.0)
        assert replay.spent_for("u") == pytest.approx(2 * EPS)

        # the respawned worker pre-charges the user and settles the
        # orphaned reservation as final spend
        ledger = BudgetLedger(path)
        restarted = ShardBudgetBook(4.0, EPS, ledger=ledger)
        assert restarted.replayed_users == 1
        assert restarted.replayed_epsilon == pytest.approx(2 * EPS)
        assert restarted.spent_for("u") == pytest.approx(2 * EPS)
        assert ledger.open_reservations() == {}
        outcomes = _batch(
            walk, restarted, [("u", 5.0, 5.0), ("u", 6.0, 6.0),
                              ("u", 7.0, 7.0)]
        )  # 2 of 4 remain
        assert [o[0] for o in outcomes] == ["ok", "ok", "budget"]
        ledger.close()

    def test_every_crash_point_upholds_invariant(
        self, tmp_path, serve_arena
    ):
        """Sweep the crash schedule across the protocol: wherever the
        worker dies, replayed spend >= delivered reports, both in the
        journal and in the book a respawned worker builds from it."""
        points = [
            CrashPoint("reserve", nth=1, when="before"),
            CrashPoint("reserve", nth=1, when="after"),
            CrashPoint("reserve", nth=3, when="after"),
            CrashPoint("commit", nth=1, when="before"),
            CrashPoint("commit", nth=2, when="after"),
        ]
        walk = serve_arena.compiled()
        for i, point in enumerate(points):
            path = tmp_path / f"journal-{i}"
            crashing = CrashingLedger(BudgetLedger(path), [point])
            book = ShardBudgetBook(10.0, EPS, ledger=crashing)
            delivered = 0
            try:
                for _ in range(4):
                    delivered += _delivered(
                        _batch(walk, book, [("u", 5.0, 5.0)])
                    )
            except CrashError:
                pass  # the worker died; its batch reply never left
            finally:
                crashing.close()
            assert crashing.crashed_at == point
            _journal_invariant(path, {"u": delivered}, lifetime=10.0)
            with BudgetLedger(path) as ledger:
                respawned = ShardBudgetBook(10.0, EPS, ledger=ledger)
                assert respawned.spent_for("u") >= delivered * EPS - 1e-9
                assert respawned.spent_for("u") <= 10.0 + 1e-9

    def test_mid_batch_solver_crash_charges_budget(
        self, tmp_path, serve_arena
    ):
        """A crash tearing through the walk mid-batch: sampling may
        already have begun, so every request in the batch is *charged*
        and its reservation committed — failed requests cost utility,
        never privacy."""

        class _CrashingWalk:
            def walk_arrays(self, coords, rng):
                raise CrashError("walk died mid-batch")

        path = tmp_path / "journal"
        ledger = BudgetLedger(path)
        book = ShardBudgetBook(4.0, EPS, ledger=ledger)
        outcomes = _batch(
            _CrashingWalk(), book, [("u", 5.0, 5.0), ("u", 6.0, 5.0)]
        )
        assert [o[0] for o in outcomes] == ["failed", "failed"]
        assert "CrashError" in outcomes[0][1]
        # fail closed: the epsilon is gone on both sides of the ledger
        assert book.spent_for("u") == pytest.approx(2 * EPS)
        ledger.close()
        replay = replay_journal(path)
        assert replay.spent_for("u") == pytest.approx(2 * EPS)
        assert replay.open_reservations == {}
        with BudgetLedger(path) as reopened:
            respawned = ShardBudgetBook(4.0, EPS, ledger=reopened)
            assert respawned.spent_for("u") == pytest.approx(2 * EPS)

    def test_restart_continuity_without_crash(self, tmp_path, serve_arena):
        """Plain restart: spend carries over and admission continues
        exactly where it left off."""
        ledgers = tmp_path / "ledgers"
        with _pool(serve_arena, ledgers) as pool:
            pool.report("u", Point(5.0, 5.0))
            pool.report("u", Point(6.0, 6.0))

        with _pool(serve_arena, ledgers) as again:
            assert again.stats().replayed_epsilon == pytest.approx(2 * EPS)
            again.report("u", Point(5.0, 5.0))
            report = again.report("u", Point(6.0, 6.0))
            assert report.epsilon_remaining == pytest.approx(0.0)
            with pytest.raises(BudgetError):
                again.report("u", Point(7.0, 7.0))
        _journal_invariant(
            shard_journal_path(ledgers, 0), {"u": 4}, lifetime=4.0
        )

    def test_overdrawn_journal_fails_closed(self, tmp_path, serve_arena):
        """A journal showing more spend than the lifetime (e.g. the
        budget was lowered between runs) exhausts the user rather than
        resetting the account."""
        ledgers = tmp_path / "ledgers"
        ledgers.mkdir()
        with BudgetLedger(shard_journal_path(ledgers, 0)) as ledger:
            for _ in range(6):
                ledger.commit(ledger.reserve("u", EPS))
        with _pool(serve_arena, ledgers, lifetime=4.0) as pool:
            with pytest.raises(BudgetError):
                pool.report("u", Point(5.0, 5.0))
        assert pool.ledger_replay().spent_for("u") == pytest.approx(6 * EPS)


# ----------------------------------------------------------------------
# group commit: one fsync per batch
# ----------------------------------------------------------------------
class _RecordingWalk:
    """A compiled walk that counts the batches it samples."""

    def __init__(self, walk):
        self._walk = walk
        self.calls = 0
        self.center_x = walk.center_x
        self.center_y = walk.center_y

    def walk_arrays(self, coords, rng):
        self.calls += 1
        return self._walk.walk_arrays(coords, rng)


@pytest.fixture
def fsyncs(monkeypatch) -> list[int]:
    """Every ``os.fsync`` the ledger module makes, by file descriptor."""
    import repro.core.ledger as ledger_module

    calls: list[int] = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(ledger_module.os, "fsync", counting)
    return calls


class TestGroupCommit:
    def test_batch_costs_one_fsync_and_commits_none(
        self, tmp_path, serve_arena, fsyncs
    ):
        """k admitted requests: their reservations share one group
        append and one fsync; their commits are written unsynced."""
        path = tmp_path / "journal"
        ledger = BudgetLedger(path)
        book = ShardBudgetBook(4.0, EPS, ledger=ledger)
        items = [("a", 5.0, 5.0), ("b", 6.0, 6.0), ("a", 7.0, 7.0),
                 ("c", 8.0, 8.0)]
        fsyncs.clear()
        outcomes = _batch(serve_arena.compiled(), book, items)
        assert [o[0] for o in outcomes] == ["ok"] * 4
        assert len(fsyncs) == 1
        # the commits are in the journal file all the same
        replay = replay_journal(path)
        assert replay.committed == 4
        assert replay.open_reservations == {}
        ledger.close()

    def test_commit_rides_on_next_fsync_release_keeps_its_own(
        self, tmp_path, fsyncs
    ):
        path = tmp_path / "journal"
        with BudgetLedger(path) as ledger:
            fsyncs.clear()
            ledger.commit(ledger.reserve("u", EPS))
            assert len(fsyncs) == 1  # the reserve's
            ledger.release(ledger.reserve("u", EPS))
            assert len(fsyncs) == 3  # the reserve's and the release's
        replay = replay_journal(path)
        assert replay.spent_for("u") == pytest.approx(EPS)
        assert (replay.committed, replay.released) == (1, 1)

    def test_crash_after_group_reserve_replays_every_reservation(
        self, tmp_path, serve_arena
    ):
        """The worker dies once the group append is durable: nothing
        samples, and every reservation in the group replays as spent."""
        path = tmp_path / "journal"
        crashing = CrashingLedger(
            BudgetLedger(path),
            [CrashPoint("reserve_many", nth=1, when="after")],
        )
        book = ShardBudgetBook(4.0, EPS, ledger=crashing)
        walk = _RecordingWalk(serve_arena.compiled())
        with pytest.raises(CrashError):
            _batch(walk, book, [("a", 5.0, 5.0), ("b", 6.0, 6.0),
                                ("a", 7.0, 7.0)])
        crashing.close()
        assert walk.calls == 0
        replay = _journal_invariant(path, {"a": 0, "b": 0}, lifetime=4.0)
        assert replay.spent_for("a") == pytest.approx(2 * EPS)
        assert replay.spent_for("b") == pytest.approx(EPS)
        assert len(replay.open_reservations) == 3
        with BudgetLedger(path) as ledger:
            respawned = ShardBudgetBook(4.0, EPS, ledger=ledger)
            assert respawned.spent_for("a") == pytest.approx(2 * EPS)
            assert respawned.spent_for("b") == pytest.approx(EPS)
            assert ledger.open_reservations() == {}

    def test_reserve_point_fires_at_the_group_holding_it(
        self, tmp_path, serve_arena
    ):
        """A ``reserve`` crash point counts reservations, not appends:
        the 3rd reservation sits in the second group of two."""
        path = tmp_path / "journal"
        crashing = CrashingLedger(
            BudgetLedger(path), [CrashPoint("reserve", nth=3, when="before")]
        )
        book = ShardBudgetBook(4.0, EPS, ledger=crashing)
        walk = serve_arena.compiled()
        pair = [("a", 5.0, 5.0), ("b", 6.0, 6.0)]
        assert _delivered(_batch(walk, book, pair)) == 2
        with pytest.raises(CrashError):
            _batch(walk, book, pair)
        crashing.close()
        replay = _journal_invariant(path, {"a": 1, "b": 1}, lifetime=4.0)
        assert replay.spent_for("a") == pytest.approx(EPS)
        assert replay.open_reservations == {}

    def test_failed_group_append_samples_nothing(
        self, tmp_path, serve_arena
    ):
        """A group append that fails fails the whole batch closed: the
        error propagates (the worker dies) before anything samples."""
        path = tmp_path / "journal"
        ledger = BudgetLedger(path)
        book = ShardBudgetBook(EPS, EPS, ledger=ledger)  # one report each
        walk = _RecordingWalk(serve_arena.compiled())
        ledger.close()  # every later append fails
        with pytest.raises(LedgerError):
            _batch(walk, book, [("a", 5.0, 5.0), ("b", 6.0, 6.0)])
        assert walk.calls == 0
        # any of the reservations may be on disk, so in memory they stay
        # outstanding: neither user can be admitted again
        assert not book.can_admit("a")
        assert not book.can_admit("b")


# ----------------------------------------------------------------------
# deadlines and abandonment
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_timeout_abandons_and_refunds_before_sampling(
        self, tmp_path, serve_arena
    ):
        """A caller timing out while its request is still coalescing:
        the feeder drops it before it reaches the worker, so nothing is
        reserved — the user keeps the epsilon."""
        ledgers = tmp_path / "ledgers"
        pool = _pool(serve_arena, ledgers, window=0.6)
        with pool:
            with pytest.raises(ServeError, match="timed out") as err:
                pool.report("u", Point(5.0, 5.0), timeout=0.05)
            assert err.value.reason == "timeout"
            deadline = time.monotonic() + 5.0
            while (
                pool.stats().abandoned == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            # the user still holds the full lifetime
            report = pool.report("u", Point(5.0, 5.0))
            assert report.epsilon_remaining == pytest.approx(3 * EPS)
        stats = pool.stats()
        assert stats.abandoned == 1
        assert stats.completed == 1
        assert pool.ledger_replay().spent_for("u") == pytest.approx(EPS)

    def test_expired_deadline_never_samples(self, tmp_path, serve_arena):
        ledgers = tmp_path / "ledgers"
        pool = _pool(serve_arena, ledgers, window=0.01)
        with pool:
            request = pool.submit(
                "u", Point(5.0, 5.0), deadline=time.monotonic() - 1.0
            )
            with pytest.raises(ServeError) as err:
                request.future.result(timeout=30)
            assert err.value.reason == "abandoned"
        assert pool.stats().abandoned == 1
        assert pool.stats().completed == 0
        assert pool.ledger_replay().spent_for("u") == 0.0


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def tiny_lp():
    b = LinearProgramBuilder(1)
    b.set_objective({0: 1.0})
    b.add_ge({0: 1.0}, 1.0)
    return b.build()


def _breaker(rules, threshold=2, reset=10.0):
    clock = _FakeClock()
    injector = FaultInjectingSolver(rules)
    inner = ResilientSolver(
        ResilienceConfig(
            backends=("highs-ds",), max_attempts_per_backend=1
        ),
        solve_fn=injector,
    )
    breaker = CircuitBreakerSolver(
        inner,
        BreakerConfig(failure_threshold=threshold, reset_timeout=reset),
        clock=clock,
    )
    return breaker, injector, clock


@pytest.mark.faults
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, tiny_lp):
        breaker, injector, _ = _breaker([RaiseFault()])
        for _ in range(2):
            with pytest.raises(SolverRetryExhaustedError):
                breaker.solve(tiny_lp)
        assert breaker.state == breaker.OPEN
        assert breaker.trips == 1
        # open: refused instantly, the substrate is not touched
        calls_before = injector.n_calls
        with pytest.raises(CircuitOpenError):
            breaker.solve(tiny_lp)
        assert injector.n_calls == calls_before
        assert breaker.short_circuits == 1

    def test_success_resets_failure_streak(self, tiny_lp):
        # a matching rule consumes the call before later rules see it,
        # so the second rule's counter only ticks on delegated calls:
        # this script fails overall calls 1 and 3, delegating call 2
        breaker, _, _ = _breaker([RaiseFault(nth=1), RaiseFault(nth=2)])
        with pytest.raises(SolverRetryExhaustedError):
            breaker.solve(tiny_lp)
        breaker.solve(tiny_lp)  # success wipes the streak
        with pytest.raises(SolverRetryExhaustedError):
            breaker.solve(tiny_lp)
        assert breaker.state == breaker.CLOSED
        assert breaker.trips == 0

    def test_half_open_probe_failure_reopens(self, tiny_lp):
        breaker, _, clock = _breaker([RaiseFault()], reset=10.0)
        for _ in range(2):
            with pytest.raises(SolverRetryExhaustedError):
                breaker.solve(tiny_lp)
        clock.t = 10.0
        assert breaker.state == breaker.HALF_OPEN
        with pytest.raises(SolverRetryExhaustedError):
            breaker.solve(tiny_lp)  # the probe is attempted, fails
        assert breaker.state == breaker.OPEN
        assert breaker.trips == 2

    def test_half_open_probe_success_closes(self, tiny_lp):
        breaker, injector, clock = _breaker([RaiseFault(first_n=2)])
        for _ in range(2):
            with pytest.raises(SolverRetryExhaustedError):
                breaker.solve(tiny_lp)
        assert breaker.state == breaker.OPEN
        clock.t = 10.0
        result = breaker.solve(tiny_lp)  # probe delegates to real solve
        assert result.x[0] == pytest.approx(1.0)
        assert breaker.state == breaker.CLOSED
        # and normal traffic flows again
        breaker.solve(tiny_lp)
        assert injector.n_calls == 4

    def test_open_breaker_degrades_walk_not_crashes(self, uniform3):
        """End to end: a tripped breaker inside an MSM build degrades
        every node to the closed-form fallback — the walk still serves
        at full epsilon, with provenance recorded."""
        from repro.core.msm import MultiStepMechanism
        from repro.exceptions import DegradedModeWarning

        breaker, _, _ = _breaker([RaiseFault()], threshold=1)
        msm = MultiStepMechanism.build(
            0.9, 3, uniform3, solver=breaker, degrade=True
        )
        with pytest.warns(DegradedModeWarning):
            walk = msm.sample_with_report(
                Point(5.0, 5.0), np.random.default_rng(SEED)
            )
        assert uniform3.grid.bounds.contains(walk.point)
        assert not walk.degradation.clean
        assert breaker.trips >= 1
        assert breaker.short_circuits >= 1  # later nodes short-circuit


# ----------------------------------------------------------------------
# store recovery
# ----------------------------------------------------------------------
class TestStoreRecovery:
    def _msm(self, square20, prior):
        from repro.grid.hierarchy import HierarchicalGrid
        from repro.core.msm import MultiStepMechanism

        index = HierarchicalGrid(square20, 2, 2)
        return MultiStepMechanism(index, (0.5, 0.6), prior)

    def test_save_publishes_checksum_sidecar(
        self, tmp_path, square20, serve_prior
    ):
        store = MechanismStore(tmp_path / "store")
        record = store.get_or_build(self._msm(square20, serve_prior))
        sidecar = store.checksum_path(record.path)
        assert sidecar.exists()
        digest = sidecar.read_text().strip()
        assert len(digest) == 64  # SHA-256 hex

    def test_flipped_byte_quarantined_and_rebuilt(
        self, tmp_path, square20, serve_prior
    ):
        store = MechanismStore(tmp_path / "store")
        first = self._msm(square20, serve_prior)
        record = store.get_or_build(first)
        flip_byte(record.path, 100)

        fresh = self._msm(square20, serve_prior)
        rebuilt = store.get_or_build(fresh)
        assert rebuilt.outcome == "built"
        assert fresh.cache.builds > 0
        quarantined = list((store.root / ".quarantine").iterdir())
        assert len(quarantined) == 2  # bundle + sidecar
        # the rebuilt bundle is valid: a third engine warm-starts clean
        third = self._msm(square20, serve_prior)
        assert store.get_or_build(third).outcome == "hit"
        assert third.cache.builds == 0

    def test_truncated_bundle_quarantined(
        self, tmp_path, square20, serve_prior
    ):
        store = MechanismStore(tmp_path / "store")
        record = store.get_or_build(self._msm(square20, serve_prior))
        truncate_tail(record.path, record.path.stat().st_size // 2)

        fresh = self._msm(square20, serve_prior)
        assert store.warm_start(fresh) is None  # a miss, not a crash
        assert not record.path.exists()
        assert (store.root / ".quarantine").exists()

    def test_unreadable_bundle_without_sidecar_quarantined(
        self, tmp_path, square20, serve_prior
    ):
        """Legacy bundles (no sidecar) still recover: a load failure
        quarantines instead of raising into the serving path."""
        store = MechanismStore(tmp_path / "store")
        record = store.get_or_build(self._msm(square20, serve_prior))
        store.checksum_path(record.path).unlink()
        record.path.write_bytes(b"not a zip archive at all")

        fresh = self._msm(square20, serve_prior)
        assert store.warm_start(fresh) is None
        assert not record.path.exists()

    def test_stale_config_still_raises_not_quarantined(
        self, tmp_path, square20, serve_prior
    ):
        """A *readable* bundle under the wrong key is an operator
        error: it must raise, and must not be silently destroyed."""
        from repro.exceptions import MechanismError
        from repro.grid.hierarchy import HierarchicalGrid
        from repro.core.msm import MultiStepMechanism

        store = MechanismStore(tmp_path / "store")
        a = self._msm(square20, serve_prior)
        store.get_or_build(a)
        index = HierarchicalGrid(square20, 2, 2)
        b = MultiStepMechanism(index, (0.5, 0.7), serve_prior)
        path_a, path_b = store.path_for(a), store.path_for(b)
        path_a.rename(path_b)
        store.checksum_path(path_a).rename(store.checksum_path(path_b))
        with pytest.raises(MechanismError, match="epsilon split"):
            store.warm_start(b)
        assert path_b.exists()  # evidence preserved


# ----------------------------------------------------------------------
# process-level chaos: SIGKILL against a live `repro serve`
# ----------------------------------------------------------------------
def _serve_cmd(ledgers, requests: int, seed: int) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--epsilon", str(EPS), "--lifetime-epsilon", "1000",
        "--fraction", "0.01", "--g", "2", "--prior-granularity", "4",
        "--requests", str(requests), "--clients", "2", "--workers", "1",
        "--ledger-dir", str(ledgers), "--seed", str(seed),
    ]


@pytest.mark.chaos
class TestSigkill:
    def test_sigkill_mid_serve_replays_spend(self, tmp_path):
        """Kill -9 a serving process tree (frontend and worker) once
        reports are committing; the journal left on disk must replay
        within the lifetime, and a warm restart must continue from that
        account, settling every orphaned reservation."""
        ledgers = tmp_path / "ledgers"
        journal = shard_journal_path(ledgers, 0)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            _serve_cmd(ledgers, requests=100_000, seed=7),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and proc.poll() is None:
                if journal.exists() and journal.read_bytes().count(
                    b'"commit"'
                ) >= 20:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, "serve exited before the kill"
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        replay = _journal_invariant(journal, {}, lifetime=1000.0)
        spent_before = sum(replay.spent.values())
        assert spent_before >= 20 * EPS

        # warm restart over the same journal: the account carries,
        # orphaned reservations settle, serving continues
        restart = subprocess.run(
            _serve_cmd(ledgers, requests=10, seed=8),
            capture_output=True,
            env=env,
            text=True,
            timeout=300,
        )
        assert restart.returncode == 0, restart.stderr
        line = next(
            ln for ln in restart.stdout.splitlines()
            if ln.startswith("ledger ")
        )
        assert f"{spent_before:.4f} eps replayed" in line
        completed = int(
            next(
                ln for ln in restart.stdout.splitlines()
                if ln.startswith("requests ")
            ).split(",")[1].split()[0]
        )
        final = replay_journal(journal)
        assert final.open_reservations == {}
        assert sum(final.spent.values()) == pytest.approx(
            spent_before + completed * EPS
        )
