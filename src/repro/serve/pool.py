"""The serving tier: N processes, one arena, sharded budgets.

:class:`ServingPool` serves concurrent sanitisation requests for many
users, each under a lifetime GeoInd budget, from worker processes that
walk one precomputed mechanism.  Two invariants carry the design:

**One mechanism, zero copies.**  The warmed mechanism is frozen once
into a :class:`~repro.serve.arena.MechanismArena` (the compiled walk's
flat arrays under an mmap), and every worker process maps it
read-only.  The OS page cache backs all mappings with the same
physical pages, so memory cost is one arena regardless of worker
count, and no worker can mutate the mechanism out from under its
peers.  The pool refuses an arena whose walk spends more epsilon than
``per_report_epsilon`` charges, so no report costs more privacy than
the accountant records.

**Each user's budget lives in exactly one worker.**  Requests route by
:func:`shard_for_user` — a *stable, pure* function of the user id and
the worker count (SHA-256 of the id, mod workers; no process-seeded
``hash()``).  All of a user's requests therefore serialise through one
worker's :class:`~repro.core.session.ShardBudgetBook` — the one budget
book, which a serial :class:`~repro.core.session.SanitizationSession`
keeps for its single user — so there is no cross-process budget race
because there is no cross-process budget *sharing*.  With a ledger
directory, each shard journals reserve → sample → commit into its own
:class:`~repro.core.ledger.BudgetLedger` file — one fsync per batch,
for the batch's reservations — so a crashed (even
SIGKILLed) worker is respawned and replays its own journal: its
shard's spend is restored fail-closed, and no other shard is touched.
Without a ledger directory the budgets exist only in the workers'
memory, so the pool fails closed instead: a shard whose worker dies is
not respawned, and a stopped pool cannot be restarted.

The front half is the micro-batching dispatcher: one feeder thread
per shard batches naturally.  It blocks for a request, drains whatever
else is already queued (up to ``max_batch``, waiting longer only for an
explicit ``coalesce_window``), and dispatches at once, so a lone
request never waits and requests that arrive while a batch is in
flight form the next one.  It drops requests whose caller gave up
before they reach the worker, ships the rest over a pipe, and resolves
:class:`concurrent.futures.Future`\\ s from the worker's reply.  Pipes
are per-incarnation — a respawned worker gets fresh ones — so a
SIGKILL mid-``recv`` can never poison a shared queue lock.

Statistics obey a merge algebra: per-shard :class:`ServerStats` and
per-worker metrics snapshots fold associatively and commutatively
(:meth:`ServerStats.merge`,
:meth:`~repro.obs.metrics.MetricsSnapshot.merge`), so pool-wide totals
do not depend on the order the workers report in.

Privacy: batching and sharding only *schedule* independent
Algorithm-1 walks; each worker draws from its own
:class:`numpy.random.Generator` (seeded via ``SeedSequence`` spawn
keys, one stream per worker process, restarts included), so the
sampled distribution is the mechanism's — held to the direct path by a
chi-square equivalence test — and the per-user GeoInd spend is
enforced by the shard's accountant exactly as in the serial path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

import numpy as np

from repro.exceptions import BudgetError, ServeError
from repro.geo.point import Point
from repro.obs import LATENCY_EDGES, NOOP, SIZE_EDGES, Observability
from repro.privacy.composition import check_budgets
from repro.core.ledger import BudgetLedger, LedgerReplay, replay_many
from repro.core.session import SessionReport, ShardBudgetBook
from repro.serve.arena import MechanismArena
from repro.serve.server import ServerConfig, ServerStats

__all__ = [
    "ServingPool",
    "ShardBudgetBook",
    "shard_for_user",
    "shard_journal_path",
]


def shard_for_user(user_id: str, n_shards: int) -> int:
    """The shard owning ``user_id``'s budget, in ``[0, n_shards)``.

    A stable *pure* function of exactly ``(user_id, n_shards)``:
    SHA-256 of the UTF-8 id, first 8 bytes big-endian, mod the shard
    count.  Deliberately not Python's ``hash()`` (salted per process)
    and not dependent on any ambient state — every frontend, worker,
    restart, and replay tool must agree on the owner, forever, or a
    user's budget could be double-tracked across two shards.
    """
    if n_shards < 1:
        raise ServeError(
            f"shard count must be >= 1, got {n_shards}", reason="config"
        )
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_journal_path(directory: str | Path, shard: int) -> Path:
    """Where shard ``shard``'s budget journal lives under ``directory``."""
    return Path(directory) / f"shard-{shard:03d}.journal"


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _run_pool_batch(
    walk, book: ShardBudgetBook, rng: np.random.Generator, obs, items
) -> list[tuple]:
    """Admit, sample, and settle one batch inside a worker.

    ``items`` is ``[(user_id, x, y), ...]``; the return value is one
    outcome tuple per item, aligned:

    * ``("ok", seq, px, py, spent, remaining)`` — delivered;
    * ``("budget", message)`` — refused before sampling (no spend);
    * ``("failed", message)`` — the walk raised after reservations were
      durable; every admitted request is charged (fail closed).

    The batch's reservations are journalled in one group append before
    the walk.  If that append raises, the error propagates and nothing
    samples: the worker dies, the frontend fails the batch, and a
    respawned worker replays whatever reached the journal as spent.
    """
    outcomes: list[tuple | None] = [None] * len(items)
    admitted: list[tuple[int, str, str | None]] = []
    coords: list[tuple[float, float]] = []
    admissions = book.admit_many([user for user, _, _ in items])
    for slot, ((user, x, y), entry_id) in enumerate(zip(items, admissions)):
        if isinstance(entry_id, BudgetError):
            outcomes[slot] = ("budget", str(entry_id))
            if obs.enabled:
                obs.metrics.counter(
                    "repro_pool_worker_budget_rejections_total"
                ).inc()
            continue
        admitted.append((slot, user, entry_id))
        coords.append((x, y))
    if admitted:
        start = time.perf_counter()
        try:
            final_ids, _ = walk.walk_arrays(
                np.asarray(coords, dtype=float), rng
            )
        except Exception as exc:  # noqa: BLE001 - fail the batch closed
            message = f"{type(exc).__name__}: {exc}"
            for slot, user, entry_id in admitted:
                book.charge_failure(user, entry_id)
                outcomes[slot] = ("failed", message)
        else:
            px = walk.center_x[final_ids]
            py = walk.center_y[final_ids]
            for k, (slot, user, entry_id) in enumerate(admitted):
                sequence = book.settle(user, entry_id)
                outcomes[slot] = (
                    "ok",
                    sequence,
                    float(px[k]),
                    float(py[k]),
                    book.per_report_epsilon,
                    book.remaining_for(user),
                )
            if obs.enabled:
                elapsed = time.perf_counter() - start
                metrics = obs.metrics
                metrics.counter("repro_pool_worker_batches_total").inc()
                metrics.counter("repro_pool_worker_points_total").inc(
                    len(admitted)
                )
                metrics.histogram(
                    "repro_pool_worker_batch_points", edges=SIZE_EDGES
                ).observe(len(admitted))
                metrics.histogram(
                    "repro_pool_worker_walk_seconds", edges=LATENCY_EDGES
                ).observe(elapsed)
    return [
        outcome
        if outcome is not None
        else ("failed", "internal: request produced no outcome")
        for outcome in outcomes
    ]


def _pool_worker_main(
    worker_id: int,
    arena_dir: str,
    config: ServerConfig,
    ledger_path: str | None,
    seed_seq: np.random.SeedSequence,
    collect_metrics: bool,
    conn_req,
    conn_resp,
    parent_ends: tuple = (),
) -> None:
    """Worker process entry: map the arena, serve batches until told
    to stop.  Module-level (picklable) so ``spawn`` contexts work.

    ``parent_ends`` are the frontend's ends of this worker's pipes,
    which a forked child inherits; closing them here means a frontend
    that dies (even by SIGKILL) leaves the worker reading EOF, so it
    exits instead of blocking on ``recv`` forever."""
    for conn in parent_ends:
        conn.close()
    ledger = None
    try:
        arena = MechanismArena.open(arena_dir)
        walk = arena.compiled()
        obs = (
            Observability.collecting(trace=False)
            if collect_metrics
            else NOOP
        )
        if ledger_path is not None:
            ledger = BudgetLedger(ledger_path, obs=obs)
        book = ShardBudgetBook(
            config.lifetime_epsilon,
            config.per_report_epsilon,
            ledger=ledger,
        )
        rng = np.random.default_rng(seed_seq)
    except Exception as exc:  # noqa: BLE001 - surfaced to the frontend
        try:
            conn_resp.send(("init-error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
        return
    if obs.enabled:
        obs.metrics.gauge("repro_pool_worker_replayed_epsilon").set(
            book.replayed_epsilon
        )
    conn_resp.send(
        (
            "ready",
            {
                "worker_id": worker_id,
                "pid": os.getpid(),
                "n_nodes": arena.n_nodes,
                "arena_bytes": arena.nbytes,
                "replayed_users": book.replayed_users,
                "replayed_epsilon": book.replayed_epsilon,
            },
        )
    )
    try:
        while True:
            try:
                message = conn_req.recv()
            except (EOFError, OSError):
                return
            op = message[0]
            if op == "stop":
                snapshot = obs.snapshot() if obs.enabled else None
                try:
                    conn_resp.send(("stopped", snapshot))
                except (OSError, ValueError):
                    pass
                return
            if op == "snapshot":
                snapshot = obs.snapshot() if obs.enabled else None
                conn_resp.send(
                    (
                        "snapshot",
                        message[1],
                        snapshot,
                        {
                            "users": book.users,
                            "ledger_errors": book.ledger_errors,
                        },
                    )
                )
                continue
            if op == "batch":
                _, batch_id, items = message
                outcomes = _run_pool_batch(walk, book, rng, obs, items)
                conn_resp.send(("batch", batch_id, outcomes))
    finally:
        if ledger is not None:
            ledger.close()


# ----------------------------------------------------------------------
# the frontend
# ----------------------------------------------------------------------
class _PoolRequest:
    """One in-flight pool request and its rendezvous future."""

    __slots__ = ("user_id", "x", "submitted", "future", "deadline", "abandoned")

    def __init__(self, user_id: str, x: Point, deadline: float | None):
        self.user_id = user_id
        self.x = x
        self.submitted = time.perf_counter()
        self.future: Future = Future()
        self.deadline = deadline
        self.abandoned = False

    def abandon(self) -> None:
        self.abandoned = True

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class _SnapshotTicket:
    """A stats/metrics rendezvous routed through a shard's feeder."""

    __slots__ = ("future",)

    def __init__(self):
        self.future: Future = Future()


class _ShardHandle:
    """One shard: its worker process (current incarnation), pipes,
    feeder thread, and stats.  Owned by a :class:`ServingPool`."""

    def __init__(self, pool: "ServingPool", shard_id: int):
        self.pool = pool
        self.shard_id = shard_id
        self.inbox: queue.Queue = queue.Queue()
        self.stats = ServerStats()
        self.users: set[str] = set()
        self.proc = None
        self.req_conn = None
        self.resp_conn = None
        self.thread: threading.Thread | None = None
        self.final_snapshot = None
        #: set when the worker died with no journal to replay: the
        #: shard's budgets are gone, so it serves nothing further
        self.lost = False
        self._incarnation = 0
        self._batch_seq = 0
        self._token_seq = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._spawn()
        self.thread = threading.Thread(
            target=self._loop,
            name=f"repro-pool-shard-{self.shard_id}",
            daemon=True,
        )
        self.thread.start()

    def _spawn(self) -> None:
        """Launch a fresh incarnation: new pipes, new process, wait
        for its ready handshake (which includes the ledger replay)."""
        pool = self.pool
        ctx = pool._ctx
        req_recv, req_send = ctx.Pipe(duplex=False)
        resp_recv, resp_send = ctx.Pipe(duplex=False)
        # one stream per process, restarts included: a worker that
        # replayed an earlier incarnation's draws would correlate the
        # noise of reports the accountant charges as independent
        seed_seq = np.random.SeedSequence(
            entropy=pool._seed_root.entropy,
            spawn_key=(self.shard_id, self._incarnation),
        )
        self._incarnation += 1
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(
                self.shard_id,
                str(pool._arena.directory),
                pool._config,
                pool._ledger_path(self.shard_id),
                seed_seq,
                pool._collect_worker_metrics,
                req_recv,
                resp_send,
                (req_send, resp_recv),
            ),
            name=f"repro-pool-worker-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        # close the child's pipe ends in the parent so a dead child
        # yields EOF instead of a hang
        req_recv.close()
        resp_send.close()
        self.proc = proc
        self.req_conn = req_send
        self.resp_conn = resp_recv
        deadline = time.monotonic() + pool._spawn_timeout
        while True:
            if self.resp_conn.poll(0.1):
                try:
                    message = self.resp_conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None and message[0] == "ready":
                    info = message[1]
                    with pool._lock:
                        # the latest incarnation's replay subsumes all
                        # earlier ones (same journal), so overwrite
                        self.stats.replayed_users = int(
                            info["replayed_users"]
                        )
                        self.stats.replayed_epsilon = float(
                            info["replayed_epsilon"]
                        )
                    return
                if message is not None and message[0] == "init-error":
                    raise ServeError(
                        f"shard {self.shard_id} worker failed to "
                        f"initialise: {message[1]}",
                        reason="worker-init",
                    )
            if not proc.is_alive():
                raise ServeError(
                    f"shard {self.shard_id} worker died during startup "
                    f"(exit code {proc.exitcode})",
                    reason="worker-init",
                )
            if time.monotonic() > deadline:
                proc.terminate()
                raise ServeError(
                    f"shard {self.shard_id} worker did not become ready "
                    f"within {pool._spawn_timeout:.0f}s",
                    reason="worker-init",
                )

    def _respawn(self) -> None:
        """Replace a dead incarnation; its shard ledger replays in the
        new worker, restoring the shard's spend fail-closed.

        Without a ledger the dead worker took its shard's budgets with
        it, and a fresh worker would grant every user a full lifetime
        again.  The shard is marked :attr:`lost` instead: its requests
        fail with reason ``worker-crashed`` from then on.
        """
        for conn in (self.req_conn, self.resp_conn):
            try:
                conn.close()
            except (OSError, AttributeError):
                pass
        if self.proc is not None:
            self.proc.join(timeout=5.0)
        if self.pool._ledger_dir is None:
            self.lost = True
            self.proc = None
            return
        self._spawn()
        with self.pool._lock:
            self.stats.respawns += 1
        if self.pool._obs.enabled:
            self.pool._obs.metrics.counter(
                "repro_pool_respawns_total"
            ).inc()

    # -- the feeder loop -----------------------------------------------
    def _loop(self) -> None:
        stop = False
        while not stop:
            try:
                item = self.inbox.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is None:
                break
            if isinstance(item, _SnapshotTicket):
                self._roundtrip_snapshot(item)
                continue
            # natural batching: take whatever queued up behind the first
            # request (while the previous batch was in flight) without
            # blocking; only an explicit coalesce_window waits for more
            batch = [item]
            snapshot_after: _SnapshotTicket | None = None
            window_end = (
                time.perf_counter() + self.pool._config.coalesce_window
            )
            while len(batch) < self.pool._config.max_batch:
                remaining = window_end - time.perf_counter()
                try:
                    if remaining > 0:
                        nxt = self.inbox.get(timeout=remaining)
                    else:
                        nxt = self.inbox.get_nowait()
                except queue.Empty:
                    break
                if nxt is None:
                    stop = True
                    break
                if isinstance(nxt, _SnapshotTicket):
                    snapshot_after = nxt
                    break
                batch.append(nxt)
            self._dispatch(batch)
            if snapshot_after is not None:
                self._roundtrip_snapshot(snapshot_after)
        self._finalize()

    def _dispatch(self, batch: list[_PoolRequest]) -> None:
        now = time.monotonic()
        live: list[_PoolRequest] = []
        for request in batch:
            if request.abandoned or request.expired(now):
                with self.pool._lock:
                    self.stats.abandoned += 1
                self.pool._finish(request)
                request.future.set_exception(
                    ServeError(
                        f"request for {request.user_id!r} abandoned "
                        f"before dispatch (caller deadline elapsed)",
                        reason="abandoned",
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        payload = [(r.user_id, r.x.x, r.x.y) for r in live]
        self._batch_seq += 1
        batch_id = self._batch_seq
        start = time.perf_counter()
        outcomes = None
        for _attempt in range(2):
            if self.lost:
                break
            try:
                self.req_conn.send(("batch", batch_id, payload))
            except (OSError, ValueError):
                # nothing reached the worker: safe to respawn and
                # resend (no reservation, no sample)
                self._respawn()
                continue
            outcomes = self._await_batch(batch_id)
            if outcomes is not None:
                break
            # the worker died holding this batch: its journalled
            # reservations replay as spend in the respawned worker
            # (fail closed); the requests themselves fail
            self._fail_batch(live)
            self._respawn()
            return
        if outcomes is None:
            self._fail_batch(live)
            return
        self._complete(live, outcomes, time.perf_counter() - start)

    def _await_batch(self, batch_id: int) -> list | None:
        """The worker's reply for ``batch_id``, or None if it died."""
        while True:
            try:
                if self.resp_conn.poll(0.05):
                    message = self.resp_conn.recv()
                    if message[0] == "batch" and message[1] == batch_id:
                        return message[2]
                    continue  # stale reply from a previous incarnation
            except (EOFError, OSError):
                return None
            if not self.proc.is_alive():
                # drain replies that raced the death
                try:
                    while self.resp_conn.poll(0):
                        message = self.resp_conn.recv()
                        if (
                            message[0] == "batch"
                            and message[1] == batch_id
                        ):
                            return message[2]
                except (EOFError, OSError):
                    pass
                return None

    def _fail_batch(self, live: list[_PoolRequest]) -> None:
        with self.pool._lock:
            self.stats.failed += len(live)
        detail = (
            "it has no budget journal to replay, so the shard serves "
            "nothing further"
            if self.pool._ledger_dir is None
            else "its journalled reservations replay as spent"
        )
        error = ServeError(
            f"shard {self.shard_id} worker crashed; {detail} "
            f"(fail closed)",
            reason="worker-crashed",
        )
        for request in live:
            self.pool._finish(request)
            request.future.set_exception(error)

    def _complete(
        self, live: list[_PoolRequest], outcomes: list, elapsed: float
    ) -> None:
        pool = self.pool
        with pool._lock:
            self.stats.batches += 1
            self.stats.coalesced += len(live) - 1
            self.stats.max_batch_points = max(
                self.stats.max_batch_points, len(live)
            )
        now = time.perf_counter()
        latencies = []
        for request, outcome in zip(live, outcomes):
            pool._finish(request)
            kind = outcome[0]
            if kind == "ok":
                _, sequence, px, py, spent, remaining = outcome
                report = SessionReport(
                    sequence=sequence,
                    actual=request.x,
                    reported=Point(px, py),
                    epsilon_spent=spent,
                    epsilon_remaining=remaining,
                )
                with pool._lock:
                    self.stats.completed += 1
                latencies.append(now - request.submitted)
                request.future.set_result(report)
            elif kind == "budget":
                with pool._lock:
                    self.stats.rejected_budget += 1
                request.future.set_exception(BudgetError(outcome[1]))
            else:
                with pool._lock:
                    self.stats.failed += 1
                request.future.set_exception(
                    ServeError(outcome[1], reason="walk")
                )
        if pool._obs.enabled:
            metrics = pool._obs.metrics
            metrics.counter("repro_pool_batches_total").inc()
            metrics.counter("repro_pool_coalesced_total").inc(
                len(live) - 1
            )
            metrics.histogram(
                "repro_pool_batch_points", edges=SIZE_EDGES
            ).observe(len(live))
            metrics.histogram(
                "repro_pool_batch_seconds", edges=LATENCY_EDGES
            ).observe(elapsed)
            latency = metrics.histogram(
                "repro_pool_latency_seconds", edges=LATENCY_EDGES
            )
            for value in latencies:
                latency.observe(value)

    def _roundtrip_snapshot(self, ticket: _SnapshotTicket) -> None:
        if self.lost:
            ticket.future.set_result(None)
            return
        self._token_seq += 1
        token = self._token_seq
        try:
            self.req_conn.send(("snapshot", token))
        except (OSError, ValueError):
            self._respawn()
            ticket.future.set_result(None)
            return
        while True:
            try:
                if self.resp_conn.poll(0.05):
                    message = self.resp_conn.recv()
                    if message[0] == "snapshot" and message[1] == token:
                        ticket.future.set_result(message[2])
                        return
                    continue
            except (EOFError, OSError):
                break
            if not self.proc.is_alive():
                break
        self._respawn()
        ticket.future.set_result(None)

    def _finalize(self) -> None:
        """Drain the inbox fail-closed and stop the worker cleanly."""
        while True:
            try:
                item = self.inbox.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            if isinstance(item, _SnapshotTicket):
                item.future.set_result(None)
                continue
            self.pool._finish(item)
            item.future.set_exception(
                ServeError("serving pool stopped", reason="stopped")
            )
        try:
            self.req_conn.send(("stop",))
        except (OSError, ValueError):
            pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                if self.resp_conn.poll(0.05):
                    message = self.resp_conn.recv()
                    if message[0] == "stopped":
                        self.final_snapshot = message[1]
                        break
                    continue
            except (EOFError, OSError):
                break
            if self.proc is None or not self.proc.is_alive():
                break
        if self.proc is not None:
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=5.0)
        for conn in (self.req_conn, self.resp_conn):
            try:
                conn.close()
            except (OSError, AttributeError):
                pass


class ServingPool:
    """Serve concurrent sanitisation requests across worker processes.

    Parameters
    ----------
    arena:
        A :class:`~repro.serve.arena.MechanismArena` (or its directory)
        every worker maps read-only at zero copy.
    config:
        The :class:`~repro.serve.server.ServerConfig` envelope;
        ``coalesce_window`` / ``max_batch`` apply *per shard*,
        ``max_pending`` pool-wide.  Both budgets must be finite and
        positive, one report must fit the lifetime, and
        ``per_report_epsilon`` must cover the arena's walk (the sum of
        its level budgets), or :class:`~repro.exceptions.BudgetError`
        is raised here, before any worker starts.
    workers:
        Number of worker processes (= budget shards).  On a single
        core the pool still serves correctly — the workers time-slice —
        but the throughput win needs real cores; the load benchmark
        records ``cpu_count`` so the regime is always explicit.
    ledger_dir:
        Directory for per-shard budget journals (crash safety).  Each
        shard owns ``shard-NNN.journal``; a respawned worker replays
        only its own file.  Without it the pool fails closed: a dead
        worker is not respawned, and a stopped pool cannot restart.
    obs / seed / start_method:
        Frontend observability handle, RNG root seed (worker streams
        are spawned from it per shard *and* per incarnation), and an
        explicit multiprocessing start method (defaults to ``fork``
        where available, else ``spawn``).

    Usage::

        with ServingPool.build(prior, config, workers=4,
                               arena_dir=tmp) as pool:
            report = pool.report("user-1", Point(3.2, 7.9))
    """

    def __init__(
        self,
        arena: MechanismArena | str | Path,
        config: ServerConfig,
        workers: int = 2,
        ledger_dir: str | Path | None = None,
        obs: Observability | None = None,
        seed: int | None = None,
        start_method: str | None = None,
        spawn_timeout: float = 120.0,
        collect_worker_metrics: bool | None = None,
    ):
        if workers < 1:
            raise ServeError(
                f"a serving pool needs >= 1 worker, got {workers}",
                reason="config",
            )
        if config.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1, got {config.max_batch}"
            )
        if not isinstance(arena, MechanismArena):
            arena = MechanismArena.open(arena)
        # refused here, before any worker forks and fails to build
        # its book
        check_budgets(
            config.lifetime_epsilon,
            config.per_report_epsilon,
            sum(arena.budgets),
        )
        self._arena = arena
        self._config = config
        self._workers = int(workers)
        self._obs = obs if obs is not None else NOOP
        self._ledger_dir = (
            Path(ledger_dir) if ledger_dir is not None else None
        )
        if self._ledger_dir is not None:
            self._ledger_dir.mkdir(parents=True, exist_ok=True)
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._seed_root = np.random.SeedSequence(seed)
        self._spawn_timeout = float(spawn_timeout)
        self._collect_worker_metrics = (
            self._obs.enabled
            if collect_worker_metrics is None
            else bool(collect_worker_metrics)
        )
        self._shards = [
            _ShardHandle(self, shard) for shard in range(self._workers)
        ]
        self._front = ServerStats()
        self._lock = threading.Lock()
        self._pending = 0
        self._running = False
        self._started = False
        # removed by its finaliser when the pool is collected, so a
        # stopped pool can still restart over its arena
        self._owned_tmpdir: tempfile.TemporaryDirectory | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        prior,
        config: ServerConfig,
        workers: int = 2,
        arena_dir: str | Path | None = None,
        granularity: int = 4,
        rho: float = 0.8,
        store=None,
        obs: Observability | None = None,
        seed: int | None = None,
        ledger_dir: str | Path | None = None,
        **msm_kwargs,
    ) -> "ServingPool":
        """Build, warm, freeze, and wrap a mechanism in one call.

        Builds the MSM at ``config.per_report_epsilon`` (optionally warm
        from / persist to a ``store``, a
        :class:`~repro.core.store.MechanismStore` or a directory path),
        compiles the warmed tree, and freezes it into ``arena_dir`` (a
        pool-owned temporary directory when omitted, removed once the
        pool is garbage-collected).
        """
        from repro.core.msm import MultiStepMechanism
        from repro.core.store import MechanismStore

        msm = MultiStepMechanism.build(
            config.per_report_epsilon,
            granularity,
            prior,
            rho=rho,
            obs=obs,
            **msm_kwargs,
        )
        owned: tempfile.TemporaryDirectory | None = None
        if store is not None:
            if not isinstance(store, MechanismStore):
                store = MechanismStore(store)
            if obs is not None:
                store.bind_observability(obs)
            store.get_or_build(msm)
            arena = store.export_arena(
                msm,
                directory=Path(arena_dir) if arena_dir else None,
            )
        else:
            msm.precompute()
            compiled = msm.engine.compile(build=True)
            if arena_dir is None:
                owned = tempfile.TemporaryDirectory(prefix="repro-arena-")
                arena_dir = owned.name
            arena = MechanismArena.freeze(compiled, arena_dir)
        pool = cls(
            arena,
            config,
            workers=workers,
            ledger_dir=ledger_dir,
            obs=obs,
            seed=seed,
        )
        pool._owned_tmpdir = owned
        return pool

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingPool":
        """Start every shard's worker and feeder (idempotent).

        A pool with a ``ledger_dir`` restarts after :meth:`stop`: each
        new worker replays its shard journal first.  Without one, the
        stopped workers' budgets are gone, so a restart raises
        :class:`~repro.exceptions.ServeError` rather than grant every
        user a fresh lifetime.
        """
        with self._lock:
            if self._running:
                return self
            if self._started and self._ledger_dir is None:
                raise ServeError(
                    "a serving pool without ledger_dir cannot restart: "
                    "its users' spent budgets died with the workers",
                    reason="stopped",
                )
            self._running = True
            self._started = True
        try:
            for shard in self._shards:
                shard.start()
        except ServeError:
            self._running = False
            self._shutdown_shards()
            raise
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.gauge("repro_pool_workers").set(self._workers)
            metrics.gauge("repro_pool_arena_bytes").set(self._arena.nbytes)
        return self

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
        self._shutdown_shards()

    def _shutdown_shards(self) -> None:
        for shard in self._shards:
            shard.inbox.put(None)
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join(timeout=30.0)
                shard.thread = None

    def __enter__(self) -> "ServingPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def arena(self) -> MechanismArena:
        return self._arena

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def observability(self) -> Observability:
        return self._obs

    def shard_for(self, user_id: str) -> int:
        """Which shard owns ``user_id`` (stable pure routing)."""
        return shard_for_user(user_id, self._workers)

    def worker_pids(self) -> list[int | None]:
        """Current worker pids by shard (for chaos tooling/tests)."""
        return [
            shard.proc.pid if shard.proc is not None else None
            for shard in self._shards
        ]

    def _ledger_path(self, shard: int) -> str | None:
        if self._ledger_dir is None:
            return None
        return str(shard_journal_path(self._ledger_dir, shard))

    def ledger_replay(self) -> LedgerReplay:
        """Fail-closed replay of every shard journal (a fresh read)."""
        if self._ledger_dir is None:
            return LedgerReplay()
        return replay_many(
            self._ledger_path(shard) for shard in range(self._workers)
        )

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def submit(
        self,
        user_id: str,
        x: Point,
        deadline: float | None = None,
    ) -> _PoolRequest:
        """Admit a request into its shard's next micro-batch.

        Domain and overload checks run here; *budget* admission runs in
        the owning worker, where the user's accountant lives — routing
        by stable hash means all of a user's requests serialise there,
        so no cross-process reservation accounting is needed.
        """
        if not self._arena.contains(x.x, x.y):
            with self._lock:
                self._front.rejected_domain += 1
            self._count_rejection("domain")
            raise ServeError(
                f"location ({x.x:.4g}, {x.y:.4g}) is outside the served "
                f"domain",
                reason="domain",
            )
        shard = shard_for_user(user_id, self._workers)
        handle = self._shards[shard]
        with self._lock:
            if not self._running:
                raise ServeError(
                    "serving pool is not running; call start()",
                    reason="stopped",
                )
            if self._pending >= self._config.max_pending:
                self._front.rejected_overload += 1
                self._count_rejection("overload")
                raise ServeError(
                    f"pending queue full ({self._config.max_pending} "
                    f"requests); shedding load",
                    reason="overload",
                )
            request = _PoolRequest(user_id, x, deadline)
            self._pending += 1
            self._front.requests += 1
            if user_id not in handle.users:
                handle.users.add(user_id)
                handle.stats.sessions = len(handle.users)
            if self._obs.enabled:
                metrics = self._obs.metrics
                metrics.counter("repro_pool_requests_total").inc()
                metrics.gauge("repro_pool_inflight").set(self._pending)
            # enqueue under the lock: a racing stop() queues its
            # sentinel after every admitted request, so none is stranded
            handle.inbox.put(request)
        return request

    def report(
        self, user_id: str, x: Point, timeout: float | None = 30.0
    ) -> SessionReport:
        """Sanitise ``x`` for ``user_id`` through its shard's next
        micro-batch; safe to call from any number of threads.

        ``timeout`` becomes the request's deadline.  If it elapses the
        request is marked abandoned, so the feeder drops it before it
        reaches the worker if it has not been dispatched yet; a request
        already being sampled still spends its budget (fail closed).

        Raises
        ------
        BudgetError
            When the owning shard refuses the user's budget.
        ServeError
            On overload, out-of-domain requests, a stopped pool, a lost
            shard, or when ``timeout`` elapses first.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        request = self.submit(user_id, x, deadline=deadline)
        try:
            return request.future.result(timeout=timeout)
        except FutureTimeoutError:
            request.abandon()
            raise ServeError(
                f"request for {user_id!r} timed out after {timeout:.3g}s",
                reason="timeout",
            ) from None

    def _finish(self, request: _PoolRequest) -> None:
        with self._lock:
            self._pending -= 1
            pending = self._pending
        if self._obs.enabled:
            self._obs.metrics.gauge("repro_pool_inflight").set(pending)

    def _count_rejection(self, reason: str) -> None:
        if self._obs.enabled:
            self._obs.metrics.counter(
                "repro_pool_rejections_total", reason=reason
            ).inc()

    # ------------------------------------------------------------------
    # stats and metrics (the merge algebra)
    # ------------------------------------------------------------------
    def shard_stats(self) -> list[ServerStats]:
        """A consistent copy of every shard's stats."""
        with self._lock:
            return [
                ServerStats(**shard.stats.as_dict())
                for shard in self._shards
            ]

    def stats(self) -> ServerStats:
        """Pool-wide totals: the frontend's counters merged with every
        shard's, via the associative :meth:`ServerStats.merge`."""
        with self._lock:
            merged = ServerStats(**self._front.as_dict())
            snapshots = [
                ServerStats(**shard.stats.as_dict())
                for shard in self._shards
            ]
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def worker_snapshots(self, timeout: float = 30.0) -> list:
        """Each live worker's metrics snapshot (None for workers run
        without metrics collection or lost mid-roundtrip)."""
        tickets = []
        for shard in self._shards:
            ticket = _SnapshotTicket()
            shard.inbox.put(ticket)
            tickets.append(ticket)
        return [
            ticket.future.result(timeout=timeout) for ticket in tickets
        ]

    def collect_metrics(self):
        """Merge every worker's registry snapshot into the frontend's
        (the obs merge algebra) and return the combined snapshot."""
        snapshots = [
            snapshot
            for snapshot in self.worker_snapshots()
            if snapshot is not None
        ]
        if not self._obs.enabled:
            return snapshots
        for snapshot in snapshots:
            self._obs.metrics.merge(snapshot)
        return self._obs.metrics.snapshot()
