"""The serve workloads: check-ins replayed into a one-worker pool.

Both workloads freeze the planar mechanism of ``publish-planar`` into an
arena and serve it through ``ServingPool(workers=1)`` with a fsync'd
budget ledger in a fresh directory.  Each request carries the user id
of its check-in, so the budget sees the dataset's skew.

``serve-open`` offers a fixed 200 requests per second as an open loop:
each request is submitted at its due time whatever the pool is doing,
and its latency counts from that due time.  ``serve-backlog`` submits
chunks of 1,000 requests as fast as ``submit()`` admits them and waits
for each chunk to drain.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from perfbench import inputs
from perfbench.measure import Run, Sizes, median, peak_rss_mb, span_total, tail
from perfbench.publish import (
    build_planar,
    leaf_centres,
    price_child_prior,
    repeat_setup,
)
from repro.core.ledger import BudgetLedger
from repro.datasets import load_gowalla_austin
from repro.exceptions import BudgetError, ServeError
from repro.obs import NOOP, Observability
from repro.privacy.composition import budget_slack
from repro.serve.arena import MechanismArena
from repro.serve.pool import ServingPool, ShardBudgetBook
from repro.serve.server import ServerConfig

#: Reports each user may receive: the ``repro serve`` default for the
#: independent users of ``serve-open``, long-lived budgets behind the
#: gateway of ``serve-backlog``.
LIFETIME_REPORTS = {"serve-open": 10, "serve-backlog": 1_000}

#: A request is on time when answered within this many seconds: of its
#: due time on ``serve-open``; of its submission on ``serve-backlog``,
#: where a drained chunk of 1,000 takes about one second.
ONTIME_LIMIT_S = {"serve-open": 0.020, "serve-backlog": 2.0}

#: Longest wait for one answer before the request counts as failed.
RESULT_TIMEOUT_S = 60.0

#: Admission and ledger calls priced in-process by the traced run.
BUDGET_REPLAY_MAX = 2_000
LEDGER_PAIRS = 200


class _Log:
    """Per-request outcomes of one load phase.  Reports are scored as
    they arrive, so none outlives its chunk."""

    def __init__(self, leaves: set[tuple[float, float]]):
        self.leaves = leaves
        self.users: list[str] = []
        self.sent: list[float] = []  # due time (open) or submit time
        self.done: list[float] = []
        self.outcome: list[str] = []  # "ok" | "budget" | "failed"
        self.loss_km = 0.0
        self.not_leaf = 0
        self.overload_retries = 0
        self.late: list[float] = []
        self.drains: list[float] = []  # seconds per drained chunk

    def latencies(self) -> np.ndarray:
        """Seconds to answer each request; a failure never answers."""
        lat = np.asarray(self.done) - np.asarray(self.sent)
        lat[np.asarray(self.outcome) == "failed"] = np.inf
        return lat

    def counts(self) -> Counter:
        return Counter(self.outcome)

    def p50_s(self) -> float:
        """The median wait of the caller: one request on ``serve-open``,
        a whole backlog on ``serve-backlog``.

        Requests refused by budget are left out: they skip the walk and
        the ledger and answer about 1 ms sooner, so with some 40% of
        requests refused the median over all would sit on the edge
        between two clusters and jump between them.  ``ontime_share``
        still counts them.
        """
        if self.drains:
            return median(self.drains)
        refused = np.asarray(self.outcome) == "budget"
        return median(self.latencies()[~refused])


def _stamp(done: list, i: int, _future) -> None:
    done[i] = time.perf_counter()


def _collect(log: _Log, futures, points) -> None:
    """Wait for every answer and record its outcome."""
    for future, point in zip(futures, points):
        if future is None:
            log.outcome.append("failed")
            continue
        try:
            report = future.result(timeout=RESULT_TIMEOUT_S)
        except BudgetError:
            log.outcome.append("budget")
        except Exception:  # noqa: BLE001 - any other error is a failure
            log.outcome.append("failed")
        else:
            log.outcome.append("ok")
            out = report.reported
            log.loss_km += float(np.hypot(out.x - point.x, out.y - point.y))
            log.not_leaf += (out.x, out.y) not in log.leaves


def _submit(pool, user, point, sent: float, log: _Log, tracer):
    """Submit one request, retrying while the pool sheds load; record
    it in ``log`` and return its future (None when refused outright)."""
    i = len(log.users)
    log.users.append(user)
    log.sent.append(sent)
    log.done.append(np.nan)
    while True:
        try:
            with tracer.span("pool.submit"):
                handle = pool.submit(user, point)
        except ServeError as exc:
            if exc.reason == "overload":
                log.overload_retries += 1
                time.sleep(0.0005)
                continue
            log.done[i] = time.perf_counter()
            return None
        handle.future.add_done_callback(functools.partial(_stamp, log.done, i))
        return handle.future


def open_loop(pool, users, points, due, log: _Log, tracer) -> None:
    """Submit each request at its due offset, never waiting for answers."""
    start = time.perf_counter() + 0.005
    futures = []
    for user, point, offset in zip(users, points, due):
        due_at = start + offset
        now = time.perf_counter()
        if due_at > now:
            time.sleep(due_at - now)
        log.late.append(time.perf_counter() - due_at)
        futures.append(_submit(pool, user, point, due_at, log, tracer))
    _collect(log, futures, points)


def drain(pool, users, points, log: _Log, tracer) -> float:
    """Submit a chunk as fast as admitted and wait for it to drain;
    returns the seconds from the first submission to the last answer."""
    base = len(log.users)
    start = time.perf_counter()
    futures = [
        _submit(pool, user, point, time.perf_counter(), log, tracer)
        for user, point in zip(users, points)
    ]
    _collect(log, futures, points)
    return float(np.nanmax(log.done[base:])) - start


def answered_rate(log: _Log) -> float:
    """Answered requests per second, first due time to last answer."""
    answered = sum(1 for o in log.outcome if o != "failed")
    return answered / (float(np.nanmax(log.done)) - min(log.sent))


class _Server:
    """One serve workload's inputs and pools."""

    def __init__(self, name: str, sizes: Sizes, seed: int, tmp: Path):
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.tmp = tmp
        self.lifetime = LIFETIME_REPORTS[name]
        self.limit = ONTIME_LIMIT_S[name]
        self.dataset = load_gowalla_austin(checkin_fraction=sizes.fraction)
        self.requests = inputs.stream(seed, "requests")
        self.arrivals = inputs.stream(seed, "arrivals")
        self.pools: list[ServingPool] = []
        self._dirs = 0
        self._schedule = None

    def _dir(self, kind: str) -> Path:
        self._dirs += 1
        return self.tmp / f"{kind}-{self._dirs}"

    def build(self, prior_points, tracer, obs=None, pool_obs=None):
        """The serving set-up calls; returns ``(msm, pool, node_builds)``
        with the pool started."""
        msm, compiled, nodes = build_planar(
            prior_points, self.dataset.bounds, tracer, obs
        )
        with tracer.span("arena.freeze"):
            arena = MechanismArena.freeze(compiled, self._dir("arena"))
        pool = self.pool(arena, msm.epsilon, pool_obs)
        with tracer.span("pool.start"):
            pool.start()
        return msm, pool, nodes

    def pool(self, arena, epsilon, obs=None) -> ServingPool:
        config = ServerConfig(
            lifetime_epsilon=self.lifetime * epsilon,
            per_report_epsilon=epsilon,
        )
        pool = ServingPool(
            arena,
            config,
            workers=1,
            ledger_dir=self._dir("ledger"),
            obs=obs,
            seed=self.seed,
        )
        self.pools.append(pool)
        return pool

    def draw(self, n: int, session: str = "") -> tuple[list[str], list]:
        """``n`` sampled check-ins as ``(user ids, locations)``; a
        ``session`` suffix gives every user a fresh budget."""
        idx = self.requests.integers(0, self.dataset.n_checkins, size=n)
        users = [
            inputs.user_label(u) + session for u in self.dataset.user_ids[idx]
        ]
        return users, inputs.to_points(self.dataset.xy[idx])

    def stop(self) -> None:
        for pool in self.pools:
            pool.stop()

    def load(self, pool, seconds: float, log: _Log, tracer) -> float:
        """Drive ``pool`` for ``seconds``; returns answered requests per
        second (over the drains only, on ``serve-backlog``).
        ``serve-open`` replays one schedule however often it is driven."""
        if self.name == "serve-open":
            if self._schedule is None:
                due = inputs.open_schedule(
                    self.sizes.open_rate, seconds, self.arrivals
                )
                self._schedule = (*self.draw(len(due)), due)
            open_loop(pool, *self._schedule, log, tracer)
            return answered_rate(log)
        # each backlog comes from a fresh gateway session, so every
        # admission walks a nearly full 1,000-report budget and the cost
        # of a request does not depend on how many chunks ran before it
        end = time.perf_counter() + seconds
        while not log.drains or time.perf_counter() < end:
            session = f"/b{len(log.drains)}"
            users, pts = self.draw(self.sizes.backlog_chunk, session)
            log.drains.append(drain(pool, users, pts, log, tracer))
        answered = sum(1 for o in log.outcome if o != "failed")
        return answered / sum(log.drains)


def _check(run: Run, server: _Server, msm, pool, log: _Log) -> None:
    """Output checks of one pool's phase (after the pool has stopped)."""
    counts = log.counts()
    run.check("reports are leaf centres", log.not_leaf == 0,
              f"{log.not_leaf} of {counts['ok']} reports are not leaf "
              f"centres")
    summary = msm.degradation_summary()
    run.check("degradation summary is clean", summary.clean,
              f"{len(summary.substitutions)} substituted nodes")
    expected = inputs.expected_refusals(log.users, server.lifetime)
    run.check("budget refusals match the oracle",
              counts["budget"] == expected,
              f"{counts['budget']} refused, oracle {expected}")
    delivered = Counter(
        u for u, o in zip(log.users, log.outcome) if o == "ok"
    )
    epsilon = msm.epsilon
    lifetime = server.lifetime * epsilon
    replay = pool.ledger_replay()
    wrong = [
        user for user in set(log.users)
        if abs(replay.spent_for(user) - delivered[user] * epsilon)
        > 1e-9 * lifetime
        or replay.spent_for(user) > lifetime + budget_slack(lifetime)
    ]
    run.check("ledger spend equals delivered reports within lifetime",
              not wrong and not replay.open_reservations,
              f"{len(wrong)} users off, "
              f"{len(replay.open_reservations)} open reservations")


def _tally(run: Run, log: _Log) -> np.ndarray:
    """Count the phase's requests into ``run``; returns its latencies."""
    run.attempted += len(log.outcome)
    run.failed += log.counts()["failed"]
    return log.latencies()


def _workdir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="serve-", dir=root))


def run_serve(name: str, seed: int, seconds: float, sizes: Sizes,
              scratch: Path) -> Run:
    """The untraced run: end-to-end metrics."""
    tmp = _workdir(scratch)
    server = _Server(name, sizes, seed, tmp)
    run = Run()
    try:
        prior_points = server.dataset.points()

        def setup():
            if server.pools:
                server.pools[-1].stop()
            return server.build(prior_points, NOOP.tracer)

        (msm, pool, _), setup_s = repeat_setup(sizes, setup)
        del prior_points
        log = _Log(leaf_centres(msm))
        reports_per_s = server.load(pool, seconds, log, NOOP.tracer)
        server.stop()
        _check(run, server, msm, pool, log)
    finally:
        server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    lat = _tally(run, log)
    counts = log.counts()
    answered = counts["ok"] + counts["budget"]
    run.metric("setup_s", setup_s)
    run.metric("reports_per_s", reports_per_s)
    run.metric("mean_loss_km", log.loss_km / max(1, counts["ok"]))
    run.metric("peak_rss_mb", peak_rss_mb(with_children=True))
    run.metric("p50_ms", log.p50_s() * 1e3)
    run.metric("ontime_share", float(np.mean(lat <= server.limit)))
    run.metric("answered_share", answered / len(log.outcome))
    p99, beyond = tail(lat * 1e3, 99)
    run.figures["request_p99_ms"] = (
        f"{p99:.3f} ms ({beyond} of {lat.size} requests beyond)"
    )
    run.figures["failed_share"] = f"{counts['failed'] / lat.size:.6f}"
    run.figures["requests"] = (
        f"{lat.size} attempted, {counts['ok']} delivered, "
        f"{counts['budget']} refused by budget, {counts['failed']} failed"
    )
    if name == "serve-backlog":
        run.figures["chunks"] = f"{len(log.drains)} of {sizes.backlog_chunk}"
        run.figures["overload_retries"] = str(log.overload_retries)
    else:
        run.figures["generator_late_p99_ms"] = (
            f"{np.percentile(log.late, 99) * 1e3:.3f} ms"
        )
    return run


def _price_budget(users, lifetime: int, epsilon, tracer, span: str) -> None:
    """Replay admission in-process, no ledger: ``admit`` + ``settle``
    per admitted request, ``admit`` alone per refusal."""
    book = ShardBudgetBook(lifetime * epsilon, epsilon)
    for user in users[:BUDGET_REPLAY_MAX]:
        with tracer.span(span):
            try:
                entry = book.admit(user)
            except BudgetError:
                continue
            book.settle(user, entry)


def _price_ledger(server: _Server, users, epsilon, tracer) -> None:
    """``reserve`` + ``commit`` on a fresh fsync'd journal."""
    with BudgetLedger(server._dir("journal") / "bench.journal") as ledger:
        for user in users[:LEDGER_PAIRS]:
            with tracer.span("ledger.reserve_commit"):
                ledger.commit(ledger.reserve(user, epsilon))


def trace_serve(name: str, seed: int, seconds: float, sizes: Sizes,
                scratch: Path):
    """The traced run: per-layer metrics and the tracing overhead.

    The first half of the window drives an untraced pool, the second
    half replays the same requests into a pool whose calls are traced
    and whose metrics registry is on; both pools serve one arena.
    Returns ``(run, obs)``.
    """
    tmp = _workdir(scratch)
    server = _Server(name, sizes, seed, tmp)
    obs = Observability.collecting(trace=True)
    tracer = obs.tracer
    run = Run()
    pool_obs = Observability.collecting(trace=False)
    try:
        with tracer.span("setup"):
            msm, traced_pool, nodes = server.build(
                server.dataset.points(), tracer, obs=obs, pool_obs=pool_obs
            )
        lp = obs.snapshot()
        price_child_prior(msm, tracer)
        plain_log = _Log(leaf_centres(msm))
        traced_log = _Log(plain_log.leaves)
        plain_pool = server.pool(traced_pool.arena, msm.epsilon).start()
        half = seconds / 2.0
        plain_rate = server.load(plain_pool, half, plain_log, NOOP.tracer)
        server.requests = inputs.stream(seed, "requests")
        traced_rate = server.load(traced_pool, half, traced_log, tracer)
        stats = traced_pool.stats()
        server.stop()
        _check(run, server, msm, plain_pool, plain_log)
        _check(run, server, msm, traced_pool, traced_log)
        # admission as this workload configures it, and with the
        # 1,000-report lifetimes of a gateway, where each admission
        # walks the user's whole remaining budget
        _price_budget(traced_log.users, server.lifetime, msm.epsilon, tracer,
                      "budget.admit_settle")
        _price_budget(traced_log.users, LIFETIME_REPORTS["serve-backlog"],
                      msm.epsilon, tracer, "budget.admit_settle_long")
        _price_ledger(server, traced_log.users, msm.epsilon, tracer)
    finally:
        server.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    plain_lat = _tally(run, plain_log)
    traced_lat = _tally(run, traced_log)

    def total(span_name):
        return span_total(tracer, span_name)

    def mean_us(span_name):
        spans = tracer.find(span_name)
        return total(span_name) / len(spans) * 1e6 if spans else 0.0

    run.metric("priors.empirical_prior_s", total("priors.empirical_prior"))
    run.metric("msm.precompute_s", total("msm.precompute"))
    run.metric("msm.node_builds", nodes)
    run.metric("lp.solves", lp.counter_total("repro_lp_solves_total"))
    run.metric("lp.solve_s",
               lp.counter_total("repro_lp_solve_seconds_total"))
    run.metric("engine.child_prior_s", total("engine.child_prior"))
    run.metric("kernel.compile_s", total("kernel.compile"))
    run.metric("arena.freeze_s", total("arena.freeze"))
    run.metric("pool.start_s", total("pool.start"))
    run.metric("pool.submit_us", mean_us("pool.submit"))
    run.metric("pool.batches", stats.batches)
    run.metric("pool.mean_batch_size",
               (stats.batches + stats.coalesced) / max(1, stats.batches))
    run.metric("budget.admit_settle_us", mean_us("budget.admit_settle"))
    run.metric("budget.admit_settle_long_us",
               mean_us("budget.admit_settle_long"))
    run.metric("ledger.reserve_commit_us",
               mean_us("ledger.reserve_commit"))
    late = traced_log.late + plain_log.late
    run.metric("loadgen.late_p99_ms",
               float(np.percentile(late, 99)) * 1e3 if late else 0.0)
    run.metric("loadgen.overload_retries",
               plain_log.overload_retries + traced_log.overload_retries)
    run.metric("trace.reports_per_s_overhead_pct",
               100.0 * (1.0 - traced_rate / plain_rate))
    run.metric("trace.p50_ms_overhead_pct",
               100.0 * (traced_log.p50_s() / plain_log.p50_s() - 1.0))
    run.figures["requests"] = (
        f"{plain_lat.size} untraced, {traced_lat.size} traced"
    )
    return run, obs
