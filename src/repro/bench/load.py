"""Open-loop load benchmark for the multi-worker serving pool.

Measures the serving pool's saturation throughput across worker
processes and its tail latency under paced open-loop load, against a
committed single-core serving throughput
(:data:`COMMITTED_SINGLE_CORE_REQ_S`).

Two phases, both over the same Zipf-skewed synthetic traffic (user
arrivals drawn from a discrete Zipf over ``n_users`` ranks — a few hot
users and a long tail, the shape an LBS actually sees and the worst
case for hash sharding):

* **saturation** — every request is submitted as fast as admission
  allows and throughput is completed requests over wall clock.  This
  is the ceiling number the ≥10× acceptance gate reads.
* **paced open-loop** — requests are *scheduled* at a fixed arrival
  rate (a fraction of the measured saturation) and each latency is
  measured **from its scheduled arrival time**, not from when the
  submitting loop got around to it.  A stalled server therefore
  inflates the recorded tail instead of silently pausing the load
  generator — the classic coordinated-omission correction — and the
  p50/p95/p99 quantiles are honest.

Honesty on small hosts: the pool cannot beat one core with one core.
The result records ``cpu_count``, flags ``single_core_machine``, and
sets ``expected_gate`` accordingly; the ≥10× assertion is only armed on
a multi-core host, and a committed single-core artifact documents the
serial fallback rather than fabricating a speedup.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench.runner import ROOT_SEED, cell_seed
from repro.exceptions import ServeError
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.priors.base import GridPrior
from repro.serve.server import ServerConfig

__all__ = [
    "COMMITTED_SINGLE_CORE_REQ_S",
    "LoadSpec",
    "run_load_benchmark",
    "zipf_workload",
]

#: The single-core serving throughput this benchmark gates against:
#: the 287 req/s the retired single-process dispatcher-thread server
#: recorded (its benchmark script and artifact remain in git history).
COMMITTED_SINGLE_CORE_REQ_S = 287.0

#: The benchmark domain (same 20 km square as the rest of the suite).
DOMAIN_SIDE_KM = 20.0

#: GIHI geometry (g=3, h=3: 91 nodes).
GRANULARITY = 3
HEIGHT = 3
BUDGETS = (0.4, 0.5, 0.6)


class LoadSpec:
    """Workload configuration for one load-benchmark run."""

    def __init__(
        self,
        workers: int = 2,
        total_requests: int = 5_000,
        n_users: int = 200,
        zipf_s: float = 1.1,
        open_loop_fraction: float = 0.5,
        coalesce_window: float = ServerConfig.coalesce_window,
        max_batch: int = 512,
        ledger: bool = False,
        seed: int = ROOT_SEED,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if total_requests < 10:
            raise ValueError("total_requests must be >= 10")
        if n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not (0.0 < open_loop_fraction <= 1.0):
            raise ValueError("open_loop_fraction must be in (0, 1]")
        self.workers = int(workers)
        self.total_requests = int(total_requests)
        self.n_users = int(n_users)
        self.zipf_s = float(zipf_s)
        self.open_loop_fraction = float(open_loop_fraction)
        self.coalesce_window = float(coalesce_window)
        self.max_batch = int(max_batch)
        self.ledger = bool(ledger)
        self.seed = int(seed)


def zipf_workload(
    spec: LoadSpec, stream: str = "load-arrivals"
) -> list[tuple[str, Point]]:
    """Draw ``(user_id, location)`` arrivals for ``spec``.

    Users are ranks ``1..n_users`` with arrival probability
    proportional to ``1 / rank**zipf_s`` (a bounded discrete Zipf —
    ``numpy``'s unbounded ``Generator.zipf`` would concentrate all mass
    on rank 1 for small ``s`` and has no user-count cap).  Locations
    are uniform over the domain square.
    """
    gen = np.random.default_rng(cell_seed(spec.seed, stream))
    ranks = np.arange(1, spec.n_users + 1, dtype=float)
    pmf = ranks**-spec.zipf_s
    pmf /= pmf.sum()
    users = gen.choice(spec.n_users, size=spec.total_requests, p=pmf)
    xs = gen.uniform(0.0, DOMAIN_SIDE_KM, size=spec.total_requests)
    ys = gen.uniform(0.0, DOMAIN_SIDE_KM, size=spec.total_requests)
    return [
        (f"user-{int(rank):04d}", Point(float(x), float(y)))
        for rank, x, y in zip(users, xs, ys)
    ]


def _build_prior() -> GridPrior:
    square = BoundingBox.square(Point(0.0, 0.0), DOMAIN_SIDE_KM)
    leaf = GRANULARITY**HEIGHT
    return GridPrior.uniform(RegularGrid(square, leaf))


def _build_msm(obs=None):
    from repro.core.msm import MultiStepMechanism

    square = BoundingBox.square(Point(0.0, 0.0), DOMAIN_SIDE_KM)
    index = HierarchicalGrid(square, GRANULARITY, HEIGHT)
    msm = MultiStepMechanism(index, BUDGETS, _build_prior(), obs=obs)
    msm.precompute()
    return msm


def _submit_all(pool, arrivals) -> float:
    """Saturation phase: push every arrival as fast as admission
    allows (brief backoff on overload), drain completions, and return
    the elapsed seconds."""
    handles = []
    start = time.perf_counter()
    for user_id, x in arrivals:
        while True:
            try:
                handles.append(pool.submit(user_id, x))
                break
            except ServeError as exc:
                if exc.reason != "overload":
                    raise
                time.sleep(0.0005)
    for handle in handles:
        handle.future.result(timeout=120.0)
    return time.perf_counter() - start


def _percentiles_ms(latencies: np.ndarray) -> dict[str, float]:
    return {
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "max_ms": float(latencies.max() * 1e3),
    }


def run_load_benchmark(
    spec: LoadSpec | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the full load benchmark and return the results payload
    (the ``results`` half of a ``kind == "bench"`` artifact)."""
    import tempfile

    from repro.serve.arena import MechanismArena
    from repro.serve.pool import ServingPool

    spec = spec if spec is not None else LoadSpec()
    say = progress if progress is not None else (lambda _msg: None)
    per_report = float(sum(BUDGETS))
    # lifetime large enough that the hottest Zipf user is never
    # refused: throughput, not admission control, is under test
    config = ServerConfig(
        lifetime_epsilon=per_report * spec.total_requests,
        per_report_epsilon=per_report,
        coalesce_window=spec.coalesce_window,
        max_batch=spec.max_batch,
    )
    arrivals = zipf_workload(spec)
    cpu_count = os.cpu_count() or 1

    say(f"building mechanism (GIHI g={GRANULARITY} h={HEIGHT})...")
    msm = _build_msm()
    compiled = msm.engine.compile(build=True)

    results: dict[str, Any] = {
        "benchmark": "pool-load",
        "workers": spec.workers,
        "cpu_count": cpu_count,
        "single_core_machine": cpu_count < 2,
        # the ≥10x multi-worker gate only makes sense with cores to
        # spend; on one core the pool documents its serial fallback
        "expected_gate": "none" if cpu_count < 2 else "multicore-10x",
        "committed_single_core_req_s": COMMITTED_SINGLE_CORE_REQ_S,
        "total_requests": spec.total_requests,
        "n_users": spec.n_users,
        "zipf_s": spec.zipf_s,
        "ledger": spec.ledger,
        "per_report_epsilon": per_report,
        "index": f"GIHI g={GRANULARITY} h={HEIGHT}",
        "seed": spec.seed,
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-load-") as tmp:
        arena = MechanismArena.freeze(compiled, Path(tmp) / "arena")
        results["arena_bytes"] = arena.nbytes
        ledger_dir = (Path(tmp) / "ledgers") if spec.ledger else None
        pool = ServingPool(
            arena,
            config,
            workers=spec.workers,
            ledger_dir=ledger_dir,
            seed=spec.seed,
        )
        with pool:
            # ---- phase 1: saturation --------------------------------
            say(
                f"saturation: {spec.total_requests} requests across "
                f"{spec.workers} workers..."
            )
            elapsed = _submit_all(pool, arrivals)
            saturation_req_s = spec.total_requests / elapsed
            results["saturation"] = {
                "requests": spec.total_requests,
                "elapsed_seconds": round(elapsed, 4),
                "req_per_s": round(saturation_req_s, 1),
            }

            # ---- phase 2: paced open loop ---------------------------
            target_rate = max(
                1.0, saturation_req_s * spec.open_loop_fraction
            )
            say(f"open loop at {target_rate:.0f} req/s...")
            n_open = spec.total_requests
            latencies = np.full(n_open, np.inf)
            rejected = 0
            pending = []
            t0 = time.perf_counter()
            for i, (user_id, x) in enumerate(arrivals):
                scheduled = t0 + i / target_rate
                now = time.perf_counter()
                if scheduled > now:
                    time.sleep(scheduled - now)
                try:
                    handle = pool.submit(user_id, x)
                except ServeError:
                    rejected += 1
                    continue

                def _record(fut, idx=i, sched=scheduled):
                    latencies[idx] = time.perf_counter() - sched

                handle.future.add_done_callback(_record)
                pending.append(handle)
            for handle in pending:
                handle.future.result(timeout=120.0)
            finite = latencies[np.isfinite(latencies)]
            open_loop: dict[str, Any] = {
                "target_req_per_s": round(target_rate, 1),
                "completed": int(finite.size),
                "rejected": rejected,
            }
            open_loop.update(_percentiles_ms(finite))
            results["open_loop"] = open_loop

            stats = pool.stats()
            results["pool_stats"] = {
                "batches": stats.batches,
                "coalesced": stats.coalesced,
                "max_batch_points": stats.max_batch_points,
                "sessions": stats.sessions,
                "rejected_budget": stats.rejected_budget,
                "respawns": stats.respawns,
            }
            if stats.rejected_budget:
                raise ServeError(
                    "load benchmark misconfigured: budget rejections "
                    "contaminate the throughput measurement",
                    reason="bench",
                )

    results["speedup_vs_committed"] = round(
        saturation_req_s / COMMITTED_SINGLE_CORE_REQ_S, 2
    )
    if cpu_count < 2:
        results["note"] = (
            "single-core host: the pool's workers time-slice one core, "
            "so the multi-core >=10x gate is not armed "
            "(expected_gate='none'); throughput gains here come from "
            "micro-batch amortisation alone and the speedup column "
            "is reported for transparency, not as the gate."
        )
    return results
