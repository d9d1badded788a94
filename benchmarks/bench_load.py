"""Multi-worker pool load benchmark: saturation + open-loop tails.

Runs :func:`repro.bench.load.run_load_benchmark` over Zipf-skewed
synthetic traffic and records the acceptance numbers in
``BENCH_load.json`` at the repository root (versioned artifact
envelope):

* **saturation throughput** — requests/s with every request submitted
  as fast as admission allows, across N worker processes mapping one
  zero-copy mechanism arena;
* **open-loop tail latency** — p50/p95/p99 measured from *scheduled*
  arrival times (coordinated-omission corrected) at half the measured
  saturation rate.

The ≥10× gate (vs the committed 287 req/s single-core serving
baseline) is only armed on a multi-core host — ``expected_gate`` in
the result says which regime produced the artifact, and a single-core
run documents the serial fallback honestly instead of inventing cores.

Runnable both ways::

    PYTHONPATH=src python benchmarks/bench_load.py
    PYTHONPATH=src python -m pytest benchmarks/bench_load.py

``--requests N`` shrinks the workload for smoke runs (the result file
is only written at the full default size, so smoke runs cannot clobber
the committed benchmark); ``--workers`` / ``--out`` override the pool
width and artifact path for CI smoke steps.
"""

from __future__ import annotations

import argparse
import json
import os

from common import REPO_ROOT, ROOT_SEED, write_bench_artifact
from repro.bench.load import (
    COMMITTED_SINGLE_CORE_REQ_S,
    LoadSpec,
    run_load_benchmark,
)

#: Where the committed result lands.
RESULT_PATH = REPO_ROOT / "BENCH_load.json"

#: Full-size workload (the committed artifact's shape).
N_REQUESTS = 5_000
N_WORKERS = 4


def run_benchmark(
    n_requests: int = N_REQUESTS, workers: int = N_WORKERS
) -> dict:
    spec = LoadSpec(
        workers=workers,
        total_requests=n_requests,
        seed=ROOT_SEED,
    )
    return run_load_benchmark(spec, progress=print)


def test_pool_load_smoke() -> None:
    """Tier-2 gate: a small pool run completes, reports finite tails,
    and (multi-core hosts only) clears the ≥10× saturation gate."""
    results = run_benchmark(n_requests=400, workers=2)
    saturation = results["saturation"]["req_per_s"]
    assert saturation > 0
    for quantile in ("p50_ms", "p95_ms", "p99_ms"):
        value = results["open_loop"][quantile]
        assert value > 0 and value == value  # positive and not NaN
    assert results["pool_stats"]["rejected_budget"] == 0
    if results["expected_gate"] == "multicore-10x":
        assert saturation >= 10.0 * COMMITTED_SINGLE_CORE_REQ_S, (
            f"multi-core host but saturation {saturation:.0f} req/s "
            f"< 10x committed baseline "
            f"{COMMITTED_SINGLE_CORE_REQ_S:.0f} req/s"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=N_REQUESTS)
    parser.add_argument("--workers", type=int, default=N_WORKERS)
    parser.add_argument(
        "--out",
        default=None,
        help="write the artifact here instead of the committed path "
        "(committed path is only written at the full default size)",
    )
    args = parser.parse_args()

    results = run_benchmark(n_requests=args.requests, workers=args.workers)
    print(json.dumps(results, indent=2))
    if args.out is not None:
        write_bench_artifact("pool-load", results, args.out)
        print(f"\nwritten: {args.out}")
    elif args.requests == N_REQUESTS and args.workers == N_WORKERS:
        write_bench_artifact("pool-load", results, RESULT_PATH)
        print(f"\nwritten: {RESULT_PATH}")
    else:
        print("\n(smoke run: committed result not written)")


if __name__ == "__main__":
    main()
