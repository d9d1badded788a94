"""Per-call overhead: one-point calls vs one batch call.

Measures the same workload — 10k uniformly distributed requests over a
depth-3 GIHI with a fully warmed node cache — through both entry
points of the one walk, the compiled kernel:

* **single** — ``sample_with_report`` in a Python loop: a batch of one
  per call, so every point pays the engine's per-call set-up (input
  packing, kernel dispatch, result materialisation) on its own;
* **batch** — one ``sanitize_batch`` call over all 10k points, which
  pays that set-up once and walks all points together in the kernel's
  flat per-level passes.

Both arms sample the same distribution from the same kernel; the
``speedup`` prices per-call overhead, not a faster walk.

Results go to ``BENCH_batch.json`` at the repository root (committed,
so the README throughput table has an auditable source), wrapped in the
versioned artifact envelope of :mod:`repro.bench.artifact`.  Runnable
both ways:

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py
    PYTHONPATH=src python -m pytest benchmarks/bench_batch_throughput.py

The acceptance bar is a >= 5x speedup.
"""

from __future__ import annotations

import json
import platform
import time

from common import (
    BUDGETS,
    GRANULARITY,
    HEIGHT,
    REPO_ROOT,
    ROOT_SEED,
    build_gihi_msm,
    rng,
    uniform_workload,
    write_bench_artifact,
)

#: Where the committed result lands.
RESULT_PATH = REPO_ROOT / "BENCH_batch.json"

#: Workload size of the acceptance criterion.
N_POINTS = 10_000


def run_benchmark(n: int = N_POINTS) -> dict:
    """Time both paths on identical warm-cache workloads."""
    msm = build_gihi_msm()
    points = uniform_workload(n, "batch-workload")

    single_rng = rng("batch-single")
    start = time.perf_counter()
    single = [msm.sample_with_report(x, single_rng) for x in points]
    single_seconds = time.perf_counter() - start

    batch_rng = rng("batch-batch")
    start = time.perf_counter()
    batch = msm.sanitize_batch(points, batch_rng)
    batch_seconds = time.perf_counter() - start

    assert len(single) == len(batch) == n
    return {
        "benchmark": "batch-sanitisation-throughput",
        "n_points": n,
        "index": f"GIHI g={GRANULARITY} h={HEIGHT}",
        "budgets": list(BUDGETS),
        "seed": ROOT_SEED,
        "python": platform.python_version(),
        "single_seconds": round(single_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "single_points_per_second": round(n / single_seconds, 1),
        "batch_points_per_second": round(n / batch_seconds, 1),
        "speedup": round(single_seconds / batch_seconds, 2),
    }


def test_batch_throughput_at_least_5x():
    """Acceptance: >= 5x over the one-point-per-call loop on 10k
    points."""
    result = run_benchmark()
    write_bench_artifact("batch-sanitisation-throughput", result, RESULT_PATH)
    assert result["speedup"] >= 5.0, result


def main() -> None:
    result = run_benchmark()
    write_bench_artifact("batch-sanitisation-throughput", result, RESULT_PATH)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
