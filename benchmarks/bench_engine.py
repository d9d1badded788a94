"""Staged vs kernel walk-engine throughput.

Runs the same >= 50k-point warm-cache workload through the unified
:class:`~repro.core.engine.WalkEngine` two ways, both in-process:

* **staged** — the object-world walk: per-level Python grouping by
  node, the cache and resilient solver on the path, full traces;
* **kernel** — the compiled array walk (:mod:`repro.core.kernel`): the
  tree flattened to CSR arrays and per-level CDF arenas, traces off
  (the hot serving configuration).  Drawn from the same seed as the
  staged run, so the bench also *verifies* the two paths sample
  identical points.

Results go to ``BENCH_engine.json`` at the repository root (committed,
so the README table has an auditable source), wrapped in the versioned
artifact envelope of :mod:`repro.bench.artifact`.  Runnable both ways:

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py

The default run keeps observability *disabled* — that is the regime the
committed throughput numbers (and the < 3% overhead acceptance
criterion) refer to.  ``--metrics PATH`` re-runs with a live metrics
registry and writes a Prometheus text dump (the CI obs smoke step
parses it); ``--trace-out PATH`` additionally records span trees.
``--points N`` shrinks the workload for smoke runs (the result file is
only written at the full default size, so smoke runs cannot clobber the
committed benchmark).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

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
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"

#: Workload size of the acceptance criterion (>= 50k points).
N_POINTS = 50_000

#: The engine bench's workload stream name.
WORKLOAD_STREAM = "engine-workload"

#: The artifact's benchmark name.
BENCHMARK = "walk-engine-staged-vs-kernel"


def run_benchmark(n: int = N_POINTS) -> dict:
    """Time the staged and the compiled walk on one warm workload."""
    msm = build_gihi_msm()
    points = uniform_workload(n, WORKLOAD_STREAM)

    msm.engine.kernel = "never"
    start = time.perf_counter()
    staged = msm.sanitize_batch(points, rng("engine-serial"))
    staged_seconds = time.perf_counter() - start

    compiled = msm.engine.compile()
    assert compiled is not None, "warm GIHI tree must compile"
    msm.engine.kernel = "always"
    start = time.perf_counter()
    kernel = msm.sanitize_batch(points, rng("engine-serial"), trace=False)
    kernel_seconds = time.perf_counter() - start
    # same seed, same distribution, same *bytes*: the fused kernel is a
    # re-expression of the staged walk, not a different mechanism
    assert len(staged) == len(kernel) == n
    assert all(a.point == b.point for a, b in zip(staged, kernel))

    return {
        "benchmark": BENCHMARK,
        "n_points": n,
        "index": f"GIHI g={GRANULARITY} h={HEIGHT}",
        "budgets": list(BUDGETS),
        "seed": ROOT_SEED,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "staged_seconds": round(staged_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "staged_points_per_second": round(n / staged_seconds, 1),
        "kernel_points_per_second": round(n / kernel_seconds, 1),
        "kernel_speedup": round(staged_seconds / kernel_seconds, 2),
    }


def test_kernel_throughput():
    """Acceptance: the compiled kernel walks >= 5x faster than the
    staged walk on >= 50k points (a ratio, so it applies on every
    host)."""
    result = run_benchmark()
    write_bench_artifact(BENCHMARK, result, RESULT_PATH)
    assert result["kernel_speedup"] >= 5.0, result


def run_instrumented(
    n: int, metrics_path: str | None, trace_path: str | None
) -> dict:
    """One staged and one kernel batch with a live registry; dump
    telemetry.

    Separate from :func:`run_benchmark` on purpose: the committed
    throughput numbers come from the *disabled* path, while this one
    exists so CI can validate that the observability layer produces a
    parseable Prometheus dump covering the engine's metric glossary
    (the staged batch emits every span stage, ``resolve`` included).
    """
    from repro.obs import Observability
    from repro.obs.export import to_jsonl, to_prometheus

    obs = Observability.collecting(trace=trace_path is not None)
    msm = build_gihi_msm(obs=obs)
    points = uniform_workload(n, WORKLOAD_STREAM)

    msm.engine.kernel = "never"
    staged = msm.sanitize_batch_report(points, rng("engine-serial"))
    assert msm.engine.compile() is not None, "warm GIHI tree must compile"
    msm.engine.kernel = "always"
    kernel = msm.sanitize_batch_report(
        points, rng("engine-serial"), trace=False
    )

    assert len(staged) == len(kernel) == n
    if metrics_path is not None:
        text = to_prometheus(obs.snapshot())
        if metrics_path == "-":
            print(text, end="")
        else:
            Path(metrics_path).write_text(text)
    if trace_path is not None:
        Path(trace_path).write_text(to_jsonl(obs.snapshot(), obs.spans))
    return {
        "benchmark": "walk-engine-instrumented-smoke",
        "n_points": n,
        "staged_points_per_second": round(
            staged.telemetry.points_per_second, 1
        ),
        "kernel_points_per_second": round(
            kernel.telemetry.points_per_second, 1
        ),
        "metrics": metrics_path,
        "trace": trace_path,
    }


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=N_POINTS,
        help=f"workload size (default {N_POINTS}; the committed result "
             "file is only rewritten at the default size)",
    )
    parser.add_argument(
        "--metrics", nargs="?", const="-", default=None, metavar="PATH",
        help="run with observability enabled and write a Prometheus text "
             "dump to PATH (stdout if no PATH is given)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also record span trees and write spans + metrics as JSON "
             "lines to PATH (implies an instrumented run)",
    )
    args = parser.parse_args(argv)

    if args.metrics is not None or args.trace_out is not None:
        result = run_instrumented(args.points, args.metrics, args.trace_out)
        if args.metrics != "-":
            print(json.dumps(result, indent=2))
        return

    result = run_benchmark(args.points)
    if args.points == N_POINTS:
        write_bench_artifact(BENCHMARK, result, RESULT_PATH)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
