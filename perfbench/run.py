"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload publish-planar --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``publish-planar``, ``publish-graph`` and ``serve-open``,
which ``BENCHMARK.json`` gates, and ``serve-backlog``, which runs but is
not gated (see ``perfbench/README.md``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics and
the tracing overhead, and writes the recorded spans to
``.perfbench/out/``.  Every metric is printed by name with its unit,
then the output checks, then one JSON line with the result.  The exit
code is 1 when an output check fails, 2 when the checkout holds no
program to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("publish-planar", "publish-graph", "serve-open", "serve-backlog")

#: Everything a run writes: serving scratch and traced spans.
WORK_DIR = ROOT / ".perfbench"


def _use_checkout() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} is missing; nothing to run",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def _cpu_jiffies() -> tuple[int, int] | None:
    """(total, stolen) CPU time of the host so far, where Linux reports it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None):
    """Run one workload; returns ``(run, obs)``, ``obs`` None untraced."""
    from perfbench.measure import Sizes
    from perfbench.publish import run_publish, trace_publish
    from perfbench.serve import run_serve, trace_serve

    sizes = sizes if sizes is not None else Sizes()
    scratch = WORK_DIR / "tmp"
    if name.startswith("publish"):
        if trace:
            return trace_publish(name, seed, seconds, sizes)
        return run_publish(name, seed, seconds, sizes), None
    if trace:
        return trace_serve(name, seed, seconds, sizes, scratch)
    return run_serve(name, seed, seconds, sizes, scratch), None


def result_line(run, trace: bool) -> dict:
    """The final JSON object: every metric of the chosen kind."""
    from perfbench.measure import END_TO_END, PER_LAYER

    catalogue = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": run.metrics.get(name, 0.0), "unit": unit}
        for name, unit in catalogue.items()
    }
    return {
        "correct": run.correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _use_checkout()

    before = _cpu_jiffies()
    run, obs = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    after = _cpu_jiffies()
    if before is not None and after is not None and after[0] > before[0]:
        # time the hypervisor ran something else on this machine's vCPUs:
        # runs with a high share read slow for reasons outside the code
        run.figures["host_steal_share"] = (
            f"{(after[1] - before[1]) / (after[0] - before[0]):.4f}"
        )
    result = result_line(run, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    for name, text in run.figures.items():
        print(f"  {name:34s} {text}  (not gated)")
    for name, ok, detail in run.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}"
              + (f" ({detail})" if detail and not ok else ""))
    if obs is not None:
        from repro.obs.export import to_jsonl

        out = WORK_DIR / "out" / f"{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(to_jsonl(obs.snapshot(), obs.spans))
        print(f"  spans written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
