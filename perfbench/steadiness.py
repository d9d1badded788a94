"""Record how much each end-to-end metric moves on unchanged code.

Runs every workload ``--runs`` times, each in a fresh interpreter with
its own seed, and writes each metric's values, median, quartiles and
spread (the distance between the quartiles as a share of the median)::

    python3 perfbench/steadiness.py --runs 10 --seconds 20 \\
        --out perfbench/STEADINESS.json

A spread above a third of the metric's bound in ``BENCHMARK.json`` is
flagged: such a metric cannot tell a regression of its bound from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=workloads)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    record = {
        "host": {
            "cpus": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
        },
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": {},
    }
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  f"{time.monotonic() - start:.1f} s wall", flush=True)
        summary = {name: summarise(v) for name, v in values.items()}
        record["workloads"][workload] = summary
        for name, s in summary.items():
            limit = bounds[name] / 3.0
            mark = ""
            if name != "setup_s" and s["spread"] > limit:
                mark = f"  > bound/3 = {limit:.3f}"
            print(f"  {name:16s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}{mark}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
