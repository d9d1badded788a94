"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from perfbench import inputs, run
from perfbench.measure import END_TO_END, PER_LAYER, TINY
from perfbench.publish import _publisher
from perfbench.serve import _Server

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_same_seed_same_inputs(tmp_path):
    for name in ("publish-planar", "publish-graph"):
        a, b = _publisher(name, TINY, 7), _publisher(name, TINY, 7)
        assert np.array_equal(a.draw(), b.draw())
        assert np.array_equal(a.draw(), b.draw())
        assert not np.array_equal(a.draw(), _publisher(name, TINY, 8).draw())
    a = _Server("serve-backlog", TINY, 7, tmp_path)
    b = _Server("serve-backlog", TINY, 7, tmp_path)
    assert a.draw(50) == b.draw(50)
    assert a.draw(50) != _Server("serve-backlog", TINY, 8, tmp_path).draw(50)


def test_same_seed_same_arrival_schedule():
    due = inputs.open_schedule(200.0, 3.0, inputs.stream(5, "arrivals"))
    again = inputs.open_schedule(200.0, 3.0, inputs.stream(5, "arrivals"))
    assert np.array_equal(due, again)
    assert due.size == 600
    assert np.all(np.diff(due) >= 0) and 0.0 <= due[0] and due[-1] < 3.0
    other = inputs.open_schedule(200.0, 3.0, inputs.stream(6, "arrivals"))
    assert not np.array_equal(due, other)


def test_refusal_oracle_matches_hand_count():
    users = ["a", "b", "a", "a", "c", "a", "b"]
    # lifetime 2: a's third and fourth requests are refused
    assert inputs.expected_refusals(users, 2) == 2
    # lifetime 1: a loses three, b loses one
    assert inputs.expected_refusals(users, 1) == 4
    assert inputs.expected_refusals(users, 4) == 0
    assert inputs.expected_refusals([], 3) == 0


def test_metric_names_and_units_follow_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for catalogue, key in ((END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")):
        for name, unit in catalogue.items():
            assert NAME_RE.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert UNIT_RE.fullmatch(unit), unit
        assert {m["name"]: m["unit"] for m in spec[key]} == catalogue
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    result, obs = run.run_workload(workload, 3, 0.3, trace, sizes=TINY)
    failed = [c for c in result.checks if not c[1]]
    assert result.correct, failed
    assert result.attempted > 0 and result.failed == 0
    line = run.result_line(result, trace)
    assert set(line["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        # a tiny batch's fixed cost can miss the per-report deadline, so
        # only ontime_share may read 0 at this size
        assert all(m["value"] > 0 for name, m in line["metrics"].items()
                   if name != "ontime_share")
    assert (obs is not None) == trace


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (run.ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
