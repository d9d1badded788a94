"""Regression gating: diff a run artifact against a committed baseline.

Every gated metric carries a *direction* (which way is a regression)
and a *relative tolerance band*.  The bands encode the measurement
physics, not wishful thinking:

* exact metrics (losses, entropies, adversarial error, tight epsilon)
  are deterministic closed-form computations — tight 10% bands exist
  only to absorb BLAS/quadrature jitter across platforms;
* the sampled empirical epsilon is fixed-seed deterministic on one
  platform; 10% also covers numpy stream differences;
* throughput is machine-dependent — the default band allows a 45%
  drop, and CI passes a looser ``--tolerance`` because a shared runner
  is not the baseline machine (the band is a *floor*, catching
  order-of-magnitude regressions, not 10% wobble).

The verdict per (cell, metric) is ``pass`` / ``fail`` /
``missing-baseline`` (run has a cell the baseline lacks — informational)
/ ``missing-run`` (baseline cell disappeared from the run — a gate
failure, silently dropping a cell must not pass CI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import EvaluationError

#: Verdict values, in increasing severity.
PASS = "pass"
MISSING_BASELINE = "missing-baseline"
FAIL = "fail"
MISSING_RUN = "missing-run"


@dataclass(frozen=True)
class Tolerance:
    """One metric's gating policy.

    ``direction`` is ``"higher_is_worse"`` (losses, epsilons: the gate
    fires when the run exceeds baseline by more than ``rel_tol``) or
    ``"lower_is_worse"`` (throughput, entropy, adversarial error: the
    gate fires when the run falls more than ``rel_tol`` below).
    """

    direction: str
    rel_tol: float

    def __post_init__(self) -> None:
        if self.direction not in ("higher_is_worse", "lower_is_worse"):
            raise EvaluationError(
                f"unknown tolerance direction {self.direction!r}"
            )
        if self.rel_tol < 0:
            raise EvaluationError("rel_tol must be non-negative")

    def regressed(self, run: float, baseline: float) -> bool:
        """Whether ``run`` regresses past the band around ``baseline``."""
        if math.isnan(run) or math.isnan(baseline):
            return True  # a metric that stopped being computable is a bug
        if math.isinf(baseline):
            # An infinite baseline (e.g. disjoint-support tight epsilon)
            # gates nothing in the higher-is-worse direction.
            return (
                self.direction == "lower_is_worse" and not math.isinf(run)
            )
        if baseline == 0.0 and self.direction == "higher_is_worse":
            # A relative band around zero is degenerate (any positive
            # value exceeds it).  A zero baseline usually means "no
            # evidence" — e.g. the sampled empirical epsilon saw no
            # well-sampled shared cells — so gate with the band as an
            # *absolute* slack instead.
            return run > self.rel_tol + 1e-12
        if self.direction == "higher_is_worse":
            return run > baseline * (1.0 + self.rel_tol) + 1e-12
        return run < baseline * (1.0 - self.rel_tol) - 1e-12


#: The gated metric set and default bands (see module docstring).
DEFAULT_TOLERANCES: dict[str, Tolerance] = {
    "throughput_pts_per_s": Tolerance("lower_is_worse", 0.45),
    "mean_loss_km": Tolerance("higher_is_worse", 0.10),
    "worst_case_loss_km": Tolerance("higher_is_worse", 0.10),
    "adversarial_error_km": Tolerance("lower_is_worse", 0.10),
    "identification_rate": Tolerance("higher_is_worse", 0.10),
    "conditional_entropy_bits": Tolerance("lower_is_worse", 0.10),
    "empirical_epsilon": Tolerance("higher_is_worse", 0.10),
    "epsilon_tight": Tolerance("higher_is_worse", 0.10),
}

#: Gated metrics for ``kind == "bench"`` artifacts (the committed
#: ``BENCH_*.json`` files).  All throughputs or throughput ratios, so
#: they share the machine-dependent 45% floor band.
BENCH_TOLERANCES: dict[str, Tolerance] = {
    # BENCH_graph: the compiled walk over the road network
    "kernel_points_per_second": Tolerance("lower_is_worse", 0.45),
    # BENCH_batch: one batch call vs one call per point
    "speedup": Tolerance("lower_is_worse", 0.45),
}


def parse_tolerance_overrides(
    overrides: list[str] | None,
) -> dict[str, Tolerance]:
    """Merge ``metric=rel_tol`` CLI strings over the defaults."""
    tolerances = {**DEFAULT_TOLERANCES, **BENCH_TOLERANCES}
    for item in overrides or []:
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in tolerances:
            raise EvaluationError(
                f"unknown gated metric {name!r}; "
                f"gated: {sorted(tolerances)}"
            )
        try:
            rel_tol = float(value)
        except ValueError:
            raise EvaluationError(
                f"tolerance override {item!r} is not metric=FLOAT"
            ) from None
        tolerances[name] = Tolerance(tolerances[name].direction, rel_tol)
    return tolerances


@dataclass(frozen=True)
class MetricVerdict:
    """One (cell, metric) comparison outcome."""

    cell_id: str
    metric: str
    verdict: str
    run_value: float | None
    baseline_value: float | None
    direction: str | None
    rel_tol: float | None

    @property
    def delta_pct(self) -> float | None:
        """Relative change run vs baseline, in percent."""
        if (
            self.run_value is None
            or self.baseline_value is None
            or not math.isfinite(self.baseline_value)
            or self.baseline_value == 0
        ):
            return None
        return 100.0 * (self.run_value - self.baseline_value) / abs(
            self.baseline_value
        )


@dataclass(frozen=True)
class Comparison:
    """Full diff of a run against a baseline."""

    matrix: str
    run_sha: str
    baseline_sha: str
    verdicts: tuple[MetricVerdict, ...]

    @property
    def failures(self) -> tuple[MetricVerdict, ...]:
        return tuple(
            v for v in self.verdicts if v.verdict in (FAIL, MISSING_RUN)
        )

    @property
    def new_cells(self) -> tuple[MetricVerdict, ...]:
        return tuple(
            v for v in self.verdicts if v.verdict == MISSING_BASELINE
        )

    @property
    def ok(self) -> bool:
        """The gate verdict: no regressions and no dropped cells."""
        return not self.failures


def _cells_by_id(artifact: Mapping[str, Any]) -> dict[str, dict]:
    return {cell["cell_id"]: cell for cell in artifact["cells"]}


def _compare_bench(
    run: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerances: Mapping[str, Tolerance] | None,
) -> Comparison:
    """Gate one legacy ``BENCH_*.json`` payload against its baseline."""
    if run.get("benchmark") != baseline.get("benchmark"):
        raise EvaluationError(
            f"benchmark mismatch: run is {run.get('benchmark')!r}, "
            f"baseline is {baseline.get('benchmark')!r}"
        )
    name = str(run.get("benchmark"))
    gated = {
        metric: (tolerances or {}).get(metric, tol)
        for metric, tol in BENCH_TOLERANCES.items()
    }
    run_results = run.get("results", {})
    base_results = baseline.get("results", {})
    verdicts: list[MetricVerdict] = []
    for metric, tol in gated.items():
        base_value = base_results.get(metric)
        if base_value is None:
            continue  # baseline predates the metric: nothing to gate
        run_value = run_results.get(metric)
        if run_value is None:
            verdicts.append(
                MetricVerdict(
                    name, metric, FAIL, None, float(base_value),
                    tol.direction, tol.rel_tol,
                )
            )
            continue
        verdict = (
            FAIL
            if tol.regressed(float(run_value), float(base_value))
            else PASS
        )
        verdicts.append(
            MetricVerdict(
                name, metric, verdict, float(run_value),
                float(base_value), tol.direction, tol.rel_tol,
            )
        )
    return Comparison(
        matrix=name,
        run_sha=str(run.get("git_sha", "unknown")),
        baseline_sha=str(baseline.get("git_sha", "unknown")),
        verdicts=tuple(verdicts),
    )


def compare_artifacts(
    run: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerances: Mapping[str, Tolerance] | None = None,
) -> Comparison:
    """Gate ``run`` against ``baseline``, metric by metric.

    Two ``kind == "matrix"`` artifacts diff cell-by-cell over the
    matrix metric panel; two ``kind == "bench"`` artifacts (the same
    ``benchmark`` slug) diff their flat throughput payloads.
    """
    if run.get("kind") == "bench" and baseline.get("kind") == "bench":
        return _compare_bench(run, baseline, tolerances)
    if run.get("kind") != "matrix" or baseline.get("kind") != "matrix":
        raise EvaluationError(
            "compare needs two matrix artifacts or two bench artifacts "
            f"(got kinds {run.get('kind')!r} vs {baseline.get('kind')!r})"
        )
    if run.get("matrix") != baseline.get("matrix"):
        raise EvaluationError(
            f"matrix mismatch: run is {run.get('matrix')!r}, "
            f"baseline is {baseline.get('matrix')!r}"
        )
    tolerances = dict(tolerances or DEFAULT_TOLERANCES)
    run_cells = _cells_by_id(run)
    base_cells = _cells_by_id(baseline)
    verdicts: list[MetricVerdict] = []

    for cell_id, base_cell in base_cells.items():
        run_cell = run_cells.get(cell_id)
        if run_cell is None:
            verdicts.append(
                MetricVerdict(
                    cell_id, "*", MISSING_RUN, None, None, None, None
                )
            )
            continue
        for metric, tol in tolerances.items():
            base_value = base_cell["metrics"].get(metric)
            run_value = run_cell["metrics"].get(metric)
            if base_value is None:
                continue  # baseline predates the metric: nothing to gate
            if run_value is None:
                verdicts.append(
                    MetricVerdict(
                        cell_id, metric, FAIL, None, float(base_value),
                        tol.direction, tol.rel_tol,
                    )
                )
                continue
            verdict = (
                FAIL
                if tol.regressed(float(run_value), float(base_value))
                else PASS
            )
            verdicts.append(
                MetricVerdict(
                    cell_id, metric, verdict, float(run_value),
                    float(base_value), tol.direction, tol.rel_tol,
                )
            )
    for cell_id in run_cells:
        if cell_id not in base_cells:
            verdicts.append(
                MetricVerdict(
                    cell_id, "*", MISSING_BASELINE, None, None, None, None
                )
            )
    return Comparison(
        matrix=str(run.get("matrix")),
        run_sha=str(run.get("git_sha", "unknown")),
        baseline_sha=str(baseline.get("git_sha", "unknown")),
        verdicts=tuple(verdicts),
    )


def format_comparison(comparison: Comparison) -> str:
    """Human-readable per-metric diagnosis (stable — golden-tested)."""
    lines = [
        f"== bench compare: matrix {comparison.matrix!r} ==",
        f"run {comparison.run_sha[:12]} vs "
        f"baseline {comparison.baseline_sha[:12]}",
    ]
    checked = [
        v for v in comparison.verdicts if v.verdict in (PASS, FAIL)
    ]
    lines.append(
        f"{len(checked)} metric checks across "
        f"{len({v.cell_id for v in checked})} cells"
    )
    for v in comparison.verdicts:
        if v.verdict == MISSING_RUN:
            lines.append(
                f"FAIL  {v.cell_id}: cell missing from the run "
                "(baseline cell silently dropped)"
            )
        elif v.verdict == MISSING_BASELINE:
            lines.append(
                f"NEW   {v.cell_id}: no baseline yet (not gated; "
                "commit a new baseline to start tracking)"
            )
        elif v.verdict == FAIL:
            arrow = (
                "above" if v.direction == "higher_is_worse" else "below"
            )
            delta = (
                f"{v.delta_pct:+.1f}%"
                if v.delta_pct is not None
                else "n/a"
            )
            lines.append(
                f"FAIL  {v.cell_id}: {v.metric} = {v.run_value:g} vs "
                f"baseline {v.baseline_value:g} ({delta}); "
                f"{arrow} the {v.rel_tol:.0%} band"
            )
    lines.append(
        "verdict: "
        + ("PASS" if comparison.ok else f"FAIL ({len(comparison.failures)})")
    )
    return "\n".join(lines)
