"""Tests for the benchmark-matrix harness (schema, compare, report).

The ``compare`` and ``report`` renderings are golden-file tested in the
style of the exporter tests in ``tests/test_obs.py``: a synthetic,
fully deterministic artifact pair is pushed through the real formatting
code and the output must match ``tests/data/bench_*_golden.txt`` byte
for byte.  The perturbation test is the PR's acceptance criterion: an
artifact with epsilon inflated by 20% and throughput halved must fail
the gate with a per-metric diagnosis naming both regressions.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    ArtifactError,
    CellSpec,
    Comparison,
    DatasetSpec,
    IndexSpec,
    MatrixSpec,
    REQUIRED_CELL_METRICS,
    SCHEMA_VERSION,
    Tolerance,
    compare_artifacts,
    format_comparison,
    format_report,
    get_matrix,
    load_artifact,
    parse_tolerance_overrides,
    run_matrix,
    save_artifact,
    validate_artifact,
    validation_errors,
    wrap_legacy,
)
from repro.cli import main
from repro.exceptions import EvaluationError

DATA_DIR = Path(__file__).parent / "data"
REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "smoke.json"


def _metrics(**overrides) -> dict:
    """A plausible, fully-populated metric panel."""
    metrics = {
        "throughput_pts_per_s": 50_000.0,
        "mean_loss_km": 3.1,
        "worst_case_loss_km": 4.2,
        "adversarial_error_km": 3.0,
        "identification_rate": 0.05,
        "conditional_entropy_bits": 5.8,
        "prior_entropy_bits": 6.3,
        "empirical_epsilon": 0.45,
        "epsilon_tight": 1.2,
    }
    metrics.update(overrides)
    return metrics


def _cell(mechanism: str, epsilon: float, **metric_overrides) -> dict:
    return {
        "cell_id": f"{mechanism}|gihi-g3h2|uniform|eps{epsilon:g}",
        "mechanism": mechanism,
        "index": "gihi-g3h2",
        "dataset": "uniform",
        "epsilon": epsilon,
        "budgets": [0.2, 0.3],
        "n_leaves": 81,
        "build_seconds": 0.5,
        "sample_seconds": 0.1,
        "metrics": _metrics(**metric_overrides),
    }


def fake_artifact(*cells: dict) -> dict:
    """A deterministic matrix artifact (fixed sha/host — golden-safe)."""
    return validate_artifact({
        "schema_version": SCHEMA_VERSION,
        "kind": "matrix",
        "git_sha": "0123456789abcdef0123456789abcdef01234567",
        "created_unix": 1700000000.0,
        "seed": 20190326,
        "host": {
            "python": "3.12.0",
            "platform": "Linux-test",
            "machine": "x86_64",
            "cpu_count": 8,
        },
        "matrix": "smoke",
        "config": {
            "n_points": 20000,
            "n_eval_inputs": 6,
            "n_eval_samples": 3000,
            "rho": 0.8,
        },
        "cells": list(cells) or [_cell("msm", 0.5), _cell("pl", 1.0)],
    })


class TestArtifactSchema:
    def test_fake_artifact_is_valid(self):
        assert validation_errors(fake_artifact()) == []

    def test_wrap_legacy_is_valid(self):
        artifact = wrap_legacy("some-bench", {"speedup": 11.0}, 20190326)
        assert validation_errors(artifact) == []
        assert artifact["kind"] == "bench"

    def test_errors_accumulate_instead_of_stopping(self):
        bad = fake_artifact()
        bad = copy.deepcopy(bad)
        bad["schema_version"] = 99
        bad["cells"][0]["epsilon"] = "half"
        del bad["cells"][1]["metrics"]["empirical_epsilon"]
        errors = validation_errors(bad)
        assert len(errors) == 3
        assert any("schema_version" in e for e in errors)
        assert any("epsilon must be a number" in e for e in errors)
        assert any("empirical_epsilon" in e for e in errors)

    def test_non_matrix_kind_rejected(self):
        assert validation_errors({"schema_version": SCHEMA_VERSION})
        with pytest.raises(ArtifactError, match="kind"):
            validate_artifact({"schema_version": SCHEMA_VERSION})

    def test_every_required_metric_is_enforced(self):
        for metric in REQUIRED_CELL_METRICS:
            bad = copy.deepcopy(fake_artifact())
            del bad["cells"][0]["metrics"][metric]
            assert any(metric in e for e in validation_errors(bad))

    def test_save_load_round_trip(self, tmp_path):
        artifact = fake_artifact()
        path = save_artifact(artifact, tmp_path / "run.json")
        assert load_artifact(path) == artifact
        assert path.read_text().endswith("\n")

    def test_load_missing_path_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact"):
            load_artifact(tmp_path / "absent.json")

    def test_load_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)


class TestTolerances:
    def test_directions(self):
        higher = Tolerance("higher_is_worse", 0.10)
        assert higher.regressed(1.2, 1.0)
        assert not higher.regressed(1.05, 1.0)
        assert not higher.regressed(0.5, 1.0)
        lower = Tolerance("lower_is_worse", 0.45)
        assert lower.regressed(0.5, 1.0)
        assert not lower.regressed(0.6, 1.0)
        assert not lower.regressed(2.0, 1.0)

    def test_nan_always_regresses(self):
        tol = Tolerance("higher_is_worse", 0.10)
        assert tol.regressed(float("nan"), 1.0)
        assert tol.regressed(1.0, float("nan"))

    def test_infinite_baseline_gates_nothing_upward(self):
        tol = Tolerance("higher_is_worse", 0.10)
        assert not tol.regressed(5.0, float("inf"))
        assert not tol.regressed(float("inf"), float("inf"))

    def test_zero_baseline_uses_absolute_slack(self):
        """A 0.0 baseline (no-evidence estimate) must not fail on any
        positive measurement — only past the band as absolute slack."""
        tol = Tolerance("higher_is_worse", 0.10)
        assert not tol.regressed(0.05, 0.0)
        assert tol.regressed(0.2, 0.0)

    def test_overrides_parse_and_reject_unknown(self):
        merged = parse_tolerance_overrides(["throughput_pts_per_s=0.75"])
        assert merged["throughput_pts_per_s"].rel_tol == 0.75
        assert merged["mean_loss_km"].rel_tol == 0.10
        with pytest.raises(EvaluationError, match="unknown gated metric"):
            parse_tolerance_overrides(["made_up_metric=0.5"])
        with pytest.raises(EvaluationError, match="metric=FLOAT"):
            parse_tolerance_overrides(["mean_loss_km=banana"])


class TestCompare:
    def test_identical_artifacts_pass(self):
        artifact = fake_artifact()
        comparison = compare_artifacts(artifact, artifact)
        assert comparison.ok
        assert not comparison.failures
        assert not comparison.new_cells

    def test_matrix_name_mismatch_rejected(self):
        other = copy.deepcopy(fake_artifact())
        other["matrix"] = "full"
        with pytest.raises(EvaluationError, match="matrix mismatch"):
            compare_artifacts(fake_artifact(), other)

    def test_verdict_taxonomy(self):
        baseline = fake_artifact(_cell("msm", 0.5), _cell("pl", 1.0))
        run = fake_artifact(
            _cell("msm", 0.5, empirical_epsilon=0.45 * 1.2,
                  throughput_pts_per_s=25_000.0),
            _cell("exp", 2.0),
        )
        comparison = compare_artifacts(run, baseline)
        assert not comparison.ok
        by_kind = {}
        for v in comparison.verdicts:
            by_kind.setdefault(v.verdict, []).append(v)
        failed = {(v.cell_id, v.metric) for v in by_kind["fail"]}
        assert failed == {
            ("msm|gihi-g3h2|uniform|eps0.5", "empirical_epsilon"),
            ("msm|gihi-g3h2|uniform|eps0.5", "throughput_pts_per_s"),
        }
        assert [v.cell_id for v in by_kind["missing-run"]] == [
            "pl|gihi-g3h2|uniform|eps1"
        ]
        assert [v.cell_id for v in by_kind["missing-baseline"]] == [
            "exp|gihi-g3h2|uniform|eps2"
        ]


class TestGoldenFiles:
    """Byte-exact rendering, in the ``tests/test_obs.py`` style."""

    def test_report_golden(self):
        golden = (DATA_DIR / "bench_report_golden.txt").read_text()
        assert format_report(fake_artifact()) + "\n" == golden

    def test_compare_golden(self):
        baseline = fake_artifact(_cell("msm", 0.5), _cell("pl", 1.0))
        run = fake_artifact(
            _cell("msm", 0.5, empirical_epsilon=0.45 * 1.2,
                  throughput_pts_per_s=25_000.0),
            _cell("exp", 2.0),
        )
        golden = (DATA_DIR / "bench_compare_golden.txt").read_text()
        assert (
            format_comparison(compare_artifacts(run, baseline)) + "\n"
            == golden
        )

    def test_compare_pass_golden(self):
        artifact = fake_artifact()
        golden = (DATA_DIR / "bench_compare_pass_golden.txt").read_text()
        assert (
            format_comparison(compare_artifacts(artifact, artifact)) + "\n"
            == golden
        )


class TestPerturbationGate:
    """Acceptance: a deliberately degraded artifact must fail the gate.

    Uses the *committed* smoke baseline so the test also guards the
    artifact CI actually compares against.
    """

    def _perturbed(self) -> dict:
        artifact = copy.deepcopy(load_artifact(SMOKE_BASELINE))
        for cell in artifact["cells"]:
            cell["metrics"]["empirical_epsilon"] *= 1.2
            cell["metrics"]["throughput_pts_per_s"] *= 0.5
        return artifact

    def test_epsilon_inflation_and_throughput_halving_fail(self):
        baseline = load_artifact(SMOKE_BASELINE)
        comparison = compare_artifacts(self._perturbed(), baseline)
        assert not comparison.ok
        failed_metrics = {v.metric for v in comparison.failures}
        assert failed_metrics == {
            "empirical_epsilon", "throughput_pts_per_s"
        }
        # Every cell is diagnosed individually, not just the first.
        failed_cells = {v.cell_id for v in comparison.failures}
        assert failed_cells == {
            c["cell_id"] for c in baseline["cells"]
        }
        text = format_comparison(comparison)
        assert "above the 10% band" in text
        assert "below the 45% band" in text

    def test_cli_exit_codes(self, tmp_path, capsys):
        perturbed_path = tmp_path / "perturbed.json"
        save_artifact(self._perturbed(), perturbed_path)
        code = main([
            "bench", "compare",
            "--baseline", str(SMOKE_BASELINE),
            "--run", str(perturbed_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "empirical_epsilon" in out
        assert "throughput_pts_per_s" in out
        assert "verdict: FAIL" in out

        clean_path = tmp_path / "clean.json"
        save_artifact(copy.deepcopy(load_artifact(SMOKE_BASELINE)),
                      clean_path)
        code = main([
            "bench", "compare",
            "--baseline", str(SMOKE_BASELINE),
            "--run", str(clean_path),
        ])
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_cli_missing_baseline_policy(self, tmp_path, capsys):
        run_path = tmp_path / "run.json"
        save_artifact(fake_artifact(), run_path)
        absent = tmp_path / "no-baseline.json"
        with pytest.raises(SystemExit, match="missing-baseline"):
            main([
                "bench", "compare",
                "--baseline", str(absent), "--run", str(run_path),
            ])
        code = main([
            "bench", "compare", "--baseline", str(absent),
            "--run", str(run_path), "--allow-missing-baseline",
        ])
        assert code == 0
        assert "no baseline committed yet" in capsys.readouterr().out


class TestCliReport:
    def test_report_renders_committed_baseline(self, capsys):
        code = main([
            "bench", "report", "--run", str(SMOKE_BASELINE),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Benchmark matrix 'smoke'" in out
        assert "H(X|Z)_bits" in out


class TestLiveTinyMatrix:
    """End-to-end ``run_matrix`` on a seconds-scale synthetic matrix."""

    def test_run_matrix_produces_valid_artifact(self):
        spec = MatrixSpec(
            name="smoke",  # reuse a registered name: artifact-compatible
            mechanisms=("exp",),
            indexes=(IndexSpec(granularity=2, height=1),),
            datasets=(DatasetSpec("uniform"),),
            epsilons=(1.0,),
            n_points=64,
            n_eval_inputs=2,
            n_eval_samples=200,
            n_timing_repeats=1,
        )
        artifact = run_matrix(spec, root_seed=7)
        assert validation_errors(artifact) == []
        (cell,) = artifact["cells"]
        assert cell["cell_id"] == "exp|gihi-g2h1|uniform|eps1"
        metrics = cell["metrics"]
        for key in REQUIRED_CELL_METRICS:
            assert key in metrics
        assert metrics["worst_case_loss_km"] >= metrics["mean_loss_km"]
        assert 0.0 <= metrics["conditional_entropy_bits"] <= (
            metrics["prior_entropy_bits"]
        )
        # Same seed, same draws: the run is reproducible end to end.
        again = run_matrix(spec, root_seed=7)
        a = {k: v for k, v in artifact["cells"][0]["metrics"].items()
             if k != "throughput_pts_per_s"}
        b = {k: v for k, v in again["cells"][0]["metrics"].items()
             if k != "throughput_pts_per_s"}
        assert a == b

    def test_registry_knows_smoke_and_full(self):
        assert len(get_matrix("smoke")) == 8
        assert len(get_matrix("full")) == 48
        with pytest.raises(EvaluationError, match="unknown benchmark"):
            get_matrix("nope")
        # The two extra smoke cells are the road-network pair, appended
        # after the planar cross product.
        cells = list(get_matrix("smoke").cells())
        assert len(cells) == 8
        assert [c.cell_id for c in cells[-2:]] == [
            "msm|graph-f4h2|graph-city|eps0.5",
            "msm|graph-f4h2|graph-city|eps1",
        ]


class TestGraphCells:
    """The road-network cells: spec validation and a live tiny run."""

    def test_graph_index_requires_graph_dataset(self):
        with pytest.raises(EvaluationError, match="graph cells"):
            CellSpec(
                "msm",
                IndexSpec(4, 2, kind="graph"),
                DatasetSpec("uniform"),
                1.0,
            )
        with pytest.raises(EvaluationError, match="graph cells"):
            CellSpec(
                "msm",
                IndexSpec(3, 2),
                DatasetSpec("graph-city"),
                1.0,
            )

    def test_graph_cells_are_msm_only(self):
        with pytest.raises(EvaluationError, match="only the 'msm'"):
            CellSpec(
                "pl",
                IndexSpec(4, 2, kind="graph"),
                DatasetSpec("graph-city"),
                1.0,
            )

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(EvaluationError, match="index kind"):
            IndexSpec(4, 2, kind="voronoi")

    def test_live_graph_cell_produces_valid_artifact(self):
        spec = MatrixSpec(
            name="smoke",  # reuse a registered name: artifact-compatible
            mechanisms=("msm",),
            indexes=(IndexSpec(granularity=4, height=2, kind="graph"),),
            datasets=(DatasetSpec("graph-city"),),
            epsilons=(1.0,),
            n_points=64,
            n_eval_inputs=2,
            n_eval_samples=200,
            n_timing_repeats=1,
        )
        artifact = run_matrix(spec, root_seed=7)
        assert validation_errors(artifact) == []
        (cell,) = artifact["cells"]
        assert cell["cell_id"] == "msm|graph-f4h2|graph-city|eps1"
        assert cell["budgets"] == [0.5, 0.5]
        metrics = cell["metrics"]
        for key in REQUIRED_CELL_METRICS:
            assert key in metrics
        assert metrics["worst_case_loss_km"] >= metrics["mean_loss_km"]
        # Network distance dominates the planar distance, so the losses
        # must be at least plausible for a ~4x4 km city window.
        assert 0.0 < metrics["mean_loss_km"] < 10.0
