"""Benchmark-matrix runner.

Executes every cell of a :class:`~repro.bench.matrix.MatrixSpec` and
produces a schema-validated run artifact.  Per cell:

* build the mechanism over the cell's leaf grid (timed separately as
  the offline cost, mirroring the paper's offline/online split);
* push ``n_points`` workload requests through the *actual sampling
  path* and record throughput;
* compute the exact Oya-style metric panel (adversarial error,
  conditional entropy, worst-case loss, tight epsilon) from the
  mechanism's end-to-end matrix under the cell's empirical prior;
* estimate the empirical epsilon by sampling — the same estimator the
  statistical test suite uses, so harness and tests cannot diverge.

Randomness is rooted in one documented seed: every cell derives its
stream from ``(root_seed, crc32(cell_id))``, so editing the matrix
(adding or reordering cells) never shifts any other cell's draws.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Callable, Sequence

import numpy as np

from repro.bench.artifact import envelope, validate_artifact
from repro.bench.matrix import CellSpec, DatasetSpec, MatrixSpec
from repro.core.budget.allocation import allocate_budget_fixed_height
from repro.core.msm import MultiStepMechanism
from repro.eval.privacy import (
    empirical_epsilon_sampled,
    privacy_metrics,
)
from repro.geo.bbox import BoundingBox
from repro.geo.metric import EUCLIDEAN
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.mechanisms.base import Mechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.matrix import MechanismMatrix
from repro.mechanisms.planar_laplace import (
    PlanarLaplaceMechanism,
    planar_laplace_matrix,
)
from repro.mechanisms.remap import remap_mechanism
from repro.priors.base import GridPrior
from repro.priors.empirical import empirical_prior

#: The repository's root seed (the paper's submission date, shared with
#: ``benchmarks/common.py``).  Every stream below derives from it.
ROOT_SEED = 20190326

#: Side of the synthetic uniform domain, matching the datasets' ~20 km
#: city windows.
UNIFORM_SIDE_KM = 20.0

#: Synthetic road network used by ``graph-city`` cells: one fixed city
#: shared by every cell (the cell streams only drive workloads and
#: sampling), so graph cells stay comparable across epsilons and runs.
GRAPH_CITY_BLOCKS = 8
GRAPH_CITY_BLOCK_KM = 0.5
GRAPH_CITY_SEED = ROOT_SEED


def cell_seed(root_seed: int, cell_id: str) -> np.random.SeedSequence:
    """Per-cell seed derivation, stable under matrix edits."""
    return np.random.SeedSequence(
        [root_seed, zlib.crc32(cell_id.encode("utf-8"))]
    )


def _load_points_and_bounds(
    dataset: DatasetSpec,
) -> tuple[list[Point] | None, BoundingBox]:
    if dataset.name == "uniform":
        square = BoundingBox.square(Point(0.0, 0.0), UNIFORM_SIDE_KM)
        return None, square
    if dataset.name == "gowalla":
        from repro.datasets import load_gowalla_austin

        ds = load_gowalla_austin(checkin_fraction=dataset.fraction)
    else:
        from repro.datasets import load_yelp_las_vegas

        ds = load_yelp_las_vegas(checkin_fraction=dataset.fraction)
    return ds.points(), ds.bounds


def _workload(
    points: list[Point] | None,
    bounds: BoundingBox,
    n: int,
    rng: np.random.Generator,
) -> list[Point]:
    if points is None:
        xs = rng.uniform(bounds.min_x, bounds.max_x, size=n)
        ys = rng.uniform(bounds.min_y, bounds.max_y, size=n)
        return [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    picks = rng.integers(len(points), size=n)
    return [points[int(i)] for i in picks]


def _eval_inputs(grid: RegularGrid, n: int) -> list[Point]:
    """``n`` leaf centres nearest the domain centre.

    A *contiguous* central block, not an evenly-spread sample: adjacent
    cells share most of their output support, which is what gives the
    empirical-epsilon estimator well-sampled cell pairs to bind on.
    """
    cx = (grid.bounds.min_x + grid.bounds.max_x) / 2.0
    cy = (grid.bounds.min_y + grid.bounds.max_y) / 2.0
    centers = grid.centers()
    ranked = sorted(
        range(len(centers)),
        key=lambda i: (
            (centers[i].x - cx) ** 2 + (centers[i].y - cy) ** 2,
            i,
        ),
    )
    return [centers[i] for i in ranked[: min(n, len(centers))]]


def _build_mechanism(
    cell: CellSpec,
    leaf_grid: RegularGrid,
    prior: GridPrior,
    bounds: BoundingBox,
    rho: float,
) -> tuple[Mechanism, Callable[[], MechanismMatrix], tuple[float, ...]]:
    """The cell's sampler, a thunk for its exact matrix, its budgets."""
    g, h = cell.index.granularity, cell.index.height
    if cell.mechanism in ("msm", "msm-remap"):
        plan = allocate_budget_fixed_height(
            cell.epsilon, g, bounds.side, height=h, rho=rho
        )
        index = HierarchicalGrid(bounds, g, h)
        msm = MultiStepMechanism(
            index, plan.budgets, prior, remap=cell.mechanism == "msm-remap"
        )
        msm.precompute()

        def matrix() -> MechanismMatrix:
            walk = msm.to_matrix()
            if cell.mechanism == "msm-remap":
                # Fold the finalise-stage remap in, mirroring the
                # engine's OptimalRemapPostProcessor (to_matrix alone
                # is the raw walk).
                return remap_mechanism(
                    walk, prior.probabilities, EUCLIDEAN
                )
            return walk

        return msm, matrix, tuple(plan.budgets)
    if cell.mechanism == "pl":
        pl = PlanarLaplaceMechanism(cell.epsilon, grid=leaf_grid)
        return (
            pl,
            lambda: planar_laplace_matrix(leaf_grid, cell.epsilon),
            (cell.epsilon,),
        )
    exp = ExponentialMechanism(cell.epsilon, leaf_grid)
    return exp, lambda: exp.matrix, (cell.epsilon,)


def _graph_eval_inputs(partition: "GraphPartitionIndex", n: int) -> list[Point]:
    """``n`` leaf-medoid vertices nearest the domain centre.

    The graph analogue of :func:`_eval_inputs` — and like it, the
    inputs are the *matrix's own input set* (leaf representatives, not
    arbitrary vertices): the estimator divides log frequency ratios by
    ``dx``, so evaluating at adjacent road vertices a fraction of a
    block apart would amplify sampling noise by the tiny divisor
    instead of measuring the mechanism.
    """
    b = partition.bounds
    cx = (b.min_x + b.max_x) / 2.0
    cy = (b.min_y + b.max_y) / 2.0
    centers = [leaf.center for leaf in partition.leaves()]
    ranked = sorted(
        range(len(centers)),
        key=lambda i: (
            (centers[i].x - cx) ** 2 + (centers[i].y - cy) ** 2,
            i,
        ),
    )
    return [centers[i] for i in ranked[: min(n, len(centers))]]


def _run_graph_cell(
    cell: CellSpec, spec: MatrixSpec, rng: np.random.Generator
) -> dict[str, Any]:
    """Execute one road-network cell: the staged MSM over the balanced
    edge-cut partition, with every distance — loss panel, tight
    epsilon, empirical epsilon — measured under shortest-path distance.

    The per-level budgets are an equal split of the cell epsilon (the
    lattice-aware allocator reasons about grid cell diagonals and does
    not transfer to network distance).
    """
    from repro.graph import (
        GraphMetric,
        GraphPartitionIndex,
        VertexBins,
        synthetic_city,
    )

    g, h = cell.index.granularity, cell.index.height
    build_start = time.perf_counter()
    city = synthetic_city(
        blocks=GRAPH_CITY_BLOCKS,
        block_km=GRAPH_CITY_BLOCK_KM,
        seed=GRAPH_CITY_SEED,
    )
    metric = GraphMetric(city)
    partition = GraphPartitionIndex(city, fanout=g, height=h)
    budgets = (cell.epsilon / h,) * h
    prior = GridPrior.uniform(
        RegularGrid(city.bounds, cell.index.leaf_granularity)
    )
    msm = MultiStepMechanism(partition, budgets, prior, dq=metric, dx=metric)
    msm.precompute()
    build_seconds = time.perf_counter() - build_start

    workload = _workload(None, city.bounds, spec.n_points, rng)
    sample_seconds = float("inf")
    for _ in range(spec.n_timing_repeats):
        sample_start = time.perf_counter()
        reported = msm.sample_many(workload, rng)
        sample_seconds = min(
            sample_seconds, time.perf_counter() - sample_start
        )
        assert len(reported) == spec.n_points

    matrix = msm.to_matrix()
    stop_prior = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    panel = privacy_metrics(matrix, stop_prior, metric)
    eps_hat = empirical_epsilon_sampled(
        msm,
        _graph_eval_inputs(partition, spec.n_eval_inputs),
        VertexBins(city),
        spec.n_eval_samples,
        rng,
        dx=metric,
    )

    return {
        "cell_id": cell.cell_id,
        "mechanism": cell.mechanism,
        "index": cell.index.label,
        "dataset": cell.dataset.label,
        "epsilon": cell.epsilon,
        "budgets": [round(b, 6) for b in budgets],
        "n_leaves": len(partition.leaves()),
        "build_seconds": round(build_seconds, 4),
        "sample_seconds": round(sample_seconds, 4),
        "metrics": {
            "throughput_pts_per_s": round(
                spec.n_points / max(sample_seconds, 1e-9), 1
            ),
            "mean_loss_km": round(panel.expected_loss, 6),
            "worst_case_loss_km": round(panel.worst_case_loss, 6),
            "adversarial_error_km": round(panel.adversarial_error, 6),
            "identification_rate": round(panel.identification_rate, 6),
            "conditional_entropy_bits": round(
                panel.conditional_entropy_bits, 6
            ),
            "prior_entropy_bits": round(panel.prior_entropy_bits, 6),
            "empirical_epsilon": round(eps_hat, 6),
            "epsilon_tight": round(panel.epsilon_tight, 6),
        },
    }


def run_cell(
    cell: CellSpec, spec: MatrixSpec, root_seed: int = ROOT_SEED
) -> dict[str, Any]:
    """Execute one benchmark cell and return its artifact entry."""
    rng = np.random.default_rng(cell_seed(root_seed, cell.cell_id))
    if cell.dataset.name == "graph-city":
        return _run_graph_cell(cell, spec, rng)
    points, bounds = _load_points_and_bounds(cell.dataset)
    leaf_grid = RegularGrid(bounds, cell.index.leaf_granularity)
    if points is None:
        prior = GridPrior.uniform(leaf_grid)
    else:
        prior = empirical_prior(leaf_grid, points, smoothing=0.1)

    build_start = time.perf_counter()
    mechanism, matrix_thunk, budgets = _build_mechanism(
        cell, leaf_grid, prior, bounds, spec.rho
    )
    build_seconds = time.perf_counter() - build_start

    workload = _workload(points, bounds, spec.n_points, rng)
    sample_seconds = float("inf")
    for _ in range(spec.n_timing_repeats):
        sample_start = time.perf_counter()
        reported = mechanism.sample_many(workload, rng)
        sample_seconds = min(
            sample_seconds, time.perf_counter() - sample_start
        )
        assert len(reported) == spec.n_points

    matrix = matrix_thunk()
    panel = privacy_metrics(matrix, prior.probabilities, EUCLIDEAN)
    eps_hat = empirical_epsilon_sampled(
        mechanism,
        _eval_inputs(leaf_grid, spec.n_eval_inputs),
        leaf_grid,
        spec.n_eval_samples,
        rng,
    )

    return {
        "cell_id": cell.cell_id,
        "mechanism": cell.mechanism,
        "index": cell.index.label,
        "dataset": cell.dataset.label,
        "epsilon": cell.epsilon,
        "budgets": [round(b, 6) for b in budgets],
        "n_leaves": leaf_grid.n_cells,
        "build_seconds": round(build_seconds, 4),
        "sample_seconds": round(sample_seconds, 4),
        "metrics": {
            "throughput_pts_per_s": round(
                spec.n_points / max(sample_seconds, 1e-9), 1
            ),
            "mean_loss_km": round(panel.expected_loss, 6),
            "worst_case_loss_km": round(panel.worst_case_loss, 6),
            "adversarial_error_km": round(panel.adversarial_error, 6),
            "identification_rate": round(panel.identification_rate, 6),
            "conditional_entropy_bits": round(
                panel.conditional_entropy_bits, 6
            ),
            "prior_entropy_bits": round(panel.prior_entropy_bits, 6),
            "empirical_epsilon": round(eps_hat, 6),
            "epsilon_tight": round(panel.epsilon_tight, 6),
        },
    }


def run_matrix(
    spec: MatrixSpec,
    root_seed: int = ROOT_SEED,
    progress: Callable[[str], None] | None = None,
    cells: Sequence[CellSpec] | None = None,
) -> dict[str, Any]:
    """Run a whole matrix and return the validated artifact."""
    artifact = envelope("matrix", root_seed)
    artifact["matrix"] = spec.name
    artifact["config"] = {
        "n_points": spec.n_points,
        "n_eval_inputs": spec.n_eval_inputs,
        "n_eval_samples": spec.n_eval_samples,
        "rho": spec.rho,
    }
    results = []
    todo = list(spec.cells()) if cells is None else list(cells)
    for i, cell in enumerate(todo, start=1):
        if progress is not None:
            progress(f"[{i}/{len(todo)}] {cell.cell_id}")
        results.append(run_cell(cell, spec, root_seed))
    artifact["cells"] = results
    return validate_artifact(artifact)
