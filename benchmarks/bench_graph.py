"""Road-network scenario benchmark: MSM over a graph partition.

End-to-end exercise of the ``repro.graph`` subsystem on the synthetic
city road network, recording the acceptance numbers of the road-network
PR in ``BENCH_graph.json`` at the repository root (wrapped in the
versioned artifact envelope of :mod:`repro.bench.artifact`):

* **guard** — every cached node mechanism of the graph MSM re-passes
  :func:`~repro.privacy.guard.guard_mechanism` at its level epsilon
  with the shortest-path :class:`~repro.graph.metric.GraphMetric` as
  ``dX`` (which also re-validates the pseudometric axioms on each
  node's inputs);
* **privacy** — the exact Oya-style panel of the end-to-end walk
  matrix under network distance (optimal Bayesian inference attack,
  tight epsilon), plus the sampled empirical epsilon binned by road
  vertex — both estimators measured under shortest-path ``dX``;
* **utility** — the LBS k-NN workload of the paper's introduction with
  every distance meaning *driving* distance: POIs live on road
  vertices, the server ranks by shortest path, and the QoS cost is
  extra travel along the network;
* **walk throughput** — points per second of the compiled kernel
  (membership labels, one vertex snap per batch) on one fixed seeded
  batch, after asserting it reports the reference walk's points bit
  for bit (:mod:`repro.testing.oracle`).

Runnable both ways::

    PYTHONPATH=src python benchmarks/bench_graph.py
    PYTHONPATH=src python -m pytest benchmarks/bench_graph.py

``--requests N`` shrinks the LBS workload for smoke runs (the result
file is only written at the full default size, so smoke runs cannot
clobber the committed benchmark).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from common import REPO_ROOT, rng, write_bench_artifact
from repro.attacks.bayesian import optimal_inference_attack
from repro.core.msm import MultiStepMechanism
from repro.eval.privacy import empirical_epsilon_sampled, privacy_metrics
from repro.geo.point import Point
from repro.graph import (
    GraphMetric,
    GraphPartitionIndex,
    VertexBins,
    synthetic_city,
)
from repro.grid.regular import RegularGrid
from repro.lbs.poi import POIStore
from repro.lbs.service import LocationBasedService
from repro.priors.base import GridPrior
from repro.privacy.guard import guard_mechanism
from repro.testing.oracle import oracle_walk

#: Where the committed result lands.
RESULT_PATH = REPO_ROOT / "BENCH_graph.json"

#: City geometry: a 9 x 9 intersection grid (81 vertices) over a ~4 km
#: window, matching the benchmark-matrix ``graph-city`` cells.
BLOCKS = 8
BLOCK_KM = 0.5
CITY_SEED = 20190326

#: Partition geometry and privacy budget (equal split per level).
FANOUT = 4
HEIGHT = 2
EPSILON = 1.0

#: Workload sizes.
N_REQUESTS = 4_000
N_POIS = 120
KNN_K = 5
N_EVAL_INPUTS = 6
N_EVAL_SAMPLES = 3_000
N_WALK_POINTS = 20_000
WALK_REPEATS = 3


def build_graph_msm() -> tuple[MultiStepMechanism, GraphPartitionIndex, GraphMetric]:
    """The benchmark instance: city + partition + shortest-path MSM."""
    city = synthetic_city(blocks=BLOCKS, block_km=BLOCK_KM, seed=CITY_SEED)
    metric = GraphMetric(city)
    partition = GraphPartitionIndex(city, fanout=FANOUT, height=HEIGHT)
    prior = GridPrior.uniform(
        RegularGrid(city.bounds, FANOUT**HEIGHT)
    )
    budgets = (EPSILON / HEIGHT,) * HEIGHT
    msm = MultiStepMechanism(partition, budgets, prior, dq=metric, dx=metric)
    msm.precompute()
    return msm, partition, metric


def guard_every_node(msm: MultiStepMechanism, metric: GraphMetric) -> int:
    """Re-validate every cached node mechanism under the graph metric.

    Raises :class:`~repro.exceptions.PrivacyViolationError` on the
    first failure; returns the number of node mechanisms checked.
    """
    entries = msm.cache.snapshot()
    for entry in entries.values():
        guard_mechanism(entry.matrix, entry.epsilon, dx=metric)
    return len(entries)


def eval_inputs(partition: GraphPartitionIndex, n: int) -> list:
    """``n`` leaf-medoid vertices nearest the domain centre (the
    matrix's own input set — see ``repro.bench.runner``)."""
    b = partition.bounds
    cx = (b.min_x + b.max_x) / 2.0
    cy = (b.min_y + b.max_y) / 2.0
    centers = [leaf.center for leaf in partition.leaves()]
    ranked = sorted(
        range(len(centers)),
        key=lambda i: ((centers[i].x - cx) ** 2 + (centers[i].y - cy) ** 2, i),
    )
    return [centers[i] for i in ranked[: min(n, len(centers))]]


def walk_throughput(msm: MultiStepMechanism, n: int = N_WALK_POINTS) -> dict:
    """Kernel walk throughput on one seeded batch of ``n`` uniform city
    points (best of :data:`WALK_REPEATS`, traceless).

    Every repeat must report the reference walk's points bit for bit.
    """
    b = msm.index.bounds
    xy = rng("graph-walk").uniform(
        (b.min_x, b.min_y), (b.max_x, b.max_y), size=(n, 2)
    )
    points = [Point(float(x), float(y)) for x, y in xy]
    assert msm.engine.compile(build=False) is not None, "warm graph tree must compile"
    expected = [
        w.point
        for w in oracle_walk(
            msm.engine, points, rng("graph-walk-sanitize"), trace=False
        )
    ]
    times = []
    for _ in range(WALK_REPEATS):
        start = time.perf_counter()
        walks = msm.sanitize_batch(
            points, rng("graph-walk-sanitize"), trace=False
        )
        times.append(time.perf_counter() - start)
        assert [w.point for w in walks] == expected, "kernel diverged from oracle"
    return {
        "n_points": n,
        "repeats": WALK_REPEATS,
        "kernel_points_per_second": round(n / min(times), 1),
    }


def run(n_requests: int = N_REQUESTS) -> dict:
    msm, partition, metric = build_graph_msm()
    city = metric.graph

    n_guarded = guard_every_node(msm, metric)
    walk = walk_throughput(msm)

    matrix = msm.to_matrix()
    stop_prior = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    panel = privacy_metrics(matrix, stop_prior, metric)
    attack = optimal_inference_attack(matrix, stop_prior, metric)
    eps_hat = empirical_epsilon_sampled(
        msm,
        eval_inputs(partition, N_EVAL_INPUTS),
        VertexBins(city),
        N_EVAL_SAMPLES,
        rng("graph-empirical-epsilon"),
        dx=metric,
    )

    # LBS workload: POIs on road vertices, users at road vertices, all
    # ranking and travel under shortest-path distance.
    poi_rng = rng("graph-pois")
    poi_vertices = poi_rng.choice(city.n_vertices, size=N_POIS, replace=True)
    store = POIStore.from_coordinates(city.coords[poi_vertices])
    service = LocationBasedService(store, metric=metric)
    workload_rng = rng("graph-workload")
    user_vertices = workload_rng.integers(city.n_vertices, size=n_requests)
    requests = [city.vertex_point(int(v)) for v in user_vertices]
    report = service.evaluate_mechanism(
        msm, requests, rng("graph-sanitize"), k=KNN_K
    )

    return {
        "city": {
            "n_vertices": city.n_vertices,
            "n_edges": city.n_edges,
            "blocks": BLOCKS,
            "block_km": BLOCK_KM,
        },
        "partition": {
            "fanout": FANOUT,
            "height": HEIGHT,
            "n_leaves": len(partition.leaves()),
        },
        "epsilon": EPSILON,
        "budgets": [EPSILON / HEIGHT] * HEIGHT,
        "n_node_mechanisms_guarded": n_guarded,
        "privacy": {
            "epsilon_tight": round(panel.epsilon_tight, 6),
            "empirical_epsilon": round(eps_hat, 6),
            "adversarial_error_km": round(attack.expected_error, 6),
            "prior_adversarial_error_km": round(attack.prior_error, 6),
            "identification_rate": round(attack.identification_rate, 6),
            "prior_identification_rate": round(
                attack.prior_identification_rate, 6
            ),
            "conditional_entropy_bits": round(
                panel.conditional_entropy_bits, 6
            ),
            "prior_entropy_bits": round(panel.prior_entropy_bits, 6),
        },
        "lbs": {
            "n_requests": report.n_queries,
            "k": report.k,
            "n_pois": N_POIS,
            "mean_extra_travel_km": round(report.mean_extra_distance, 6),
            "median_extra_travel_km": round(report.median_extra_distance, 6),
            "mean_recall_at_k": round(report.mean_recall_at_k, 6),
        },
        "walk": walk,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_graph_bench_smoke():
    """Seconds-scale end-to-end run: guard passes on every node, the
    privacy estimators are ordered sanely and the LBS answers carry
    signal."""
    results = run(n_requests=200)
    assert results["n_node_mechanisms_guarded"] >= 1 + FANOUT
    privacy = results["privacy"]
    assert privacy["empirical_epsilon"] <= privacy["epsilon_tight"] * 1.25
    assert 0.0 < privacy["adversarial_error_km"]
    assert privacy["adversarial_error_km"] <= privacy[
        "prior_adversarial_error_km"
    ] * 1.05
    lbs = results["lbs"]
    assert 0.0 <= lbs["mean_recall_at_k"] <= 1.0
    assert lbs["mean_extra_travel_km"] >= 0.0
    assert results["walk"]["kernel_points_per_second"] > 0.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=N_REQUESTS)
    args = parser.parse_args()
    results = run(n_requests=args.requests)
    print(json.dumps(results, indent=2))
    if args.requests == N_REQUESTS:
        path = write_bench_artifact("graph", results, RESULT_PATH)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    else:
        print("smoke run - result file not written")
