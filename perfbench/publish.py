"""The publish workloads: a publisher sanitises batches of 10,000 reports.

``publish-planar`` runs the paper's MSM over a GIHI on the Gowalla-Austin
check-ins, which the compiled kernel walks.  ``publish-graph`` runs MSM
over a road-network partition with shortest-path distance, which only
the staged walk serves.  Neither touches the serving layers.

Set-up is built through the same public calls a publisher makes (prior,
mechanism, precompute, compile).  Inside the measured window only the
``sanitize_batch`` call is timed; building ``Point`` inputs, checking
outputs and scoring loss happen outside the timer.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import inputs
from perfbench.measure import Run, Sizes, median, peak_rss_mb, span_total, tail
from repro.core.msm import MultiStepMechanism
from repro.datasets import load_gowalla_austin
from repro.graph import GraphMetric, GraphPartitionIndex
from repro.grid import RegularGrid
from repro.obs import NOOP, Observability
from repro.priors import empirical_prior

#: The mechanism of every planar workload: total epsilon, GIHI
#: granularity and the prior grid (the allocator picks h = 3, 91 node LPs).
EPSILON = 2.0
GRANULARITY = 3
PRIOR_CELLS = 27

#: The road-network mechanism: partition shape, epsilon split evenly.
GRAPH_FANOUT = 4
GRAPH_HEIGHT = 3

#: Uniform locations the graph publisher's prior is estimated from.
GRAPH_PRIOR_POINTS = 50_000

#: A publisher's deadline per report of a batch: a batch is on time when
#: ``sanitize_batch`` returns within ``batch * limit``.  Each is about
#: twice the per-report cost measured when the benchmark was defined,
#: so ``ontime_share`` gates stalls rather than small drifts.
PLANAR_LIMIT_S_PER_REPORT = 10e-6
GRAPH_LIMIT_S_PER_REPORT = 30e-6


def build_planar(points, bounds, tracer, obs=None):
    """The planar publisher's set-up calls; returns ``(msm, compiled,
    node_builds)``."""
    with tracer.span("priors.empirical_prior"):
        prior = empirical_prior(RegularGrid(bounds, PRIOR_CELLS), points)
    msm = MultiStepMechanism.build(
        epsilon=EPSILON, granularity=GRANULARITY, prior=prior, obs=obs
    )
    with tracer.span("msm.precompute"):
        nodes = msm.precompute()
    with tracer.span("kernel.compile"):
        compiled = msm.engine.compile()
    return msm, compiled, nodes


def build_graph(road, prior_points, tracer, obs=None):
    """The road-network publisher's set-up calls; returns ``(msm,
    compiled, node_builds)``.  ``compiled`` is None while the graph
    index cannot be compiled."""
    with tracer.span("priors.empirical_prior"):
        prior = empirical_prior(
            RegularGrid(road.bounds, PRIOR_CELLS), prior_points
        )
    index = GraphPartitionIndex(road, fanout=GRAPH_FANOUT, height=GRAPH_HEIGHT)
    metric = GraphMetric(road)
    msm = MultiStepMechanism(
        index,
        (EPSILON / GRAPH_HEIGHT,) * GRAPH_HEIGHT,
        prior,
        dq=metric,
        dx=metric,
        obs=obs,
    )
    with tracer.span("msm.precompute"):
        nodes = msm.precompute()
    with tracer.span("kernel.compile"):
        compiled = msm.engine.compile()
    return msm, compiled, nodes


def repeat_setup(sizes: Sizes, build):
    """Run ``build()`` at least ``sizes.setup_reps`` times and for at
    least ``sizes.setup_seconds``; return the last result and the median
    seconds of one set-up."""
    seconds: list[float] = []
    out = None
    while len(seconds) < sizes.setup_reps or sum(seconds) < sizes.setup_seconds:
        out = None  # drop the previous mechanism before timing the next
        start = time.perf_counter()
        out = build()
        seconds.append(time.perf_counter() - start)
    return out, median(seconds)


def leaf_centres(msm: MultiStepMechanism) -> set[tuple[float, float]]:
    """Every location the mechanism may report."""
    return {(leaf.center.x, leaf.center.y) for leaf in msm.index.leaves()}


def price_child_prior(msm: MultiStepMechanism, tracer) -> None:
    """Time ``WalkEngine.child_prior`` once per internal node."""
    index = msm.index
    stack = [(index.root, 1)]
    while stack:
        node, level = stack.pop()
        children = index.children(node)
        if level > msm.height or not children:
            continue
        with tracer.span("engine.child_prior"):
            msm.engine.child_prior(children)
        stack.extend((child, level + 1) for child in children)


class _Planar:
    """``publish-planar``: Gowalla-Austin check-ins on the kernel walk."""

    limit_per_report = PLANAR_LIMIT_S_PER_REPORT

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.requests = inputs.stream(seed, "requests")
        self.walk_rng = inputs.stream(seed, "walk")
        self.dataset = load_gowalla_austin(checkin_fraction=sizes.fraction)

    def prior_points(self) -> list:
        return self.dataset.points()

    def build(self, prior_points, tracer, obs=None):
        return build_planar(prior_points, self.dataset.bounds, tracer, obs)

    def draw(self) -> np.ndarray:
        idx = self.requests.integers(
            0, self.dataset.n_checkins, size=self.sizes.batch
        )
        return self.dataset.xy[idx]

    def loss(self, xy_in, xy_out):
        return np.hypot(*(xy_out - xy_in).T)


class _Graph:
    """``publish-graph``: uniform locations on the road network."""

    limit_per_report = GRAPH_LIMIT_S_PER_REPORT

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.requests = inputs.stream(seed, "requests")
        self.walk_rng = inputs.stream(seed, "walk")
        self.seed = seed
        self.road = inputs.city()
        vertices = self.road.vertex_points()
        # scored with its own metric so the mechanism's row cache is
        # never warmed by the benchmark
        self.distance = GraphMetric(self.road).pairwise(vertices, vertices)

    def prior_points(self) -> list:
        return inputs.to_points(
            inputs.uniform_points(
                self.road.bounds,
                GRAPH_PRIOR_POINTS,
                inputs.stream(self.seed, "prior"),
            )
        )

    def build(self, prior_points, tracer, obs=None):
        return build_graph(self.road, prior_points, tracer, obs)

    def draw(self) -> np.ndarray:
        return inputs.uniform_points(
            self.road.bounds, self.sizes.batch, self.requests
        )

    def loss(self, xy_in, xy_out):
        near = self.road.nearest_vertices
        return self.distance[near(xy_in), near(xy_out)]


def _publisher(name: str, sizes: Sizes, seed: int):
    return (_Planar if name == "publish-planar" else _Graph)(sizes, seed)


def _batches(run: Run, pub, msm, seconds: float, tracer=NOOP.tracer,
             after=None) -> tuple[list[float], float]:
    """Sanitise batches for ``seconds``, checking and scoring each.

    Only the ``sanitize_batch`` call is timed.  Each batch's results are
    dropped before the next is drawn, so no per-report object outlives
    its batch.  ``after(xy, points)`` runs after each batch.  Returns the
    seconds of every call and the summed loss.
    """
    leaves = leaf_centres(msm)
    times: list[float] = []
    loss = 0.0
    wrong = unclean = 0
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        xy = pub.draw()
        pts = inputs.to_points(xy)
        with tracer.span("msm.sanitize_batch"):
            start = time.perf_counter()
            results = msm.sanitize_batch(pts, pub.walk_rng, trace=False)
            times.append(time.perf_counter() - start)
        out = np.array([(r.point.x, r.point.y) for r in results], dtype=float)
        unclean += sum(1 for r in results if not r.degradation.clean)
        del results
        run.attempted += len(pts)
        if out.shape != xy.shape:
            wrong += len(pts)
            continue
        wrong += sum(1 for p in map(tuple, out.tolist()) if p not in leaves)
        loss += float(pub.loss(xy, out).sum())
        if after is not None:
            after(xy, pts)
    run.check("one leaf-centre report per request", wrong == 0,
              f"{wrong} requests without one")
    run.check("every walk is clean", unclean == 0,
              f"{unclean} walks carried a substitution")
    return times, loss


def _check_degradation(run: Run, msm) -> None:
    summary = msm.degradation_summary()
    run.check("degradation summary is clean", summary.clean,
              f"{len(summary.substitutions)} substituted nodes")


def run_publish(name: str, seed: int, seconds: float, sizes: Sizes) -> Run:
    """The untraced run: end-to-end metrics."""
    pub = _publisher(name, sizes, seed)
    prior_points = pub.prior_points()
    (msm, _, _), setup_s = repeat_setup(
        sizes, lambda: pub.build(prior_points, NOOP.tracer)
    )
    # while the program runs, one batch's inputs are the only request
    # objects alive, so its garbage collector scans what it made itself
    del prior_points
    run = Run()
    times, loss = _batches(run, pub, msm, seconds)
    _check_degradation(run, msm)
    limit = sizes.batch * pub.limit_per_report
    run.metric("setup_s", setup_s)
    run.metric("reports_per_s", run.attempted / sum(times))
    run.metric("mean_loss_km", loss / run.attempted)
    run.metric("peak_rss_mb", peak_rss_mb())
    run.metric("p50_ms", median(times) * 1e3)
    run.metric("ontime_share", float(np.mean(np.asarray(times) <= limit)))
    run.metric("answered_share", 1.0 - run.failed / run.attempted)
    p99, beyond = tail(np.asarray(times) * 1e3, 99)
    run.figures["batch_p99_ms"] = (
        f"{p99:.3f} ms ({beyond} of {len(times)} batches beyond)"
    )
    run.figures["batch_limit_ms"] = f"{limit * 1e3:.1f} ms"
    return run


def trace_publish(name: str, seed: int, seconds: float, sizes: Sizes):
    """The traced run: per-layer metrics and the tracing overhead.

    The first half of the window runs the untraced loop.  The second
    half turns the program's metrics and spans on, traces
    ``sanitize_batch``, and prices the kernel walk (or graph locate) and
    the staged walk on each batch.  The overhead compares the halves,
    so it counts everything the traced run does differently.  Returns
    ``(run, obs)``; ``obs`` holds the recorded spans.
    """
    pub = _publisher(name, sizes, seed)
    obs = Observability.collecting(trace=True)
    tracer = obs.tracer
    prior_points = pub.prior_points()
    with tracer.span("setup"):
        msm, compiled, nodes = pub.build(prior_points, tracer, obs=obs)
    del prior_points
    lp = obs.snapshot()
    price_child_prior(msm, tracer)
    engine = msm.engine

    def price_layers(xy, pts):
        if compiled is not None:
            with tracer.span("kernel.walk_arrays"):
                compiled.walk_arrays(xy, pub.walk_rng)
        else:
            with tracer.span("graph.nearest_vertices"):
                pub.road.nearest_vertices(xy)
        with tracer.span("engine.walk"):
            engine.walk(pts, pub.walk_rng, trace=False)

    run = Run()
    engine.bind_observability(NOOP)
    plain, _ = _batches(run, pub, msm, seconds / 2.0)
    engine.bind_observability(obs)
    traced, _ = _batches(run, pub, msm, seconds / 2.0, tracer, price_layers)
    _check_degradation(run, msm)

    def total(span_name):
        return span_total(tracer, span_name)

    def per_report_ns(span_name):
        spans = tracer.find(span_name)
        if not spans:
            return 0.0
        return median([s.duration for s in spans]) / sizes.batch * 1e9

    run.metric("priors.empirical_prior_s", total("priors.empirical_prior"))
    run.metric("msm.precompute_s", total("msm.precompute"))
    run.metric("msm.node_builds", nodes)
    run.metric("lp.solves", lp.counter_total("repro_lp_solves_total"))
    run.metric("lp.solve_s", lp.counter_total("repro_lp_solve_seconds_total"))
    run.metric("engine.child_prior_s", total("engine.child_prior"))
    run.metric("kernel.compile_s", total("kernel.compile"))
    for layer in ("kernel.walk_arrays", "engine.walk", "msm.sanitize_batch",
                  "graph.nearest_vertices"):
        run.metric(f"{layer}_ns", per_report_ns(layer))
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    run.metric("trace.reports_per_s_overhead_pct",
               100.0 * (1.0 - traced_rate / plain_rate))
    run.metric("trace.p50_ms_overhead_pct",
               100.0 * (median(traced) / median(plain) - 1.0))
    run.figures["batches"] = f"{len(plain)} untraced, {len(traced)} traced"
    run.figures["walk"] = "compiled" if compiled is not None else "staged"
    return run, obs
