"""Regression suite for the observability layer (:mod:`repro.obs`).

Locks in the contracts the instrumentation relies on:

* registry semantics — counter monotonicity, deterministic histogram
  buckets, and the snapshot algebra (associative + commutative merge)
  the serving pool's per-worker merges depend on;
* span-tree shape — the exact stage nesting of a known g=2/h=2 walk;
* the no-overhead contract — enabling observability must not perturb
  the walk's outputs (byte-identity under a shared seed);
* exporter golden files — both text formats round-trip exactly;
* telemetry vs truth — the metrics the layer emits must equal the
  engine's own accounting (cache builds and merges, degraded steps, LP
  seconds).

The achieved-Pr[x|x] check over >= 20k samples lives at the bottom under
the ``statistical`` marker.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import NodeMechanismCache
from repro.core.msm import MultiStepMechanism
from repro.core.resilience import ResilienceConfig, ResilientSolver
from repro.exceptions import DegradedModeWarning, ObservabilityError
from repro.geo.point import Point
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.obs import (
    LATENCY_EDGES,
    MetricsRegistry,
    MetricsSnapshot,
    NOOP,
    Observability,
    RecordingTracer,
)
from repro.obs.export import (
    parse_jsonl,
    parse_prometheus,
    to_jsonl,
    to_prometheus,
)
from repro.priors.base import GridPrior
from repro.testing.faults import (
    FaultInjectingSolver,
    FlakyCacheProxy,
    RaiseFault,
)

DATA_DIR = Path(__file__).parent / "data"

SEED = 20190326


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def small_msm(
    square20,
    g: int = 2,
    h: int = 2,
    obs: Observability | None = None,
    **kwargs,
) -> MultiStepMechanism:
    """A tiny MSM instance on the standard square, optionally observed."""
    prior = GridPrior.uniform(RegularGrid(square20, g**h))
    index = HierarchicalGrid(square20, g, h)
    budgets = tuple(0.4 + 0.1 * i for i in range(h))
    return MultiStepMechanism(index, budgets, prior, obs=obs, **kwargs)


def batch(n: int, seed: int = SEED) -> list[Point]:
    coords = np.random.default_rng(seed).uniform(0.0, 20.0, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistrySemantics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            c.inc(-1.0)
        assert c.value == 3.5  # the failed inc must not have landed

    def test_get_or_create_is_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total", level=1) is reg.counter(
            "x_total", level=1
        )
        # label order is canonicalised, values are stringified
        assert reg.counter("y_total", a=1, b=2) is reg.counter(
            "y_total", b="2", a="1"
        )
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ObservabilityError, match="is a Counter"):
            reg.gauge("thing")
        reg.histogram("lat_seconds")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.histogram("lat_seconds", edges=(1.0, 2.0))

    def test_gauge_is_a_level(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("budget_remaining")
        gauge.set(5.0)
        gauge.set(2.5)  # gauges go down; that is the point
        assert reg.snapshot().gauge_value("budget_remaining") == 2.5

    def test_histogram_buckets_deterministic(self):
        """Fixed edges, exact bucket placement — same data, same buckets."""
        def fill():
            reg = MetricsRegistry()
            hist = reg.histogram("lat", edges=(0.01, 0.1, 1.0))
            for v in (0.005, 0.01, 0.02, 0.5, 1.0, 2.0, 3.0):
                hist.observe(v)
            return reg.snapshot().histogram_value("lat")

        a, b = fill(), fill()
        assert a == b
        # upper bounds are inclusive (bisect_left): 0.01 -> bucket 0,
        # 1.0 -> bucket 2, everything above the last edge -> +Inf.
        assert a.counts == (2, 1, 2, 2)
        assert a.count == 7
        assert a.sum == pytest.approx(6.535)

    def test_histogram_rejects_bad_edges(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            reg.histogram("h", edges=(1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            reg.histogram("h2", edges=())


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
def _dyadic(rng: np.random.Generator) -> float:
    """A random dyadic rational: float sums of these are exact, so the
    associativity law can be asserted with ``==`` rather than approx."""
    return float(rng.integers(0, 1 << 20)) / 1024.0


def _snapshot(seed: int) -> MetricsSnapshot:
    """A small pseudo-random but deterministic registry state."""
    rng = np.random.default_rng(seed)
    reg = MetricsRegistry()
    for level in (1, 2, 3):
        reg.counter("lp_seconds_total", level=level).inc(_dyadic(rng))
    reg.counter("hits_total").inc(int(rng.integers(0, 50)))
    reg.gauge("epsilon_remaining").set(_dyadic(rng))
    hist = reg.histogram("latency", edges=LATENCY_EDGES)
    for _ in range(8):
        hist.observe(_dyadic(rng) / 1024.0)
    return reg.snapshot()


class TestSnapshotAlgebra:
    def test_merge_commutative(self):
        a, b = _snapshot(1), _snapshot(2)
        assert a.merge(b) == b.merge(a)

    def test_merge_associative(self):
        a, b, c = _snapshot(1), _snapshot(2), _snapshot(3)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_identity(self):
        a = _snapshot(4)
        empty = MetricsSnapshot()
        merged = a.merge(empty)
        assert merged.counters == a.counters
        assert merged.histograms == a.histograms
        assert merged.gauges == a.gauges

    def test_merge_semantics(self):
        a, b = _snapshot(1), _snapshot(2)
        m = a.merge(b)
        assert m.counter_value("hits_total") == (
            a.counter_value("hits_total") + b.counter_value("hits_total")
        )
        assert m.gauge_value("epsilon_remaining") == max(
            a.gauge_value("epsilon_remaining"),
            b.gauge_value("epsilon_remaining"),
        )
        ha, hb, hm = (
            s.histogram_value("latency") for s in (a, b, m)
        )
        assert hm.counts == tuple(
            x + y for x, y in zip(ha.counts, hb.counts)
        )
        assert hm.count == ha.count + hb.count

    def test_registry_merge_matches_snapshot_merge(self):
        """Folding into a live registry == the pure snapshot merge."""
        a, b = _snapshot(5), _snapshot(6)
        reg = MetricsRegistry()
        reg.merge(a)
        reg.merge(b)
        assert reg.snapshot() == a.merge(b)

    def test_shard_partition_order_irrelevant(self):
        """Any merge order over any shard partition: same result."""
        shards = [_snapshot(s) for s in range(8)]
        left = MetricsSnapshot()
        for s in shards:
            left = left.merge(s)
        right = MetricsSnapshot()
        for s in reversed(shards):
            right = right.merge(s)
        # pairwise tree merge, like a reduction over workers
        tree = shards
        while len(tree) > 1:
            tree = [
                tree[i].merge(tree[i + 1]) if i + 1 < len(tree) else tree[i]
                for i in range(0, len(tree), 2)
            ]
        assert left == right == tree[0]

    def test_since_is_a_delta(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(3)
        reg.histogram("h", edges=(1.0, 2.0)).observe(0.5)
        before = reg.snapshot()
        reg.counter("a_total").inc(2)
        reg.counter("b_total").inc(1)
        reg.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        delta = reg.snapshot().since(before)
        assert delta.counter_value("a_total") == 2.0
        assert delta.counter_value("b_total") == 1.0
        assert delta.histogram_value("h").counts == (0, 1, 0)
        assert delta.histogram_value("h").count == 1
        # unchanged series are dropped from the delta
        reg2 = MetricsRegistry()
        reg2.merge(before)
        assert reg2.snapshot().since(before).counters == ()


# ----------------------------------------------------------------------
# span-tree shape for a known walk
# ----------------------------------------------------------------------
class TestSpanTree:
    @pytest.fixture()
    def traced_walk(self, square20):
        obs = Observability.collecting(trace=True)
        msm = small_msm(square20, g=2, h=2, obs=obs)
        points = batch(40)
        walks = msm.sanitize_batch(points, np.random.default_rng(SEED))
        return obs, msm, walks

    def test_walk_root_and_stage_nesting(self, traced_walk):
        obs, msm, walks = traced_walk
        roots = obs.spans
        assert [r.name for r in roots] == ["walk"]
        walk = roots[0]
        assert walk.attributes == {"n": 40, "path": "kernel"}
        # one level span per index level, then the finalise stage
        assert walk.child_names() == ["level", "level", "finalise"]
        for depth, level in enumerate(walk.find("level"), start=1):
            assert level.attributes["level"] == depth
            assert level.attributes["epsilon"] == msm.budgets[depth - 1]
            # a cold level resolves its nodes first, then one pass each
            assert level.child_names() == [
                "resolve", "locate", "sample", "descend"
            ]
        finalise = walk.find("finalise")[0]
        assert finalise.attributes == {"n": 40, "post": "none"}
        # a warm level resolves nothing, so it opens no resolve span
        msm.sanitize_batch(batch(40), np.random.default_rng(SEED))
        for level in obs.spans[1].find("level"):
            assert level.child_names() == ["locate", "sample", "descend"]

    def test_one_resolve_node_per_distinct_node(self, traced_walk):
        obs, msm, walks = traced_walk
        levels = obs.spans[0].find("level")
        for depth, level in enumerate(levels, start=1):
            distinct = {
                step.node_path
                for w in walks
                for step in w.trace
                if step.level == depth
            }
            node_spans = level.find("resolve.node")
            assert len(node_spans) == len(distinct)
            assert {
                tuple(
                    int(p) for p in str(s.attributes["path"]).split("/")
                    if p != ""
                )
                for s in node_spans
            } == distinct
            resolve = level.find("resolve")[0]
            assert resolve.attributes["nodes"] == len(distinct)

    def test_cache_spans_under_resolve_node(self, traced_walk):
        obs, _, _ = traced_walk
        for node_span in obs.spans[0].find("resolve.node"):
            names = node_span.child_names()
            assert names[0] == "cache.get"
            if node_span.attributes["cache_hit"]:
                assert "cache.build" not in names
            else:
                assert names == ["cache.get", "cache.build"]
                build = node_span.find("cache.build")[0]
                # the resilient chain ran under the build
                lp = build.find("lp.solve")
                assert len(lp) == 1
                assert lp[0].attributes["winner"] is not None
                assert lp[0].find("lp.backend")

    def test_locate_spans_record_drift(self, traced_walk):
        obs, _, walks = traced_walk
        drifted_truth = sum(
            1
            for w in walks
            for s in w.trace
            if s.level == 2 and s.x_hat_random
        )
        level2 = obs.spans[0].find("level")[1]
        recorded = sum(
            s.attributes["drifted"] for s in level2.find("locate")
        )
        assert recorded == drifted_truth

    def test_out_of_order_close_raises(self):
        tracer = RecordingTracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError, match="out of order"):
            outer.__exit__(None, None, None)


# ----------------------------------------------------------------------
# the no-overhead contract: observing a walk must not change it
# ----------------------------------------------------------------------
class TestNoopIdentity:
    def test_observed_walk_is_byte_identical(self, square20):
        plain = small_msm(square20, g=2, h=2)
        observed = small_msm(
            square20, g=2, h=2, obs=Observability.collecting(trace=True)
        )
        points = batch(100)
        a = plain.sanitize_batch(points, np.random.default_rng(SEED))
        b = observed.sanitize_batch(points, np.random.default_rng(SEED))
        assert [w.point for w in a] == [w.point for w in b]
        assert [w.trace for w in a] == [w.trace for w in b]

    def test_observed_kernel_walk_is_byte_identical(self, square20):
        """Instrumentation changes nothing on the compiled path either:
        same points, same traces, with or without a collecting handle."""
        plain = small_msm(square20, g=2, h=2)
        observed = small_msm(
            square20, g=2, h=2, obs=Observability.collecting(trace=True)
        )
        for msm in (plain, observed):
            msm.precompute()
            assert msm.engine.compile(build=False) is not None
        points = batch(100)
        a = plain.sanitize_batch(points, np.random.default_rng(SEED))
        b = observed.sanitize_batch(points, np.random.default_rng(SEED))
        assert [w.point for w in a] == [w.point for w in b]
        assert [w.trace for w in a] == [w.trace for w in b]
        # the observed run went down the kernel path, visibly so
        walk_spans = [
            s for s in observed.observability.spans if s.name == "walk"
        ]
        assert walk_spans
        assert all(s.attributes["path"] == "kernel" for s in walk_spans)

    def test_noop_handle_records_nothing(self, square20):
        msm = small_msm(square20, g=2, h=2)  # default NOOP handle
        msm.sanitize_batch(batch(20), np.random.default_rng(SEED))
        assert msm.observability is NOOP
        assert not msm.observability.enabled
        assert msm.observability.spans == []

    def test_run_report_without_obs_has_no_telemetry(self, square20):
        msm = small_msm(square20, g=2, h=2)
        report = msm.sanitize_batch_report(
            batch(20), np.random.default_rng(SEED)
        )
        assert len(report) == 20
        assert report.telemetry is None


# ----------------------------------------------------------------------
# exporters: golden files + round trips
# ----------------------------------------------------------------------
def golden_state() -> tuple[MetricsSnapshot, list]:
    """A deterministic registry + span tree (fake integer clock)."""
    reg = MetricsRegistry()
    reg.counter("repro_cache_hits_total").inc(7)
    reg.counter("repro_lp_solve_seconds_total", level=1).inc(0.125)
    reg.counter("repro_lp_solve_seconds_total", level=2).inc(0.0625)
    reg.counter(
        "repro_lp_backend_calls_total", method="highs-ds"
    ).inc(2)
    reg.gauge("repro_budget_level_epsilon", level=1).set(0.4)
    reg.gauge("repro_session_epsilon_remaining").set(1.5)
    # pathological label values: the exposition format must escape
    # backslashes, quotes and newlines, and the parser must undo it
    reg.counter(
        "repro_pathological_labels_total",
        path='C:\\data\\run "alpha"',
        note='first,\nsecond=}',
    ).inc(1)
    hist = reg.histogram("repro_sanitize_seconds", edges=LATENCY_EDGES)
    for v in (0.0005, 0.02, 0.02, 0.75, 45.0):
        hist.observe(v)

    clock = count()
    tracer = RecordingTracer(clock=lambda: float(next(clock)))
    with tracer.span("walk", n=3):
        with tracer.span("level", level=1, epsilon=0.4):
            with tracer.span("resolve", nodes=1):
                with tracer.span(
                    "resolve.node", path="", cache_hit=True, degraded=False
                ):
                    with tracer.span("cache.get"):
                        pass
            with tracer.span("locate", n=3) as sp:
                sp.attributes["drifted"] = 0
            with tracer.span("sample", n=3):
                pass
            with tracer.span("descend", n=3):
                pass
        with tracer.span("finalise", n=3, post="none"):
            pass
    return reg.snapshot(), tracer.roots


class TestExporters:
    def test_prometheus_golden_file(self):
        snapshot, _ = golden_state()
        golden = (DATA_DIR / "obs_golden.prom").read_text()
        assert to_prometheus(snapshot) == golden

    def test_prometheus_round_trip(self):
        snapshot, _ = golden_state()
        assert parse_prometheus(to_prometheus(snapshot)) == snapshot

    def test_jsonl_golden_file(self):
        snapshot, spans = golden_state()
        golden = (DATA_DIR / "obs_golden.jsonl").read_text()
        assert to_jsonl(snapshot, spans) == golden

    def test_jsonl_round_trip(self):
        snapshot, spans = golden_state()
        parsed_snapshot, parsed_spans = parse_jsonl(
            to_jsonl(snapshot, spans)
        )
        assert parsed_snapshot == snapshot
        assert parsed_spans == spans

    def test_formats_agree_on_the_same_snapshot(self):
        """Both exporters are lossless views of one snapshot."""
        snapshot, spans = golden_state()
        via_prom = parse_prometheus(to_prometheus(snapshot))
        via_jsonl, _ = parse_jsonl(to_jsonl(snapshot, spans))
        assert via_prom == via_jsonl


# ----------------------------------------------------------------------
# telemetry vs truth — the metrics must equal the engine's own accounts
# ----------------------------------------------------------------------
class TestTelemetryVersusTruth:
    def test_cache_builds_metric_equals_cache_builds(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=2, h=2, obs=obs)
        msm.sanitize_batch(batch(60), np.random.default_rng(SEED))
        snap = obs.snapshot()
        assert msm.cache.builds > 0
        assert snap.counter_value("repro_cache_builds_total") == (
            msm.cache.builds
        )
        assert snap.counter_value("repro_cache_misses_total") == (
            msm.cache.misses
        )
        assert snap.counter_value("repro_cache_hits_total") == (
            msm.cache.hits
        )

    def test_lp_seconds_metric_equals_engine_account(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=3, h=2, obs=obs)
        msm.sanitize_batch(batch(120), np.random.default_rng(SEED))
        snap = obs.snapshot()
        assert msm.lp_seconds > 0
        assert snap.counter_total(
            "repro_lp_solve_seconds_total"
        ) == pytest.approx(msm.lp_seconds, abs=1e-9)
        assert snap.counter_total("repro_lp_solves_total") == (
            msm.cache.builds
        )

    def test_cache_merge_metric_equals_cache_merges(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=3, h=2, obs=obs)
        donor = small_msm(square20, g=3, h=2)
        donor.precompute()
        msm.cache.merge(donor.cache.snapshot())
        msm.cache.merge(donor.cache.snapshot())
        snap = obs.snapshot()
        assert msm.cache.merges == 2
        assert snap.counter_value("repro_cache_merges_total") == (
            msm.cache.merges
        )
        assert snap.counter_value("repro_cache_adopted_total") == len(
            donor.cache
        )

    def test_degraded_step_metric_equals_trace_truth(self, square20):
        """Under injected faults, the degradation counters must equal a
        recount of the per-point :class:`StepTrace` provenance."""
        prior = GridPrior.uniform(RegularGrid(square20, 9))
        index = HierarchicalGrid(square20, 3, 2)
        healthy = MultiStepMechanism(index, (0.5, 0.7), prior)
        healthy.precompute()
        proxy = FlakyCacheProxy(healthy.cache, drop_paths=[(4,)])
        dead_solver = ResilientSolver(
            ResilienceConfig.starting_with("highs-ds"),
            solve_fn=FaultInjectingSolver([RaiseFault(message="outage")]),
        )
        obs = Observability.collecting()
        msm = MultiStepMechanism(
            index, (0.5, 0.7), prior,
            solver=dead_solver, cache=proxy, obs=obs,
        )
        rng = np.random.default_rng(SEED)
        points = batch(400)
        with pytest.warns(DegradedModeWarning):
            walks = msm.sanitize_batch(points, rng)
        snap = obs.snapshot()
        degraded_steps = sum(
            1 for w in walks for s in w.trace if s.degraded
        )
        degraded_walks = sum(1 for w in walks if not w.degradation.clean)
        assert degraded_steps > 0
        assert snap.counter_total(
            "repro_walk_degraded_steps_total"
        ) == degraded_steps
        assert snap.counter_value(
            "repro_walk_degraded_steps_total", level=2
        ) == degraded_steps  # only the level-2 node was dropped
        assert snap.counter_value(
            "repro_walk_degraded_walks_total"
        ) == degraded_walks
        assert snap.counter_total("repro_solver_exhausted_total") > 0

    def test_walk_report_telemetry_matches_metrics_delta(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=2, h=2, obs=obs)
        # first batch warms the cache and accrues counters ...
        msm.sanitize_batch(batch(30, seed=1), np.random.default_rng(1))
        before = obs.snapshot()
        # ... the report of the second must cover only the second.
        report = msm.sanitize_batch_report(
            batch(50, seed=2), np.random.default_rng(2)
        )
        t = report.telemetry
        assert t is not None
        assert t.n_points == 50
        assert t.cache_builds == 0  # warm cache: nothing rebuilt
        # every node came from the kernel snapshot: no cache lookup
        assert t.cache_hits == t.cache_misses == 0
        assert t.lp_seconds == 0.0
        assert t.wall_seconds > 0
        assert t.points_per_second > 0
        delta = obs.snapshot().since(before)
        assert t.snapshot == delta
        assert delta.counter_value("repro_walk_points_total") == 50
        assert delta.counter_value("repro_walk_batches_total") == 1

    def test_steps_metric_counts_every_trace_step(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=2, h=2, obs=obs)
        walks = msm.sanitize_batch(batch(80), np.random.default_rng(SEED))
        snap = obs.snapshot()
        for level in (1, 2):
            truth = sum(
                1 for w in walks for s in w.trace if s.level == level
            )
            assert snap.counter_value(
                "repro_walk_steps_total", level=level
            ) == truth
            drift_truth = sum(
                1
                for w in walks
                for s in w.trace
                if s.level == level and s.x_hat_random
            )
            assert snap.counter_value(
                "repro_walk_drifted_total", level=level
            ) == drift_truth


# ----------------------------------------------------------------------
# budget gauges and session accounting
# ----------------------------------------------------------------------
class TestSessionAndBudgetMetrics:
    def test_budget_gauges_reflect_allocation(self, square20):
        obs = Observability.collecting()
        msm = small_msm(square20, g=2, h=2, obs=obs)
        snap = obs.snapshot()
        for level, eps in enumerate(msm.budgets, start=1):
            assert snap.gauge_value(
                "repro_budget_level_epsilon", level=level
            ) == eps

    def test_session_accounting(self, fine_prior):
        from repro.core.session import SanitizationSession

        session = SanitizationSession(
            lifetime_epsilon=2.0, per_report_epsilon=0.6,
            prior=fine_prior, granularity=3, metrics=True,
        )
        obs = session.observability
        assert obs.enabled
        assert obs.snapshot().gauge_value("repro_budget_rho_target") > 0
        rng = np.random.default_rng(SEED)
        session.report(Point(5.0, 5.0), rng)
        session.report(Point(6.0, 6.0), rng)
        snap = obs.snapshot()
        assert snap.counter_value("repro_session_reports_total") == 2
        assert snap.counter_value(
            "repro_session_epsilon_spent_total"
        ) == pytest.approx(1.2)
        assert snap.gauge_value(
            "repro_session_epsilon_remaining"
        ) == pytest.approx(session.remaining)
        from repro.exceptions import BudgetError

        session.report(Point(7.0, 7.0), rng)  # spends the rest
        with pytest.raises(BudgetError):
            session.report(Point(8.0, 8.0), rng)
        snap = obs.snapshot()
        assert snap.counter_value("repro_session_refusals_total") == 1
        assert snap.counter_value("repro_session_reports_total") == 3


# ----------------------------------------------------------------------
# achieved same-cell probability, read from the emitted metrics
# ----------------------------------------------------------------------
@pytest.mark.statistical
class TestAchievedRhoFromMetrics:
    def test_on_track_rate_meets_rho_at_every_level(self, square20):
        """Walk >= 20k fixed-seed samples and read the achieved
        Pr[x_hat = true cell | not drifted] off the registry; with every
        level funded at its Problem-1 requirement the rate must meet the
        configured rho at every level (small slack for sampling noise:
        the binomial std at n = 20k, p = 0.8 is ~0.3%)."""
        from repro.core.budget.allocation import (
            allocate_budget_fixed_height,
            min_epsilon_for_rho,
        )

        rho, g, side = 0.8, 3, 20.0
        epsilon = sum(
            min_epsilon_for_rho(rho, side / g**i) for i in (1, 2)
        )
        obs = Observability.collecting()
        prior = GridPrior.uniform(RegularGrid(square20, g**2))
        plan = allocate_budget_fixed_height(
            epsilon, g, side, height=2, rho=rho
        )
        msm = MultiStepMechanism.from_plan(plan, prior, obs=obs)
        assert msm.height == 2
        # every level is funded at its Problem-1 requirement
        assert all(
            b >= r * (1 - 1e-9)
            for b, r in zip(plan.budgets, plan.requirements)
        )
        n = 20_000
        msm.sanitize_batch(batch(n), np.random.default_rng(SEED))
        snap = obs.snapshot()
        assert snap.gauge_value("repro_budget_rho_target") == rho
        slack = 0.01
        for level in ("1", "2"):
            steps = snap.counter_value(
                "repro_walk_steps_total", level=level
            )
            drifted = snap.counter_value(
                "repro_walk_drifted_total", level=level
            )
            on_track = snap.counter_value(
                "repro_walk_on_track_total", level=level
            )
            assert steps == n
            achieved = on_track / (steps - drifted)
            assert achieved >= rho - slack, (
                f"level {level}: achieved Pr[x|x] {achieved:.4f} "
                f"< rho {rho}"
            )


# ----------------------------------------------------------------------
# worker-pool metrics: the merge algebra over a real 3-worker run
# ----------------------------------------------------------------------
class TestPoolSnapshotMerge:
    def test_three_worker_snapshots_fold_order_free(
        self, square20, tmp_path
    ):
        """Run a real 3-worker pool, pull each worker's registry
        snapshot over the pipe, and verify the merge algebra on live
        data: any fold order gives identical totals, and the folded
        counters equal the pool's ground truth."""
        from repro.core.msm import MultiStepMechanism
        from repro.serve import MechanismArena, ServerConfig, ServingPool

        index = HierarchicalGrid(square20, 2, 2)
        prior = GridPrior.uniform(RegularGrid(square20, 4))
        msm = MultiStepMechanism(index, (0.6, 0.9), prior)
        msm.precompute()
        arena = MechanismArena.freeze(
            msm.engine.compile(build=True), tmp_path / "arena"
        )
        config = ServerConfig(
            lifetime_epsilon=1000.0,
            per_report_epsilon=1.5,
            coalesce_window=0.005,
        )
        obs = Observability.collecting(trace=False)
        n = 90
        pool = ServingPool(arena, config, workers=3, obs=obs, seed=SEED)
        with pool:
            handles = [
                pool.submit(f"user-{i % 18}", Point(3.0, 3.0))
                for i in range(n)
            ]
            for handle in handles:
                handle.future.result(timeout=60)
            snapshots = pool.worker_snapshots()

        assert len(snapshots) == 3
        assert all(s is not None for s in snapshots)
        # every worker served (Zipf-free round-robin users hit all 3)
        assert all(
            s.counter_total("repro_pool_worker_points_total") > 0
            for s in snapshots
        )

        a, b, c = snapshots
        left = a.merge(b).merge(c)
        right = c.merge(b).merge(a)
        nested = a.merge(b.merge(c))
        assert left == right == nested

        # the folded totals are the pool's ground truth
        assert left.counter_total("repro_pool_worker_points_total") == n
        assert (
            left.counter_total("repro_pool_worker_batches_total")
            == sum(s.batches for s in pool.shard_stats())
        )
        hist = left.histogram_value("repro_pool_worker_batch_points")
        assert hist is not None and hist.count == sum(
            s.batches for s in pool.shard_stats()
        )

        # folding into a live frontend registry matches the pure merge
        reg = MetricsRegistry()
        for snapshot in snapshots:
            reg.merge(snapshot)
        assert reg.snapshot() == left

    def test_pool_server_stats_merge_matches_metrics_algebra(
        self, square20, tmp_path
    ):
        """ServerStats.merge is the same algebra: associative,
        commutative, counters add, high-water marks take max."""
        from repro.serve import ServerStats

        def stats(completed, batches, high):
            s = ServerStats()
            s.completed = completed
            s.batches = batches
            s.max_batch_points = high
            return s

        a, b, c = stats(3, 1, 7), stats(5, 2, 12), stats(2, 1, 4)
        left = a.merge(b).merge(c)
        right = c.merge(a).merge(b)
        nested = a.merge(b.merge(c))
        for merged in (right, nested):
            assert merged.as_dict() == left.as_dict()
        assert left.completed == 10
        assert left.batches == 4
        assert left.max_batch_points == 12
