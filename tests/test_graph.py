"""Road-network scenario tests: city generator, shortest-path metric,
graph partition index, and the MSM walk running unchanged over them.

The graph analogue of ``test_grid_hierarchy``: partition invariants
(children partition the parent's vertex set exactly — no overlap, no
gap), metric-axiom properties (Hypothesis: the triangle inequality on
random weighted graphs), locate agreement between the scalar and
vectorised paths, and an end-to-end walk with the privacy guard
enabled at every node mechanism.  The compiled kernel walks the
partition through its membership labels; ``TestGraphKernel`` holds it
byte-identical to the reference walk and through persistence.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from repro.core.cache import NodeMechanismCache
from repro.core.kernel import KIND_MEMBER, CompiledWalk, _SnapIndex
from repro.core.msm import MultiStepMechanism
from repro.core.resilience import ResilienceConfig, ResilientSolver
from repro.exceptions import (
    DegradedModeWarning,
    GridError,
    PrivacyViolationError,
)
from repro.geo.point import Point
from repro.graph import (
    GraphMetric,
    GraphPartitionIndex,
    RoadGraph,
    VertexBins,
    synthetic_city,
)
from repro.grid.regular import RegularGrid
from repro.priors.base import GridPrior
from repro.privacy.guard import guard_mechanism
from repro.serve.arena import MechanismArena
from repro.testing.faults import (
    FaultInjectingSolver,
    FlakyCacheProxy,
    RaiseFault,
)
from repro.testing.oracle import assert_same_walks, oracle_walk


@pytest.fixture(scope="module")
def city() -> RoadGraph:
    return synthetic_city(blocks=7, block_km=0.5, seed=42)


@pytest.fixture(scope="module")
def metric(city) -> GraphMetric:
    return GraphMetric(city)


@pytest.fixture(scope="module")
def partition(city) -> GraphPartitionIndex:
    return GraphPartitionIndex(city, fanout=4, height=2)


def _warm_graph_msm(partition, metric) -> MultiStepMechanism:
    prior = GridPrior.uniform(RegularGrid(partition.graph.bounds, 8))
    msm = MultiStepMechanism(
        partition, (0.8, 0.8), prior, dq=metric, dx=metric
    )
    msm.precompute()
    return msm


@pytest.fixture(scope="module")
def graph_msm(partition, metric) -> MultiStepMechanism:
    return _warm_graph_msm(partition, metric)


@pytest.fixture(scope="module")
def lattice():
    """An unjittered city, its partition and warm MSM: every Voronoi
    edge of its vertices falls on an exact midline, so snapping ties."""
    road = synthetic_city(blocks=7, block_km=0.5, jitter=0.0, seed=42)
    partition = GraphPartitionIndex(road, fanout=4, height=2)
    return road, partition, _warm_graph_msm(partition, GraphMetric(road))


class TestSyntheticCity:
    def test_deterministic_in_seed(self):
        a = synthetic_city(blocks=4, seed=7)
        b = synthetic_city(blocks=4, seed=7)
        assert np.array_equal(a.coords, b.coords)
        assert (a.csr != b.csr).nnz == 0

    def test_seed_changes_graph(self):
        a = synthetic_city(blocks=4, seed=7)
        b = synthetic_city(blocks=4, seed=8)
        assert not np.array_equal(a.coords, b.coords)

    def test_vertex_count_and_connectivity(self, city):
        assert city.n_vertices == 64
        # Connectivity is validated in the constructor; a finite
        # all-pairs row from any source re-checks it end to end.
        m = GraphMetric(city)
        row = m.pairwise([city.vertex_point(0)], city.vertex_points())
        assert np.all(np.isfinite(row))

    def test_weights_at_least_planar_length(self, city):
        m = GraphMetric(city)
        for v, w in [(0, 1), (3, 50), (10, 60)]:
            planar = city.vertex_point(v).distance_to(city.vertex_point(w))
            assert m.vertex_distance(v, w) >= planar - 1e-9

    def test_disconnected_graph_rejected(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        edges = np.array([[0, 1], [2, 3]])
        with pytest.raises(GridError, match="connected"):
            RoadGraph(coords, edges, np.ones(2))


class TestGraphMetric:
    def test_identity_and_symmetry(self, city, metric):
        p = city.vertex_point(12)
        q = city.vertex_point(40)
        assert metric(p, p) == 0.0
        assert metric(p, q) == pytest.approx(metric(q, p))

    def test_snapping_pseudometric(self, city, metric):
        """Two points snapping to the same vertex are at distance 0."""
        v = city.vertex_point(5)
        nearby = Point(v.x + 1e-6, v.y + 1e-6)
        assert metric(v, nearby) == 0.0

    def test_axioms_pass_on_vertices(self, city, metric):
        metric.check_axioms(city.vertex_points()[:50])

    def test_row_cache_grows_then_hits(self, city):
        m = GraphMetric(city)
        xs = [city.vertex_point(v) for v in (1, 2, 3)]
        m.pairwise(xs, xs)
        assert m.cached_sources == 3
        m.pairwise(xs, [city.vertex_point(9)])  # all sources cached
        assert m.cached_sources == 3

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_random_graphs(self, seed):
        """Shortest-path distance on random positively weighted graphs
        satisfies the triangle inequality (the axiom SQUARED_EUCLIDEAN
        famously breaks) — on every vertex triple."""
        g = synthetic_city(
            blocks=3,
            jitter=0.4,
            drop_probability=0.4,
            max_weight_factor=3.0,
            seed=seed,
        )
        m = GraphMetric(g)
        m.check_axioms(g.vertex_points())

    def test_guard_accepts_graph_metric_as_dx(self, city, metric, graph_msm):
        """Every cached node mechanism re-passes the guard at its level
        epsilon under the graph metric (the acceptance criterion: guard
        passes on every graph node mechanism at full epsilon)."""
        entries = graph_msm.cache.snapshot()
        assert entries, "precompute should have populated the cache"
        for entry in entries.values():
            assert entry.epsilon is not None
            guard_mechanism(entry.matrix, entry.epsilon, dx=metric)


class TestGraphPartitionIndex:
    def test_children_partition_parent_exactly(self, partition):
        """No overlap, no gap — at every internal node."""
        stack = [partition.root]
        while stack:
            node = stack.pop()
            kids = partition.children(node)
            if not kids:
                continue
            union: set[int] = set()
            for kid in kids:
                vs = set(kid.vertex_ids)
                assert vs, f"empty child at {kid.path}"
                assert not (union & vs), f"overlap at {kid.path}"
                union |= vs
            assert union == set(node.vertex_ids), f"gap under {node.path}"
            stack.extend(kids)

    def test_balanced_fanout(self, partition):
        kids = partition.children(partition.root)
        sizes = [len(k.vertex_ids) for k in kids]
        assert len(kids) == 4
        assert max(sizes) - min(sizes) <= 1

    def test_medoid_is_member_vertex(self, partition, city):
        for node in partition.leaves():
            assert node.medoid in node.vertex_ids
            assert node.center == city.vertex_point(node.medoid)

    def test_scalar_vectorised_locate_agree(self, partition, city):
        rng = np.random.default_rng(3)
        b = city.bounds
        coords = np.stack(
            [
                rng.uniform(b.min_x, b.max_x, 300),
                rng.uniform(b.min_y, b.max_y, 300),
            ],
            axis=1,
        )
        stack = [partition.root]
        while stack:
            node = stack.pop()
            kids = partition.children(node)
            if not kids:
                continue
            vec = partition.locate_child_indices(node, coords)
            for (x, y), v in zip(coords, vec):
                child = partition.locate_child(node, Point(x, y))
                expect = -1 if child is None else child.path[-1]
                assert v == expect
            stack.extend(kids)

    def test_contains_mask_is_vertex_membership(self, partition, city):
        coords = city.coords
        for kid in partition.children(partition.root):
            mask = partition.contains_mask(kid, coords)
            members = np.zeros(city.n_vertices, dtype=bool)
            members[list(kid.vertex_ids)] = True
            assert np.array_equal(mask, members)

    def test_child_geometry_is_vertex_membership(self, partition, city):
        """Every internal node exports its per-vertex child slots (-1
        off the node) over the city's own vertex coordinates; leaves
        export nothing."""
        stack = [partition.root]
        while stack:
            node = stack.pop()
            kids = partition.children(node)
            geometry = partition.child_geometry(node)
            if not kids:
                assert geometry is None
                continue
            assert geometry.kind == "member"
            assert geometry.fanout == len(kids)
            assert np.array_equal(geometry.sites, city.coords)
            assert np.array_equal(
                geometry.labels,
                partition.locate_child_indices(node, city.coords),
            )
            assert np.array_equal(
                geometry.labels >= 0, partition.contains_mask(node, city.coords)
            )
            stack.extend(kids)

    def test_child_prior_snaps_centres_once_and_stays_bitwise(self, city):
        """``child_prior`` snaps the prior centres once per engine, and
        every internal node's child prior equals the per-child snap it
        replaced, bit for bit."""
        partition = GraphPartitionIndex(city, fanout=4, height=2)
        grid = RegularGrid(city.bounds, 9)
        weights = np.random.default_rng(5).random(grid.n_cells)
        prior = GridPrior(grid, weights)
        engine = MultiStepMechanism(
            partition, (0.8, 0.8), prior, dq=GraphMetric(city)
        ).engine
        centers = grid.centers_array()
        probs = prior.probabilities
        expected = {}
        stack = [partition.root]
        while stack:
            node = stack.pop()
            kids = partition.children(node)
            if kids:
                masses = np.array(
                    [probs[partition.contains_mask(k, centers)].sum()
                     for k in kids]
                )
                expected[node.path] = (kids, masses / masses.sum())
                stack.extend(kids)
        assert len(expected) == 1 + 4
        calls = []
        snap = partition.membership_keys
        partition.membership_keys = lambda c: calls.append(1) or snap(c)
        for kids, want in expected.values():
            assert np.array_equal(engine.child_prior(kids), want)
        assert len(calls) == 1

    def test_too_small_graph_rejected(self):
        g = synthetic_city(blocks=1, seed=0)  # 4 vertices
        with pytest.raises(GridError, match="at least"):
            GraphPartitionIndex(g, fanout=4, height=2)

    def test_drifted_point_gets_none(self, partition, city):
        """A point snapping to a vertex outside the node drifts (None /
        -1), triggering Algorithm 1's uniform fallback."""
        kids = partition.children(partition.root)
        inner = partition.children(kids[0])[0]
        outside_vertex = next(
            v
            for v in range(city.n_vertices)
            if v not in kids[0].vertex_ids
        )
        p = city.vertex_point(outside_vertex)
        assert partition.locate_child(inner, p) is None


class TestGraphWalk:
    def test_walk_unchanged_over_graph_nodes(self, graph_msm, city):
        """The walk engine runs the graph index with no special-casing:
        every reported point is a stop-node medoid vertex."""
        rng = np.random.default_rng(0)
        xs = [city.vertex_point(v) for v in rng.integers(0, 64, 40)]
        stops = {n.center for n in graph_msm.stop_nodes()}
        for z in graph_msm.sample_many(xs, rng):
            assert z in stops

    def test_scalar_equals_batch_of_one(self, graph_msm, city):
        x = city.vertex_point(17)
        a = graph_msm.sample(x, np.random.default_rng(99))
        [b] = graph_msm.sample_many([x], np.random.default_rng(99))
        assert a == b

    def test_to_matrix_generic_path(self, graph_msm):
        matrix = graph_msm.to_matrix()
        n = len(graph_msm.stop_nodes())
        assert matrix.shape == (n, n)
        assert np.allclose(matrix.k.sum(axis=1), 1.0)


def _dead_solver() -> ResilientSolver:
    return ResilientSolver(
        ResilienceConfig.starting_with("highs-ds"),
        solve_fn=FaultInjectingSolver([RaiseFault(message="graph outage")]),
    )


def _graph_pair(graph_msm, drop=None):
    """Kernel and oracle graph MSMs over independent copies of the warm
    cache; ``drop`` loses one node's entry, which the outage solver
    then degrades to the exponential mechanism."""

    def make() -> MultiStepMechanism:
        inner = NodeMechanismCache()
        inner.merge(graph_msm.cache.snapshot())
        return MultiStepMechanism(
            graph_msm.index,
            graph_msm.budgets,
            graph_msm.prior,
            dq=graph_msm.dq,
            dx=graph_msm.engine.dx,
            cache=(
                inner if drop is None
                else FlakyCacheProxy(inner, drop_paths=[drop])
            ),
            solver=None if drop is None else _dead_solver(),
        )

    return make(), make()


def _outside_envelope_member(partition, city):
    """A level-1 node and a point outside its envelope that snaps to
    one of its member vertices (its westmost vertex, nudged west by a
    quarter of the gap to its nearest neighbour)."""
    node = partition.children(partition.root)[0]
    v = min(node.vertex_ids, key=lambda u: city.coords[u, 0])
    gap = np.hypot(*(city.coords - city.coords[v]).T)
    gap[v] = np.inf
    p = Point(float(city.coords[v, 0] - gap.min() / 4), float(city.coords[v, 1]))
    assert not node.bounds.contains(p)
    assert city.nearest_vertex(p) == v
    return node, p


def _snap_probes(coords: np.ndarray, rng, n: int) -> np.ndarray:
    """Where a nearest-vertex snap can go wrong: every vertex, the
    midpoint of each vertex and its nearest neighbour (a tie) and of
    ``n`` random vertex pairs, and ``n`` points each on the kernel snap
    raster's cell corners, vertical edges and horizontal edges."""
    raster = _SnapIndex(coords)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    # ``% k``: a lone site has no neighbour, which the tree reports as k
    nearest = cKDTree(coords).query(coords, k=2)[1][:, 1] % coords.shape[0]
    pairs = rng.integers(0, coords.shape[0], size=(n, 2))
    return np.concatenate([
        coords,
        (coords + coords[nearest]) / 2.0,
        coords[pairs].mean(axis=1),
        np.column_stack([rng.choice(raster.xs, n), rng.choice(raster.ys, n)]),
        np.column_stack(
            [rng.choice(raster.xs, n), rng.uniform(lo[1], hi[1], n)]
        ),
        np.column_stack(
            [rng.uniform(lo[0], hi[0], n), rng.choice(raster.ys, n)]
        ),
    ])


def _graph_workload(city, partition, seed: int, n: int = 60) -> list[Point]:
    b = city.bounds
    rng = np.random.default_rng(seed)
    xy = rng.uniform((b.min_x, b.min_y), (b.max_x, b.max_y), size=(n, 2))
    xy = np.concatenate([xy, _snap_probes(city.coords, rng, n)])
    pts = [Point(float(x), float(y)) for x, y in xy]
    # far outside the city: they snap to boundary vertices, and drift
    # wherever the walk leaves those vertices' nodes
    pts += [Point(-50.0, -50.0), Point(1e3, b.min_y), Point(b.max_x, 75.0)]
    pts.append(_outside_envelope_member(partition, city)[1])
    return pts


def _assert_kernel_matches_staged(graph_msm, city, partition, degraded,
                                  seed):
    drop = partition.children(partition.root)[1].path if degraded else None
    kernel_msm, oracle_msm = _graph_pair(graph_msm, drop)
    points = _graph_workload(city, partition, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedModeWarning)
        a = kernel_msm.sanitize_batch(points, np.random.default_rng(seed))
        b = oracle_walk(
            oracle_msm.engine, points, np.random.default_rng(seed)
        )
    assert_same_walks(a, b)
    assert any(s.x_hat_random for w in b for s in w.trace)
    if degraded:
        steps = [s for w in b for s in w.trace if s.node_path == drop]
        assert steps and all(s.degraded for s in steps)
        assert any(not w.degradation.clean for w in a)


def _snap_sites(case: str) -> np.ndarray:
    coords = synthetic_city(blocks=7, block_km=0.5, seed=42).coords
    lattice = synthetic_city(blocks=7, block_km=0.5, jitter=0.0).coords
    line = np.linspace(-1.0, 2.0, 40)
    return {
        "city": coords,
        "lattice": lattice,
        "one-site": np.array([[1.5, -2.0]]),
        "collinear-x": np.column_stack([np.full(40, 3.0), line]),
        "collinear-y": np.column_stack([line, np.full(40, 3.0)]),
        "duplicates": np.concatenate([coords, coords[::5]]),
        "translated": lattice + 1e6,
    }[case]


class TestSnapIndex:
    """The kernel's raster-first snap returns exactly what a plain
    cKDTree query returns, ties and errors included."""

    @pytest.mark.parametrize(
        "case",
        ["city", "lattice", "one-site", "collinear-x", "collinear-y",
         "duplicates", "translated"],
    )
    def test_matches_tree(self, case):
        sites = _snap_sites(case)
        rng = np.random.default_rng(5)
        lo, hi = sites.min(axis=0), sites.max(axis=0)
        pad = np.maximum(hi - lo, 1.0)
        probes = np.concatenate([
            _snap_probes(sites, rng, 300),
            rng.uniform(lo - pad / 10, hi + pad / 10, size=(3000, 2)),
            # far outside, on every side
            lo + np.array([[-1e3, 0.0], [0.0, -1e3], [1e9, 1e9],
                           [-1e9, 5.0], [5.0, 1e12]]),
        ])
        expect = cKDTree(sites).query(probes)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _SnapIndex(sites).query(probes)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("case", ["city", "lattice", "translated"])
    def test_table_answers_most_cells(self, case):
        """The table is not empty: about three in four cells have one
        provably nearest site, so most points skip the tree."""
        raster = _SnapIndex(_snap_sites(case))
        assert raster.shape == (64, 64)  # 8 * sqrt(64 sites) per axis
        assert 0.6 < np.mean(raster.table >= 0) < 1.0

    @pytest.mark.parametrize(
        "bad", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (0.5, -np.inf)]
    )
    def test_non_finite_points_raise_like_the_tree(self, bad):
        sites = _snap_sites("city")
        probes = np.array([sites[3], bad])
        with pytest.raises(ValueError):
            cKDTree(sites).query(probes)
        with pytest.raises(ValueError):
            _SnapIndex(sites).query(probes)


class TestGraphKernel:
    """The compiled walk over membership labels, against the reference
    walk it re-expresses."""

    def test_engine_compiles_to_member_nodes(self, graph_msm, city):
        compiled = graph_msm.engine.compile(build=False)
        assert compiled is not None
        internal = compiled.child_count > 0
        assert np.all(compiled.kind[internal] == KIND_MEMBER)
        assert np.all(compiled.label_offset[~internal] == -1)
        assert compiled.member_labels.size == internal.sum() * city.n_vertices
        assert np.array_equal(compiled.snap_coords, city.coords)

    @pytest.mark.parametrize("degraded", [False, True])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_kernel_matches_staged(self, graph_msm, city, partition,
                                   degraded, seed):
        _assert_kernel_matches_staged(
            graph_msm, city, partition, degraded, seed
        )

    @pytest.mark.parametrize("degraded", [False, True])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_kernel_matches_staged_on_lattice(self, lattice, degraded, seed):
        road, partition, msm = lattice
        _assert_kernel_matches_staged(msm, road, partition, degraded, seed)

    def test_member_node_skips_the_envelope_test(self, graph_msm, city,
                                                 partition):
        """A point outside a node's envelope that snaps to a member
        vertex is located, not drifted, at that node."""
        node, p = _outside_envelope_member(partition, city)
        compiled = graph_msm.engine.compile(build=False)
        node_id = compiled.paths.index(node.path)
        coords = np.tile([p.x, p.y], (400, 1))
        _, levels = compiled.walk_arrays(coords, np.random.default_rng(3))
        at_node = levels[1].ids == node_id
        assert at_node.any()
        assert not levels[1].drifted[at_node].any()
        expect = partition.locate_child(node, p).path[-1]
        assert np.all(levels[1].x_hat[at_node] == expect)

    def test_snap_index_built_on_first_walk_and_carried(self, graph_msm,
                                                        city, partition):
        compiled = graph_msm.engine.compile(build=False)
        assert compiled._snap_index is None
        coords = np.array(
            [(p.x, p.y) for p in _graph_workload(city, partition, 4)]
        )
        compiled.walk_arrays(coords, np.random.default_rng(4))
        built = compiled._snap_index
        assert built is not None
        assert compiled.refilled(graph_msm.cache)._snap_index is built
        assert compiled.packed()._snap_index is built

    def test_arrays_round_trip(self, graph_msm):
        compiled = graph_msm.engine.compile(build=False)
        clone = CompiledWalk.from_arrays(compiled.to_arrays())
        assert compiled.equals(clone)
        assert clone.paths == compiled.paths

    def test_arena_round_trips_and_walks_bitwise(self, graph_msm, city,
                                                 partition, tmp_path):
        compiled = graph_msm.engine.compile(build=False)
        MechanismArena.freeze(compiled, tmp_path / "graph.arena")
        mapped = MechanismArena.open(tmp_path / "graph.arena").compiled()
        assert mapped.equals(compiled)
        coords = np.array(
            [(p.x, p.y) for p in _graph_workload(city, partition, 11, 500)]
        )
        direct, direct_levels = compiled.walk_arrays(
            coords, np.random.default_rng(11)
        )
        opened, opened_levels = mapped.walk_arrays(
            coords, np.random.default_rng(11)
        )
        assert np.array_equal(direct, opened)
        for a, b in zip(direct_levels, opened_levels, strict=True):
            assert np.array_equal(a.x_hat, b.x_hat)
            assert np.array_equal(a.reported, b.reported)


@pytest.mark.statistical
class TestGraphStatistical:
    N = 5000
    ALPHA = 0.01
    MIN_POOLED = 10

    def _vertex_counts(self, city, points) -> np.ndarray:
        bins = VertexBins(city)
        counts = np.zeros(bins.n_cells, dtype=float)
        for p in points:
            counts[bins.locate(p).index] += 1
        return counts

    def test_chi_square_scalar_vs_batch(self, graph_msm, city):
        """Graph-MSM scalar and batch walks draw from the same
        stop-vertex distribution (two-sample chi-square, fixed seeds)."""
        x = city.vertex_point(27)
        single = [
            graph_msm.sample(x, rng)
            for rng in [np.random.default_rng(1101)]
            for _ in range(self.N)
        ]
        batch = graph_msm.sample_many(
            [x] * self.N, np.random.default_rng(2202)
        )
        a = self._vertex_counts(city, single)
        b = self._vertex_counts(city, batch)
        pooled = a + b
        keep = pooled >= self.MIN_POOLED
        table = np.vstack(
            [
                np.append(a[keep], a[~keep].sum()),
                np.append(b[keep], b[~keep].sum()),
            ]
        )
        table = table[:, table.sum(axis=0) > 0]
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value >= self.ALPHA, (
            f"graph scalar and batch walks diverge (p={p_value:.4g})"
        )
