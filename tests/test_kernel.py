"""The compiled array-walk kernel (:mod:`repro.core.kernel`).

Four angles:

* **compile contract** — every index compiles (box tiles for the STR
  index), a cold cache compiles to a snapshot that fills on first
  visit, and the cache-version handshake rebuilds a stale snapshot
  after eviction;
* **kernel vs oracle** — Hypothesis-driven byte-identity of the
  compiled kernel against the Algorithm-1 reference walk
  (:mod:`repro.testing.oracle`) across {GIHI, quadtree, k-d tree, STR}
  x remap x mid-batch cache faults, on workloads that include every
  child-edge and corner point, under a shared seed; plus cold caches
  (same builds as the oracle) and concurrent cold walks;
* **chi-square equivalence** (``statistical`` marker) — independent
  seeds, same leaf histogram: the distribution-level complement of
  the byte-level fuzz;
* **spanner guard** — matrices built over a Δ-spanner constraint
  subset at ``eps / Δ`` still pass the privacy guard at the full
  ``eps`` (the accounting the ``--dilation`` knob relies on).

Plus the store round trip: the persisted ``.kernel.npz`` arena adopts
bitwise on warm start and quarantines on tamper.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.cache import NodeMechanismCache
from repro.core.kernel import (
    KIND_GRID,
    KIND_SPLIT_X,
    KIND_SPLIT_Y,
    KIND_TERMINAL,
    KIND_TILES,
    CompiledWalk,
    compile_walk,
)
from repro.core.msm import MultiStepMechanism
from repro.core.resilience import ResilienceConfig, ResilientSolver
from repro.core.store import MechanismStore, config_fingerprint
from repro.exceptions import DegradedModeWarning, MechanismError
from repro.geo import BoundingBox, Point
from repro.geo.metric import EUCLIDEAN
from repro.grid import RegularGrid
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.index import ChildGeometry
from repro.grid.kdtree import KDTreeIndex
from repro.grid.quadtree import QuadtreeIndex
from repro.grid.str_index import STRIndex
from repro.mechanisms.optimal import optimal_mechanism_from_locations
from repro.priors import GridPrior
from repro.privacy.guard import guard_mechanism
from repro.testing.faults import (
    FaultInjectingSolver,
    FlakyCacheProxy,
    RaiseFault,
)
from repro.testing.oracle import assert_same_walks, oracle_walk
from tests.test_boundary_convention import _edge_points, _internal_nodes

SEED = 20190326

BOUNDS = BoundingBox.square(Point(0.0, 0.0), 20.0)


def _sample_points(n: int = 200) -> list[Point]:
    coords = np.random.default_rng(7).uniform(0.0, 20.0, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


#: name -> (index factory, walk height, prior granularity)
_CONFIGS = {
    "gihi": (lambda: HierarchicalGrid(BOUNDS, 3, 2), 2, 9),
    "quad": (
        lambda: QuadtreeIndex(BOUNDS, _sample_points(), capacity=1,
                              max_depth=3),
        3,
        16,
    ),
    "kd": (
        lambda: KDTreeIndex(BOUNDS, _sample_points(), max_depth=3),
        3,
        16,
    ),
    "str": (
        lambda: STRIndex(BOUNDS, _sample_points(), fanout=3, height=2),
        2,
        16,
    ),
}

#: config name -> warmed clean cache snapshot, built once per run (the
#: LP sweep is the expensive part; every fuzz example reuses it)
_WARM: dict[str, dict] = {}


def _warm_snapshot(kind: str) -> dict:
    if kind not in _WARM:
        make_index, h, g = _CONFIGS[kind]
        msm = MultiStepMechanism(
            make_index(),
            [1.0 / h] * h,
            GridPrior.uniform(RegularGrid(BOUNDS, g)),
        )
        msm.precompute()
        _WARM[kind] = msm.cache.snapshot()
    return _WARM[kind]


def _dead_solver() -> ResilientSolver:
    return ResilientSolver(
        ResilienceConfig.starting_with("highs-ds"),
        solve_fn=FaultInjectingSolver(
            [RaiseFault(message="kernel-fuzz outage")]
        ),
    )


def _drop_path(index) -> tuple[int, ...]:
    """A root child that has children itself: dropping it forces a
    mid-walk re-solve, which the dead solver turns into degradation."""
    for child in index.children(index.root):
        if index.children(child):
            return child.path
    raise AssertionError("no internal root child to drop")


def _make_pair(kind: str, remap: bool, faults: bool):
    """A kernel MSM and an oracle MSM, identically configured over
    *independent* caches (each side re-solves a dropped path itself;
    sharing the cache would change what the other side sees).  The
    kernel compiles on its first walk, like any engine.
    """
    make_index, h, g = _CONFIGS[kind]
    snapshot = _warm_snapshot(kind)
    drop = _drop_path(make_index()) if faults else None

    def make() -> MultiStepMechanism:
        inner = NodeMechanismCache()
        inner.merge(snapshot)
        cache = (
            FlakyCacheProxy(inner, drop_paths=[drop]) if faults else inner
        )
        return MultiStepMechanism(
            make_index(),
            [1.0 / h] * h,
            GridPrior.uniform(RegularGrid(BOUNDS, g)),
            remap=remap,
            cache=cache,
            solver=_dead_solver() if faults else None,
        )

    return make(), make(), drop


def _workload(seed: int, n: int = 60) -> list[Point]:
    rng = np.random.default_rng(seed)
    pts = [
        Point(float(x), float(y))
        for x, y in rng.uniform(0.0, 20.0, size=(n, 2))
    ]
    # out-of-domain points exercise the uniform-drift draw at level 1
    pts.append(Point(-1.0, 5.0))
    pts.append(Point(21.0, 25.0))
    return pts


def _edge_workload(index) -> list[Point]:
    """Every internal node's exact child-edge and corner points — the
    coordinates where a tiling's tie-break bites."""
    return [
        p for node, kids in _internal_nodes(index) for p in _edge_points(node, kids)
    ]


def _gihi_msm(granularity: int = 3, height: int = 2, **kwargs):
    return MultiStepMechanism(
        HierarchicalGrid(BOUNDS, granularity, height),
        [0.5] * height,
        GridPrior.uniform(RegularGrid(BOUNDS, granularity**height)),
        **kwargs,
    )


# ----------------------------------------------------------------------
# compile contract
# ----------------------------------------------------------------------
class TestCompileContract:
    def test_warm_gihi_compiles_with_expected_shape(self):
        msm = _gihi_msm()
        msm.precompute()
        compiled = msm.engine.compile(build=False)
        assert compiled is not None
        # root + 9 children + 81 grandchildren, two arena levels
        assert compiled.n_nodes == 1 + 9 + 81
        assert compiled.n_levels == 2
        assert compiled.cdf_levels[0].shape == (9, 9)
        assert compiled.cdf_levels[1].shape == (81, 9)
        assert compiled.row_offset[0] == 0
        leaves = compiled.child_count == 0
        assert leaves.sum() == 81
        assert np.all(compiled.row_offset[leaves] == -1)
        assert compiled.cache_version == msm.cache.version

    def test_cold_cache_does_not_compile_without_build(self):
        msm = _gihi_msm(granularity=2)
        assert msm.engine.compile(build=False) is None
        assert msm.engine.compiled is None
        # build=True solves the tree and succeeds
        assert msm.engine.compile(build=True) is not None
        assert len(msm.cache) == 1 + 4  # root + level-1 internal nodes

    def test_str_index_compiles(self):
        index = STRIndex(BOUNDS, _sample_points(), fanout=3, height=2)
        msm = MultiStepMechanism(
            index,
            [0.5, 0.5],
            GridPrior.uniform(RegularGrid(BOUNDS, 16)),
        )
        msm.precompute()
        compiled = msm.engine.compile(build=False)
        assert compiled is not None and compiled.complete
        # the quantile tiling compiles through its children's boxes
        internal = compiled.child_count > 0
        assert np.all(compiled.kind[internal] == KIND_TILES)
        assert compiled.n_nodes == 1 + 9 + 81

    @pytest.mark.parametrize(
        "kind, expect",
        [
            ("gihi", (KIND_GRID, KIND_GRID)),
            ("quad", (KIND_GRID, KIND_GRID, KIND_GRID)),
            ("kd", (KIND_SPLIT_X, KIND_SPLIT_Y, KIND_SPLIT_X)),
            ("str", (KIND_TILES, KIND_TILES)),
        ],
    )
    def test_one_kind_per_level(self, kind, expect):
        make_index, h, _ = _CONFIGS[kind]
        msm = MultiStepMechanism(
            make_index(), [1.0 / h] * h,
            GridPrior.uniform(RegularGrid(BOUNDS, 4)),
        )
        compiled = compile_walk(msm.engine)
        assert compiled.level_kind == expect
        assert CompiledWalk.from_arrays(compiled.to_arrays()).level_kind \
            == expect

    def test_level_mixing_kinds_is_refused(self):
        """One level-2 node located by tiles among grid siblings: the
        level has no single locate pass, so the tree does not compile."""

        class MixedGrid(HierarchicalGrid):
            def child_geometry(self, node):
                if node.path == (1,):
                    return ChildGeometry(kind="tiles", fanout=4)
                return super().child_geometry(node)

        msm = MultiStepMechanism(
            MixedGrid(BOUNDS, 2, 2), [0.5, 0.5],
            GridPrior.uniform(RegularGrid(BOUNDS, 4)),
        )
        with pytest.raises(MechanismError, match="level 2 mixes child kinds"):
            compile_walk(msm.engine)

    def test_level_without_internal_nodes_is_terminal(self):
        """A walk deeper than the tree: the extra level has no kind."""
        msm = MultiStepMechanism(
            QuadtreeIndex(
                BOUNDS,
                [Point(5.0, 5.0), Point(15.0, 5.0), Point(5.0, 15.0),
                 Point(15.0, 15.0)],
                capacity=3,
                max_depth=3,
            ),
            [0.5, 0.5],
            GridPrior.uniform(RegularGrid(BOUNDS, 4)),
        )
        assert compile_walk(msm.engine).level_kind == (
            KIND_GRID, KIND_TERMINAL,
        )

    def test_eviction_bumps_version_and_invalidates(self):
        msm = _gihi_msm(granularity=2)
        msm.precompute()
        engine = msm.engine
        stale = engine.compile(build=False)
        assert stale is not None
        before = msm.cache.version
        msm.cache.clear()
        assert msm.cache.version > before
        # the stale snapshot is never served: the next walk sees the
        # version mismatch, rebuilds against the emptied cache and
        # re-solves the nodes it visits
        walks = msm.sanitize_batch(
            _workload(SEED, n=8), np.random.default_rng(SEED)
        )
        assert len(walks) == 10
        assert engine.compiled is not stale
        assert engine.compiled.cache_version == msm.cache.version
        assert msm.cache.builds == len(msm.cache) > 0
        # a full compile re-arms a complete kernel at the new version
        assert engine.compile(build=True).complete
        assert engine.compiled.cache_version == msm.cache.version

    def test_evicting_cache_walk_matches_oracle(self):
        """A cache that holds one entry evicts on every build; the
        kernel keeps rebuilding its snapshot and still walks exactly
        like the oracle."""
        kernel = _gihi_msm(granularity=2, cache=NodeMechanismCache(max_bytes=1))
        oracle = _gihi_msm(granularity=2, cache=NodeMechanismCache(max_bytes=1))
        for seed in range(3):
            points = _workload(seed, n=20)
            assert_same_walks(
                kernel.sanitize_batch(points, np.random.default_rng(seed)),
                oracle_walk(oracle.engine, points, np.random.default_rng(seed)),
            )
        assert kernel.cache.evictions > 0

    def test_eviction_refills_rows_without_recompiling(self, monkeypatch):
        """Topology never depends on the cache: after an eviction the
        stale snapshot keeps it and only refills its rows, so an
        evicting cache compiles the tree once, not once per batch."""
        import repro.core.engine as engine_module

        calls = []

        def counting_compile(engine):
            calls.append(engine)
            return compile_walk(engine)

        monkeypatch.setattr(engine_module, "compile_walk", counting_compile)
        msm = _gihi_msm(
            granularity=3, height=3, cache=NodeMechanismCache(max_bytes=1944)
        )
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            msm.sanitize_batch(_sample_points(4), rng)
        assert msm.cache.evictions > 0
        assert len(calls) == 1

    def test_cold_walk_builds_missing_entries(self):
        msm = _gihi_msm(granularity=2)
        walks = msm.sanitize_batch(
            _workload(SEED, n=4), np.random.default_rng(SEED)
        )
        assert len(walks) == 6
        assert msm.engine.compiled is not None
        assert msm.cache.builds == len(msm.cache) > 0

    def test_to_from_arrays_roundtrip(self):
        msm = _gihi_msm()
        msm.precompute()
        compiled = msm.engine.compile(build=False)
        clone = CompiledWalk.from_arrays(compiled.to_arrays())
        assert compiled.equals(clone)
        assert clone.paths == compiled.paths

    def test_box_indexes_compile_without_membership_or_snap(self):
        """Planar trees carry empty membership arrays, and their walk
        never builds the snap index."""
        msm = _gihi_msm()
        msm.precompute()
        compiled = msm.engine.compile(build=False)
        assert np.all(compiled.label_offset == -1)
        assert compiled.member_labels.size == 0
        assert compiled.snap_coords.shape == (0, 2)
        compiled.walk_arrays(
            np.array([(p.x, p.y) for p in _workload(SEED)]),
            np.random.default_rng(SEED),
        )
        assert compiled._snap_index is None

    def test_small_batches_run_on_the_kernel(self):
        msm = _gihi_msm(granularity=2)
        msm.precompute()
        msm.sanitize_batch(_workload(SEED, n=6), np.random.default_rng(SEED))
        assert msm.engine.compiled is not None
        assert msm.engine.compiled.complete


# ----------------------------------------------------------------------
# kernel == oracle, byte for byte
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize(
        "kind,remap,faults",
        [
            ("gihi", False, False),
            ("gihi", True, False),
            ("gihi", False, True),
            ("gihi", True, True),
            ("quad", False, False),
            ("quad", False, True),
            ("kd", False, False),
            ("kd", False, True),
            ("str", False, False),
            ("str", False, True),
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_kernel_matches_staged(self, kind, remap, faults, seed):
        kernel_msm, oracle_msm, drop = _make_pair(kind, remap, faults)
        points = _workload(seed) + _edge_workload(oracle_msm.index)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedModeWarning)
            a = kernel_msm.sanitize_batch(points, np.random.default_rng(seed))
            b = oracle_walk(
                oracle_msm.engine, points, np.random.default_rng(seed)
            )
        assert_same_walks(a, b)
        if faults:
            # the walks really ran through the degraded fallback: any
            # step through the dropped node is marked
            assert all(
                s.degraded
                for w in b
                for s in w.trace
                if s.node_path == drop
            )

    def test_traceless_run_same_points_empty_traces(self):
        kernel_msm, _, _ = _make_pair("gihi", remap=False, faults=False)
        points = _workload(SEED)
        a = kernel_msm.sanitize_batch(points, np.random.default_rng(SEED))
        b = kernel_msm.sanitize_batch(
            points, np.random.default_rng(SEED), trace=False
        )
        assert [w.point for w in a] == [w.point for w in b]
        assert all(w.trace == () for w in b)
        assert [w.degradation for w in a] == [w.degradation for w in b]


class TestColdWalk:
    """A cold kernel resolves nodes on first visit: it builds exactly the
    nodes the oracle builds, in the same order, and no others."""

    @pytest.mark.parametrize("n", [1, 200])
    def test_cold_walk_builds_what_the_oracle_builds(self, n):
        kernel, oracle = _gihi_msm(), _gihi_msm()
        points = _workload(SEED, n=n)[:n]
        if n == 1:
            a = [kernel.sample_with_report(points[0], np.random.default_rng(SEED))]
        else:
            a = kernel.sanitize_batch(points, np.random.default_rng(SEED))
        b = oracle_walk(oracle.engine, points, np.random.default_rng(SEED))
        assert_same_walks(a, b)
        assert kernel.cache.builds == oracle.cache.builds
        assert list(kernel.cache.snapshot()) == list(oracle.cache.snapshot())

    def test_cold_single_sample_builds_only_its_path(self):
        kernel = _gihi_msm(granularity=4, height=3)
        oracle = _gihi_msm(granularity=4, height=3)
        a = kernel.sample_with_report(Point(3.0, 4.0), np.random.default_rng(1))
        b = oracle_walk(oracle.engine, [Point(3.0, 4.0)], np.random.default_rng(1))
        assert_same_walks([a], b)
        assert kernel.cache.builds == oracle.cache.builds == 3

    def test_growth_from_one_snapshot_keeps_both_expansions(self):
        """Two walks that started on one snapshot grow it in turn: the
        second growth builds on the first instead of replacing it, and
        the snapshot they started on is never written."""
        msm = _gihi_msm()
        engine = msm.engine
        msm.sanitize_batch([Point(1.0, 1.0)], np.random.default_rng(SEED))
        start = engine.compiled
        pending = np.flatnonzero(
            (start.level == 1) & (start.child_count > 0) & (start.row_offset < 0)
        )
        first = engine._grow(start, 2, pending[:1])
        second = engine._grow(start, 2, pending[1:2])
        assert engine.compiled is second
        assert first.row_offset[pending[0]] >= 0
        assert (second.row_offset[pending[:2]] >= 0).all()
        assert (start.row_offset[pending[:2]] < 0).all()

    def test_concurrent_cold_walks_match_oracle(self):
        """More threads than cores walk one cold engine with a short
        switch interval; every batch still matches the oracle, every
        node was solved once, and no thread's snapshot growth was lost."""
        kernel, oracle = _gihi_msm(), _gihi_msm()
        jobs = [(t, j) for t in range(4) for j in range(5)]
        out: dict[tuple[int, int], list] = {}

        def worker(t: int) -> None:
            for j in range(5):
                pts = _workload(1000 * t + j, n=6)
                out[t, j] = kernel.sanitize_batch(
                    pts, np.random.default_rng(1000 * t + j)
                )

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(out) == jobs
        for t, j in jobs:
            expected = oracle_walk(
                oracle.engine,
                _workload(1000 * t + j, n=6),
                np.random.default_rng(1000 * t + j),
            )
            assert_same_walks(out[t, j], expected)
        # single-flight builds: every cached node was solved once ...
        assert kernel.cache.builds == len(kernel.cache)
        # ... and the engine's snapshot kept every thread's rows
        compiled = kernel.engine.compiled
        filled = {
            compiled.paths[i] for i in np.flatnonzero(compiled.row_offset >= 0)
        }
        assert filled == set(kernel.cache.snapshot())


# ----------------------------------------------------------------------
# distributional equivalence (independent seeds)
# ----------------------------------------------------------------------
@pytest.mark.statistical
class TestChiSquareEquivalence:
    N = 6000
    ALPHA = 0.01
    MIN_POOLED = 10

    def test_chi_square_kernel_vs_staged(self):
        """Kernel and oracle leaf distributions are indistinguishable
        under *independent* seeds (alpha = 0.01; fixed seeds, verified
        deterministic outcome)."""
        msm = _gihi_msm()
        msm.precompute()
        assert msm.engine.compile(build=False) is not None
        xs = [
            Point(float(x), float(y))
            for x, y in np.random.default_rng(SEED).uniform(
                0.0, 20.0, size=(self.N, 2)
            )
        ]
        staged = oracle_walk(msm.engine, xs, np.random.default_rng(31))
        kernel = msm.sanitize_batch(xs, np.random.default_rng(32))

        grid = msm.index.level_grid(min(msm.height, msm.index.height))

        def leaf_counts(walks):
            counts = np.zeros(grid.n_cells, dtype=float)
            for w in walks:
                counts[grid.locate(w.point).index] += 1
            return counts

        a, b = leaf_counts(staged), leaf_counts(kernel)
        pooled = a + b
        keep = pooled >= self.MIN_POOLED
        table = np.vstack([
            np.append(a[keep], a[~keep].sum()),
            np.append(b[keep], b[~keep].sum()),
        ])
        table = table[:, table.sum(axis=0) > 0]
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value >= self.ALPHA, (
            f"kernel and oracle leaf distributions diverge "
            f"(p={p_value:.4g})"
        )


# ----------------------------------------------------------------------
# spanner dilation: the guard holds at the full epsilon
# ----------------------------------------------------------------------
class TestSpannerGuard:
    @pytest.mark.parametrize("dilation", [1.1, 1.5, 2.0])
    def test_spanner_solve_passes_guard_at_full_epsilon(self, dilation):
        """Solving over the spanner's edge set at ``eps / dilation``
        yields a mechanism the guard verifies at ``eps`` over *all*
        pairs — fewer constraints, same guarantee."""
        epsilon = 0.8
        grid = RegularGrid(BOUNDS, 4)
        locations = grid.centers()
        prior = np.full(len(locations), 1.0 / len(locations))

        exact = optimal_mechanism_from_locations(
            epsilon, locations, prior, EUCLIDEAN
        )
        spanned = optimal_mechanism_from_locations(
            epsilon, locations, prior, EUCLIDEAN,
            spanner_dilation=dilation,
        )
        assert spanned.n_constraints < exact.n_constraints
        report = guard_mechanism(spanned.matrix, epsilon)
        assert report.satisfied
        # utility can only get worse under a tighter effective epsilon
        assert spanned.expected_loss >= exact.expected_loss - 1e-9

    def test_msm_built_with_dilation_guards_every_node(self):
        msm = _gihi_msm(spanner_dilation=1.5)
        msm.precompute()
        assert msm.spanner_dilation == 1.5
        for entry in msm.cache.snapshot().values():
            report = guard_mechanism(
                entry.matrix, entry.epsilon, dx=msm.engine.dx
            )
            assert report.satisfied
        # and the dilated tree compiles like any other
        assert msm.engine.compile(build=False) is not None


# ----------------------------------------------------------------------
# store round trip: the persisted arena sidecar
# ----------------------------------------------------------------------
class TestKernelSidecar:
    def test_sidecar_written_and_adopted_bitwise(self, tmp_path):
        store = MechanismStore(tmp_path / "store")
        builder = _gihi_msm()
        store.get_or_build(builder)
        sidecar = store.kernel_path_for(builder)
        assert sidecar.exists()
        assert MechanismStore.checksum_path(sidecar).exists()
        assert sidecar not in store.entries()  # not a bundle

        warm = _gihi_msm()
        record = store.get_or_build(warm)
        assert record.outcome == "hit"
        assert sidecar.exists()  # verified, not quarantined
        assert warm.engine.compiled is not None
        # the adopted arena IS a fresh compile of the adopted cache
        recompiled = compile_walk(warm.engine)
        assert warm.engine.compiled.equals(recompiled)

    def test_warm_started_kernel_run_matches_staged(self, tmp_path):
        store = MechanismStore(tmp_path / "store")
        store.get_or_build(_gihi_msm())
        warm = _gihi_msm()
        store.get_or_build(warm)
        points = _workload(SEED)
        a = warm.sanitize_batch(points, np.random.default_rng(SEED))
        b = oracle_walk(warm.engine, points, np.random.default_rng(SEED))
        assert_same_walks(a, b)

    def test_tampered_sidecar_quarantined_fresh_compile_survives(
        self, tmp_path
    ):
        store = MechanismStore(tmp_path / "store")
        store.get_or_build(_gihi_msm())
        probe = _gihi_msm()
        sidecar = store.kernel_path_for(probe)
        with np.load(sidecar) as data:
            arrays = dict(data)
        arrays["cdf_0"] = arrays["cdf_0"].copy()
        arrays["cdf_0"][0, 0] += 1e-9  # below any statistical radar
        with open(sidecar, "wb") as fh:
            np.savez(fh, **arrays)
        MechanismStore.checksum_path(sidecar).write_text(
            hashlib.sha256(sidecar.read_bytes()).hexdigest() + "\n"
        )
        warm = _gihi_msm()
        record = store.warm_start(warm)
        assert record is not None and record.outcome == "hit"
        assert not sidecar.exists()
        quarantined = list(
            (store.root / ".quarantine").glob("*.kernel.npz*")
        )
        assert quarantined
        # serving is unaffected: the fresh compile took over
        assert warm.engine.compiled is not None

    def test_sidecar_without_membership_arrays_is_quarantined(
        self, tmp_path
    ):
        """A sidecar written before the membership arrays existed fails
        to load, is quarantined, and the fresh compile serves."""
        store = MechanismStore(tmp_path / "store")
        store.get_or_build(_gihi_msm())
        sidecar = store.kernel_path_for(_gihi_msm())
        with np.load(sidecar) as data:
            arrays = {
                key: value
                for key, value in data.items()
                if key not in ("label_offset", "member_labels", "snap_coords")
            }
        with open(sidecar, "wb") as fh:
            np.savez(fh, **arrays)
        MechanismStore.checksum_path(sidecar).write_text(
            hashlib.sha256(sidecar.read_bytes()).hexdigest() + "\n"
        )
        warm = _gihi_msm()
        record = store.warm_start(warm)
        assert record is not None and record.outcome == "hit"
        assert not sidecar.exists()
        assert list((store.root / ".quarantine").glob("*.kernel.npz*"))
        assert warm.engine.compiled.equals(
            compile_walk(warm.engine)
        )

    def test_dilation_is_part_of_the_fingerprint(self):
        assert config_fingerprint(_gihi_msm()) != config_fingerprint(
            _gihi_msm(spanner_dilation=1.5)
        )
