"""Persistent mechanism store: warm-start engines across runs.

The node cache makes repeat queries cheap *within* a process; this
module makes them cheap *across* processes.  A
:class:`MechanismStore` is a directory of mechanism arenas
(:class:`~repro.serve.arena.MechanismArena`), one ``msm-<fp>.arena/``
per **configuration fingerprint** — a SHA-256 over everything that
determines the solved matrices:

* index shape (bounds, per-level fanout, height),
* the per-level epsilon split,
* the utility and distinguishability metrics,
* the Δ-spanner dilation the cold LP builds use (``None`` = exact),
* a hash of the modelling prior.

Saving compiles the mechanism and freezes it with
:func:`write_mechanism`, which also records what a loader needs to
rebuild the grid MSM: the index shape, ``dq``, the fingerprint, and the
prior as one more checksummed array.  ``repro bundle`` writes the same
arena, and :func:`load_mechanism` (``repro sanitize --bundle``) reads it
back.  Warm start opens the arena — which checks every file against its
manifest SHA-256 and re-guards every node at its level's epsilon —
verifies the stored epsilon split, metric, index shape, prior and
fingerprint against the requesting mechanism, then adopts each node's
guarded mechanism into its cache.  An engine warm-starting from the
store therefore can only ever adopt matrices solved for *exactly* its
own configuration.

Crash model: :meth:`~repro.serve.arena.MechanismArena.freeze` writes
into a temporary sibling directory, fsyncs every file, and publishes it
by rename, so a crash can never publish a torn arena.  An arena that
fails to open — a flipped byte, a truncated array, an unreadable
manifest, a node failing the guard — is **quarantined** whole to a
``.quarantine/`` subdirectory (with a ``repro_store_quarantined_total``
metric) and treated as a store miss, so ``get_or_build`` rebuilds it
instead of raising into the serving path.  Stale-*configuration*
entries (a readable arena solved for a different budget, metric, index
or prior) still raise: they indicate operator error, not corruption,
and must never be silently rebuilt over.

This is the paper's Section 3.1 deployment model applied server-side:
precompute once, persist, and let every later engine skip the LP solves
entirely (Bordenabe et al. show why re-solving is the cost to avoid;
Chatzikokolakis et al. make precompute-plus-reuse the canonical
throughput lever).  Version-1 and version-2 ``.npz`` bundles are no
longer read; re-run ``repro bundle`` to migrate one.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.exceptions import MechanismError
from repro.geo.bbox import BoundingBox
from repro.geo.metric import Metric, get_metric
from repro.grid.hierarchy import HierarchicalGrid
from repro.grid.regular import RegularGrid
from repro.obs import NOOP, Observability
from repro.core.kernel import CompiledWalk
from repro.core.msm import MultiStepMechanism
from repro.priors.base import GridPrior
from repro.serve.arena import ArenaError, MechanismArena


def prior_hash(prior) -> str:
    """SHA-256 of a grid prior (probabilities + grid geometry)."""
    h = hashlib.sha256()
    b = prior.grid.bounds
    h.update(
        repr((b.min_x, b.min_y, b.max_x, b.max_y,
              prior.grid.granularity)).encode()
    )
    h.update(prior.probabilities.tobytes())
    return h.hexdigest()


def config_fingerprint(msm: MultiStepMechanism) -> str:
    """The store key for an MSM: hash of everything the LPs depend on."""
    index = msm.index
    b = index.bounds
    h = hashlib.sha256()
    h.update(
        repr((
            # v2: spanner_dilation joined the key — matrices solved over
            # a Δ-spanner constraint subset are not interchangeable with
            # exact-LP ones, so they must never share a slot.
            "msm-config-v2",
            (b.min_x, b.min_y, b.max_x, b.max_y),
            getattr(index, "granularity", None),
            msm.height,
            msm.budgets,
            msm.dq.name,
            msm.engine.dx.name,
            msm.spanner_dilation,
        )).encode()
    )
    h.update(prior_hash(msm.prior).encode())
    return h.hexdigest()


def write_mechanism(
    msm: MultiStepMechanism, directory: str | Path
) -> MechanismArena:
    """Compile ``msm`` (solving every node its cache lacks) and freeze
    it into the arena ``directory``, with what :func:`load_mechanism`
    needs to rebuild it.  Returns the published arena.

    Raises
    ------
    MechanismError
        If the mechanism does not run over a hierarchical grid: the
        adaptive indexes derive their geometry from data samples, which
        belong to the producer, not the arena.
    """
    index = msm.index
    if not isinstance(index, HierarchicalGrid):
        raise MechanismError(
            "persisted mechanisms support MSM over a HierarchicalGrid only"
        )
    grid = msm.prior.grid
    b = grid.bounds
    return MechanismArena.freeze(
        msm.engine.compile(build=True),
        directory,
        mechanism={
            "granularity": index.granularity,
            "dq": msm.dq.name,
            "fingerprint": config_fingerprint(msm),
            "prior_granularity": grid.granularity,
            "prior_bounds": [b.min_x, b.min_y, b.max_x, b.max_y],
            "prior": msm.prior.probabilities,
        },
    )


def load_mechanism(
    directory: str | Path,
    expect_budgets: Sequence[float] | None = None,
    expect_metric: Metric | str | None = None,
) -> MultiStepMechanism:
    """Rebuild the grid MSM :func:`write_mechanism` froze into
    ``directory``; sampling needs no further LP work.

    The arena is opened verifying (checksums, then every node through
    the privacy guard), so a corrupt or tampered arena fails closed
    here rather than serving.  ``expect_budgets`` / ``expect_metric``
    declare the configuration the caller expects; a stored epsilon
    split or utility metric that differs raises.

    Raises
    ------
    MechanismError
        On a missing directory, a ``.npz`` file (the retired bundle
        format), an arena without a grid-mechanism description, or a
        configuration mismatch.
    ArenaError, PrivacyViolationError
        When the arena fails its checksums or a node fails the guard.
    """
    directory = Path(directory)
    if directory.is_file():
        raise MechanismError(
            f"{directory} is a file, not a mechanism arena directory; "
            f".npz bundles are no longer read — re-run `repro bundle "
            f"--out DIR` to write one"
        )
    if not directory.exists():
        raise MechanismError(f"bundle not found: {directory}")
    arena = MechanismArena.open(directory)
    meta = arena.mechanism
    if "granularity" not in meta:
        raise MechanismError(
            f"arena {directory} does not describe a grid mechanism; "
            f"write it with `repro bundle`"
        )
    walk = arena.compiled()
    _verify_config(directory, walk.budgets, meta["dq"],
                   expect_budgets, expect_metric)
    try:
        dx = get_metric(walk.dx)
    except KeyError as exc:
        raise MechanismError(f"arena {directory}: {exc}") from None
    prior = GridPrior(
        RegularGrid(
            BoundingBox(*meta["prior_bounds"]), int(meta["prior_granularity"])
        ),
        np.array(meta["prior"]),
        name="bundled",
    )
    msm = MultiStepMechanism(
        HierarchicalGrid(
            BoundingBox(*arena.bounds), int(meta["granularity"]), walk.n_levels
        ),
        walk.budgets,
        prior,
        dq=get_metric(meta["dq"]),
        dx=dx,
    )
    _adopt(msm, arena, walk, "bundle")
    return msm


def _adopt(
    msm: MultiStepMechanism,
    arena: MechanismArena,
    walk: CompiledWalk,
    source: str,
) -> int:
    """Put each node's guarded mechanism into ``msm.cache`` (nodes it
    already holds are kept); degraded nodes keep their recorded
    fallback source and reason.  Returns the number adopted."""
    adopted = 0
    for node_id, matrix in arena.matrices.items():
        path = walk.paths[node_id]
        if path in msm.cache:
            continue
        degraded = bool(walk.degraded[node_id])
        level = int(walk.level[node_id]) + 1
        msm.cache.put(
            path,
            matrix,
            degraded=degraded,
            source=walk.source[node_id] if degraded else source,
            reason=walk.reason[node_id] or None,
            level=level,
            epsilon=walk.budgets[level - 1],
        )
        adopted += 1
    return adopted


def _verify_config(
    path: Path,
    budgets: tuple[float, ...],
    dq_name: str,
    expect_budgets: Sequence[float] | None,
    expect_metric: Metric | str | None,
) -> None:
    """Reject an arena whose stored configuration does not match the
    requesting mechanism's — serving matrices solved for a different
    epsilon split or utility metric would silently mis-spend the budget
    (or mis-optimise utility) of every report."""
    if expect_budgets is not None:
        wanted = tuple(float(b) for b in expect_budgets)
        match = len(wanted) == len(budgets) and all(
            abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
            for a, b in zip(wanted, budgets)
        )
        if not match:
            raise MechanismError(
                f"arena {path} stores epsilon split "
                f"{tuple(round(b, 6) for b in budgets)} but the "
                f"requesting mechanism expects "
                f"{tuple(round(b, 6) for b in wanted)}; refusing to "
                f"serve matrices solved for a different budget"
            )
    if expect_metric is not None:
        wanted_name = (
            expect_metric if isinstance(expect_metric, str)
            else expect_metric.name
        )
        if wanted_name != dq_name:
            raise MechanismError(
                f"arena {path} stores mechanisms optimised for metric "
                f"{dq_name!r} but the requesting mechanism expects "
                f"{wanted_name!r}"
            )


@dataclass(frozen=True)
class StoreRecord:
    """Outcome of one store interaction."""

    fingerprint: str
    #: the configuration's arena directory
    path: Path
    #: "hit" (warm-started from disk), "built" (solved then persisted),
    #: or "saved" (explicit save)
    outcome: str
    #: node mechanisms adopted into the requesting mechanism's cache
    adopted: int
    #: the arena at ``path``, mapped (verified on a hit)
    arena: MechanismArena


class MechanismStore:
    """A directory of mechanism arenas keyed by configuration fingerprint.

    Thread-safe: concurrent :meth:`get_or_build` calls for the same
    configuration serialise on a per-fingerprint lock, so the LP sweep
    runs at most once per process, and arenas are published by rename
    so a concurrent reader (or a crash mid-write) can never observe a
    torn one.
    """

    _obs = NOOP

    def __init__(self, root: str | Path):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fp_locks: dict[str, threading.Lock] = {}

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle (store traffic metrics)."""
        self._obs = obs

    def _record(self, outcome: str, adopted: int = 0) -> None:
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter(
                "repro_store_requests_total", outcome=outcome
            ).inc()
            if adopted:
                metrics.counter("repro_store_adopted_total").inc(adopted)

    def _fingerprint_lock(self, fingerprint: str) -> threading.Lock:
        with self._lock:
            lock = self._fp_locks.get(fingerprint)
            if lock is None:
                lock = self._fp_locks[fingerprint] = threading.Lock()
            return lock

    def _path(self, fingerprint: str) -> Path:
        return self._root / f"msm-{fingerprint}.arena"

    def path_for(self, msm: MultiStepMechanism) -> Path:
        """Where this mechanism's arena lives (or would live)."""
        return self._path(config_fingerprint(msm))

    def __contains__(self, msm: MultiStepMechanism) -> bool:
        return self.path_for(msm).exists()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, msm: MultiStepMechanism) -> StoreRecord:
        """Compile ``msm`` (solving any node its cache lacks) and
        publish its arena under its fingerprint (see
        :func:`write_mechanism`)."""
        fingerprint = config_fingerprint(msm)
        arena = write_mechanism(msm, self._path(fingerprint))
        if self._obs.enabled:
            self._obs.metrics.gauge("repro_store_arena_bytes").set(
                arena.nbytes
            )
        self._record("saved")
        return StoreRecord(
            fingerprint=fingerprint,
            path=arena.directory,
            outcome="saved",
            adopted=0,
            arena=arena,
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt arena directory out of the way.

        It is renamed into ``.quarantine/`` under a non-colliding name
        so the evidence survives for post-mortem while the fingerprint
        slot frees up for a rebuild.  Failures here are swallowed:
        quarantine is best-effort cleanup on an already-broken arena
        and must never take down the serving path.
        """
        quarantine = self._root / ".quarantine"
        try:
            quarantine.mkdir(exist_ok=True)
            dest = quarantine / path.name
            suffix = 0
            while dest.exists():
                suffix += 1
                dest = quarantine / f"{path.name}.{suffix}"
            os.replace(path, dest)
        except OSError:
            return
        if self._obs.enabled:
            self._obs.metrics.counter("repro_store_quarantined_total").inc()
        with self._obs.tracer.span(
            "store.quarantine", path=str(path), reason=reason
        ):
            pass

    def warm_start(self, msm: MultiStepMechanism) -> StoreRecord | None:
        """Adopt stored node mechanisms into ``msm``'s cache, if present.

        Returns None on a store miss.  On a hit, the arena is opened
        verifying (checksums, then every node through the guard), the
        stored epsilon split / metric / index shape / prior /
        fingerprint are verified against the requesting mechanism, and
        the guarded mechanisms enter ``msm.cache`` with
        ``source="store"`` provenance (degraded nodes keep their
        original fallback provenance).

        An arena that fails to open — checksum mismatch, truncated or
        missing array, unreadable manifest, or a node failing the
        privacy guard — is quarantined to ``.quarantine/`` and reported
        as a miss, so the caller rebuilds instead of crashing the
        serving path.  A legacy ``msm-*.npz`` bundle is never read.

        Raises
        ------
        MechanismError
            When a *readable* arena exists under this fingerprint but
            stores a configuration that does not match the requesting
            mechanism (a stale or tampered entry) — it is never
            silently served, and never silently rebuilt over.
        """
        fingerprint = config_fingerprint(msm)
        path = self._path(fingerprint)
        if not path.exists():
            self._record("miss")
            return None
        try:
            arena = MechanismArena.open(path)
            meta = arena.mechanism
            if "fingerprint" not in meta or arena.matrices is None:
                raise ArenaError(f"{path} holds no guarded grid mechanism")
        except Exception as exc:  # noqa: BLE001 - any corruption shape
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            self._record("miss")
            return None
        walk = arena.compiled()
        _verify_config(path, walk.budgets, meta["dq"], msm.budgets, msm.dq)
        self._verify_geometry(path, msm, arena)
        if meta.get("fingerprint") != fingerprint:
            raise MechanismError(
                f"store entry {path} was solved for a different "
                f"configuration (fingerprint "
                f"{str(meta.get('fingerprint'))[:12]}…); refusing to "
                f"warm-start from it"
            )
        adopted = _adopt(msm, arena, walk, "store")
        self._record("hit", adopted)
        return StoreRecord(
            fingerprint=fingerprint,
            path=path,
            outcome="hit",
            adopted=adopted,
            arena=arena,
        )

    def get_or_build(self, msm: MultiStepMechanism) -> StoreRecord:
        """Warm-start ``msm`` from the store, solving and persisting on a
        miss.

        On a hit the requesting mechanism performs *zero* LP solves and
        nothing is written; on a miss it precomputes every reachable
        node (through its own resilient/guarded solve path) and the
        result is persisted for the next process.  Single-flight per
        fingerprint within this process.
        """
        fingerprint = config_fingerprint(msm)
        with self._fingerprint_lock(fingerprint):
            record = self.warm_start(msm)
            if record is not None:
                return record
            msm.precompute()
            saved = self.save(msm)
            self._record("built")
            return StoreRecord(
                fingerprint=fingerprint,
                path=saved.path,
                outcome="built",
                adopted=0,
                arena=saved.arena,
            )

    @staticmethod
    def _verify_geometry(
        path: Path, msm: MultiStepMechanism, arena: MechanismArena
    ) -> None:
        """Stale-entry rejection beyond the epsilon split and metric:
        the index shape and the prior must match the requesting
        mechanism's."""
        index, meta = msm.index, arena.mechanism
        same_shape = (
            getattr(index, "granularity", None) == meta.get("granularity")
            and msm.height == arena.n_levels
            and index.bounds == BoundingBox(*arena.bounds)
        )
        if not same_shape:
            raise MechanismError(
                f"store entry {path} was solved for a different index "
                f"shape; refusing to warm-start from it"
            )
        want_p, got_p = msm.prior.probabilities, np.asarray(meta["prior"])
        if want_p.shape != got_p.shape or not np.allclose(
            want_p, got_p, rtol=1e-9, atol=1e-12
        ):
            raise MechanismError(
                f"store entry {path} was solved under a different prior; "
                f"refusing to warm-start from it"
            )

    def entries(self) -> list[Path]:
        """All arena directories currently in the store."""
        return sorted(self._root.glob("msm-*.arena"))
