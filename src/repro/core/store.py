"""Persistent mechanism store: warm-start engines across runs.

The node cache makes repeat queries cheap *within* a process; this
module makes them cheap *across* processes.  A
:class:`MechanismStore` is a directory of offline bundles
(:mod:`repro.core.bundle`), keyed by a **configuration fingerprint** —
a SHA-256 over everything that determines the solved matrices:

* index shape (bounds, per-level fanout, height),
* the per-level epsilon split,
* the utility and distinguishability metrics,
* the Δ-spanner dilation the cold LP builds use (``None`` = exact),
* a hash of the modelling prior.

An engine warm-starting from the store therefore can only ever adopt
matrices solved for *exactly* its own configuration; any drift — a
re-allocated budget, a different prior, a resized grid — lands on a
different fingerprint and misses.  Defence in depth: even on a
fingerprint hit the stored epsilon split and metric are re-verified
against the requesting mechanism (``load_bundle(expect_budgets=…,
expect_metric=…)``) and the stored prior is re-hashed, so a renamed or
stale file is rejected rather than silently served.  Every restored
matrix passes the privacy guard at load, exactly as bundles do.

Crash model: ``save`` fsyncs the temp file *and* the directory around
the atomic rename, so a power cut can never publish a zero-length or
torn bundle under the final name; each bundle carries a SHA-256
content checksum in a ``.sha256`` sidecar.  A bundle that fails its
checksum — or fails to load at all (truncated zip, flipped bytes, a
matrix failing the privacy guard) — is **quarantined** to a
``.quarantine/`` subdirectory (with a ``repro_store_quarantined_total``
metric) and treated as a store miss, so ``get_or_build`` rebuilds it
instead of raising into the serving path.  Stale-*configuration*
entries (a readable bundle solved for different budgets/metric/prior)
still raise: they indicate operator error, not corruption, and must
never be silently rebuilt over.

This is the paper's Section 3.1 deployment model applied server-side:
precompute once, persist, and let every later engine skip the LP solves
entirely (Bordenabe et al. show why re-solving is the cost to avoid;
Chatzikokolakis et al. make precompute-plus-reuse the canonical
throughput lever).

Alongside each bundle the store persists the **compiled walk arena**
(:mod:`repro.core.kernel`) in a ``.kernel.npz`` sidecar, so a
warm-started server starts on the fused array path without paying the
compile.  The sidecar is never trusted on its own: at warm start the
engine recompiles from the just-adopted cache and the persisted arena
must match that fresh compile *bitwise* (:meth:`CompiledWalk.equals`);
a mismatched or unreadable sidecar is quarantined while the bundle —
which was independently checksummed and guard-verified — keeps
serving.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import MechanismError
from repro.obs import NOOP, Observability
from repro.core.bundle import load_bundle, save_bundle
from repro.core.kernel import CompiledWalk
from repro.core.ledger import fsync_directory
from repro.core.msm import MultiStepMechanism


def _file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_file(path: str | Path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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


@dataclass(frozen=True)
class StoreRecord:
    """Outcome of one store interaction."""

    fingerprint: str
    path: Path
    #: "hit" (warm-started from disk), "built" (solved then persisted),
    #: or "saved" (explicit save)
    outcome: str
    #: node mechanisms adopted into the requesting mechanism's cache
    adopted: int
    size_bytes: int


class MechanismStore:
    """A directory of precomputed mechanism bundles keyed by fingerprint.

    Thread-safe: concurrent :meth:`get_or_build` calls for the same
    configuration serialise on a per-fingerprint lock, so the LP sweep
    runs at most once per process, and writes go through an atomic
    rename so a concurrent reader (or a crash mid-write) can never
    observe a torn file.
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

    def path_for(self, msm: MultiStepMechanism) -> Path:
        """Where this mechanism's bundle lives (or would live)."""
        return self._root / f"msm-{config_fingerprint(msm)}.npz"

    def __contains__(self, msm: MultiStepMechanism) -> bool:
        return self.path_for(msm).exists()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, msm: MultiStepMechanism) -> StoreRecord:
        """Precompute (if needed) and persist ``msm``'s node mechanisms.

        The bundle is written to a temporary file, fsync'd, and
        atomically renamed into place (followed by a directory fsync),
        so concurrent readers see either the old complete file or the
        new complete file — never a torn one — and a crash right after
        the rename cannot publish a name whose *content* never reached
        disk.  A SHA-256 content checksum is published alongside in a
        ``.sha256`` sidecar, which :meth:`warm_start` verifies.
        """
        fingerprint = config_fingerprint(msm)
        target = self._root / f"msm-{fingerprint}.npz"
        fd, tmp = tempfile.mkstemp(
            dir=self._root, prefix=".tmp-", suffix=".npz"
        )
        os.close(fd)
        try:
            save_bundle(msm, tmp)
            _fsync_file(tmp)
            digest = _file_sha256(tmp)
            os.replace(tmp, target)
            fsync_directory(self._root)
            self._write_checksum(target, digest)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._save_kernel(msm, fingerprint)
        self._record("saved")
        return StoreRecord(
            fingerprint=fingerprint,
            path=target,
            outcome="saved",
            adopted=0,
            size_bytes=target.stat().st_size,
        )

    def _write_checksum(self, target: Path, digest: str) -> None:
        """Publish the content checksum sidecar, atomically."""
        sidecar = self.checksum_path(target)
        fd, tmp = tempfile.mkstemp(
            dir=self._root, prefix=".tmp-", suffix=".sha256"
        )
        try:
            os.write(fd, (digest + "\n").encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.replace(tmp, sidecar)
            fsync_directory(self._root)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @staticmethod
    def checksum_path(bundle_path: Path) -> Path:
        """Where a bundle's content-checksum sidecar lives."""
        return bundle_path.with_name(bundle_path.name + ".sha256")

    def kernel_path_for(self, msm: MultiStepMechanism) -> Path:
        """Where this mechanism's compiled-arena sidecar lives."""
        return self._root / f"msm-{config_fingerprint(msm)}.kernel.npz"

    def _save_kernel(self, msm: MultiStepMechanism, fingerprint: str) -> None:
        """Persist the compiled walk arena beside the bundle.

        The arena is compiled from a mechanism *restored from the
        just-written bundle*, not from the builder's in-memory cache:
        :class:`MechanismMatrix` renormalises rows at construction, so
        a bundle round trip perturbs the last ulp of each kernel and
        the builder's bits can never match a warm-starter's.  Every
        loader of the same bundle file computes identical bits, so
        compiling from a restore makes the sidecar bitwise-verifiable
        at every future warm start.  A restore that cannot hold the
        whole tree (an evicting cache) just skips the sidecar.  Same
        atomic write-and-checksum discipline as bundles.
        """
        bundle_path = self._root / f"msm-{fingerprint}.npz"
        try:
            restored = load_bundle(
                bundle_path,
                guard=True,
                expect_budgets=msm.budgets,
                expect_metric=msm.dq,
            )
        except Exception:  # noqa: BLE001 - sidecar is best-effort
            return
        compiled = restored.engine.compile(build=False)
        if compiled is None:
            return
        target = self._root / f"msm-{fingerprint}.kernel.npz"
        fd, tmp = tempfile.mkstemp(
            dir=self._root, prefix=".tmp-", suffix=".npz"
        )
        os.close(fd)
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **compiled.to_arrays())
                fh.flush()
                os.fsync(fh.fileno())
            digest = _file_sha256(tmp)
            os.replace(tmp, target)
            fsync_directory(self._root)
            self._write_checksum(target, digest)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _adopt_kernel(self, msm: MultiStepMechanism, fingerprint: str) -> None:
        """Verify-then-adopt the compiled-arena sidecar on warm start.

        The persisted arena is *evidence*, not authority: the engine
        recompiles from the cache entries just adopted (guard-verified
        by ``load_bundle``) and only keeps serving if the sidecar
        matches that fresh compile bitwise.  A mismatch — stale file,
        bit rot below the checksum's radar, tampering — quarantines the
        sidecar; the fresh compile is kept either way, so a
        warm-started engine begins on a complete kernel snapshot.
        """
        compiled = msm.engine.compile(build=False)
        path = self._root / f"msm-{fingerprint}.kernel.npz"
        if not path.exists():
            return
        if compiled is None:
            # the cache could not hold the full tree here (budget
            # eviction mid-adopt): the sidecar cannot be verified, and
            # an unverified arena must never serve — leave it on disk
            # for a configuration that can check it
            return
        try:
            with np.load(path) as data:
                stored = CompiledWalk.from_arrays(dict(data))
        except Exception as exc:  # noqa: BLE001 - any corruption shape
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return
        if not stored.equals(compiled):
            self._quarantine(
                path,
                "kernel sidecar does not match a fresh compile of the "
                "adopted cache",
            )

    def arena_dir_for(self, msm: MultiStepMechanism) -> Path:
        """Where this mechanism's serving arena lives."""
        return self._root / f"msm-{config_fingerprint(msm)}.arena"

    def export_arena(self, msm: MultiStepMechanism, directory: Path | None = None):
        """Freeze ``msm``'s compiled walk into a serving arena.

        The multi-worker pool's workers map the arena read-only at zero
        copy (:class:`~repro.serve.arena.MechanismArena`); exporting
        through the store keys the directory by the same config
        fingerprint as the bundle and the ``.kernel.npz`` sidecar, so
        one warmed mechanism yields one arena however many pools serve
        it.  Compiles through the engine's normal resolve path
        (``build=True``), warming any missing cache entries exactly
        like a precompute.

        Returns the opened :class:`~repro.serve.arena.MechanismArena`.
        """
        from repro.serve.arena import MechanismArena

        compiled = msm.engine.compile(build=True)
        target = directory if directory is not None else self.arena_dir_for(msm)
        arena = MechanismArena.freeze(compiled, target)
        if self._obs.enabled:
            self._obs.metrics.gauge("repro_store_arena_bytes").set(
                arena.nbytes
            )
        return arena

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt bundle (and its sidecar) out of the way.

        The bundle is renamed into ``.quarantine/`` under a
        non-colliding name so the evidence survives for post-mortem
        while the fingerprint slot frees up for a rebuild.  Failures
        here are swallowed: quarantine is best-effort cleanup on an
        already-broken file and must never take down the serving path.
        """
        quarantine = self._root / ".quarantine"
        try:
            quarantine.mkdir(exist_ok=True)
        except OSError:
            return
        for victim in (path, self.checksum_path(path)):
            if not victim.exists():
                continue
            dest = quarantine / victim.name
            suffix = 0
            while dest.exists():
                suffix += 1
                dest = quarantine / f"{victim.name}.{suffix}"
            try:
                os.replace(victim, dest)
            except OSError:
                continue
        if self._obs.enabled:
            self._obs.metrics.counter("repro_store_quarantined_total").inc()
        with self._obs.tracer.span(
            "store.quarantine", path=str(path), reason=reason
        ):
            pass

    def warm_start(self, msm: MultiStepMechanism) -> StoreRecord | None:
        """Adopt stored node mechanisms into ``msm``'s cache, if present.

        Returns None on a store miss.  On a hit, the bundle's content
        checksum is verified first (when its sidecar exists), every
        stored matrix is guard-validated, the stored epsilon split /
        metric / prior are verified against the requesting mechanism,
        and the matrices enter ``msm.cache`` with ``source="store"``
        provenance (degraded nodes keep their original fallback
        provenance).

        A bundle that is *corrupt* — checksum mismatch, truncated or
        unreadable file, or a restored matrix failing the privacy
        guard — is quarantined to ``.quarantine/`` and reported as a
        miss, so the caller rebuilds instead of crashing the serving
        path.

        Raises
        ------
        MechanismError
            When a *readable* file exists under this fingerprint but
            stores a configuration that does not match the requesting
            mechanism (a stale or tampered entry) — it is never
            silently served, and never silently rebuilt over.
        """
        fingerprint = config_fingerprint(msm)
        path = self._root / f"msm-{fingerprint}.npz"
        if not path.exists():
            self._record("miss")
            return None
        sidecar = self.checksum_path(path)
        if sidecar.exists():
            try:
                expected = sidecar.read_text().strip()
                actual = _file_sha256(path)
            except OSError as exc:
                self._quarantine(path, f"unreadable: {exc}")
                self._record("miss")
                return None
            if expected != actual:
                self._quarantine(
                    path,
                    f"content checksum mismatch "
                    f"(expected {expected[:12]}…, got {actual[:12]}…)",
                )
                self._record("miss")
                return None
        try:
            restored = load_bundle(
                path,
                guard=True,
                expect_budgets=msm.budgets,
                expect_metric=msm.dq,
            )
        except MechanismError:
            # a readable bundle for a *different* configuration: stale,
            # not corrupt — refuse loudly rather than rebuild over it
            raise
        except Exception as exc:  # noqa: BLE001 - any corruption shape
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            self._record("miss")
            return None
        self._verify_geometry(path, msm, restored)
        adopted = 0
        skipped = 0
        for node_path, entry in restored.cache.snapshot().items():
            if node_path in msm.cache:
                skipped += 1
                continue
            msm.cache.put(
                node_path,
                entry.matrix,
                degraded=entry.degraded,
                source=entry.source if entry.degraded else "store",
                reason=entry.reason,
                level=entry.level,
                epsilon=entry.epsilon,
            )
            adopted += 1
        if skipped == 0:
            # only a cache populated purely from this bundle can be
            # expected to recompile to the sidecar's exact bits; a
            # partially pre-warmed mechanism holds its own solver bits
            # and must not condemn a good sidecar over the difference
            self._adopt_kernel(msm, fingerprint)
        self._record("hit", adopted)
        return StoreRecord(
            fingerprint=fingerprint,
            path=path,
            outcome="hit",
            adopted=adopted,
            size_bytes=path.stat().st_size,
        )

    def get_or_build(self, msm: MultiStepMechanism) -> StoreRecord:
        """Warm-start ``msm`` from the store, solving and persisting on a
        miss.

        On a hit the requesting mechanism performs *zero* LP solves; on
        a miss it precomputes every reachable node (through its own
        resilient/guarded solve path) and the result is persisted for
        the next process.  Single-flight per fingerprint within this
        process.
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
                size_bytes=saved.size_bytes,
            )

    def _verify_geometry(
        self,
        path: Path,
        msm: MultiStepMechanism,
        restored: MultiStepMechanism,
    ) -> None:
        """Stale-entry rejection beyond what load_bundle verifies: index
        shape and prior must hash identically to the requesting
        mechanism's."""
        want, got = msm.index, restored.index
        same_shape = (
            getattr(want, "granularity", None)
            == getattr(got, "granularity", None)
            and msm.height == restored.height
            and want.bounds == got.bounds
        )
        if not same_shape:
            raise MechanismError(
                f"store entry {path} was solved for a different index "
                f"shape; refusing to warm-start from it"
            )
        want_p, got_p = msm.prior.probabilities, restored.prior.probabilities
        if want_p.shape != got_p.shape or not np.allclose(
            want_p, got_p, rtol=1e-9, atol=1e-12
        ):
            raise MechanismError(
                f"store entry {path} was solved under a different prior; "
                f"refusing to warm-start from it"
            )

    def entries(self) -> list[Path]:
        """All bundle files currently in the store (kernel sidecars are
        companions of their bundle, not entries in their own right)."""
        return sorted(
            path
            for path in self._root.glob("msm-*.npz")
            if not path.name.endswith(".kernel.npz")
        )
