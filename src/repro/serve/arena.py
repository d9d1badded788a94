"""The mechanism arena: a frozen compiled walk, mapped at zero copy.

The arena is the one persisted form of a solved mechanism.  The
multi-worker serving tier (:mod:`repro.serve.pool`) maps it in every
worker process, the persistent store (:mod:`repro.core.store`) keeps
one per configuration, and ``repro bundle`` writes one for offline
use.  PR 8's :class:`~repro.core.kernel.CompiledWalk` is already the
right artifact — flat numpy arrays, no Python object graph — so
freezing it is just a matter of putting those arrays somewhere every
process can map read-only.

:class:`MechanismArena` does that with a directory of ``.npy`` files
(one per array of :meth:`CompiledWalk.to_arrays`) plus a checksummed
``manifest.json``:

* :meth:`MechanismArena.freeze` writes every file (fsync'd) into a
  sibling temporary directory and publishes it by rename.  An arena
  already published there is moved aside and deleted, never rewritten:
  its files are unlinked, so a worker that mapped them keeps their
  inodes.  A reader never observes a half-written arena;
* :meth:`MechanismArena.open` maps every array back with
  ``np.load(..., mmap_mode="r")``.  The OS page cache backs all
  mappings of the same file with the same physical pages, so N workers
  opening one arena share one copy of the CDF arenas — this is the
  zero-copy contract.  The mapping is read-only at the ``mmap`` level:
  a worker *cannot* corrupt the mechanism for its peers;
* a verifying open checks every file's SHA-256 against the manifest
  (one sequential read; the arrays are small next to the datasets they
  protect), then re-guards every internal node: the step of its CDF
  rows (``np.diff``) must pass :func:`~repro.privacy.guard.guarded_matrix`
  at its level's epsilon under the dX the compile recorded.  A torn
  copy or bit rot fails the checksum, and an arena edited and then
  re-checksummed fails the guard, both at open instead of serving.  An
  arena whose dX is not in the :func:`~repro.geo.metric.get_metric`
  registry (a road network's ``GraphMetric``) opens on checksums alone.

Scalar metadata (``budgets``, ``dx``, ``n_cdf_levels``) lives in the
manifest rather than as 0-d ``.npy`` files, and
:meth:`MechanismArena.compiled` rebuilds a :class:`CompiledWalk`
through the ordinary :meth:`~repro.core.kernel.CompiledWalk.from_arrays`
path — the dtype round trip is exact, so the rebuilt walk keeps
referencing the mapped pages instead of copying them.  A writer may add
a ``mechanism`` description (the store's grid MSMs record what a loader
needs to rebuild them): its arrays are checksummed like the walk's.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.kernel import CompiledWalk
from repro.core.ledger import fsync_directory
from repro.exceptions import MechanismError, PrivacyViolationError, ServeError
from repro.geo.metric import get_metric
from repro.mechanisms.matrix import MechanismMatrix
from repro.privacy.guard import guarded_matrix

#: Manifest format version (2: the membership arrays of graph walks;
#: 3: the box-tiles locate kind, which an older reader cannot walk;
#: 4: the dX name the open guard runs under, and the ``mechanism``
#: description).  An arena of another format is refused at open.
ARENA_FORMAT = 4

#: ``to_arrays`` keys that are scalar metadata, not mappable arrays.
_META_KEYS = ("budgets", "dx", "n_cdf_levels")

#: File-name prefix of the arrays of a ``mechanism`` description.
_MECHANISM_PREFIX = "mechanism_"

MANIFEST_NAME = "manifest.json"


class ArenaError(ServeError):
    """A mechanism arena is missing, torn, or fails verification."""

    def __init__(self, message: str):
        super().__init__(message, reason="arena")


def file_sha256(path: str | Path) -> str:
    """SHA-256 hex digest of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_durably(path: Path, write) -> dict:
    """Write a file through ``write(fh)``, fsync it, and return its
    manifest entry."""
    with open(path, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    return {"sha256": file_sha256(path), "bytes": path.stat().st_size}


def _publish(staging: Path, directory: Path) -> None:
    """Rename the complete ``staging`` directory onto ``directory``.

    An arena already there is renamed aside first and deleted after;
    deleting unlinks its files, so live mappings keep their inodes.  A
    concurrent publisher that wins the slot in between only sends this
    one round again.
    """
    retired: list[Path] = []
    try:
        while True:
            try:
                os.rename(staging, directory)
                break
            except OSError as exc:
                if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
            aside = Path(
                tempfile.mkdtemp(
                    dir=directory.parent, prefix=f".{directory.name}.old-"
                )
            )
            retired.append(aside)
            try:
                os.rename(directory, aside)
            except FileNotFoundError:
                pass
        fsync_directory(directory.parent)
    finally:
        for old in retired:
            shutil.rmtree(old, ignore_errors=True)


def _guard(walk: CompiledWalk, directory: Path) -> dict[int, MechanismMatrix] | None:
    """Every internal node's mechanism, rebuilt from the step of its CDF
    rows through the privacy guard at its level's epsilon (node id →
    matrix); None when the walk's dX is not a registered metric."""
    try:
        dx = get_metric(walk.dx)
    except KeyError:
        return None
    centers = walk.center_points
    matrices: dict[int, MechanismMatrix] = {}
    for node in np.flatnonzero(walk.child_count > 0).tolist():
        lvl = int(walk.level[node])
        start = int(walk.child_start[node])
        fanout = int(walk.child_count[node])
        row = int(walk.row_offset[node])
        cdf = walk.cdf_levels[lvl][row:row + fanout]
        children = [
            centers[c] for c in walk.child_ids[start:start + fanout].tolist()
        ]
        try:
            matrices[node] = guarded_matrix(
                children,
                children,
                np.diff(cdf, axis=1, prepend=0.0),
                epsilon=walk.budgets[lvl],
                dx=dx,
            )
        except (MechanismError, PrivacyViolationError) as exc:
            raise PrivacyViolationError(
                f"arena {directory}: node {walk.paths[node]} fails the "
                f"level-{lvl + 1} guard at epsilon {walk.budgets[lvl]}: "
                f"{exc}"
            ) from exc
    return matrices


class MechanismArena:
    """A read-only, mmap-backed snapshot of one compiled walk.

    Construct via :meth:`freeze` (writer side) or :meth:`open` (reader
    side); :meth:`compiled` hands back the walk with every large array
    still referencing the mapped file pages.
    """

    def __init__(
        self,
        directory: Path,
        manifest: dict,
        arrays: dict[str, np.ndarray],
    ):
        self._directory = directory
        self._manifest = manifest
        self._arrays = arrays
        self._matrices: dict[int, MechanismMatrix] | None = None

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls,
        compiled: CompiledWalk,
        directory: str | Path,
        mechanism: dict[str, Any] | None = None,
    ) -> "MechanismArena":
        """Persist ``compiled`` into ``directory`` and return it mapped.

        Everything is written into a sibling temporary directory and
        published by one rename, so :meth:`open` finds either a
        complete arena or none, and an arena already published at
        ``directory`` is replaced without touching the files its
        readers map.  ``mechanism`` is an optional description kept
        beside the walk: array values become checksummed ``.npy`` files,
        the rest goes into the manifest (:attr:`mechanism` reads both
        back).  A snapshot with pending nodes is refused: a worker has
        no resolver, so it could not walk them.  The returned arena is
        not re-verified: this call just wrote it.
        """
        if not compiled.complete:
            raise ArenaError(
                "cannot freeze an incomplete kernel snapshot; compile it "
                "with build=True first"
            )
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        arrays = {
            key: np.asarray(value)
            for key, value in compiled.to_arrays().items()
            if key not in _META_KEYS
        }
        described: dict[str, Any] = {}
        for key, value in (mechanism or {}).items():
            if isinstance(value, np.ndarray):
                arrays[_MECHANISM_PREFIX + key] = value
            else:
                described[key] = value
        staging = Path(
            tempfile.mkdtemp(dir=directory.parent, prefix=f".{directory.name}.tmp-")
        )
        try:
            entries = {
                key: _write_durably(
                    staging / f"{key}.npy",
                    lambda fh, value=value: np.save(fh, value),
                )
                for key, value in arrays.items()
            }
            manifest = {
                "format": ARENA_FORMAT,
                "arrays": entries,
                "meta": {
                    "budgets": [float(b) for b in compiled.budgets],
                    "dx": compiled.dx,
                    "n_cdf_levels": len(compiled.cdf_levels),
                },
                "mechanism": described,
                "n_nodes": compiled.n_nodes,
                "n_levels": compiled.n_levels,
                "nbytes": compiled.nbytes,
                "bounds": [
                    float(compiled.min_x[0]),
                    float(compiled.min_y[0]),
                    float(compiled.max_x[0]),
                    float(compiled.max_y[0]),
                ],
                "cache_version": int(compiled.cache_version),
            }
            text = json.dumps(manifest, indent=2, sort_keys=True).encode()
            _write_durably(staging / MANIFEST_NAME, lambda fh: fh.write(text))
            fsync_directory(staging)
            _publish(staging, directory)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return cls.open(directory, verify=False)

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, directory: str | Path, verify: bool = True
    ) -> "MechanismArena":
        """Map an arena read-only.

        With ``verify`` (the default) every file must match its
        manifest SHA-256 and every internal node's mechanism must pass
        the privacy guard at its level's epsilon (see the module
        docstring; an unregistered dX skips the guard).
        ``verify=False`` skips both: the freezer just wrote the files.

        Raises :class:`ArenaError` on a missing, unreadable or
        unsupported manifest, a missing array file, or a checksum
        mismatch, and :class:`~repro.exceptions.PrivacyViolationError`
        when a node fails the guard — an unverifiable arena must never
        serve.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ArenaError(f"no arena manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise ArenaError(
                f"unreadable arena manifest {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != ARENA_FORMAT:
            raise ArenaError(
                f"arena manifest {manifest_path} has unsupported format "
                f"{manifest.get('format')!r}"
            )
        arrays: dict[str, np.ndarray] = {}
        for key, entry in manifest.get("arrays", {}).items():
            target = directory / f"{key}.npy"
            if not target.exists():
                raise ArenaError(f"arena array missing: {target}")
            if verify and file_sha256(target) != entry.get("sha256"):
                raise ArenaError(
                    f"arena array {target} fails its manifest checksum "
                    f"(torn copy or bit rot); refusing to serve from it"
                )
            try:
                arrays[key] = np.load(target, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise ArenaError(
                    f"cannot map arena array {target}: {exc}"
                ) from exc
        arena = cls(directory, manifest, arrays)
        if verify:
            arena._matrices = _guard(arena.compiled(), directory)
        return arena

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def n_nodes(self) -> int:
        return int(self._manifest["n_nodes"])

    @property
    def n_levels(self) -> int:
        return int(self._manifest["n_levels"])

    @property
    def nbytes(self) -> int:
        """Total bytes of the frozen arrays (one copy machine-wide)."""
        return int(self._manifest["nbytes"])

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """The served domain as ``(min_x, min_y, max_x, max_y)``."""
        b = self._manifest["bounds"]
        return (float(b[0]), float(b[1]), float(b[2]), float(b[3]))

    @property
    def budgets(self) -> tuple[float, ...]:
        """The per-level epsilons; one walk spends their sum."""
        return tuple(float(b) for b in self._manifest["meta"]["budgets"])

    @property
    def mechanism(self) -> dict[str, Any]:
        """The ``mechanism`` description :meth:`freeze` was given
        (arrays mapped), or an empty dict."""
        described = dict(self._manifest["mechanism"])
        for key, value in self._arrays.items():
            if key.startswith(_MECHANISM_PREFIX):
                described[key[len(_MECHANISM_PREFIX):]] = value
        return described

    @property
    def matrices(self) -> dict[int, MechanismMatrix] | None:
        """Node id → the guarded mechanism the verifying open rebuilt
        from its CDF rows; None when the arena was not guarded."""
        return self._matrices

    def contains(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside the served domain."""
        min_x, min_y, max_x, max_y = self.bounds
        return min_x <= x <= max_x and min_y <= y <= max_y

    def compiled(self) -> CompiledWalk:
        """The frozen walk, its large arrays backed by the mapping."""
        flat: dict[str, np.ndarray] = dict(self._arrays)
        meta = self._manifest["meta"]
        flat["budgets"] = np.asarray(meta["budgets"], dtype=float)
        flat["dx"] = np.asarray(meta["dx"])
        flat["n_cdf_levels"] = np.asarray(
            int(meta["n_cdf_levels"]), dtype=np.int64
        )
        walk = CompiledWalk.from_arrays(flat)
        walk.cache_version = int(self._manifest.get("cache_version", 0))
        return walk
