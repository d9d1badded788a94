"""The mechanism arena: a frozen compiled walk, mapped at zero copy.

The multi-worker serving tier (:mod:`repro.serve.pool`) needs every
worker process to sample from the *same* warmed mechanism without N
copies of the per-level CDF arenas in memory.  PR 8's
:class:`~repro.core.kernel.CompiledWalk` is already the right artifact
— flat numpy arrays, no Python object graph — so freezing it is just a
matter of putting those arrays somewhere every process can map
read-only.

:class:`MechanismArena` does that with a directory of ``.npy`` files
(one per array of :meth:`CompiledWalk.to_arrays`) plus a checksummed
``manifest.json``:

* :meth:`MechanismArena.freeze` writes each array with ``np.save``
  (fsync'd), then publishes the manifest atomically (tmp file →
  ``os.replace`` → directory fsync, the store's discipline) — a reader
  never observes a half-written arena;
* :meth:`MechanismArena.open` maps every array back with
  ``np.load(..., mmap_mode="r")``.  The OS page cache backs all
  mappings of the same file with the same physical pages, so N workers
  opening one arena share one copy of the CDF arenas — this is the
  zero-copy contract.  The mapping is read-only at the ``mmap`` level:
  a worker *cannot* corrupt the mechanism for its peers;
* every file's SHA-256 is recorded in the manifest and verified on
  open (one sequential read; the arrays are small next to the datasets
  they protect), so a torn copy or bit rot fails loudly at worker
  startup instead of skewing the sampled distribution.

Scalar metadata (``budgets``, ``n_cdf_levels``) lives in the manifest
rather than as 0-d ``.npy`` files, and :meth:`MechanismArena.compiled`
rebuilds a :class:`CompiledWalk` through the ordinary
:meth:`~repro.core.kernel.CompiledWalk.from_arrays` path — the dtype
round trip is exact, so the rebuilt walk keeps referencing the mapped
pages instead of copying them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kernel import CompiledWalk
from repro.core.ledger import fsync_directory
from repro.exceptions import ServeError

#: Manifest format version (2: the membership arrays of graph walks;
#: 3: the box-tiles locate kind, which an older reader cannot walk).
#: An arena of another format is refused at open.
ARENA_FORMAT = 3

#: ``to_arrays`` keys that are scalar metadata, not mappable arrays.
_META_KEYS = ("budgets", "n_cdf_levels")

MANIFEST_NAME = "manifest.json"


class ArenaError(ServeError):
    """A mechanism arena is missing, torn, or fails verification."""

    def __init__(self, message: str):
        super().__init__(message, reason="arena")


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class MechanismArena:
    """A read-only, mmap-backed snapshot of one compiled walk.

    Construct via :meth:`freeze` (writer side) or :meth:`open` (worker
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

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls, compiled: CompiledWalk, directory: str | Path
    ) -> "MechanismArena":
        """Persist ``compiled`` into ``directory`` and return it mapped.

        The manifest is written last and atomically, so a concurrent
        (or crashed) freeze can never publish a partial arena: either
        :meth:`open` finds a manifest whose checksums all verify, or it
        finds no arena at all.  A snapshot with pending nodes is
        refused: a worker has no resolver, so it could not walk them.
        """
        if not compiled.complete:
            raise ArenaError(
                "cannot freeze an incomplete kernel snapshot; compile it "
                "with build=True first"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        flat = compiled.to_arrays()
        entries: dict[str, dict] = {}
        for key, value in flat.items():
            if key in _META_KEYS:
                continue
            target = directory / f"{key}.npy"
            with open(target, "wb") as fh:
                np.save(fh, np.asarray(value))
                fh.flush()
                os.fsync(fh.fileno())
            entries[key] = {
                "sha256": _file_sha256(target),
                "bytes": target.stat().st_size,
            }
        manifest = {
            "format": ARENA_FORMAT,
            "arrays": entries,
            "meta": {
                "budgets": [float(b) for b in compiled.budgets],
                "n_cdf_levels": len(compiled.cdf_levels),
            },
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
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-manifest-")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, directory / MANIFEST_NAME)
            fsync_directory(directory)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return cls.open(directory, verify=False)

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, directory: str | Path, verify: bool = True
    ) -> "MechanismArena":
        """Map an arena read-only; verify every file against the
        manifest unless ``verify=False`` (the freezer just hashed them).

        Raises :class:`ArenaError` on a missing manifest, an unreadable
        manifest, a missing array file, or a checksum mismatch — an
        unverifiable arena must never serve.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ArenaError(f"no arena manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
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
            if verify and _file_sha256(target) != entry.get("sha256"):
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
        return cls(directory, manifest, arrays)

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

    def contains(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside the served domain."""
        min_x, min_y, max_x, max_y = self.bounds
        return min_x <= x <= max_x and min_y <= y <= max_y

    def compiled(self) -> CompiledWalk:
        """The frozen walk, its large arrays backed by the mapping."""
        flat: dict[str, np.ndarray] = dict(self._arrays)
        meta = self._manifest["meta"]
        flat["budgets"] = np.asarray(meta["budgets"], dtype=float)
        flat["n_cdf_levels"] = np.asarray(
            int(meta["n_cdf_levels"]), dtype=np.int64
        )
        walk = CompiledWalk.from_arrays(flat)
        walk.cache_version = int(self._manifest.get("cache_version", 0))
        return walk
