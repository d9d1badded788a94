"""Durable budget ledger: a crash-safe write-ahead journal of spend.

The privacy guarantee of the serving tier is exactly as strong as its
budget accounting.  Each :class:`~repro.serve.ServingPool` worker keeps
its users' remaining lifetime epsilon in process memory; without a
durable record a crash or restart silently *resets* every account to
zero and lets users overdraw — the one failure mode the fail-closed design must
never allow ("failures cost utility, never privacy").

:class:`BudgetLedger` closes that hole with a classic write-ahead
journal and a **reserve → sample → commit** two-phase protocol:

``reserve``
    Written (and fsync'd) *before* the request may sample.  A
    reservation counts as spent from the moment it is durable, so a
    crash at any later point replays as spend — fail closed.  A
    micro-batch journals all its reservations in one group append
    (:meth:`BudgetLedger.reserve_many`): one write, one fsync.
``commit``
    Settles a reservation: the spend is final (the report was
    delivered, or the batch failed after sampling may have begun —
    either way the epsilon is gone).  Audit-trail only; replay counts
    the reserve whether or not its commit survived.  So a commit is
    written without an fsync of its own: the next reservation group's
    fsync or :meth:`BudgetLedger.close` makes it durable, and a commit
    lost to a power cut replays as spent.

Journals may also hold ``release`` records, which older writers
appended to refund a reservation that provably never sampled.  Nothing
writes them any more, but replay still honours them, so a journal
already on disk replays identically: a release subtracts only when its
reservation is in the journal and was not committed first.

Journal format — one JSON object per line::

    {"seq": 17, "op": "reserve", "id": "u1-17", "user": "u1",
     "eps": 0.5, "crc": "9f2a10cc"}

``crc`` is the CRC-32 of the canonical JSON of the other fields, so a
torn write (the classic crash artefact: a partial last line) or a
flipped byte is detected per entry.  Replay is deliberately lenient in
the fail-closed direction: unreadable lines are *skipped and counted*
(never fatal), every readable reservation is spend, and a release
whose reservation was lost to corruption is ignored — corruption can
only ever *increase* the replayed spend, never refund it.

Entry ids are idempotent: replay deduplicates reservations by id, so
an append retried after an ambiguous crash cannot double-charge.

Compaction (:meth:`BudgetLedger.compact`) folds settled history into
per-user ``snapshot`` entries and re-emits still-open reservations
verbatim (so their later commit still matches), writing the
new journal through the same tmp-file → fsync → ``os.replace`` →
directory-fsync sequence the mechanism store uses — a reader never
observes a torn journal file.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.exceptions import LedgerError
from repro.obs import NOOP, Observability

#: Journal format version, stamped into every entry's payload is not
#: needed — the op vocabulary is the format.  Bump the filename-level
#: convention instead if the line layout ever changes.
_OPS = ("reserve", "commit", "release", "snapshot")


def _checksum(payload: dict) -> str:
    """CRC-32 (hex) of the canonical JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode()) & 0xFFFFFFFF:08x}"


def _encode(payload: dict) -> bytes:
    entry = dict(payload)
    entry["crc"] = _checksum(payload)
    return (
        json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def _decode(line: bytes) -> dict | None:
    """Parse and verify one journal line; None when unreadable."""
    try:
        entry = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(entry, dict):
        return None
    crc = entry.pop("crc", None)
    if crc != _checksum(entry):
        return None
    op = entry.get("op")
    if op not in _OPS:
        return None
    if op in ("reserve", "snapshot"):
        eps = entry.get("eps")
        user = entry.get("user")
        if not isinstance(user, str):
            return None
        if not isinstance(eps, (int, float)) or eps <= 0:
            return None
    if op in ("reserve", "commit", "release"):
        if not isinstance(entry.get("id"), str):
            return None
    return entry


def fsync_directory(directory: str | Path) -> None:
    """fsync a directory so a rename into it is durable.

    Best-effort on platforms whose filesystems refuse directory fds
    (the rename itself is still atomic there).
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class OpenReservation:
    """A reservation with no settling commit/release in the journal."""

    entry_id: str
    user: str
    epsilon: float


@dataclass
class LedgerReplay:
    """What replaying a journal reconstructed.

    ``spent`` is the fail-closed per-user account: every readable
    reservation (settled or not) plus every snapshot, minus only the
    releases whose reservation was present and uncommitted.
    """

    spent: dict[str, float] = field(default_factory=dict)
    entries: int = 0
    corrupt_lines: int = 0
    open_reservations: dict[str, OpenReservation] = field(
        default_factory=dict
    )
    committed: int = 0
    released: int = 0
    #: highest sequence number observed (including those embedded in
    #: reservation ids, which can outlive compaction); the reopened
    #: ledger continues from here so no fresh reserve can ever re-mint
    #: a live entry id.
    max_seq: int = 0

    def spent_for(self, user: str) -> float:
        """Replayed spend for one user (0 for unknown users)."""
        return self.spent.get(user, 0.0)


def replay_journal(path: str | Path) -> LedgerReplay:
    """Reconstruct per-user spend from a journal file.

    Never raises on corruption: unreadable lines are skipped and
    counted in ``corrupt_lines``.  A missing file replays as empty.
    """
    path = Path(path)
    replay = LedgerReplay()
    if not path.exists():
        return replay
    seen_ids: set[str] = set()
    settled: set[str] = set()
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            entry = _decode(line)
            if entry is None:
                replay.corrupt_lines += 1
                continue
            replay.entries += 1
            seq = entry.get("seq")
            if isinstance(seq, int):
                replay.max_seq = max(replay.max_seq, seq)
            entry_id = entry.get("id")
            if isinstance(entry_id, str):
                _, _, suffix = entry_id.rpartition("-")
                if suffix.isdigit():
                    replay.max_seq = max(replay.max_seq, int(suffix))
            op = entry["op"]
            if op == "snapshot":
                user = entry["user"]
                replay.spent[user] = (
                    replay.spent.get(user, 0.0) + float(entry["eps"])
                )
            elif op == "reserve":
                entry_id = entry["id"]
                if entry_id in seen_ids:
                    continue  # idempotent retry of the same append
                seen_ids.add(entry_id)
                user = entry["user"]
                eps = float(entry["eps"])
                replay.spent[user] = replay.spent.get(user, 0.0) + eps
                replay.open_reservations[entry_id] = OpenReservation(
                    entry_id=entry_id, user=user, epsilon=eps
                )
            elif op == "commit":
                entry_id = entry["id"]
                reservation = replay.open_reservations.pop(entry_id, None)
                if reservation is not None:
                    settled.add(entry_id)
                    replay.committed += 1
            elif op == "release":
                entry_id = entry["id"]
                if entry_id in settled:
                    continue  # commit wins: the spend is final
                reservation = replay.open_reservations.pop(entry_id, None)
                if reservation is None:
                    # Reservation lost to corruption (or never made
                    # durable): ignoring the release errs toward
                    # counting spend, never toward refunding it.
                    continue
                settled.add(entry_id)
                replay.released += 1
                remaining = (
                    replay.spent.get(reservation.user, 0.0)
                    - reservation.epsilon
                )
                replay.spent[reservation.user] = max(0.0, remaining)
    return replay


def _ends_mid_line(path: Path) -> bool:
    """Whether ``path`` is non-empty and its last byte is not a newline."""
    with open(path, "rb") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return False
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) != b"\n"


def replay_many(paths: "Iterable[str | Path]") -> LedgerReplay:
    """Replay several shard journals into one fail-closed account.

    The multi-worker serving pool shards budget accounting by user-id
    hash: each user's journal entries live in exactly one shard file,
    so merging replays is a disjoint union — per-user spend adds (a
    user appearing in two shards would indicate a resharding bug, and
    adding is the fail-closed way to count it), corrupt-line counts
    add, and open reservations union (entry ids embed the user, so
    shards cannot collide on a live id in a correct deployment; a
    collision keeps the first-seen reservation, which only ever
    over-counts).
    """
    merged = LedgerReplay()
    for path in paths:
        replay = replay_journal(path)
        for user, eps in replay.spent.items():
            merged.spent[user] = merged.spent.get(user, 0.0) + eps
        merged.entries += replay.entries
        merged.corrupt_lines += replay.corrupt_lines
        merged.committed += replay.committed
        merged.released += replay.released
        merged.max_seq = max(merged.max_seq, replay.max_seq)
        for entry_id, reservation in replay.open_reservations.items():
            merged.open_reservations.setdefault(entry_id, reservation)
    return merged


class BudgetLedger:
    """Append-only, checksummed journal of budget spend.

    Parameters
    ----------
    path:
        The journal file.  Created (with parents) on first append;
        replayed on open when it already exists.
    sync:
        fsync reservations (once per group append) and :meth:`close` —
        the default, and the mode the crash-safety guarantee assumes.
        Commits are never fsync'd on their own: they ride on the next
        fsync.  ``sync=False`` skips every fsync, trading durability of
        the *last few* entries for throughput — replay is then still
        consistent, merely stale — and exists for benchmarks and tests.

    Thread-safe: appends serialise on an internal lock, so reserve and
    settle may come from different threads.
    """

    def __init__(
        self,
        path: str | Path,
        sync: bool = True,
        obs: Observability | None = None,
    ):
        self._path = Path(path)
        self._sync = bool(sync)
        self._obs = obs if obs is not None else NOOP
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._replay = replay_journal(self._path)
        # corrupt lines still advance the sequence: a torn reserve may
        # have carried a seq we can no longer read, and reusing it
        # would collide with a retry of the same append.
        self._seq = (
            self._replay.max_seq + self._replay.corrupt_lines
        )
        self._spent: dict[str, float] = dict(self._replay.spent)
        self._open: dict[str, OpenReservation] = dict(
            self._replay.open_reservations
        )
        self._settled: set[str] = set()
        try:
            self._fh = open(self._path, "ab")
            if _ends_mid_line(self._path):
                # a torn final line: end it, or the next entry would be
                # glued onto the fragment and lost with it on replay
                self._append_bytes(b"\n")
        except OSError as exc:
            raise LedgerError(
                f"cannot open budget journal {self._path}: {exc}"
            ) from exc
        self._record_replay()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The journal file."""
        return self._path

    @property
    def replay(self) -> LedgerReplay:
        """What opening this ledger reconstructed from disk."""
        return self._replay

    def spent_by_user(self) -> dict[str, float]:
        """Current per-user spend (replayed + appended), a copy."""
        with self._lock:
            return dict(self._spent)

    def spent_for(self, user: str) -> float:
        """Current spend for one user."""
        with self._lock:
            return self._spent.get(user, 0.0)

    def open_reservations(self) -> dict[str, OpenReservation]:
        """Reservations not yet settled (a copy)."""
        with self._lock:
            return dict(self._open)

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability handle (ledger traffic metrics)."""
        self._obs = obs
        self._record_replay()

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def reserve(self, user: str, epsilon: float) -> str:
        """Journal a reservation; returns its entry id.

        Durable (fsync'd) before this returns, so the caller may
        sample afterwards knowing a crash replays the spend.
        """
        return self.reserve_many([(user, epsilon)])[0]

    def reserve_many(
        self, reservations: "Iterable[tuple[str, float]]"
    ) -> list[str]:
        """Journal ``(user, epsilon)`` reservations as one group append.

        One write and one fsync for the whole group; returns the entry
        ids in order.  Every reservation is durable before this
        returns.  If the append fails, any of them may still be on
        disk, and replay counts those as spent (fail closed).
        """
        reservations = [(user, float(eps)) for user, eps in reservations]
        for _, epsilon in reservations:
            if epsilon <= 0:
                raise LedgerError(
                    f"reservation epsilon must be positive, got {epsilon}"
                )
        with self._lock:
            entries = []
            for user, epsilon in reservations:
                self._seq += 1
                entries.append(
                    {
                        "seq": self._seq,
                        "op": "reserve",
                        "id": f"{user}-{self._seq}",
                        "user": user,
                        "eps": epsilon,
                    }
                )
            self._append(entries)
            for entry in entries:
                user, entry_id = entry["user"], entry["id"]
                self._spent[user] = self._spent.get(user, 0.0) + entry["eps"]
                self._open[entry_id] = OpenReservation(
                    entry_id=entry_id, user=user, epsilon=entry["eps"]
                )
            self._count("reserve", len(entries))
            return [entry["id"] for entry in entries]

    def commit(self, entry_id: str) -> None:
        """Settle a reservation as finally spent."""
        with self._lock:
            reservation = self._open.pop(entry_id, None)
            if reservation is None:
                if entry_id in self._settled:
                    return  # idempotent double-settle
                raise LedgerError(
                    f"commit for unknown reservation {entry_id!r}"
                )
            self._settled.add(entry_id)
            self._seq += 1
            self._append(
                [{"seq": self._seq, "op": "commit", "id": entry_id}],
                sync=False,
            )
            self._count("commit")

    def _append(self, payloads: list[dict], sync: bool = True) -> None:
        """Write entries in one append; caller holds the lock."""
        try:
            self._append_bytes(b"".join(map(_encode, payloads)), sync)
        except (OSError, ValueError) as exc:
            raise LedgerError(
                f"cannot append to budget journal {self._path}: {exc}"
            ) from exc

    def _append_bytes(self, data: bytes, sync: bool = True) -> None:
        self._fh.write(data)
        self._fh.flush()
        if sync and self._sync:
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    # compaction and lifecycle
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the journal as snapshots + open reservations.

        Settled history collapses into one ``snapshot`` entry per user;
        open reservations are re-emitted verbatim so a later commit
        still matches.  Returns the number of entries in the
        compacted journal.  Atomic: the new journal is fully written
        and fsync'd in a temp file before ``os.replace`` publishes it.
        """
        with self._lock:
            open_eps: dict[str, float] = {}
            for reservation in self._open.values():
                open_eps[reservation.user] = (
                    open_eps.get(reservation.user, 0.0)
                    + reservation.epsilon
                )
            entries: list[dict] = []
            seq = 0
            for user in sorted(self._spent):
                settled = self._spent[user] - open_eps.get(user, 0.0)
                if settled <= 0:
                    continue
                seq += 1
                entries.append(
                    {
                        "seq": seq,
                        "op": "snapshot",
                        "user": user,
                        "eps": settled,
                    }
                )
            for entry_id in sorted(self._open):
                reservation = self._open[entry_id]
                seq += 1
                entries.append(
                    {
                        "seq": seq,
                        "op": "reserve",
                        "id": reservation.entry_id,
                        "user": reservation.user,
                        "eps": reservation.epsilon,
                    }
                )
            tmp = self._path.with_name(self._path.name + ".compact-tmp")
            try:
                with open(tmp, "wb") as fh:
                    for payload in entries:
                        fh.write(_encode(payload))
                    fh.flush()
                    os.fsync(fh.fileno())
                self._fh.close()
                os.replace(tmp, self._path)
                fsync_directory(self._path.parent)
            except OSError as exc:
                raise LedgerError(
                    f"compaction of {self._path} failed: {exc}"
                ) from exc
            finally:
                if tmp.exists():
                    tmp.unlink()
                if self._fh.closed:
                    self._fh = open(self._path, "ab")
            # _seq keeps counting monotonically: resetting it could mint
            # a reserve id colliding with a re-emitted open reservation,
            # and replay's id-dedup would then undercount the spend.
            self._seq = max(self._seq, seq)
            if self._obs.enabled:
                self._obs.metrics.counter(
                    "repro_ledger_compactions_total"
                ).inc()
            return len(entries)

    def close(self) -> None:
        """Flush and close the journal file handle."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self._sync:
                    try:
                        os.fsync(self._fh.fileno())
                    except OSError:  # pragma: no cover
                        pass
                self._fh.close()

    def __enter__(self) -> "BudgetLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _count(self, op: str, entries: int = 1) -> None:
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.counter("repro_ledger_appends_total", op=op).inc(entries)
            metrics.gauge("repro_ledger_open_reservations").set(
                len(self._open)
            )

    def _record_replay(self) -> None:
        if not self._obs.enabled:
            return
        metrics = self._obs.metrics
        metrics.gauge("repro_ledger_replayed_users").set(
            len(self._replay.spent)
        )
        metrics.gauge("repro_ledger_replayed_epsilon").set(
            sum(self._replay.spent.values())
        )
        metrics.gauge("repro_ledger_corrupt_lines").set(
            self._replay.corrupt_lines
        )
