"""Chaos harness: scripted crashes and byte-level corruption.

The crash-safety claims of the budget ledger (see
:mod:`repro.core.ledger`) are *ordering* claims — "a reservation is
durable before sampling may begin", "a torn tail replays as spend" —
and ordering claims need a harness that can stop the world at an exact
point in the protocol, not a fuzzer that might.  This module provides
three deterministic instruments:

* :class:`CrashingLedger` — a drop-in proxy over a real
  :class:`~repro.core.ledger.BudgetLedger` that raises
  :class:`CrashError` at a scripted :class:`CrashPoint` (before or
  after the nth call of a given op).  Crashing *after* an append is the
  interesting case: the entry is already durable on disk while the
  in-process caller never observes the return — exactly the window a
  power cut leaves behind.  The journal file survives the "crash", so a
  test reopens it with a fresh ledger and asserts on the replay.
* Byte-surgery helpers — :func:`truncate_tail` (the classic torn final
  write) and :func:`flip_byte` (silent media corruption) mutilate a
  journal or a mechanism arena's array at exact offsets, so
  replay/quarantine paths are exercised against realistic artefacts
  rather than hand-built garbage; :func:`rewrite_arena_array` edits an
  arena and re-checksums it, the tampering only the guard at open can
  catch.
* :class:`CrashFault` — a :class:`~repro.testing.faults.FaultRule`
  that raises :class:`CrashError` from inside the LP substrate.
  Because :class:`CrashError` is *not* a
  :class:`~repro.exceptions.SolverError`, the resilience ladder cannot
  degrade around it: it tears through the engine mid-batch, which is
  how tests prove a failed batch *charges* the budget (fail closed)
  instead of refunding it.

Everything here is deterministic and consumes no wall clock; the
process-level complement (SIGKILL against a live server) lives in the
``chaos``-marked subprocess tests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.ledger import BudgetLedger, LedgerReplay, OpenReservation
from repro.serve.arena import MANIFEST_NAME, file_sha256
from repro.testing.faults import FaultRule

#: The ledger write ops a :class:`CrashPoint` can name.
_OPS = ("reserve", "reserve_many", "commit", "compact")


class CrashError(RuntimeError):
    """A simulated process death at a scripted protocol point.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`
    subclass: production code must never have a handler that matches
    it, the same way no handler matches SIGKILL.
    """


@dataclass(frozen=True)
class CrashPoint:
    """Where in the ledger protocol to die.

    ``op`` is the ledger method name (``"reserve"``, ``"reserve_many"``,
    ``"commit"``, ``"compact"``); ``nth`` is the 1-based
    call count of that op; ``when`` is ``"before"`` (the append never
    happened) or ``"after"`` (the append is durable, the caller never
    saw it succeed).

    A group append journals several reservations at once, so a
    ``reserve_many`` call counts once as ``reserve_many`` and once per
    entry as ``reserve``: a ``"reserve"`` point fires at the group that
    holds its nth reservation, before or after the whole group.
    """

    op: str
    nth: int = 1
    when: str = "after"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown ledger op {self.op!r}")
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.when not in ("before", "after"):
            raise ValueError(f"when must be before/after, got {self.when!r}")


class CrashingLedger:
    """A :class:`BudgetLedger` proxy that dies on schedule.

    Drop-in wherever a ledger is accepted (a
    :class:`~repro.core.session.ShardBudgetBook`'s ``ledger=``
    parameter, which the pool's workers drive): all reads pass through,
    and each write op checks the scripted :class:`CrashPoint` list
    before and after delegating.  After a crash fires, every subsequent
    write also raises — a dead process does not come back — until the
    test builds a fresh ledger over the surviving journal file.
    """

    def __init__(
        self,
        inner: BudgetLedger,
        crash_points: tuple[CrashPoint, ...] | list[CrashPoint] = (),
    ):
        self._inner = inner
        self._points = list(crash_points)
        self._counts: dict[str, int] = {}
        #: the point that fired, or None while still alive
        self.crashed_at: CrashPoint | None = None
        #: every successful write, as ``(op, entry_id)`` pairs
        self.log: list[tuple[str, str]] = []

    # -- crash machinery ------------------------------------------------
    def _enter(self, **calls: int) -> dict[str, range]:
        """Count a write that makes ``calls[op]`` calls of each op, and
        die if a "before" point falls on one; returns the 1-based call
        numbers it covers per op."""
        if self.crashed_at is not None:
            raise CrashError(
                f"ledger already crashed at {self.crashed_at}"
            )
        spans = {}
        for op, n in calls.items():
            first = self._counts.get(op, 0) + 1
            self._counts[op] = first + n - 1
            spans[op] = range(first, first + n)
        self._maybe_crash("before", spans)
        return spans

    def _maybe_crash(self, when: str, spans: dict[str, range]) -> None:
        for point in self._points:
            span = spans.get(point.op)
            if point.when == when and span is not None and point.nth in span:
                self.crashed_at = point
                raise CrashError(
                    f"injected crash {when} {point.op} #{point.nth}"
                )

    # -- write ops ------------------------------------------------------
    def reserve(self, user: str, epsilon: float) -> str:
        spans = self._enter(reserve=1)
        entry_id = self._inner.reserve(user, epsilon)
        self.log.append(("reserve", entry_id))
        self._maybe_crash("after", spans)
        return entry_id

    def reserve_many(self, reservations) -> list[str]:
        reservations = list(reservations)
        spans = self._enter(reserve_many=1, reserve=len(reservations))
        entry_ids = self._inner.reserve_many(reservations)
        self.log.extend(("reserve", entry_id) for entry_id in entry_ids)
        self._maybe_crash("after", spans)
        return entry_ids

    def commit(self, entry_id: str) -> None:
        spans = self._enter(commit=1)
        self._inner.commit(entry_id)
        self.log.append(("commit", entry_id))
        self._maybe_crash("after", spans)

    def compact(self) -> int:
        spans = self._enter(compact=1)
        entries = self._inner.compact()
        self.log.append(("compact", str(entries)))
        self._maybe_crash("after", spans)
        return entries

    # -- passthrough reads / lifecycle ---------------------------------
    @property
    def path(self) -> Path:
        return self._inner.path

    @property
    def replay(self) -> LedgerReplay:
        return self._inner.replay

    def spent_by_user(self) -> dict[str, float]:
        return self._inner.spent_by_user()

    def spent_for(self, user: str) -> float:
        return self._inner.spent_for(user)

    def open_reservations(self) -> dict[str, OpenReservation]:
        return self._inner.open_reservations()

    def bind_observability(self, obs) -> None:
        self._inner.bind_observability(obs)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "CrashingLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# byte surgery
# ----------------------------------------------------------------------
def truncate_tail(path: str | Path, nbytes: int = 1) -> int:
    """Chop the last ``nbytes`` off a file — the torn final write.

    Returns the new size.  Truncating more bytes than the file holds
    leaves an empty file (a crash during the very first append).
    """
    path = Path(path)
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    size = path.stat().st_size
    new_size = max(0, size - nbytes)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
        fh.flush()
        os.fsync(fh.fileno())
    return new_size


def flip_byte(path: str | Path, offset: int) -> None:
    """XOR one byte at ``offset`` (negative offsets count from the end).

    Models silent single-byte media corruption; the per-entry CRC in a
    journal and the per-file SHA-256 in a mechanism arena's manifest
    both exist to catch exactly this.
    """
    path = Path(path)
    size = path.stat().st_size
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(
            f"offset {offset} outside file of {size} bytes"
        )
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([original[0] ^ 0xFF]))
        fh.flush()
        os.fsync(fh.fileno())


def rewrite_arena_array(
    directory: str | Path, key: str, array: np.ndarray
) -> None:
    """Replace array ``key`` of the mechanism arena at ``directory``
    and rewrite its manifest SHA-256 to match.

    The checksums then pass, so only the privacy guard at open can
    refuse the edit.  The old file is unlinked first, so a mapping of
    it stays intact.
    """
    directory = Path(directory)
    target = directory / f"{key}.npy"
    target.unlink()
    np.save(target, np.asarray(array))
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["arrays"][key] = {
        "sha256": file_sha256(target),
        "bytes": target.stat().st_size,
    }
    manifest_path.write_text(json.dumps(manifest))


def corrupt_journal_entry(path: str | Path, line_no: int) -> None:
    """Flip a byte inside the ``line_no``-th journal line (0-based).

    A targeted convenience over :func:`flip_byte`: finds the byte
    offset of the chosen line and corrupts its middle, so tests can
    destroy *one* specific reserve/commit without arithmetic on
    serialised lengths.
    """
    path = Path(path)
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if not 0 <= line_no < len(lines):
        raise ValueError(
            f"line {line_no} outside journal of {len(lines)} lines"
        )
    offset = sum(len(line) for line in lines[:line_no])
    flip_byte(path, offset + len(lines[line_no]) // 2)


class CrashFault(FaultRule):
    """Die inside the LP substrate, mid-batch.

    Raises :class:`CrashError`.  Note that
    :class:`~repro.core.resilience.ResilientSolver` is deliberately
    fail-closed against *any* substrate exception — wrapped in the
    resilience chain this fault is absorbed as a failed attempt and
    surfaces as a :class:`~repro.exceptions.SolverRetryExhaustedError`,
    which the engine degrades around (utility loss, privacy unchanged).
    To genuinely tear a batch, inject it through a **bare** solver with
    no resilience chain (see ``tests/test_crash_safety.py``): the
    exception then escapes the walk engine and the serving layer's
    batch-failure path runs.  The fail-closed invariant under test:
    every request in the torn batch is *charged* (sampling may already
    have begun for siblings) and its reservation committed, never
    released.
    """

    def __init__(self, message: str = "injected mid-batch crash", **match):
        super().__init__(**match)
        self._message = message

    def intercept(self, call, problem, delegate):  # noqa: D102
        raise CrashError(f"{self._message} (call #{call.index})")

    def describe(self) -> str:
        return f"crash:{self._message}"
