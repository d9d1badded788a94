"""Deterministic fault injection, chaos testing and the walk oracle.

See :mod:`repro.testing.faults` for the LP-substrate fault rules,
:mod:`repro.testing.chaos` for scripted crashes and byte corruption,
and :mod:`repro.testing.oracle` for the Algorithm-1 reference walk the
compiled kernel is held to (imported from there, not re-exported).
"""

from repro.testing.chaos import (
    CrashError,
    CrashFault,
    CrashingLedger,
    CrashPoint,
    corrupt_journal_entry,
    flip_byte,
    truncate_tail,
)
from repro.testing.faults import (
    FaultInjectingSolver,
    FaultRule,
    FlakyCacheProxy,
    LatencyFault,
    RaiseFault,
    SolveCall,
    StatusFault,
)

__all__ = [
    "CrashError",
    "CrashFault",
    "CrashPoint",
    "CrashingLedger",
    "FaultInjectingSolver",
    "FaultRule",
    "FlakyCacheProxy",
    "LatencyFault",
    "RaiseFault",
    "SolveCall",
    "StatusFault",
    "corrupt_journal_entry",
    "flip_byte",
    "truncate_tail",
]
