"""The serving tier over one shared, precomputed sanitisation engine.

:class:`ServingPool` serves concurrent per-user sanitisation requests
from worker processes: the warmed mechanism is frozen into a read-only
:class:`MechanismArena` every worker maps at zero copy, users shard to
workers by the stable hash :func:`shard_for_user` so each budget lives
in exactly one process, requests coalesce into micro-batches, and
per-shard stats/metrics fold back through an associative merge
algebra.  With a ledger directory every admission is journalled in a
:class:`~repro.core.ledger.BudgetLedger` before it may sample, so a
crash or restart can never reset a user's spent budget.
:class:`AsyncSanitizationFrontend` bridges the pool into asyncio
applications.
"""

from repro.core.ledger import BudgetLedger
from repro.serve.arena import ArenaError, MechanismArena
from repro.serve.frontend import AsyncSanitizationFrontend
from repro.serve.pool import (
    ServingPool,
    ShardBudgetBook,
    shard_for_user,
    shard_journal_path,
)
from repro.serve.server import ServerConfig, ServerStats

__all__ = [
    "ArenaError",
    "AsyncSanitizationFrontend",
    "BudgetLedger",
    "MechanismArena",
    "ServerConfig",
    "ServerStats",
    "ServingPool",
    "ShardBudgetBook",
    "shard_for_user",
    "shard_journal_path",
]
