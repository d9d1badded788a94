"""The paper's primary contribution: MSM and its budget-allocation model."""

from repro.core.budget import (
    BudgetPlan,
    allocate_budget,
    lattice_sum,
    min_epsilon_for_rho,
    min_lattice_parameter,
    phi,
    phi_for_grid,
)
from repro.core.cache import CacheEntry, NodeMechanismCache
from repro.core.ledger import (
    BudgetLedger,
    LedgerReplay,
    OpenReservation,
    replay_journal,
)
from repro.core.store import (
    MechanismStore,
    StoreRecord,
    config_fingerprint,
    load_mechanism,
    write_mechanism,
)
from repro.core.engine import (
    OptimalRemapPostProcessor,
    TelemetrySummary,
    WalkEngine,
    WalkReport,
)
from repro.core.resilience import (
    BreakerConfig,
    CircuitBreakerSolver,
    DegradationReport,
    DegradedNode,
    ResilienceConfig,
    ResilientSolver,
    SolveAttempt,
    SolveRecord,
)
from repro.core.session import SanitizationSession, SessionReport
from repro.core.msm import MultiStepMechanism, StepTrace, WalkResult

__all__ = [
    "BreakerConfig",
    "BudgetLedger",
    "BudgetPlan",
    "CacheEntry",
    "CircuitBreakerSolver",
    "DegradationReport",
    "DegradedNode",
    "LedgerReplay",
    "MechanismStore",
    "OpenReservation",
    "replay_journal",
    "MultiStepMechanism",
    "NodeMechanismCache",
    "StoreRecord",
    "config_fingerprint",
    "OptimalRemapPostProcessor",
    "ResilienceConfig",
    "ResilientSolver",
    "SanitizationSession",
    "SessionReport",
    "SolveAttempt",
    "SolveRecord",
    "StepTrace",
    "TelemetrySummary",
    "WalkEngine",
    "WalkReport",
    "WalkResult",
    "allocate_budget",
    "lattice_sum",
    "min_epsilon_for_rho",
    "min_lattice_parameter",
    "phi",
    "phi_for_grid",
    "load_mechanism",
    "write_mechanism",
]
