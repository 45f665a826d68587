"""Freshness-optimal cache placement and update-rate allocation for relay caching systems."""

from .errors import (
    AllocationMismatchError,
    DomainError,
    EmptyDomainError,
    FreshCacheError,
    IncompleteAllocationError,
    InfeasibleError,
    OracleScaleError,
    ScenarioParseError,
    ScenarioValidationError,
    SearchBudgetError,
    SimulationScaleError,
)
from .freshness import ObjectiveValue, file_freshness, system_freshness, user_freshness
from .model import (
    CacheScheme,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    UserSpec,
    Violation,
    validate_scenario,
    validate_scheme,
    with_scaled_rates,
)
from .rate_alloc import (
    AllocationDiagnostics,
    AllocationEntry,
    AllocationInput,
    KktReport,
    RateAllocation,
    allocate,
    kkt_check,
    weight,
)
from .search import (
    Partition,
    SolveResult,
    enumerate_partitions,
    evaluate_scheme,
    solve_exhaustive,
    solve_sampled,
)
from .oracle import brute_force_assignments
from .simulator import SimEstimate, SystemSimResult, simulate_file, simulate_system
from .scenario_io import (
    fixture_path,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_result_table,
    write_trace,
)

__version__ = "0.1.0"
