"""Exception types shared across the package."""

from __future__ import annotations


class FreshCacheError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FreshCacheError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EmptyDomainError(DomainError):
    """A distribution was requested over an empty index set."""


class IncompleteAllocationError(FreshCacheError):
    """A rate table or assignment is missing an entry required by the evaluation."""


class AllocationMismatchError(FreshCacheError):
    """Allocation keys do not match the input entries they are checked against."""


class InfeasibleError(FreshCacheError):
    """No cache scheme satisfies the capacity constraints."""


class SearchBudgetError(FreshCacheError):
    """The assignment space exceeds the configured enumeration limit."""


class OracleScaleError(FreshCacheError):
    """A brute-force oracle was asked to handle more than it safely can."""


class SimulationScaleError(FreshCacheError):
    """A simulation would draw more events than the simulator safely holds in memory."""


class ScenarioParseError(FreshCacheError):
    """A scenario or scheme document is malformed."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        super().__init__(message)
        self.line = line
        self.field = field


class ScenarioValidationError(FreshCacheError):
    """A parsed scenario violates model invariants.

    ``report`` holds the individual violations (see ``model.Violation``).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = list(report or [])
