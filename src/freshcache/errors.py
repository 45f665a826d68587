"""Exception types shared across the package."""

from __future__ import annotations


class FreshCacheError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FreshCacheError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(FreshCacheError):
    """No cache scheme satisfies the capacity constraints."""


class GuardError(FreshCacheError):
    """A size guard tripped: the search's enumeration limit, the oracle's scale or the simulator's event count."""


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
