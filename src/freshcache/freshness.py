"""Analytic freshness of cached copies and the system-wide objective."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError, EmptyDomainError, IncompleteAllocationError
from .model import CacheScheme, Scenario, check_non_negative, check_positive, is_number

# Flat rate table: (user_id, file_id) -> relay refresh rate for that holding.
RateTable = Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class ObjectiveValue:
    """System objective in both conventions.

    ``sum_form`` adds the per-user freshness values; result tables report this
    form.  ``mean_form`` divides by the user count.  Both rank schemes
    identically.
    """

    sum_form: float
    mean_form: float

    @classmethod
    def of_sum(cls, sum_form: float, scenario: Scenario) -> ObjectiveValue:
        """Both forms of ``sum_form`` over the scenario's users; EmptyDomainError when it has none."""
        if scenario.n_users == 0:
            raise EmptyDomainError("the objective's mean form needs at least one user")
        return cls(sum_form, sum_form / scenario.n_users)


def file_freshness(user_rate: float, server_rate: float, relay_rate: float) -> float:
    """Long-run fraction of time the user's copy matches the server's version.

    With independent exponential server-update, relay-request and user-request
    processes the copy is fresh a fraction (u/(u+s)) * (r/(r+s)) of the time.
    A relay that never refreshes (relay_rate 0) yields exactly 0.
    """
    check_positive("user_rate", user_rate)
    check_positive("server_rate", server_rate)
    check_non_negative("relay_rate", relay_rate)
    return (user_rate / (user_rate + server_rate)) * (relay_rate / (relay_rate + server_rate))


def holding_placement(scenario: Scenario, scheme: CacheScheme, rates: RateTable, key: tuple[int, int]) -> tuple[int, float]:
    """The relay id and refresh rate of holding ``key``.

    Raises IncompleteAllocationError when the scheme or the rate table lacks
    the holding, and DomainError when its relay id is not an int in 1..K.
    """
    relay_id = scheme.assignment.get(key)
    if relay_id is None:
        raise IncompleteAllocationError(f"no relay assigned for user {key[0]}, file {key[1]}")
    if key not in rates:
        raise IncompleteAllocationError(f"missing refresh rate for user {key[0]}, file {key[1]}")
    if not is_number(relay_id, integer=True) or not 0 < relay_id <= scenario.n_relays:   # True and 1.0 would pass the range
        raise DomainError(f"holding (user {key[0]}, file {key[1]}) assigned to unknown relay {relay_id}")
    return relay_id, rates[key]


def user_freshness(scenario: Scenario, scheme: CacheScheme, rates: RateTable, user_id: int) -> float:
    """Request-weighted freshness of one user's holdings under a placement and rate table."""
    user = scenario.user_by_id.get(user_id) if is_number(user_id, integer=True) else None   # True and 1.0 would find user 1
    if user is None:
        raise DomainError(f"unknown user id {user_id}")
    total = 0.0
    for h in user.holdings:
        key = (user.user_id, h.file_id)
        relay_id, r = holding_placement(scenario, scheme, rates, key)
        check_non_negative("relay_rate", r)
        e = scenario.entries[key]
        # file_freshness, with the scenario's rates checked once, weighted by the holding's c at its relay
        total += scenario.coef[key][relay_id - 1] * (e.mu * (r / (r + e.server_rate)))
    return total


def system_freshness(scenario: Scenario, scheme: CacheScheme, rates: RateTable) -> ObjectiveValue:
    total = 0.0
    for user in scenario.users:
        total += user_freshness(scenario, scheme, rates, user.user_id)
    return ObjectiveValue.of_sum(total, scenario)
