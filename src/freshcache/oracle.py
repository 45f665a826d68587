"""Slow, independent reference implementations used to cross-check the fast paths.

``grid_allocate`` maximizes the relay objective over a discretized budget
simplex by exact dynamic programming, equivalent to enumerating every grid
point.  ``brute_force_assignments`` enumerates raw relay assignments without
any of the search module's enumeration machinery.  Both are deliberately
small-scale and guarded.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, InfeasibleError, OracleScaleError
from .freshness import ObjectiveValue, system_freshness
from .model import CacheScheme, Scenario, check_non_negative, check_positive
from .rate_alloc import AllocationInput, allocate

GRID_MAX_ENTRIES = 4
GRID_MAX_STEPS = 10_000
BRUTE_FORCE_LIMIT = 100_000


def grid_allocate(alloc_input: AllocationInput, steps: int) -> tuple[tuple[float, ...], float]:
    """Best allocation on the grid {0, G/steps, ..., G} per entry, total <= G.

    Returns (rates, objective) with rates ordered like the input entries.
    Exact over the grid: dynamic programming over budget units visits the same
    optimum plain enumeration of all grid points would.
    """
    entries = alloc_input.entries
    n = len(entries)
    if n == 0:
        raise DomainError("grid allocation requires at least one entry")
    if n > GRID_MAX_ENTRIES:
        raise OracleScaleError(f"grid oracle limited to {GRID_MAX_ENTRIES} entries, got {n}")
    check_positive("steps", steps, True)
    if steps > GRID_MAX_STEPS:
        raise OracleScaleError(f"grid oracle limited to {GRID_MAX_STEPS} steps, got {steps}")
    budget = alloc_input.rate_budget
    check_non_negative("rate budget", budget)

    grid = budget * np.arange(steps + 1) / steps
    gains = [e.mu * grid / (grid + e.server_rate) for e in entries]

    # value[b] = best objective of the first j entries using exactly b units
    value = gains[0]
    choice_tables = []
    rows = np.arange(steps + 1)
    spent = rows[:, None] - rows[None, :]         # units left for earlier entries
    feasible = spent >= 0
    spent_clipped = np.where(feasible, spent, 0)
    for g in gains[1:]:
        candidates = np.where(feasible, value[spent_clipped] + g[None, :], -np.inf)
        best = np.argmax(candidates, axis=1)      # units given to this entry
        value = candidates[rows, best]
        choice_tables.append(best)

    units = [0] * n
    b = steps
    for j in range(n - 1, 0, -1):
        used = int(choice_tables[j - 1][b])
        units[j] = used
        b -= used
    units[0] = b

    rates = tuple(budget * u / steps for u in units)
    objective = 0.0
    for e, r in zip(entries, rates):
        objective += e.mu * r / (r + e.server_rate)
    return rates, objective


def brute_force_assignments(
    scenario: Scenario,
    *,
    allow_empty_relay: bool = False,
    limit: int = BRUTE_FORCE_LIMIT,
):
    """Exhaustively try every raw relay assignment of every holding.

    Enumeration is the plain K**H product in canonical holding order with
    infeasible assignments skipped, so ties resolve to the lexicographically
    smallest assignment vector automatically.  Each relay's block is allocated
    through the public ``allocate`` and every assignment is scored through
    ``system_freshness``.  Returns a SolveResult.
    """
    from .search import make_solve_result  # local import: search depends on this module's callers, not vice versa

    pairs = scenario.holding_pairs
    k = scenario.n_relays
    if k == 0 or not pairs:
        raise DomainError("scenario must have at least one relay and one holding")
    raw_total = k ** len(pairs)
    if raw_total > limit:
        raise OracleScaleError(f"{raw_total} raw assignments exceed the oracle limit {limit}")

    capacities = [r.capacity for r in scenario.relays]
    min_count = 0 if allow_empty_relay else 1
    entries = [scenario.entries[pair] for pair in pairs]
    # Rates of each (relay index, holding positions) block, allocated once.  At
    # K <= 2 no block repeats (at K = 2 each block fixes the other), so nothing
    # is stored.  At K >= 3 there are at most K * 2**H blocks; the default
    # limit keeps H <= 10 there, so at most 3 * 2**10 = 3,072 entries.
    block_rates: dict[tuple[int, tuple[int, ...]], dict[tuple[int, int], float]] = {}

    best_val = -math.inf
    best_vector: tuple[int, ...] | None = None
    trace: list[tuple[int, float]] = []
    evaluated = 0

    for vector in itertools.product(range(k), repeat=len(pairs)):
        blocks: list[list[int]] = [[] for _ in range(k)]
        for pos, rel in enumerate(vector):
            blocks[rel].append(pos)
        if any(len(b) < min_count or len(b) > cap for b, cap in zip(blocks, capacities)):
            continue
        evaluated += 1
        scheme = CacheScheme({pair: rel + 1 for pair, rel in zip(pairs, vector)})
        flat: dict[tuple[int, int], float] = {}
        for idx, (relay, block) in enumerate(zip(scenario.relays, blocks)):
            if not block:
                continue
            key = (idx, tuple(block))
            rates = block_rates.get(key)
            if rates is None:
                rates = allocate(AllocationInput(tuple(entries[p] for p in block), relay.rate_budget)).rates
                if k > 2:
                    block_rates[key] = rates
            flat.update(rates)
        val = system_freshness(scenario, scheme, flat).sum_form
        if val > best_val:
            best_val = val
            best_vector = tuple(rel + 1 for rel in vector)
            trace.append((evaluated, val))
        # exact ties keep the earlier vector, which is lexicographically smaller

    if best_vector is None:
        raise InfeasibleError("no feasible assignment under the capacity constraints")
    return make_solve_result(scenario, best_vector, ObjectiveValue(best_val, best_val / scenario.n_users), trace, evaluated)
