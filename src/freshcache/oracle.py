"""Slow, independent reference implementations used to cross-check the fast paths.

``grid_allocate`` maximizes the relay objective over a discretized budget
simplex by exact dynamic programming, equivalent to enumerating every grid
point.  ``brute_force_assignments`` scores the raw K**H assignment product in
one numpy pass, sharing no enumeration or scoring code with the search
module.  Both are deliberately small-scale and guarded.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InfeasibleError, OracleScaleError
from .freshness import ObjectiveValue
from .model import Scenario, check_non_negative, check_positive
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
    padded = np.full(2 * steps + 1, -np.inf)
    for g in gains[1:]:
        # candidates[b, k] = value[b - k] + g[k]: a reversed sliding window over
        # value behind `steps` -inf slots, so k > b is infeasible.
        padded[steps:] = value
        candidates = np.lib.stride_tricks.sliding_window_view(padded, steps + 1)[:, ::-1] + g
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
    """Exhaustively try every raw relay assignment of every holding; returns a SolveResult.

    The K**H product is an int8 matrix in ``itertools.product`` order, less the
    rows that break a capacity or leave a relay empty.  Each distinct (relay,
    block) pair is allocated once through the public ``allocate``, and each row
    is scored with ``system_freshness``'s float expression in its order, so
    values are bit-identical to scoring one assignment at a time.  ``argmax``
    takes the first maximum: ties resolve to the lexicographically smallest vector.
    """
    from .search import make_solve_result  # local import: search depends on this module's callers, not vice versa

    pairs = scenario.holding_pairs
    k, h = scenario.n_relays, len(pairs)
    if k == 0 or not pairs:
        raise DomainError("scenario must have at least one relay and one holding")
    raw_total = k**h
    if raw_total > limit:
        raise OracleScaleError(f"{raw_total} raw assignments exceed the oracle limit {limit}")

    # Column p repeats each relay k**(h-1-p) times, so the last holding varies fastest.
    vectors = np.stack([np.tile(np.repeat(np.arange(k, dtype=np.int8), k ** (h - 1 - p)), k**p) for p in range(h)], axis=1)
    feasible = np.ones(raw_total, dtype=bool)
    for idx, relay in enumerate(scenario.relays):
        count = (vectors == idx).sum(axis=1)
        feasible &= (count >= (0 if allow_empty_relay else 1)) & (count <= relay.capacity)
    vectors = vectors[feasible]
    evaluated = len(vectors)
    if evaluated == 0:
        raise InfeasibleError("no feasible assignment under the capacity constraints")

    # One slot per distinct block of each relay, keyed by its packed membership row (exact for any H):
    # slot_of[row, relay] is the row's slot, rate_of[p][slot] holding p's rate there (0.0 outside the block).
    entries = [scenario.entries[pair] for pair in pairs]
    tables, slot_of = [], np.empty((evaluated, k), dtype=np.int64)
    for idx, relay in enumerate(scenario.relays):
        members = vectors == idx
        packed = np.packbits(members, axis=1)
        _, first, inverse = np.unique(packed.view((np.void, packed.shape[1])).ravel(), return_index=True, return_inverse=True)
        slot_of[:, idx] = sum(map(len, tables)) + inverse
        table = np.zeros((len(first), h))
        for slot, row in enumerate(first):
            block = np.flatnonzero(members[row])
            if len(block):
                rates = allocate(AllocationInput(tuple(entries[p] for p in block), relay.rate_budget)).rates
                table[slot, block] = [rates[pairs[p]] for p in block]
        tables.append(table)
    rate_of = np.concatenate(tables).T

    values, rows, p = np.zeros(evaluated), np.arange(evaluated), 0
    for user in scenario.users:
        user_total = np.zeros(evaluated)
        for holding in user.holdings:
            e, relay_col = entries[p], vectors[:, p]
            r = rate_of[p][slot_of[rows, relay_col]]
            user_total += (holding.request_prob * np.array(user.relay_prefs)[relay_col]) * (e.mu * (r / (r + e.server_rate)))
            p += 1
        values += user_total

    # The trace keeps each row that beats every earlier one, numbered from 1 like evaluated_count.
    improving = np.flatnonzero(values > np.concatenate(([-np.inf], np.maximum.accumulate(values)[:-1])))
    trace = [(int(i) + 1, float(values[i])) for i in improving]
    best = int(np.argmax(values))
    best_val, best_vector = float(values[best]), tuple(int(v) + 1 for v in vectors[best])
    return make_solve_result(scenario, best_vector, ObjectiveValue(best_val, best_val / scenario.n_users), trace, evaluated)
