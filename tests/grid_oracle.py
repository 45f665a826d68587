"""A grid reference for the rate step, used by the tests only.

``grid_allocate`` maximizes one relay's objective over a discretized budget
simplex by exact dynamic programming, equivalent to enumerating every grid
point; each stage fills only the lower triangle of its candidate matrix, in
blocks of GRID_ROW_BLOCK rows.  No grid point may beat the closed form that
``rate_alloc.allocate`` computes, which the tests check on small blocks.  It
is deliberately small-scale and guarded.
"""

from __future__ import annotations

import numpy as np

from freshcache.errors import DomainError, GuardError
from freshcache.model import check_non_negative, check_positive
from freshcache.rate_alloc import AllocationInput

GRID_MAX_ENTRIES = 4
GRID_MAX_STEPS = 10_000
# DP rows per block: a stage's temporary is at most GRID_ROW_BLOCK x (steps + 1) floats.
GRID_ROW_BLOCK = 64


def check_grid_steps(steps) -> None:
    """Raise DomainError unless ``steps`` is a positive integer, GuardError above GRID_MAX_STEPS."""
    check_positive("steps", steps, True)
    if steps > GRID_MAX_STEPS:
        raise GuardError(f"grid oracle limited to {GRID_MAX_STEPS} steps, got {steps}")


def grid_allocate(alloc_input: AllocationInput, steps: int) -> tuple[tuple[float, ...], float]:
    """Best allocation on the grid {0, G/steps, ..., G} per entry, total <= G.

    Returns (rates, objective) with rates ordered like the input entries.
    Exact over the grid: dynamic programming over budget units visits the same
    optimum plain enumeration of all grid points would.  Each stage fills only
    the lower triangle of its (steps+1)**2 candidate matrix, GRID_ROW_BLOCK
    rows at a time, keeping each row's maximum; the backtrack re-forms the one
    row it reads per stage and picks the same first maximum as the full matrix.
    """
    entries = alloc_input.entries
    n = len(entries)
    if n == 0:
        raise DomainError("grid allocation requires at least one entry")
    if n > GRID_MAX_ENTRIES:
        raise GuardError(f"grid oracle limited to {GRID_MAX_ENTRIES} entries, got {n}")
    check_grid_steps(steps)
    budget = alloc_input.rate_budget
    check_non_negative("rate budget", budget)

    grid = budget * np.arange(steps + 1) / steps
    gains = [e.mu * grid / (grid + e.server_rate) for e in entries]

    # values[j][b] = best objective of the first j + 1 entries using exactly b units.  The backtrack
    # reads the last stage only at b = steps, so the forward pass stops one stage short of it.
    values = [gains[0]]
    padded = np.full(2 * steps + 1, -np.inf)
    for g in gains[1:-1]:
        # window[b, k] = value[b - k]: a reversed sliding window over value behind
        # `steps` -inf slots, so k > b is infeasible.  Rows below b1 are -inf from
        # column b1 on, so a block of rows needs only its first b1 columns.
        padded[steps:] = values[-1]
        window = np.lib.stride_tricks.sliding_window_view(padded, steps + 1)[:, ::-1]
        value = np.empty(steps + 1)
        for b0 in range(0, steps + 1, GRID_ROW_BLOCK):
            b1 = min(b0 + GRID_ROW_BLOCK, steps + 1)
            value[b0:b1] = (window[b0:b1, :b1] + g[:b1]).max(axis=1)
        values.append(value)

    # Each stage re-forms the one candidate row the backtrack reads; its first argmax is the units given.
    units = [0] * n
    b = steps
    for j in range(n - 1, 0, -1):
        units[j] = int(np.argmax(values[j - 1][b::-1] + gains[j][:b + 1]))
        b -= units[j]
    units[0] = b

    rates = tuple(budget * u / steps for u in units)
    objective = 0.0
    for e, r in zip(entries, rates):
        objective += e.mu * r / (r + e.server_rate)
    return rates, objective
