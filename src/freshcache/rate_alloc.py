"""Water-filling allocation of a relay's refresh budget across its cached files.

The relay-level objective sum_j mu_j * r_j / (r_j + s_j), with
mu_j = u_j / (u_j + s_j), is separable and strictly concave in the rates
r_j >= 0 under sum_j r_j <= G.  The optimum therefore equalizes marginal
returns at a common water level delta = (alpha/beta)**2 and zeroes out
entries whose marginal return at rate zero is already below that level.
The objective weight c of each holding (its request probability times its
relay preference, ``Scenario.coef``) is not applied: the rates maximize this
unweighted relay sum, while the reported objective weights each term by c.
There are two entry points to the same backward pass, which sums only the
survivors and so never subtracts a dropped entry back out.  ``waterfill``
water-fills one block; ``allocate`` sorts the entries by ``sort_key`` and
calls it, and so do the hill climber and the search's re-scores.
``waterfill_rows`` water-fills a matrix of blocks of one size, a row each,
under one budget or one budget per row, with the same float operations per
row, for the exhaustive search's block tables and the brute-force oracle.
``kkt_check`` verifies first-order optimality residuals independently of
both.  ``allocate`` and ``kkt_check`` read mu and the weight off each
``AllocationEntry``, which checks its rates once, when it is built; it,
``weight`` and ``sort_key`` live in ``model`` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationMismatchError, DomainError
from .model import AllocationEntry, Key, check_non_negative, check_positive, sort_key
from .model import weight  # noqa: F401  (re-exported, not used here)


@dataclass(frozen=True)
class AllocationInput:
    entries: tuple[AllocationEntry, ...]
    rate_budget: float


@dataclass(frozen=True)
class AllocationDiagnostics:
    alpha: float                   # sum of weights over surviving entries
    beta: float                    # budget plus server rates of surviving entries
    water_level: float             # (alpha/beta)**2; +inf when nothing survives
    dropped_keys: frozenset[Key]


@dataclass(frozen=True)
class RateAllocation:
    rates: dict[Key, float]
    diagnostics: AllocationDiagnostics


@dataclass(frozen=True)
class KktReport:
    stationarity_residual: float       # max |delta - gradient| over entries with positive rate
    budget_slackness_residual: float   # |sum(rates) - budget| * water level
    drop_slackness_residual: float     # max |(delta - gradient) * rate| over all entries
    dual_feasibility_residual: float   # max (mu/s - delta)+ over entries with rate zero
    satisfied: bool


def waterfill(weights: list[float], server_rates: list[float], budget: float):
    """One backward pass of the closed-form allocation.

    Inputs must be ordered ascending by mu/s, so the entries with a positive
    rate are a suffix.  The pass adds entries from the end while the next one
    still gets a positive rate next to those taken, w*(beta+s) > s*(alpha+w),
    then sets each survivor's rate beta*w/alpha - s from the final sums.  The
    sums never hold a dropped entry, so none is subtracted back out, and a huge
    server rate cannot leave rounding error in the others' rates.  A zero
    budget, or one too small to register next to s, makes the first test
    compare w*s with s*w, so everything drops.  Returns (rates, dropped_flags, alpha, beta),
    the sums over the survivors (beta includes the budget), both 0.0 when
    nothing survives.  Every caller that needs numerically identical results
    must funnel through this function.
    """
    n = len(weights)
    alpha = 0.0
    beta = budget
    cut = n
    while cut:
        w = weights[cut - 1]
        s = server_rates[cut - 1]
        if w * (beta + s) <= s * (alpha + w):
            break
        alpha += w
        beta += s
        cut -= 1
    rates = [0.0] * n
    for j in range(cut, n):
        rates[j] = beta * weights[j] / alpha - server_rates[j]
    return rates, [True] * cut + [False] * (n - cut), alpha, beta if cut < n else 0.0


def waterfill_rows(w: np.ndarray, s: np.ndarray, budget: float | np.ndarray) -> np.ndarray:
    """``waterfill``'s rates for each row of the (rows, c) weight and server-rate matrices.

    ``budget`` is one budget for every row or a (rows,) vector of per-row
    budgets, so one call can fill several relays' blocks; a row's rates
    depend only on its own budget.  Each row's columns must be ascending by
    mu/s.  The pass runs a column at a time from the last; a row's ``alive``
    flag goes false for good at its first failed test, where ``waterfill``
    breaks, and its sums stop there.  Every row does ``waterfill``'s float
    operations in its order, so its rates are that function's bit for bit;
    dropped entries get 0.0.
    """
    rows, c = w.shape
    alpha, beta, alive = np.zeros(rows), np.full(rows, budget), np.ones(rows, dtype=bool)
    kept = np.zeros((rows, c), dtype=bool)
    for j in range(c - 1, -1, -1):
        kept[:, j] = alive = alive & (w[:, j] * (beta + s[:, j]) > s[:, j] * (alpha + w[:, j]))
        alpha = np.where(alive, alpha + w[:, j], alpha)
        beta = np.where(alive, beta + s[:, j], beta)
    with np.errstate(divide="ignore", invalid="ignore"):   # rows where nothing survives have alpha = 0
        return np.where(kept, beta[:, None] * w / alpha[:, None] - s, 0.0)


def _validate_input(alloc_input: AllocationInput) -> None:
    """Structural checks of an allocation input; its entries checked their own rates when built."""
    if not alloc_input.entries:
        raise DomainError("allocation requires at least one entry")
    check_non_negative("rate budget", alloc_input.rate_budget)
    keys = [e.key for e in alloc_input.entries]
    if len(set(keys)) != len(keys):
        raise DomainError("allocation entries contain duplicate keys")


def allocate(alloc_input: AllocationInput) -> RateAllocation:
    """Optimal refresh rates for one relay's holdings under its budget.

    The budget is spent exactly whenever any entry survives; entries whose
    marginal return cannot reach the water level receive rate 0 and are
    reported in the diagnostics.
    """
    _validate_input(alloc_input)
    ordered = sorted(alloc_input.entries, key=sort_key)
    ss = [e.server_rate for e in ordered]
    rates_list, dropped_flags, alpha, beta = waterfill([e.weight for e in ordered], ss, alloc_input.rate_budget)
    rates = {e.key: r for e, r in zip(ordered, rates_list)}
    dropped = frozenset(e.key for e, flag in zip(ordered, dropped_flags) if flag)
    water_level = (alpha / beta) ** 2 if beta > 0 else math.inf
    diag = AllocationDiagnostics(alpha=alpha, beta=beta, water_level=water_level, dropped_keys=dropped)
    return RateAllocation(rates=rates, diagnostics=diag)


def kkt_check(alloc_input: AllocationInput, allocation: RateAllocation, tolerance: float) -> KktReport:
    """First-order optimality residuals for a proposed allocation.

    The water level delta is derived from the allocation itself, never from
    its diagnostics: the largest gradient over entries with positive rate, or
    the largest mu/s when no entry has one.
    Stationarity: active entries must sit exactly at the water level.
    Budget slackness: a positive water level forces the budget to be spent.
    Drop slackness: an entry below the water level must carry rate zero.
    Dual feasibility: a zero-rate entry's marginal return at rate zero, mu/s,
    must not exceed the water level.
    """
    check_positive("tolerance", tolerance)
    _validate_input(alloc_input)
    input_keys = {e.key for e in alloc_input.entries}
    if set(allocation.rates) != input_keys:
        raise AllocationMismatchError("allocation keys do not match the input entries")

    active = []      # (rate, gradient) of entries with positive rate
    idle = []        # mu/s of entries with rate zero
    for e in alloc_input.entries:
        lam = allocation.rates[e.key]
        check_non_negative(f"rate for {e.key}", lam)
        if lam > 0.0:
            active.append((lam, e.mu * e.server_rate / (lam + e.server_rate) ** 2))
        else:
            idle.append(e.mu / e.server_rate)

    delta = max(g for _lam, g in active) if active else max(idle)
    stationarity = max((abs(delta - g) for _lam, g in active), default=0.0)
    drop_slack = max((abs((delta - g) * lam) for lam, g in active), default=0.0)
    dual = max((max(m - delta, 0.0) for m in idle), default=0.0)
    budget_res = abs(sum(allocation.rates.values()) - alloc_input.rate_budget) * delta

    satisfied = max(stationarity, budget_res, drop_slack, dual) <= tolerance
    return KktReport(
        stationarity_residual=stationarity,
        budget_slackness_residual=budget_res,
        drop_slackness_residual=drop_slack,
        dual_feasibility_residual=dual,
        satisfied=satisfied,
    )
