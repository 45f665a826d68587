"""Water-filling allocation of a relay's refresh budget across its cached files.

The relay-level objective sum_j mu_j * r_j / (r_j + s_j), with
mu_j = u_j / (u_j + s_j), is separable and strictly concave in the rates
r_j >= 0 under sum_j r_j <= G.  The optimum therefore equalizes marginal
returns at a common water level delta = (alpha/beta)**2 and zeroes out
entries whose marginal return at rate zero is already below that level.
The objective weight c of each holding (its request probability times its
relay preference, ``Scenario.coef``) is not applied: the rates maximize this
unweighted relay sum, while the reported objective weights each term by c.
There are two entry points to the same closed form, written so that the
budget is never added to a server rate and no entry's sums hold its own run
of exact ties, whose terms cancel only in exact arithmetic.  ``waterfill``
water-fills one block; ``allocate`` sorts the entries by ``sort_key`` and
calls it, and so do the hill climber and the search's re-scores.
``waterfill_rows`` water-fills a matrix of blocks of one size, a row each,
under one budget or one budget per row, with the same float operations per
row, for the exhaustive search's block tables and the brute-force oracle.
``kkt_check`` certifies an allocation by its first-order (KKT) conditions,
independently of both: the problem is concave, so residuals within tolerance
prove the rates optimal at any block size.  ``allocate`` and ``kkt_check``
read mu and the weight off each ``AllocationEntry``, which checks its rates
once, when it is built; it, ``weight`` and ``sort_key`` live in ``model`` and
are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationMismatchError, DomainError
from .model import AllocationEntry, Key, check_non_negative, check_positive, check_scale, sort_key
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
    """``kkt_check``'s residuals, each scale-free; ``satisfied`` when none exceeds the tolerance."""

    stationarity_residual: float       # max |delta - gradient| / delta over entries with positive rate
    budget_slackness_residual: float   # |sum(rates) - budget| / budget; any unspent budget counts
    drop_slackness_residual: float     # max |delta - gradient| / delta * rate / sum(rates) over those entries
    dual_feasibility_residual: float   # max (mu/s - delta)+ / delta over entries with rate zero
    satisfied: bool


def waterfill(weights: list[float], server_rates: list[float], budget: float):
    """The closed-form allocation: a backward pass finds the survivors, then each gets its rate.

    Inputs must be ordered ascending by mu/s, which is ascending w/s, so the
    survivors are a suffix.  With A and S the sums of w and s over them,
    survivor j's rate is (w_j*G + (w_j*S - s_j*A)) / A, and w_j*S - s_j*A sums
    w_j*s_i - s_j*w_i over the survivors: >= 0 for those before j, <= 0 after
    it, exactly 0 for j's run of exact ties (entries with its w and s).  In
    float a run's terms leave rounding where they cancel, negative when G is
    tiny, so no sum holds j's own run.  The backward pass adds entries while
    the next one's margin, w*G + (w*S - s*A) over the survivors past its run,
    is positive, so a whole run survives or drops; each rate then adds the
    terms of the survivors before its run, as the totals less the sums from
    the run's start (exactly 0 for the first run).  G is never added to a huge
    s: a lone survivor gets G within an ulp at any scale, and a zero budget
    drops everything.  Returns (rates, dropped_flags, alpha, beta): alpha = A
    and beta = G + S, both 0.0 when nothing survives.  ``waterfill_rows`` does
    the same float operations.
    """
    n = len(weights)
    a = b = far_a = far_b = 0.0   # sums of w and s over the survivors, and over those past the current run
    margins, suffixes = [], []   # per survivor from the last: its margin, and (a, b) once it is added
    cut = n
    while cut:
        w, s = weights[cut - 1], server_rates[cut - 1]
        if cut == n or w != weights[cut] or s != server_rates[cut]:
            far_a, far_b = a, b
        margin = w * budget + (w * far_b - s * far_a)
        if margin <= 0.0:
            break
        margins.append(margin)
        a += w
        b += s
        suffixes.append((a, b))
        cut -= 1
    rates = [0.0] * n
    for j in range(cut, n):
        w, s = weights[j], server_rates[j]
        if j == cut or w != weights[j - 1] or s != server_rates[j - 1]:
            start_a, start_b = suffixes[n - 1 - j]
        rates[j] = (margins[n - 1 - j] + (w * (b - start_b) - s * (a - start_a))) / a
    return rates, [True] * cut + [False] * (n - cut), a, budget + b if cut < n else 0.0


def waterfill_rows(w: np.ndarray, s: np.ndarray, budget: float | np.ndarray) -> np.ndarray:
    """``waterfill``'s rates for each row of the (rows, c) weight and server-rate matrices.

    ``budget`` is one budget for every row or a (rows,) vector of per-row
    budgets, so one call can fill several relays' blocks; a row's rates
    depend only on its own budget.  Each row's columns must be ascending by
    mu/s.  The backward pass runs a column at a time from the last; a row's
    ``alive`` flag goes false for good at its first failed test, where
    ``waterfill`` breaks, and its sums stop there.  Every row does
    ``waterfill``'s float operations in its order, so its rates are that
    function's bit for bit; dropped entries get 0.0.
    """
    rows, c = w.shape
    w, s = np.ascontiguousarray(w.T), np.ascontiguousarray(s.T)   # a row of these per column: contiguous column ops
    starts = (w[1:] != w[:-1]) | (s[1:] != s[:-1])   # starts[j - 1]: column j starts a run of exact ties
    ties = not starts.all()
    a, b, alive = np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=bool)
    margins, kept, suffix_a, suffix_b = w * budget, np.empty((c, rows), dtype=bool), np.empty((c, rows)), np.empty((c, rows))
    for j in range(c - 1, -1, -1):
        # The sums past column j's run: a and b, unless column j + 1 is in the run.
        if ties and j < c - 1:
            far_a, far_b = np.where(starts[j], a, far_a), np.where(starts[j], b, far_b)
        else:
            far_a, far_b = a, b
        margins[j] += w[j] * far_b - s[j] * far_a
        kept[j] = alive = alive & (margins[j] > 0.0)
        a = np.add(a, w[j] * alive, out=suffix_a[j])   # adding w * False adds an exact 0.0
        b = np.add(b, s[j] * alive, out=suffix_b[j])
    for j in range(1, c) if ties else ():   # a run's sums from its start, where its first column put them
        suffix_a[j] = np.where(starts[j - 1], suffix_a[j], suffix_a[j - 1])
        suffix_b[j] = np.where(starts[j - 1], suffix_b[j], suffix_b[j - 1])
    # rates = (margins + (w * (S - suffix_b) - s * (A - suffix_a))) / A, in place: a temporary per operation
    # made this pass slower than the water-fill itself on large blocks.  A and S are copied out of the rows
    # they are written over.
    a, b = a.copy(), b.copy()
    near_b, near_a = np.subtract(b, suffix_b, out=suffix_b), np.subtract(a, suffix_a, out=suffix_a)
    near_b *= w
    near_a *= s
    near_b -= near_a
    margins += near_b
    with np.errstate(divide="ignore", invalid="ignore"):   # rows where nothing survives have A = 0
        margins /= a
    margins[~kept] = 0.0
    return margins.T


def _validate_input(alloc_input: AllocationInput) -> None:
    """Structural and scale checks of an allocation input; its entries checked their own rates when built."""
    entries = alloc_input.entries
    if not entries:
        raise DomainError("allocation requires at least one entry")
    check_scale("allocation", alloc_input.rate_budget, sum(e.weight for e in entries), sum(e.server_rate for e in entries))
    keys = [e.key for e in entries]
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


def _relative(residual: float, scale: float) -> float:
    """``residual`` in units of ``scale``; a non-zero residual against a zero scale is infinite."""
    return residual / scale if scale else (0.0 if residual == 0.0 else math.inf)


def kkt_check(alloc_input: AllocationInput, allocation: RateAllocation, tolerance: float) -> KktReport:
    """First-order optimality certificate for a proposed allocation.

    The relay problem is concave, so an allocation whose residuals are all
    within ``tolerance`` is optimal.  Every residual is scale-free.  The water
    level delta is derived from the allocation itself, never from its
    diagnostics: the largest gradient over entries with positive rate, or the
    largest mu/s when no entry has one.
    Stationarity: active entries must sit at the water level.
    Budget slackness: every term of the objective increases with its rate, so
    the budget must be spent, whatever the water level.
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

    total = sum(allocation.rates.values())
    delta = max(g for _lam, g in active) if active else max(idle)
    stationarity = max((_relative(delta - g, delta) for _lam, g in active), default=0.0)
    drop_slack = max((_relative(delta - g, delta) * lam / total for lam, g in active), default=0.0)
    dual = max((_relative(max(m - delta, 0.0), delta) for m in idle), default=0.0)
    budget_res = _relative(abs(total - alloc_input.rate_budget), alloc_input.rate_budget)

    satisfied = max(stationarity, budget_res, drop_slack, dual) <= tolerance
    return KktReport(
        stationarity_residual=stationarity,
        budget_slackness_residual=budget_res,
        drop_slackness_residual=drop_slack,
        dual_feasibility_residual=dual,
        satisfied=satisfied,
    )
