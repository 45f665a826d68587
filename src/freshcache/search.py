"""Placement search: deduplicated exhaustive enumeration and seeded local search.

Exhaustive search never permutes equal assignments: it enumerates per-relay
holding counts (partitions) and, within each partition, unordered holding
subsets per relay.  Every enumerated assignment is therefore distinct, and
the whole space is visited exactly once.  The sampled mode is a restarting
hill climber that spends an exact evaluation budget.

Relay k's rates depend only on its block of holdings, so the objective is a
sum over relays of block values: relay k's water-filled objective terms over
its block.  ``_evaluate`` water-fills one block; a memo keyed by relay index
and block bitmask keeps its values, rates included, and is cleared when it
reaches ``_MEMO_ENTRIES``: the hill climber revisits recent blocks, a move
changes two of them, and exhaustive search reads it only for re-scores.

The exhaustive scorer works one partition at a time, in two steps.  For each
(relay k, count c) the partition uses, it fills a table of relay k's block
values over every c-subset of the holdings, in ``itertools.combinations``
order, in numpy, ``_CHUNK_ROWS`` blocks at a time and without the memo; each
value is the one ``_evaluate`` gives, bit for bit.  A table is dropped after
the last partition that reads it.  It then builds the partition's assignments
as numpy rows of holding indices, in enumeration order: relay k takes each
``counts[k]``-subset of what the relays before it left, in
``itertools.combinations`` order, and the last relay takes the rest.  Rows
grow a relay at a time, at most ``_CHUNK_ROWS`` at once, from a pattern of
chosen positions followed by their complement.  A block is found in its table
by its lexicographic rank, and a row's block values are added left to right
from 0.0, as a loop over the relays would add them.

Block sums only rank candidates.  One that falls below the running best (in
sampled mode, the climber's current value) by more than a tiny relative
margin cannot tie it and is only counted; the rest are re-scored through the
canonical sum, per user in the order of ``system_freshness``, with rates from
the ``waterfill`` the public ``allocate`` uses.  Reported values, the trace
and the tie-break come only from that sum, so they match a re-evaluation
through the public API bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InfeasibleError, SearchBudgetError
from .freshness import ObjectiveValue, system_freshness
from .model import CacheScheme, Scenario, check_non_negative, check_positive
from .rate_alloc import AllocationEntry, AllocationInput, RateAllocation, allocate, sort_key, waterfill
from .scenario_io import ResultTable, build_result_table

DEFAULT_ENUMERATION_LIMIT = 10_000_000

# Consecutive moves that would lower the value before the hill climber restarts.
_PATIENCE = 30

# Blocks the memo keeps for the climber and exhaustive re-scores before it clears them; see the module docstring.
_MEMO_ENTRIES = 1 << 12

# Rows the exhaustive scorer fills or builds in one numpy step; see the module docstring.
_CHUNK_ROWS = 1 << 12

_Block = tuple[float, list[int], list[float], int]   # (block value, ascending ctx indices, their rates, bitmask)


@dataclass(frozen=True)
class Partition:
    """Per-relay holding counts, ordered by relay id."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    best_scheme: CacheScheme
    best_rates: dict[int, RateAllocation]   # keyed by relay id; relays with no holdings omitted
    objective: ObjectiveValue
    trace: tuple[tuple[int, float], ...]    # (evaluation index, best sum_form so far)
    evaluated_count: int
    table: ResultTable


def _split_bounds(n: int, capacities: Sequence[int], allow_empty_relay: bool) -> tuple[list[int], int]:
    """Check a holding count and per-relay capacities; return the capacities and the least count a relay takes."""
    check_non_negative("holding count", n, True)
    caps = list(capacities)
    for c in caps:
        check_non_negative("capacity", c, True)
    return caps, 0 if allow_empty_relay else 1


def count_assignments(n: int, capacities: Sequence[int], *, allow_empty_relay: bool = False) -> int:
    """Distinct assignments of ``n`` holdings over ``enumerate_partitions``' splits, without enumerating one.

    Equals the sum of n! / prod(c_k!) over the partitions, counted by a DP over
    relays: ways[m] assignments of m holdings to the relays so far.
    """
    caps, lo = _split_bounds(n, capacities, allow_empty_relay)
    ways = [1] + [0] * n
    for cap in caps:
        ways = [sum(ways[m - c] * comb(m, c) for c in range(lo, min(cap, m) + 1)) for m in range(n + 1)]
    return ways[n]


def enumerate_partitions(n: int, capacities: Sequence[int], *, allow_empty_relay: bool = False) -> Iterator[Partition]:
    """Every split of ``n`` holdings into per-relay counts, lexicographically.

    Counts respect each relay's capacity and, unless ``allow_empty_relay`` is
    set, must be at least 1.  Bad arguments raise on the call, not on iteration.
    """
    caps, lo = _split_bounds(n, capacities, allow_empty_relay)
    k = len(caps)
    suffix_cap = [0] * (k + 1)
    for idx in range(k - 1, -1, -1):
        suffix_cap[idx] = suffix_cap[idx + 1] + caps[idx]

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if idx == k:
            if remaining == 0:
                yield prefix
            return
        lo_c = max(lo, remaining - suffix_cap[idx + 1])
        hi_c = min(caps[idx], remaining - lo * (k - idx - 1))
        for c in range(lo_c, hi_c + 1):
            yield from rec(idx + 1, remaining - c, prefix + (c,))

    return (Partition(counts) for counts in rec(0, n, ()))


@dataclass(frozen=True)
class _EvalContext:
    """Scenario data laid out for fast repeated evaluation.

    Holdings are indexed in the canonical allocation processing order
    (ascending mu/s, ties by (user_id, file_id)), so any ascending slice of
    indices is already sorted the way ``allocate`` would sort it.
    """

    n: int
    weights: tuple[float, ...]
    server_rates: tuple[float, ...]
    mus: tuple[float, ...]
    coef: tuple[tuple[float, ...], ...]      # coef[i][k]: Scenario.coef of holding i at relay index k
    budgets: tuple[float, ...]
    capacities: tuple[int, ...]
    user_plans: tuple[tuple[int, ...], ...]  # ctx indices per user, in holdings order
    canon_order: tuple[int, ...]             # ctx indices in canonical holding order


def _build_context(scenario: Scenario) -> _EvalContext:
    order = sorted(scenario.entries.values(), key=sort_key)
    ctx_of = {e.key: i for i, e in enumerate(order)}
    return _EvalContext(
        n=len(order),
        weights=tuple(e.weight for e in order),
        server_rates=tuple(e.server_rate for e in order),
        mus=tuple(e.mu for e in order),
        coef=tuple(scenario.coef[e.key] for e in order),
        budgets=tuple(r.rate_budget for r in scenario.relays),
        capacities=tuple(r.capacity for r in scenario.relays),
        user_plans=tuple(tuple(ctx_of[(u.user_id, h.file_id)] for h in u.holdings) for u in scenario.users),
        canon_order=tuple(ctx_of[key] for key in scenario.entries),
    )


def _canonical_vector(ctx: _EvalContext, rel_of: Sequence[int]) -> tuple[int, ...]:
    """Relay ids (1-based) in canonical holding order; the tie-break representation."""
    return tuple(rel_of[i] + 1 for i in ctx.canon_order)


class _Search:
    """Per-solve state: the block memo, the evaluation count, the running best and its trace."""

    def __init__(self, ctx: _EvalContext) -> None:
        self.ctx = ctx
        self.memo: dict[int, _Block] = {}   # key: relay index << n | block bitmask
        # Rank-gate margin, relative.  Every term is non-negative and a block sum
        # adds the same terms as the canonical sum in another order, so the two
        # differ by at most 2n*eps of the canonical value.  1e-12 exceeds that by
        # orders of magnitude for any n an enumeration reaches; the max keeps
        # the gate exact for every n.
        self.rel = max(1e-12, 2 * ctx.n * sys.float_info.epsilon)
        self.evaluated = 0
        self.val = -math.inf
        self.floor = -math.inf   # a block sum below this cannot reach self.val
        self.vec: tuple[int, ...] | None = None
        self.trace: list[tuple[int, float]] = []
        self.patterns: dict[tuple[int, int], np.ndarray] = {}      # (m, c) -> _pattern of all C(m, c) choices
        self.rank_weights: dict[int, tuple[int, np.ndarray]] = {}  # c -> (C(n, c) - 1, weights); see _rank

    def block(self, k: int, mask: int) -> _Block:
        """``_evaluate(k, mask)`` through the memo."""
        key = k << self.ctx.n | mask
        hit = self.memo.get(key)
        if hit is None:
            if len(self.memo) >= _MEMO_ENTRIES:
                self.memo.clear()
            hit = self.memo[key] = self._evaluate(k, mask)
        return hit

    def _evaluate(self, k: int, mask: int) -> _Block:
        """Relay k over the holdings in ``mask``: its objective terms summed in index order, indices, rates, mask."""
        ctx = self.ctx
        idx = []
        bits = mask
        while bits:
            low = bits & -bits
            idx.append(low.bit_length() - 1)
            bits ^= low
        ss = [ctx.server_rates[i] for i in idx]
        rates = waterfill([ctx.weights[i] for i in idx], ss, ctx.budgets[k])[0] if idx else []
        value = 0.0
        for i, r, s in zip(idx, rates, ss):
            value += ctx.coef[i][k] * (ctx.mus[i] * (r / (r + s)))
        return value, idx, rates, mask

    def offer(self, index: int, parts: Sequence[_Block]) -> float:
        """Canonical value of evaluation ``index``, whose relay k holds ``parts[k]``; a tie keeps the smaller vector."""
        ctx = self.ctx
        rates = [0.0] * ctx.n
        rel_of = [0] * ctx.n
        for k, (_value, idx, block_rates, _mask) in enumerate(parts):
            for i, r in zip(idx, block_rates):
                rates[i] = r
                rel_of[i] = k
        val = 0.0
        for plan in ctx.user_plans:
            acc = 0.0
            for i in plan:
                r = rates[i]
                fresh = ctx.mus[i] * (r / (r + ctx.server_rates[i]))
                acc += ctx.coef[i][rel_of[i]] * fresh
            val += acc
        if val > self.val:
            self.val = val
            self.floor = val - self.rel * val
            self.vec = _canonical_vector(ctx, rel_of)
            self.trace.append((index, val))
        elif val == self.val:
            self.vec = min(self.vec, _canonical_vector(ctx, rel_of))
        return val

    def table(self, k: int, c: int) -> np.ndarray:
        """Relay k's block values over every c-subset of the holdings, in ``itertools.combinations`` order.

        Filled ``_CHUNK_ROWS`` blocks at a time, a row per block, with ``_evaluate``'s
        float operations in its order, so each value is ``_evaluate``'s bit for bit:
        ``waterfill``'s backward pass a column at a time from the last, a row's pass
        ending at its first failed test, then the terms added left to right from 0.0.
        """
        ctx = self.ctx
        size = comb(ctx.n, c)
        weights, server_rates, mus = np.array(ctx.weights), np.array(ctx.server_rates), np.array(ctx.mus)
        coef = np.array(ctx.coef)[:, k]
        values = np.zeros(size)
        combos = itertools.combinations(range(ctx.n), c)
        for start in range(0, size, _CHUNK_ROWS):
            idx = _combinations(combos, min(_CHUNK_ROWS, size - start), c)
            w, s, rows = weights[idx], server_rates[idx], len(idx)
            alpha, beta, alive = np.zeros(rows), np.full(rows, ctx.budgets[k]), np.ones(rows, dtype=bool)
            kept = np.zeros(idx.shape, dtype=bool)
            for j in range(c - 1, -1, -1):
                kept[:, j] = alive = alive & (w[:, j] * (beta + s[:, j]) > s[:, j] * (alpha + w[:, j]))
                alpha = np.where(alive, alpha + w[:, j], alpha)
                beta = np.where(alive, beta + s[:, j], beta)
            with np.errstate(divide="ignore", invalid="ignore"):   # rows where nothing survives have alpha = 0
                rates = np.where(kept, beta[:, None] * w / alpha[:, None] - s, 0.0)
            chunk = values[start:start + rows]
            for term in (coef[idx] * (mus[idx] * (rates / (rates + s)))).T:
                chunk += term
        return values

    def score(self, counts: tuple[int, ...], tables: Sequence[np.ndarray]) -> None:
        """Score every assignment of partition ``counts`` in enumeration order; ``tables[k]`` = ``table(k, counts[k])``."""
        self._extend(counts, tables, 0, np.arange(self.ctx.n)[None, :], np.zeros(1))

    def _extend(
        self, counts: tuple[int, ...], tables: Sequence[np.ndarray], k: int, rows: np.ndarray, acc: np.ndarray
    ) -> None:
        """Score every assignment that places relays k onwards on ``rows``, whose block sums so far are ``acc``.

        A row lists relay 0's holdings, then relay 1's and so on up to relay
        k - 1, then the holdings left, each group ascending.
        """
        n, c = self.ctx.n, counts[k]
        off = sum(counts[:k])
        if k == len(counts) - 1:
            total = acc + tables[k][self._rank(rows[:, off:])]
            for h in np.flatnonzero(total >= self.floor).tolist():
                if total[h] >= self.floor:   # re-checked: an earlier offer in this chunk may have raised the floor
                    self.offer(self.evaluated + h + 1, self._parts(counts, rows[h].tolist()))
            self.evaluated += len(total)
            return
        m = n - off
        size = comb(m, c)
        group = max(1, _CHUNK_ROWS // size)
        for start in range(0, len(rows), group):
            head, head_acc = rows[start:start + group], acc[start:start + group]
            for pattern in self._patterns(m, c, size):
                picked = head[:, off:][:, pattern]          # (rows, choices, m): relay k's holdings, then the rest
                grown = np.empty(picked.shape[:2] + (n,), dtype=head.dtype)
                grown[:, :, :off] = head[:, None, :off]
                grown[:, :, off:] = picked
                sums = head_acc[:, None] + tables[k][self._rank(picked[:, :, :c])]
                self._extend(counts, tables, k + 1, grown.reshape(-1, n), sums.reshape(-1))

    def _patterns(self, m: int, c: int, size: int) -> Iterable[np.ndarray]:
        """The ``size`` = C(m, c) choices of c of m holdings left, as ``_pattern`` pieces of at most ``_CHUNK_ROWS``.

        A pattern that fits in one piece is built once per solve.
        """
        if size <= _CHUNK_ROWS:
            pattern = self.patterns.get((m, c))
            if pattern is None:
                pattern = self.patterns[m, c] = _pattern(itertools.combinations(range(m), c), size, m, c)
            return (pattern,)
        combos = itertools.combinations(range(m), c)
        return (_pattern(combos, min(_CHUNK_ROWS, size - start), m, c) for start in range(0, size, _CHUNK_ROWS))

    def _rank(self, subsets: np.ndarray) -> np.ndarray:
        """Lexicographic rank of each ascending row of holding indices among the subsets of its size."""
        c = subsets.shape[-1]
        hit = self.rank_weights.get(c)
        if hit is None:
            # C(n, c) - 1 - sum_j C(n-1-a_j, c-j) subsets come before a_0 < ... < a_{c-1}.
            # a_j lies in [j, n-c+j]; weights outside that range stay 0 and never overflow.
            n = self.ctx.n
            weights = np.zeros((c, n), dtype=np.int64)
            for j in range(c):
                for i in range(j, n - c + j + 1):
                    weights[j, i] = comb(n - 1 - i, c - j)
            hit = self.rank_weights[c] = comb(n, c) - 1, weights
        last, weights = hit
        return last - weights[np.arange(c), subsets].sum(axis=-1)

    def _parts(self, counts: tuple[int, ...], row: list[int]) -> list[_Block]:
        """The blocks of one scored row."""
        parts, off = [], 0
        for k, c in enumerate(counts):
            parts.append(self.block(k, sum(1 << i for i in row[off:off + c])))
            off += c
        return parts

    def step(self, parts: Sequence[_Block], current: float) -> float:
        """Count one hill-climbing evaluation: its canonical value, or -inf when its block sum shows it is below ``current``.

        ``current`` never exceeds the running best, so a skipped move can neither beat nor tie it.
        """
        self.evaluated += 1
        if sum(p[0] for p in parts) < current - self.rel * abs(current):
            return -math.inf
        return self.offer(self.evaluated, parts)

    def result(self, scenario: Scenario) -> SolveResult:
        assert self.vec is not None
        objective = ObjectiveValue(self.val, self.val / scenario.n_users)
        return make_solve_result(scenario, self.vec, objective, self.trace, self.evaluated)


def relay_inputs(scenario: Scenario, scheme: CacheScheme) -> dict[int, AllocationInput]:
    """Group a placement's holdings into per-relay allocation inputs.

    Keyed by relay id in scenario order; entries keep user/holding order.
    Relays with no holdings are omitted.
    """
    grouped: dict[int, list[AllocationEntry]] = {}
    for key, entry in scenario.entries.items():
        grouped.setdefault(scheme.assignment.get(key), []).append(entry)
    return {
        relay.relay_id: AllocationInput(tuple(grouped[relay.relay_id]), relay.rate_budget)
        for relay in scenario.relays
        if relay.relay_id in grouped
    }


def evaluate_scheme(scenario: Scenario, scheme: CacheScheme) -> tuple[ObjectiveValue, dict[int, RateAllocation]]:
    """Allocate each relay's budget over its assigned holdings, then score the placement.

    The scheme must be valid for the scenario.  Relays with no holdings are
    omitted from the returned allocation map.
    """
    per_relay = {relay_id: allocate(alloc_input) for relay_id, alloc_input in relay_inputs(scenario, scheme).items()}
    flat = {key: r for alloc in per_relay.values() for key, r in alloc.rates.items()}
    return system_freshness(scenario, scheme, flat), per_relay


def make_solve_result(
    scenario: Scenario,
    vector: tuple[int, ...],
    objective: ObjectiveValue,
    trace: Sequence[tuple[int, float]],
    evaluated_count: int,
) -> SolveResult:
    """Package a winning canonical assignment vector into a full result."""
    scheme = CacheScheme({pair: rel for pair, rel in zip(scenario.holding_pairs, vector)})
    recheck, per_relay = evaluate_scheme(scenario, scheme)
    assert abs(recheck.sum_form - objective.sum_form) <= 1e-12 * max(1.0, abs(objective.sum_form)), (
        "fast-path objective diverged from the public evaluation"
    )
    flat = {key: r for alloc in per_relay.values() for key, r in alloc.rates.items()}
    table = build_result_table(scenario, scheme, flat, objective)
    return SolveResult(
        best_scheme=scheme,
        best_rates=per_relay,
        objective=objective,
        trace=tuple(trace),
        evaluated_count=evaluated_count,
        table=table,
    )


def solve_exhaustive(
    scenario: Scenario,
    *,
    allow_empty_relay: bool = False,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    threads: int = 1,
) -> SolveResult:
    """Provably optimal placement by deduplicated enumeration.

    Raises SearchBudgetError if the distinct assignment count exceeds
    ``limit`` and InfeasibleError if the capacities admit no placement.
    ``threads`` is validated and otherwise ignored: the search runs serially.
    """
    check_positive("limit", limit, True)
    check_positive("threads", threads, True)
    ctx = _build_context(scenario)
    if ctx.n == 0 or not ctx.budgets:
        raise InfeasibleError("scenario has no holdings or no relays to assign them to")

    total = count_assignments(ctx.n, ctx.capacities, allow_empty_relay=allow_empty_relay)
    if total == 0:
        raise InfeasibleError("no feasible cache scheme under the capacity constraints")
    if total > limit:
        raise SearchBudgetError(f"distinct assignment count {total} exceeds the enumeration limit {limit}")

    search = _Search(ctx)
    partitions = [p.counts for p in enumerate_partitions(ctx.n, ctx.capacities, allow_empty_relay=allow_empty_relay)]
    last_read = {key: p for p, counts in enumerate(partitions) for key in enumerate(counts)}
    tables: dict[tuple[int, int], np.ndarray] = {}   # (relay index, count) -> search.table
    for p, counts in enumerate(partitions):
        for key in enumerate(counts):
            if key not in tables:
                tables[key] = search.table(*key)
        search.score(counts, [tables[key] for key in enumerate(counts)])
        for key in enumerate(counts):
            if last_read[key] == p:
                del tables[key]
    assert search.evaluated == total
    return search.result(scenario)


def _combinations(combos: Iterator[tuple[int, ...]], count: int, c: int) -> np.ndarray:
    """The next ``count`` c-subsets from ``combos`` as a (count, c) index matrix."""
    return np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, count)), np.intp, count * c).reshape(count, c)


def _pattern(combos: Iterator[tuple[int, ...]], count: int, m: int, c: int) -> np.ndarray:
    """The next ``count`` c-subsets of range(m) from ``combos``, a row each: the subset, then the rest, both ascending."""
    chosen = _combinations(combos, count, c)
    left = np.ones((count, m), dtype=bool)
    left[np.arange(count)[:, None], chosen] = False
    return np.hstack([chosen, np.nonzero(left)[1].reshape(count, m - c)])


def _random_assignment(ctx: _EvalContext, rng: random.Random, allow_empty_relay: bool):
    k = len(ctx.budgets)
    counts = [0] * k
    rel_of = [0] * ctx.n
    order = list(range(ctx.n))
    rng.shuffle(order)
    rest = order
    if not allow_empty_relay:
        relay_order = list(range(k))
        rng.shuffle(relay_order)
        for relay, i in zip(relay_order, order[:k]):
            rel_of[i] = relay
            counts[relay] = 1
        rest = order[k:]
    for i in rest:
        open_relays = [r for r in range(k) if counts[r] < ctx.capacities[r]]
        relay = open_relays[rng.randrange(len(open_relays))]
        rel_of[i] = relay
        counts[relay] += 1
    return rel_of, counts


def _propose_move(ctx: _EvalContext, rng: random.Random, rel_of: list[int], counts: list[int], min_count: int):
    k = len(ctx.budgets)
    for _attempt in range(8):
        i = rng.randrange(ctx.n)
        src = rel_of[i]
        if counts[src] - 1 < min_count:
            continue
        options = [r for r in range(k) if r != src and counts[r] < ctx.capacities[r]]
        if not options:
            continue
        return i, options[rng.randrange(len(options))]
    return None


def solve_sampled(
    scenario: Scenario,
    budget: int,
    seed: int,
    *,
    allow_empty_relay: bool = False,
) -> SolveResult:
    """Seeded random-restart hill climbing over placements.

    Spends exactly ``budget`` objective evaluations; deterministic for a given
    (scenario, budget, seed) regardless of process or thread count.  Plateau
    rule: a move that keeps the value is taken like one that raises it and
    restarts the patience count; only a move that would lower the value counts
    toward the ``_PATIENCE`` failures that end a climb.
    """
    check_positive("budget", budget, True)
    ctx = _build_context(scenario)
    k = len(ctx.budgets)
    if ctx.n == 0 or k == 0:
        raise InfeasibleError("scenario has no holdings or no relays to assign them to")
    min_count = 0 if allow_empty_relay else 1
    if sum(ctx.capacities) < ctx.n or (not allow_empty_relay and (k > ctx.n or any(c < 1 for c in ctx.capacities))):
        raise InfeasibleError("no feasible cache scheme under the capacity constraints")

    rng = random.Random(seed)
    search = _Search(ctx)
    while search.evaluated < budget:
        rel_of, counts = _random_assignment(ctx, rng, allow_empty_relay)
        parts = [search.block(r, sum(1 << i for i in range(ctx.n) if rel_of[i] == r)) for r in range(k)]
        current = search.step(parts, -math.inf)
        failures = 0
        while failures < _PATIENCE and search.evaluated < budget:
            move = _propose_move(ctx, rng, rel_of, counts, min_count)
            if move is None:
                break
            i, dst = move
            src = rel_of[i]
            trial = parts.copy()
            trial[src], trial[dst] = search.block(src, parts[src][3] ^ 1 << i), search.block(dst, parts[dst][3] ^ 1 << i)
            val = search.step(trial, current)
            if val >= current:
                parts, current, failures = trial, val, 0
                rel_of[i] = dst
                counts[src] -= 1
                counts[dst] += 1
            else:
                failures += 1

    assert search.evaluated == budget
    return search.result(scenario)
