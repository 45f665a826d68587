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

The exhaustive scorer works one partition at a time, in two steps, and sees
it only as the (relay k, count c) keys of the relays that take holdings: an
empty relay has one block, which adds 0.0, and that leaves a non-negative
sum's bits and the enumeration order as they are.  For each key it fills a
table of relay k's block values over every c-subset of the holdings, in
lexicographic order, in numpy, ``_CHUNK_ROWS`` blocks at a time and without
the memo: a chunk's rows are built by unranking its ranks, one
``waterfill_rows`` call water-fills it, and its terms are added a column at a
time, so each value is the one ``_evaluate`` gives, bit for bit.  A table is
dropped after the last partition that reads it.  It then scores the
partition's assignments in enumeration order: each key's relay takes each
c-subset of what the keys before it left, in lexicographic order, and the
last key takes the rest.  Numpy rows of holding indices grow a key at a time
up to the last but one, at most ``_CHUNK_ROWS`` at once, from a pattern of
chosen positions followed by their complement, both unranked; there the
chosen positions and the rest are the last two keys' blocks, so no row is
grown for them.  A block is found in its table by its lexicographic rank.  On
the top-level row, ``range(n)``, a choice's positions are its holdings: the
first key's values for a piece of choices are a slice of its table, and the
rest's are the reversed slice of the last key's, since the rest of the r-th
c-subset is the (C(n, c) - 1 - r)-th.  Below it, ranks come from digit weights.
With W[a, j] = C(n - 1 - a, d - j), a d-subset a_0 < ... < a_{d-1} has rank
C(n, d) - 1 - sum_j W[a_j, j], so one matrix product of a chunk's gathered
weights with a piece's 0-1 selection matrix ranks every choice on every row;
a relay with more than ``_CHUNK_ROWS`` choices, whose pieces are rebuilt for
each row, adds the weights position by position instead.  Each weight and
partial sum is an integer below C(n, d), which is far below 2**53 for any
table that fits in memory, so the ranks are exact whatever the summation
order.  An assignment's block values are added left to right from 0.0, as a
loop over the relays would add them.  Its full row is built only if it is
re-scored.

Block sums only rank candidates.  One that falls below the running best (in
sampled mode, the climber's current value) by more than a tiny relative
margin cannot tie it and is only counted; the rest are re-scored through the
canonical sum, per user in the order of ``system_freshness``, with rates from
the ``waterfill`` the public ``allocate`` uses.  Reported values, the trace
and the tie-break come only from that sum, so they match a re-evaluation
through the public API bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError, SearchBudgetError
from .freshness import ObjectiveValue, system_freshness
from .model import CacheScheme, Scenario, check_non_negative, check_positive
from .rate_alloc import AllocationEntry, AllocationInput, RateAllocation, allocate, waterfill, waterfill_rows

DEFAULT_ENUMERATION_LIMIT = 10_000_000

# Consecutive moves that would lower the value before the hill climber restarts.
_PATIENCE = 30

# Blocks the memo keeps for the climber and exhaustive re-scores before it clears them; see the module docstring.
_MEMO_ENTRIES = 1 << 12

# Rows the exhaustive scorer fills or builds in one numpy step; see the module docstring.
_CHUNK_ROWS = 1 << 12

_Block = tuple[float, list[int], list[float], int]   # (block value, ascending holding indices, their rates, bitmask)
_EMPTY: _Block = (0.0, [], [], 0)   # an empty relay's block, whatever the relay


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
    scenario: Scenario


def _split_bounds(n: int, capacities: Sequence[int], allow_empty_relay: bool) -> tuple[list[int], int]:
    """Check a holding count and per-relay capacities; return the capacities and the least count a relay takes."""
    check_non_negative("holding count", n, True)
    caps = list(capacities)
    for c in caps:
        check_non_negative("capacity", c, True)
    return caps, 0 if allow_empty_relay else 1


def count_assignments(n: int, capacities: Sequence[int], *, allow_empty_relay: bool = False, at_most: int | None = None) -> int:
    """Distinct assignments of ``n`` holdings over ``enumerate_partitions``' splits, without enumerating one.

    Equals the sum of n! / prod(c_k!) over the partitions, counted by a DP over
    relays: ways[m] assignments of m holdings to the relays so far.  With
    ``at_most``, every partial sum stops once it reaches that value, and the
    result is min(count, at_most): terms are non-negative and every binomial
    is at least 1, so a ways[m] that reaches it stays there.  Only non-zero
    terms are visited: after k relays, ways[x] is zero unless
    lo * k <= x <= top, the sum of their capacities.
    """
    caps, lo = _split_bounds(n, capacities, allow_empty_relay)
    stop = math.inf if at_most is None else at_most
    ways, top = [1] + [0] * n, 0
    for k, cap in enumerate(caps):
        row = []
        for m in range(n + 1):
            total = 0
            for c in range(max(lo, m - top), min(cap, m - lo * k) + 1):
                total += ways[m - c] * comb(m, c)
                if total >= stop:
                    total = stop
                    break
            row.append(total)
        ways, top = row, top + cap
    return ways[n]


def enumerate_partitions(n: int, capacities: Sequence[int], *, allow_empty_relay: bool = False) -> Iterator[Partition]:
    """Every split of ``n`` holdings into per-relay counts, lexicographically.

    Counts respect each relay's capacity and, unless ``allow_empty_relay`` is
    set, must be at least 1.  Bad arguments raise on the call, not on iteration.
    """
    caps, lo = _split_bounds(n, capacities, allow_empty_relay)
    spare = [cap - lo for cap in caps]   # what a relay may take above lo
    extra = n - lo * len(caps)
    if not 0 <= extra <= sum(spare) or min(spare, default=0) < 0:
        return iter(())
    return (Partition(counts) for counts in _spare_splits(extra, spare, lo))


def _spare_splits(extra: int, spare: list[int], lo: int) -> Iterator[tuple[int, ...]]:
    """Every way to share ``extra`` among relays taking at most ``spare[i]`` each, lexicographically, as ``lo`` + share.

    The walk visits only the relays that take a share.  From relay i on, with r left to share, the
    splits come grouped by the first relay j that takes one, the largest j first (relays i to j - 1
    take none), then by its share v, smallest first, then by the splits of r - v from relay j + 1 on.
    The largest j is the last from which the relays can still hold r.  A stack frame holds (i, r, j, v),
    and each step advances the deepest frame that has a next choice, so a split costs about as many
    steps as relays take a share, plus one tuple copy.
    """
    room = list(itertools.accumulate(reversed(spare), initial=0))[::-1]   # room[i]: what relays i onwards hold
    neg_room = [-x for x in room]   # ascending, for bisect
    # prev[j]: the last relay before j with spare, or -1
    prev = list(itertools.accumulate(range(len(spare) - 1), lambda p, j: j if spare[j] else p, initial=-1))
    counts, stack = [lo] * len(spare), []
    i, r = 0, extra
    while True:
        while r:   # descend to the first split of r from relay i on
            j = bisect.bisect_right(neg_room, -r) - 1
            stack.append([i, r, j, r - room[j + 1]])
            counts[j] = lo + r - room[j + 1]
            i, r = j + 1, room[j + 1]
        yield tuple(counts)
        while True:   # advance the deepest frame that has a next choice
            if not stack:
                return
            frame = stack[-1]
            fi, fr, j, v = frame
            counts[j] = lo
            if v < min(spare[j], fr):
                v += 1
            elif prev[j] >= fi:
                j, v = prev[j], 1   # the relays after j can hold the rest: those after the largest j could
            else:
                stack.pop()
                continue
            frame[2:] = j, v
            counts[j] = lo + v
            i, r = j + 1, fr - v
            break


class _Search:
    """Per-solve state: the scenario's layout, the block memo, the count, the best and its trace.

    Holdings are indexed in ``Scenario.layout``'s order, the canonical
    allocation processing order (ascending mu/s, ties by (user_id, file_id)),
    so any ascending slice of indices is already sorted the way ``allocate``
    would sort it.  The constructor checks the instance once, before any
    evaluation: it raises InfeasibleError when there is nothing to place or the
    capacities admit no placement, and DomainError for a bad capacity or budget.
    """

    def __init__(self, scenario: Scenario, allow_empty_relay: bool) -> None:
        self.scenario = scenario
        order, *columns = scenario.layout
        self.n = len(order)
        self.arrays = tuple(columns)   # w, s, mu and the n x K coefficient matrix, for the table fill
        # Python floats for the scalar paths (_evaluate, offer): numpy scalars made them 1.5-2.7x slower per call,
        # and a trace value that is an np.float64 prints as "np.float64(...)".
        self.weights, self.server_rates, self.mus, self.coef = (column.tolist() for column in columns)
        self.budgets = tuple(r.rate_budget for r in scenario.relays)
        self.canon_order = tuple(sorted(range(self.n), key=order.tolist().__getitem__))   # indices in canonical holding order
        ends = itertools.accumulate((len(u.holdings) for u in scenario.users), initial=0)
        self.user_plans = tuple(self.canon_order[a:b] for a, b in itertools.pairwise(ends))   # per user, in holdings order
        if self.n == 0 or not self.budgets:
            raise InfeasibleError("scenario has no holdings or no relays to assign them to")
        caps, self.min_count = _split_bounds(self.n, [r.capacity for r in scenario.relays], allow_empty_relay)
        # Each relay takes between min_count and its capacity, and the counts add up to n.
        if sum(caps) < self.n or self.min_count * len(caps) > self.n or min(caps) < self.min_count:
            raise InfeasibleError("no feasible cache scheme under the capacity constraints")
        self.capacities = tuple(caps)
        self.memo: dict[int, _Block] = {}   # key: relay index << n | block bitmask
        # Rank-gate margin, relative.  Every term is non-negative and a block sum
        # adds the same terms as the canonical sum in another order, so the two
        # differ by at most 2n*eps of the canonical value.  1e-12 exceeds that by
        # orders of magnitude for any n an enumeration reaches; the max keeps
        # the gate exact for every n.
        self.rel = max(1e-12, 2 * self.n * sys.float_info.epsilon)
        self.evaluated = 0
        self.val = -math.inf
        self.floor = -math.inf   # a block sum below this cannot reach self.val
        self.vec: tuple[int, ...] | None = None   # relay ids (1-based) in canonical holding order; the tie-break
        self.trace: list[tuple[int, float]] = []
        self.patterns: dict[tuple[int, int], tuple[np.ndarray, tuple]] = {}   # (m, c) -> _piece, if one covers all

    def block(self, k: int, mask: int) -> _Block:
        """``_evaluate(k, mask)`` through the memo."""
        key = k << self.n | mask
        hit = self.memo.get(key)
        if hit is None:
            if len(self.memo) >= _MEMO_ENTRIES:
                self.memo.clear()
            hit = self.memo[key] = self._evaluate(k, mask)
        return hit

    def _evaluate(self, k: int, mask: int) -> _Block:
        """Relay k over the holdings in ``mask``: its objective terms summed in index order, indices, rates, mask."""
        idx = []
        bits = mask
        while bits:
            low = bits & -bits
            idx.append(low.bit_length() - 1)
            bits ^= low
        ss = [self.server_rates[i] for i in idx]
        rates = waterfill([self.weights[i] for i in idx], ss, self.budgets[k])[0] if idx else []
        value = 0.0
        for i, r, s in zip(idx, rates, ss):
            value += self.coef[i][k] * (self.mus[i] * (r / (r + s)))
        return value, idx, rates, mask

    def offer(self, index: int, parts: Sequence[_Block]) -> float:
        """Canonical value of evaluation ``index``, whose relay k holds ``parts[k]``; a tie keeps the smaller vector."""
        rates = [0.0] * self.n
        rel_of = [0] * self.n
        for k, (_value, idx, block_rates, _mask) in enumerate(parts):
            for i, r in zip(idx, block_rates):
                rates[i] = r
                rel_of[i] = k
        val = 0.0
        for plan in self.user_plans:
            acc = 0.0
            for i in plan:
                r = rates[i]
                fresh = self.mus[i] * (r / (r + self.server_rates[i]))
                acc += self.coef[i][rel_of[i]] * fresh
            val += acc
        if val >= self.val:
            vec = tuple(rel_of[i] + 1 for i in self.canon_order)
            if val > self.val:
                self.val, self.floor, self.vec = val, val - self.rel * val, vec
                self.trace.append((index, val))
            else:
                self.vec = min(self.vec, vec)
        return val

    def table(self, k: int, c: int) -> np.ndarray:
        """Relay k's block values over every c-subset of the holdings, in lexicographic order.

        Filled ``_CHUNK_ROWS`` blocks at a time, unranked a row per block, with ``_evaluate``'s float
        operations in its order, so each value is ``_evaluate``'s bit for bit: one ``waterfill_rows``
        call per chunk, then the terms added left to right from 0.0.
        """
        size = comb(self.n, c)
        weights, server_rates, mus, coef = self.arrays
        coef = coef[:, k]
        values = np.zeros(size)
        for start in range(0, size, _CHUNK_ROWS):
            idx = _unrank(self.n, c, np.arange(start, min(start + _CHUNK_ROWS, size)))
            s = server_rates[idx]
            rates = waterfill_rows(weights[idx], s, self.budgets[k])
            chunk = values[start:start + len(idx)]
            for term in (coef[idx] * (mus[idx] * (rates / (rates + s)))).T:
                chunk += term
        return values

    def score(
        self, keys: Sequence[tuple[int, int]], tables: Sequence[np.ndarray], i: int, off: int, rows: np.ndarray, acc: np.ndarray
    ) -> None:
        """Score every assignment that places keys i onwards on ``rows``, whose block sums so far are ``acc``, in order.

        ``keys`` are the (relay index, count) pairs of the relays that take holdings, in relay order;
        ``tables[i]`` is ``table(*keys[i])``.  A row lists key 0's holdings, then key 1's and so on up
        to key i - 1, ``off`` holdings in all, then the holdings left, each group ascending.  Rows grow
        a key at a time up to the last but one.  There a choice of its block and the rest it leaves are
        the last two keys' blocks; an assignment's full row is built only to re-score it.  Blocks are
        ranked by one matrix product per chunk of rows and piece of choices; on the top-level row,
        ``range(n)``, a block's rank is its choice's rank.
        """
        n, c = self.n, keys[i][1]
        m = n - off
        size = comb(m, c)
        grows = i < len(keys) - 2
        last = not grows and i + 1 < len(keys)   # the rest is the last key's block; with one key, i is the last
        blocks = tables[i:i + 1 + last]   # the tables read here: key i's and, if last, the last key's
        group = max(1, _CHUNK_ROWS // size)
        for start in range(0, len(rows), group):
            head, head_acc = rows[start:start + group], acc[start:start + group]
            rest = head[:, off:]
            if off:   # the digit weights of the holdings left, for key i's count and the last key's
                gathered = [_weights(n, d).take(rest, axis=0).reshape(len(head), -1) for d in (c, m - c)[:1 + last]]
            for first in range(0, size, _CHUNK_ROWS):
                stop = min(first + _CHUNK_ROWS, size)
                pattern, selections = self._piece(m, c, first, stop) if off or grows else (None, ())
                if off:   # a block's place from the end of its table, C(n, d) - 1 - rank, is its digit-weight sum
                    from_end = [_rank_sums(g, s).astype(np.intp) for g, s in zip(gathered, selections)]
                    values = [t[::-1].take(x) for t, x in zip(blocks, from_end)]
                else:   # on range(n) a choice's rank is its own, and the rest it leaves has the reversed rank
                    values = [blocks[0][first:stop], blocks[-1][::-1][first:stop]][:len(blocks)]
                sums = head_acc[:, None] + values[0]
                if grows:
                    picked = rest[:, pattern]          # (rows, choices, m): key i's holdings, then the rest
                    grown = np.empty(picked.shape[:2] + (n,), dtype=head.dtype)
                    grown[:, :, :off] = head[:, None, :off]
                    grown[:, :, off:] = picked
                    self.score(keys, tables, i + 1, off + c, grown.reshape(-1, n), sums.reshape(-1))
                    continue
                if last:
                    sums = sums + values[1]
                total = sums.reshape(-1)
                for h in np.flatnonzero(total >= self.floor).tolist():
                    if total[h] >= self.floor:   # re-checked: an earlier offer in this chunk may have raised the floor
                        r, j = divmod(h, stop - first)
                        chosen = _choices(m, c, np.array([first + j]))[0] if pattern is None else pattern[j]
                        row = head[r, :off].tolist() + rest[r, chosen].tolist()
                        self.offer(self.evaluated + h + 1, self._parts(keys, row))
                self.evaluated += len(total)

    def _piece(self, m: int, c: int, first: int, stop: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Choices ``first`` to ``stop`` - 1 of c of m holdings left, in lexicographic order, and how to rank them.

        A pattern row is a choice's positions, then the rest's.  Below the top level (m < n) each group of
        positions comes with its selection for ``_rank_sums``.  A piece that covers all C(m, c) choices is
        built once per solve and selects by a 0-1 matrix.  Any other piece is rebuilt for every row it
        ranks, one row at a time, and selects by its positions, transposed: a dense matrix would cost m
        times as much to build as the gathers it replaces.
        """
        piece = self.patterns.get((m, c))
        if piece is None:
            pattern = _choices(m, c, np.arange(first, stop))
            whole = first == 0 and stop == comb(m, c)
            selections = ()
            if m < self.n:
                groups = pattern[:, :c], pattern[:, c:]
                selections = tuple(_selection(g, m) if whole else np.ascontiguousarray(g.T) for g in groups)
            piece = pattern, selections
            if whole:
                self.patterns[m, c] = piece
        return piece

    def _parts(self, keys: Sequence[tuple[int, int]], row: list[int]) -> list[_Block]:
        """The blocks of one scored row, one per relay: a relay that takes nothing holds ``_evaluate(k, 0)``."""
        parts, off = [_EMPTY] * len(self.budgets), 0
        for k, c in keys:
            parts[k] = self.block(k, sum(1 << i for i in row[off:off + c]))
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

    def result(self) -> SolveResult:
        assert self.vec is not None
        scenario = self.scenario
        return make_solve_result(scenario, self.vec, ObjectiveValue.of_sum(self.val, scenario), self.trace, self.evaluated)


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
    """Package a winning canonical assignment vector into a full result.

    The search's objective must equal the public re-evaluation exactly: both add the same terms in the same order.
    """
    scheme = CacheScheme({pair: rel for pair, rel in zip(scenario.holding_pairs, vector)})
    recheck, per_relay = evaluate_scheme(scenario, scheme)
    assert recheck.sum_form == objective.sum_form, "fast-path objective diverged from the public evaluation"
    return SolveResult(
        best_scheme=scheme,
        best_rates=per_relay,
        objective=objective,
        trace=tuple(trace),
        evaluated_count=evaluated_count,
        scenario=scenario,
    )


def solve_exhaustive(
    scenario: Scenario,
    *,
    allow_empty_relay: bool = False,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> SolveResult:
    """Provably optimal placement by deduplicated enumeration.

    Raises SearchBudgetError if the distinct assignment count exceeds
    ``limit`` and InfeasibleError if the capacities admit no placement.
    """
    check_positive("limit", limit, True)
    search = _Search(scenario, allow_empty_relay)
    total = count_assignments(search.n, search.capacities, allow_empty_relay=allow_empty_relay, at_most=limit + 1)
    if total > limit:
        raise SearchBudgetError(f"distinct assignment count exceeds the enumeration limit {limit}")

    # Each partition as the keys of the relays that take holdings, in relay order; see the module docstring.
    walk = enumerate_partitions(search.n, search.capacities, allow_empty_relay=allow_empty_relay)
    partitions = [[(k, p.counts[k]) for k in itertools.compress(range(len(p.counts)), p.counts)] for p in walk]
    last_read = {key: p for p, keys in enumerate(partitions) for key in keys}
    tables: dict[tuple[int, int], np.ndarray] = {}   # key -> search.table
    for p, keys in enumerate(partitions):
        for key in keys:
            if key not in tables:
                tables[key] = search.table(*key)
        search.score(keys, [tables[key] for key in keys], 0, 0, np.arange(search.n)[None, :], np.zeros(1))
        for key in keys:
            if last_read[key] == p:
                del tables[key]
    assert search.evaluated == total
    return search.result()


@functools.cache
def _digits(m: int, c: int) -> tuple[int, tuple[np.ndarray, ...]]:
    """C(m, c) and, for each position j < c, the int64 column C(x, c - j) over x < m - j; no digit exceeds C(m, c).

    The c-subset a_0 < ... < a_{c-1} of range(m) has lexicographic rank C(m, c) - 1 - sum_j C(m - 1 - a_j, c - j).
    """
    return comb(m, c), tuple(np.array([comb(x, c - j) for x in range(m - j)], dtype=np.int64) for j in range(c))


@functools.cache
def _weights(n: int, d: int) -> np.ndarray:
    """The (n, d) float64 digit weights W of d-subsets of range(n): W[a, j] = C(n - 1 - a, d - j) where a can be position j.

    A d-subset a_0 < ... < a_{d-1} has lexicographic rank C(n, d) - 1 - sum_j W[a_j, j].  Position j holds
    j <= a_j <= n - d + j; every other entry is 0, so no entry and no partial sum of that sum exceeds
    C(n, d) - 1.  The scorer ranks d-subsets only against a table of C(n, d) float64 values, which fits
    in memory, so C(n, d) is far below 2**53, and a matrix product that adds the weights returns the
    exact rank whatever its summation order.
    """
    w = np.zeros((n, d))
    for j, column in enumerate(_digits(n, d)[1]):   # column[x] = C(x, d - j) for x < n - j
        w[j:, j] = column[::-1]
    return w


def _selection(columns: np.ndarray, m: int) -> np.ndarray:
    """The 0-1 (m * d, rows) matrix whose entry (q * d + j, t) is 1 where ``columns[t, j]`` is q."""
    rows, d = columns.shape
    selection = np.zeros((m, d, rows))
    selection[columns, np.arange(d), np.arange(rows)[:, None]] = 1.0
    return selection.reshape(m * d, rows)


def _rank_sums(gathered: np.ndarray, selection: np.ndarray) -> np.ndarray:
    """The digit-weight sum of each choice on each row; ``gathered`` is (rows, m * d), the weights of a row's holdings.

    ``selection`` is a ``_selection`` matrix, and the sums are its product, or a (d, choices) matrix of
    the choices' positions, and the sums are gathered one position at a time.  Both are exact, see
    ``_weights``.
    """
    if selection.dtype != np.intp:
        return gathered @ selection
    d = len(selection)
    total = np.zeros((len(gathered), selection.shape[1]))
    for j, positions in enumerate(selection):
        total += gathered[:, j::d].take(positions, axis=1)
    return total


def _choices(m: int, c: int, ranks: np.ndarray) -> np.ndarray:
    """The c-subsets of range(m) with lexicographic ``ranks``, each followed by the rest of range(m).

    The rest of the r-th c-subset is the (C(m, c) - 1 - r)-th (m - c)-subset.
    """
    return np.hstack([_unrank(m, c, ranks), _unrank(m, m - c, comb(m, c) - 1 - ranks)])


def _unrank(m: int, c: int, ranks: np.ndarray) -> np.ndarray:
    """The c-subsets of range(m) with lexicographic ``ranks``, a (len(ranks), c) matrix of ascending rows."""
    size, digits = _digits(m, c)
    rest = size - 1 - ranks
    rows = np.empty((len(ranks), c), dtype=np.intp)
    for j, column in enumerate(digits):
        x = column.searchsorted(rest, side="right") - 1   # the largest x with C(x, c - j) <= rest
        rest -= column[x]
        rows[:, j] = m - 1 - x
    return rows


def _random_assignment(search: _Search, rng: random.Random):
    k = len(search.budgets)
    counts = [0] * k
    rel_of = [0] * search.n
    order = list(range(search.n))
    rng.shuffle(order)
    rest = order
    if search.min_count:
        relay_order = list(range(k))
        rng.shuffle(relay_order)
        for relay, i in zip(relay_order, order[:k]):
            rel_of[i] = relay
            counts[relay] = 1
        rest = order[k:]
    for i in rest:
        open_relays = [r for r in range(k) if counts[r] < search.capacities[r]]
        relay = open_relays[rng.randrange(len(open_relays))]
        rel_of[i] = relay
        counts[relay] += 1
    return rel_of, counts


def _propose_move(search: _Search, rng: random.Random, rel_of: list[int], counts: list[int]):
    k = len(search.budgets)
    for _attempt in range(8):
        i = rng.randrange(search.n)
        src = rel_of[i]
        if counts[src] - 1 < search.min_count:
            continue
        options = [r for r in range(k) if r != src and counts[r] < search.capacities[r]]
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
    search = _Search(scenario, allow_empty_relay)
    n, k = search.n, len(search.budgets)
    rng = random.Random(seed)
    while search.evaluated < budget:
        rel_of, counts = _random_assignment(search, rng)
        parts = [search.block(r, sum(1 << i for i in range(n) if rel_of[i] == r)) for r in range(k)]
        current = search.step(parts, -math.inf)
        failures = 0
        while failures < _PATIENCE and search.evaluated < budget:
            move = _propose_move(search, rng, rel_of, counts)
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
    return search.result()
