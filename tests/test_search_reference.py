"""Both search modes against references that score assignments another way.

``solve_exhaustive`` ranks assignments by sums of per-relay block values and
re-scores only those that could tie or beat the running best through the
canonical per-user sum; ``solve_sampled`` does the same against the climber's
current value.  The canonical references below have no such gate: they walk
the same enumeration order (partitions, then ``itertools.combinations`` per
relay) or make the same hill-climbing moves, and score every assignment
through the canonical sum, so objective, assignment, trace and evaluation
count must all match exactly.  ``walk`` enumerates the same order as nested
Python loops over bitmask combinations, behind the same rank gate as the
numpy table scorer.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshcache import (
    CacheScheme,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    UserSpec,
    brute_force_assignments,
    enumerate_partitions,
    evaluate_scheme,
    load_scenario,
    solve_exhaustive,
    solve_sampled,
)
from freshcache import search as search_module
from freshcache.rate_alloc import waterfill
from freshcache.search import _PATIENCE, _build_context, _propose_move, _random_assignment, _Search

from conftest import random_scenario


def _block_sets(counts, pool):
    """Per-relay blocks of ``pool`` with the given counts, each relay's subsets in combinations order."""
    if len(counts) == 1:
        yield (pool,)
        return
    for subset in itertools.combinations(pool, counts[0]):
        taken = set(subset)
        rest = tuple(i for i in pool if i not in taken)
        for tail in _block_sets(counts[1:], rest):
            yield (subset,) + tail


class _Reference:
    """Scores assignments (relay index per context holding) through the canonical per-user sum; keeps the best."""

    def __init__(self, scenario):
        self.ctx = _build_context(scenario)
        self.block_rates = {}   # (relay index, block) -> water-filled rates
        self.best, self.vector, self.trace, self.values = -math.inf, None, [], []

    def score(self, rel_of):
        ctx = self.ctx
        rates = [0.0] * ctx.n
        for k, budget in enumerate(ctx.budgets):
            block = tuple(i for i in range(ctx.n) if rel_of[i] == k)
            if block and (k, block) not in self.block_rates:
                ws = [ctx.weights[i] for i in block]
                ss = [ctx.server_rates[i] for i in block]
                self.block_rates[(k, block)] = waterfill(ws, ss, budget)[0]
            for i, r in zip(block, self.block_rates.get((k, block), ())):
                rates[i] = r
        val = 0.0
        for plan in ctx.user_plans:   # per user, in holdings order: the order of system_freshness
            acc = 0.0
            for i in plan:
                r = rates[i]
                acc += ctx.coef[i][rel_of[i]] * (ctx.mus[i] * (r / (r + ctx.server_rates[i])))
            val += acc
        self.values.append(val)
        vector = tuple(rel_of[i] + 1 for i in ctx.canon_order)
        if val > self.best:
            self.best, self.vector = val, vector
            self.trace.append((len(self.values), val))
        elif val == self.best:
            self.vector = min(self.vector, vector)
        return val


def reference_exhaustive(scenario, allow_empty_relay=False):
    ref = _Reference(scenario)
    n = ref.ctx.n
    for part in enumerate_partitions(n, ref.ctx.capacities, allow_empty_relay=allow_empty_relay):
        for blocks in _block_sets(part.counts, tuple(range(n))):
            rel_of = [0] * n
            for k, block in enumerate(blocks):
                for i in block:
                    rel_of[i] = k
            ref.score(rel_of)
    return ref


def reference_sampled(scenario, budget, seed, allow_empty_relay=False):
    """The hill climber with every move scored canonically, drawing from the RNG as ``solve_sampled`` does.

    Plateau rule: a move that keeps the value is taken and restarts the patience count.
    """
    ref = _Reference(scenario)
    rng = random.Random(seed)
    min_count = 0 if allow_empty_relay else 1
    while len(ref.values) < budget:
        rel_of, counts = _random_assignment(ref.ctx, rng, allow_empty_relay)
        current = ref.score(rel_of)
        failures = 0
        while failures < _PATIENCE and len(ref.values) < budget:
            move = _propose_move(ref.ctx, rng, rel_of, counts, min_count)
            if move is None:
                break
            i, dst = move
            src, rel_of[i] = rel_of[i], dst
            val = ref.score(rel_of)
            if val >= current:
                current, failures = val, 0
                counts[src] -= 1
                counts[dst] += 1
            else:
                rel_of[i] = src
                failures += 1
    return ref


def _assert_same(scenario, result, ref):
    assert result.objective.sum_form == ref.best
    assert tuple(result.best_scheme.assignment[pair] for pair in scenario.holding_pairs) == ref.vector
    assert result.trace == tuple(ref.trace)
    assert result.evaluated_count == len(ref.values)


def walk(search, counts, rest, prefix=0.0, parts=()):
    """Score every split of bitmask ``rest`` over relays ``len(parts)`` onwards, in enumeration order.

    Relay k takes each ``counts[k]``-subset of what the relays before it left,
    in ``itertools.combinations`` order; the last relay takes the rest.  Block
    values are added left to right from 0.0 and gated on ``search.floor``.
    """
    k = len(parts)
    bits = [1 << i for i in range(search.ctx.n) if rest >> i & 1]
    if k < len(counts) - 2:
        for combo in itertools.combinations(bits, counts[k]):
            mask = sum(combo)
            part = search.block(k, mask)
            walk(search, counts, rest ^ mask, prefix + part[0], parts + (part,))
        return
    # The last two relays in one loop.  With a single relay, the second is a
    # relay index past the end with an empty block.
    start = search.evaluated
    for index, combo in enumerate(itertools.combinations(bits, counts[k]), start + 1):
        mask = sum(combo)
        a = search.block(k, mask)
        b = search.block(k + 1, rest ^ mask)
        if prefix + a[0] + b[0] >= search.floor:
            search.offer(index, parts + (a, b))
    search.evaluated = start + math.comb(len(bits), counts[k])


def walk_exhaustive(scenario, allow_empty_relay=False):
    ctx = _build_context(scenario)
    search = _Search(ctx)
    for partition in enumerate_partitions(ctx.n, ctx.capacities, allow_empty_relay=allow_empty_relay):
        walk(search, partition.counts, (1 << ctx.n) - 1)
    return search.result(scenario)


def _shape(seed, label, n, k, users, slack):
    """A seeded random scenario with n holdings split as evenly as possible over k relays, plus spare slots."""
    scenario = random_scenario(random.Random(f"{seed}:{label}"), n, users, k)
    caps = [n // k + (1 if i < n % k else 0) for i in range(k)]
    for i in range(slack):
        caps[i % k] += 1
    return dataclasses.replace(
        scenario, relays=tuple(dataclasses.replace(r, capacity=c) for r, c in zip(scenario.relays, caps))
    )


CASES = {
    "table1": (lambda: load_scenario("table1"), False),
    "table1-allow-empty": (lambda: load_scenario("table1"), True),
    "n12k3": (lambda: _shape(1, "n12k3", 12, 3, 4, 1), False),
    "n13k3": (lambda: _shape(1, "n13k3", 13, 3, 4, 0), False),
    "n10k4": (lambda: _shape(1, "n10k4", 10, 4, 4, 0), False),
    "k1": (lambda: random_scenario(random.Random(11), 8, 3, 1), False),
    "k2-n14-7/7": (lambda: _shape(1, "k2", 14, 2, 4, 0), False),
    "n9k3-allow-empty": (lambda: _shape(2, "n9k3", 9, 3, 3, 3), True),
    "n8k4-allow-empty": (lambda: _shape(3, "n8k4", 8, 4, 3, 2), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_the_canonical_reference(name):
    build, allow_empty_relay = CASES[name]
    scenario = build()
    result = solve_exhaustive(scenario, allow_empty_relay=allow_empty_relay)
    _assert_same(scenario, result, reference_exhaustive(scenario, allow_empty_relay))


@pytest.mark.parametrize("chunk_rows", [search_module._CHUNK_ROWS, 3])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_scorer_matches_the_walk(chunk_rows, data):
    # Three rows per chunk split both a level's rows and one row's choices of
    # its relay's block (any count with more than three choices).
    n_relays = data.draw(st.integers(1, 4))
    n_files = data.draw(st.integers(n_relays, 9))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    caps = [r.capacity for r in scenario.relays]
    caps[rng.randrange(n_relays)] += data.draw(st.integers(0, 1))   # one spare slot, or none
    scenario = dataclasses.replace(
        scenario, relays=tuple(dataclasses.replace(r, capacity=c) for r, c in zip(scenario.relays, caps))
    )
    allow_empty_relay = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "_CHUNK_ROWS", chunk_rows)
        result = solve_exhaustive(scenario, allow_empty_relay=allow_empty_relay)
    expected = walk_exhaustive(scenario, allow_empty_relay)
    assert result.objective == expected.objective
    assert result.best_scheme == expected.best_scheme
    assert result.trace == expected.trace
    assert result.evaluated_count == expected.evaluated_count


def _duplicated(kinds, per_user, n_relays, capacity, budget):
    """Users holding identical copies of a few holding kinds; relays with identical budgets and preferences.

    ``kinds`` lists (user_rate, server_rate); holding j of each user is of kind
    j mod len(kinds).  Assignments that differ only by swapping equal holdings
    or equal relays tie exactly or within a few ulps.
    """
    files, users = [], []
    for uid, count in enumerate(per_user, start=1):
        holdings = []
        for j in range(count):
            user_rate, server_rate = kinds[j % len(kinds)]
            files.append(FileSpec(len(files) + 1, server_rate))
            holdings.append(Holding(len(files), user_rate, 1.0 / count))
        users.append(UserSpec(uid, tuple(holdings), (1.0 / n_relays,) * n_relays))
    relays = tuple(RelaySpec(k + 1, capacity, budget) for k in range(n_relays))
    return Scenario(files=tuple(files), users=tuple(users), relays=relays)


NEAR_TIES = {
    "identical-k3": lambda: _duplicated([(3.0, 2.0)], (4, 4), 3, 4, 5.0),
    "two-kinds-k2": lambda: _duplicated([(3.0, 2.0), (6.0, 1.0)], (6, 6), 2, 8, 4.0),
    "identical-k4": lambda: _duplicated([(2.5, 0.7)], (3, 4), 4, 2, 3.0),
    "three-kinds-k3": lambda: _duplicated([(3.0, 2.0), (6.0, 1.0), (1.5, 4.0)], (3, 2, 3), 3, 3, 6.0),
    "zero-budgets": lambda: _duplicated([(3.0, 2.0), (6.0, 1.0)], (3, 4), 3, 4, 0.0),   # every value is 0
}


@pytest.mark.parametrize("name", sorted(NEAR_TIES))
def test_near_ties_keep_the_brute_force_tie_break(name):
    scenario = NEAR_TIES[name]()
    result = solve_exhaustive(scenario)
    reference = brute_force_assignments(scenario)
    assert result.objective.sum_form == reference.objective.sum_form
    assert result.best_scheme.assignment == reference.best_scheme.assignment
    ref = reference_exhaustive(scenario)
    _assert_same(scenario, result, ref)
    # Tie-heavy by construction: many assignments sit on the optimum or within ulps of it.
    assert sum(ref.best - v <= 1e-15 * ref.best for v in ref.values) > 20


@pytest.mark.parametrize("chunk_rows", [search_module._CHUNK_ROWS, 3])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_fill_is_the_scalar_evaluate_bit_for_bit(chunk_rows, data):
    # Holding kinds repeat, so entries tie on mu/s.  A server rate of 1e30 beside
    # a budget of 10 drops its holding after the others survive, so a row's pass
    # stops partway; at a zero budget nothing survives, and alpha = 0.  Every
    # count from 0 (an empty relay's [0.0]) to n is filled.
    server_rate = st.sampled_from([1e30]) | st.floats(0.5, 8.0)
    kinds = data.draw(st.lists(st.tuples(st.floats(0.5, 12.0), server_rate), min_size=1, max_size=4))
    per_user = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    budgets = data.draw(st.lists(st.sampled_from([0.0, 10.0]) | st.floats(0.5, 20.0), min_size=1, max_size=3))
    scenario = _duplicated(kinds, per_user, len(budgets), sum(per_user), 1.0)
    relays = tuple(dataclasses.replace(r, rate_budget=b) for r, b in zip(scenario.relays, budgets))
    search = _Search(_build_context(dataclasses.replace(scenario, relays=relays)))
    bits = [1 << i for i in range(search.ctx.n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "_CHUNK_ROWS", chunk_rows)
        for k in range(len(budgets)):
            for c in range(search.ctx.n + 1):
                scalar = np.array([search._evaluate(k, sum(combo))[0] for combo in itertools.combinations(bits, c)])
                assert search.table(k, c).tobytes() == scalar.tobytes()


SAMPLED = {
    "table1": lambda: load_scenario("table1"),
    "n9k3": lambda: _shape(4, "n9k3", 9, 3, 3, 2),
    **NEAR_TIES,
}


@pytest.mark.parametrize("allow_empty_relay", [False, True])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampled_matches_the_canonical_climber(name, allow_empty_relay):
    scenario = SAMPLED[name]()
    result = solve_sampled(scenario, 1500, 5, allow_empty_relay=allow_empty_relay)
    _assert_same(scenario, result, reference_sampled(scenario, 1500, 5, allow_empty_relay))


# Seed-1 sweep instances (``perfbench``'s generator) at the default budget, under the plateau rule.
SWEEP_PINS = {
    "n30k4": (lambda: _shape(1, "n30k4", 30, 4, 6, 4), 0.3713453502989092),
    "n45k5": (lambda: _shape(1, "n45k5", 45, 5, 9, 5), 0.3681738629905087),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sampled_sweep_values_are_pinned(name):
    build, expected = SWEEP_PINS[name]
    assert solve_sampled(build(), 10_000, 1).objective.sum_form == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_sums_stay_far_inside_the_rank_margin(data):
    # The largest |block sum - canonical sum| stays below a thousandth of the rank-gate margin.
    n_relays = data.draw(st.integers(1, 4))
    n_files = data.draw(st.integers(n_relays, 9))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    ctx = _build_context(scenario)
    search = _Search(ctx)
    worst = 0.0
    for _ in range(50):
        relay_of_pair = [rng.randrange(n_relays) for _ in scenario.holding_pairs]
        rel_of = [0] * ctx.n
        for pos, i in enumerate(ctx.canon_order):
            rel_of[i] = relay_of_pair[pos]
        parts = [search.block(k, sum(1 << i for i in range(ctx.n) if rel_of[i] == k)) for k in range(n_relays)]
        approx = sum(p[0] for p in parts)
        scheme = CacheScheme({pair: k + 1 for pair, k in zip(scenario.holding_pairs, relay_of_pair)})
        canonical = evaluate_scheme(scenario, scheme)[0].sum_form
        worst = max(worst, abs(approx - canonical) / (search.rel * canonical))
    assert worst < 1e-3
