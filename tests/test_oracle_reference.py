"""The brute-force oracle against a plain loop over its assignments.

``brute_force_assignments`` walks the K**H product a chunk at a time and
water-fills each (relay, block) pair a feasible vector can hold once, a
``waterfill_rows`` row per block and one call per block size.  The
reference below walks ``itertools.product``, calls the public ``allocate``
afresh for every relay of every feasible assignment and scores each one
through ``system_freshness``, so objective, best vector, trace and
evaluation count must all match exactly.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freshcache.oracle
import freshcache.search
from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    DomainError,
    allocate,
    brute_force_assignments,
    evaluate_scheme,
    fixture_path,
    load_scenario,
    solve_exhaustive,
    system_freshness,
)

from freshcache.rate_alloc import sort_key

from conftest import random_scenario


def reference_brute_force(scenario, allow_empty_relay=False):
    """(best value, best vector, trace, evaluated count), allocating every relay of every assignment."""
    pairs = scenario.holding_pairs
    k = scenario.n_relays
    capacities = [r.capacity for r in scenario.relays]
    min_count = 0 if allow_empty_relay else 1
    entry_info = []
    for user in scenario.users:
        for h in user.holdings:
            entry_info.append((user.user_id, h.file_id, h.user_rate, scenario.file_by_id[h.file_id].server_rate))

    best_val = -math.inf
    best_vector = None
    trace = []
    evaluated = 0
    for vector in itertools.product(range(k), repeat=len(pairs)):
        counts = [0] * k
        for rel in vector:
            counts[rel] += 1
        if any(c < min_count or c > cap for c, cap in zip(counts, capacities)):
            continue
        evaluated += 1
        scheme = CacheScheme({pair: rel + 1 for pair, rel in zip(pairs, vector)})
        flat = {}
        for relay in scenario.relays:
            relay_entries = tuple(
                AllocationEntry((uid, fid), u_rate, s_rate)
                for (uid, fid, u_rate, s_rate), rel in zip(entry_info, vector)
                if rel + 1 == relay.relay_id
            )
            if not relay_entries:
                continue
            flat.update(allocate(AllocationInput(relay_entries, relay.rate_budget)).rates)
        val = system_freshness(scenario, scheme, flat).sum_form
        if val > best_val:
            best_val = val
            best_vector = tuple(rel + 1 for rel in vector)
            trace.append((evaluated, val))
    return best_val, best_vector, tuple(trace), evaluated


def _assert_same(scenario, allow_empty_relay):
    result = brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
    best_val, best_vector, trace, evaluated = reference_brute_force(scenario, allow_empty_relay)
    assert result.objective.sum_form == best_val
    assert tuple(result.best_scheme.assignment[pair] for pair in scenario.holding_pairs) == best_vector
    assert result.trace == trace
    assert result.evaluated_count == evaluated


def _with_capacities(scenario, caps):
    return dataclasses.replace(
        scenario, relays=tuple(dataclasses.replace(r, capacity=c) for r, c in zip(scenario.relays, caps))
    )


def _wide(k, h):
    """h holdings over k relays of capacity 1-3, for keys past the K = 4 the hypothesis draws stop at."""
    rng = random.Random(100 * k + h)
    return _with_capacities(random_scenario(rng, h, rng.randint(1, h), k), [rng.randint(1, 3) for _ in range(k)])


CASES = {
    "table1": (lambda: load_scenario("table1"), False),
    "table1-allow-empty": (lambda: load_scenario("table1"), True),
    "k1": (lambda: random_scenario(random.Random(11), 8, 3, 1), False),
    "k2-n14-7/7": (lambda: _with_capacities(random_scenario(random.Random(12), 14, 4, 2), [7, 7]), False),
    "n8k4": (lambda: _with_capacities(random_scenario(random.Random(13), 8, 3, 4), [3, 2, 2, 2]), False),
    # One raw vector, but 70 holdings: too many for a 2**H mask table, so K = 1's one block takes mask 0.
    "k1-h70": (lambda: random_scenario(random.Random(15), 70, 5, 1), False),
    # 65,536 raw vectors: the largest K = 2 product under the 16-holding mask limit.
    "k2-n16-8/8": (lambda: _with_capacities(random_scenario(random.Random(16), 16, 4, 2), [8, 8]), False),
    # Base-K block keys with digits up to K - 1 = 4, 5 and 7.
    "k5-h3-allow-empty": (lambda: _wide(5, 3), True),
    "k5-h5": (lambda: _wide(5, 5), False),
    "k5-h5-allow-empty": (lambda: _wide(5, 5), True),
    "k6-h4-allow-empty": (lambda: _wide(6, 4), True),
    "k6-h6": (lambda: _wide(6, 6), False),
    "k8-h3-allow-empty": (lambda: _wide(8, 3), True),
    "k8-h5-allow-empty": (lambda: _wide(8, 5), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_memoized_oracle_matches_the_unmemoized_loop(name):
    build, allow_empty_relay = CASES[name]
    _assert_same(build(), allow_empty_relay)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_memoized_oracle_matches_on_random_scenarios(data):
    n_relays = data.draw(st.integers(1, 4))
    n_files = data.draw(st.integers(n_relays, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    _assert_same(scenario, data.draw(st.booleans()))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_oracle_objective_is_the_public_evaluation_of_its_scheme(data):
    # The oracle scores rows without system_freshness; its value must still be the evaluator's, bit for bit.
    n_relays = data.draw(st.integers(1, 4))
    n_files = data.draw(st.integers(n_relays, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    result = brute_force_assignments(scenario, allow_empty_relay=data.draw(st.booleans()))
    assert result.objective.sum_form == evaluate_scheme(scenario, result.best_scheme)[0].sum_form


def _count_rows(monkeypatch):
    """Record the row count of every ``waterfill_rows`` call the oracle makes."""
    rows = []
    original = freshcache.oracle.waterfill_rows

    def counted(w, s, budget):
        rows.append(len(w))
        return original(w, s, budget)

    monkeypatch.setattr(freshcache.oracle, "waterfill_rows", counted)
    return rows


def test_oracle_allocates_each_table1_block_once(monkeypatch):
    table1 = load_scenario("table1")
    sizes = []
    fill = freshcache.search._Search.fill

    def recording_fill(self, ks, c):
        values = fill(self, ks, c)
        sizes.extend(len(row) for row in values)
        return values

    monkeypatch.setattr(freshcache.search._Search, "fill", recording_fill)
    solve_exhaustive(table1)
    rows = _count_rows(monkeypatch)
    brute_force_assignments(table1)
    # Every distinct (relay, block) pair of the 40,110 feasible assignments, water-filled
    # once by the oracle and filled once into the exhaustive search's block tables.
    assert sum(rows) == sum(sizes) == 1869


def test_oracle_fills_table1_in_one_call_per_block_size(monkeypatch):
    # Every relay's blocks of one size share a call, each row under its own relay's budget.
    rows = _count_rows(monkeypatch)
    brute_force_assignments(load_scenario("table1"))
    assert len(rows) == 6
    assert sum(rows) == 1869


def test_oracle_stores_no_block_at_two_relays(monkeypatch):
    scenario = _with_capacities(random_scenario(random.Random(14), 10, 3, 2), [5, 5])
    rows = _count_rows(monkeypatch)
    result = brute_force_assignments(scenario)
    assert sum(rows) == 2 * result.evaluated_count == 2 * math.comb(10, 5)


@pytest.mark.parametrize("budget", [-1.0, math.nan, math.inf])
def test_oracle_rejects_a_bad_rate_budget(budget):
    table1 = load_scenario("table1")
    relays = (dataclasses.replace(table1.relays[0], rate_budget=budget),) + table1.relays[1:]
    with pytest.raises(DomainError, match="rate budget"):
        brute_force_assignments(dataclasses.replace(table1, relays=relays))


def _draw_scenario(data):
    """The random scenario and ``allow_empty_relay`` flag the ``hypothesis`` tests above draw."""
    n_relays = data.draw(st.integers(1, 4))
    n_files = data.draw(st.integers(n_relays, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    return random_scenario(rng, n_files, rng.randint(1, n_files), n_relays), data.draw(st.booleans())


def _feasible_vectors(scenario, allow_empty_relay):
    """Every raw vector, in product order, whose per-relay sums over its row fit the capacities."""
    k, h = scenario.n_relays, len(scenario.holding_pairs)
    vectors = np.array(list(itertools.product(range(k), repeat=h)))
    counts = np.stack([(vectors == idx).sum(axis=1) for idx in range(k)], axis=1)
    capacities = np.array([r.capacity for r in scenario.relays])
    return vectors[((counts >= (0 if allow_empty_relay else 1)) & (counts <= capacities)).all(axis=1)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_column_counts_match_per_relay_sums(data):
    # The oracle counts each relay's holdings one holding at a time; the vectors it keeps, in order,
    # must be those that per-relay sums over whole vectors keep, so the trace numbers the best at its row.
    scenario, allow_empty_relay = _draw_scenario(data)
    feasible = _feasible_vectors(scenario, allow_empty_relay)
    result = brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
    assert result.evaluated_count == len(feasible)
    best = [result.best_scheme.assignment[pair] - 1 for pair in scenario.holding_pairs]
    assert feasible[result.trace[-1][0] - 1].tolist() == best


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_keys_fill_each_distinct_block_once_in_sort_key_order(data):
    # Every nonempty (relay, block) pair of the feasible vectors is water-filled exactly once,
    # its holdings in allocate's sort_key order, whatever order the base-K keys give the slots.
    scenario, allow_empty_relay = _draw_scenario(data)
    entries = [scenario.entries[pair] for pair in scenario.holding_pairs]
    holding_of = {(e.weight, e.server_rate): p for p, e in enumerate(entries)}
    relay_of = {r.rate_budget: idx for idx, r in enumerate(scenario.relays)}
    assert len(holding_of) == len(entries) and len(relay_of) == scenario.n_relays
    filled = []
    original = freshcache.oracle.waterfill_rows

    def recording(w, s, budget):
        # One call carries every relay's blocks of one size, so each row reads its own budget.
        rows = zip(np.broadcast_to(budget, len(w)).tolist(), w.tolist(), s.tolist())
        filled.extend((relay_of[b], tuple(map(holding_of.get, zip(*row)))) for b, *row in rows)
        return original(w, s, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freshcache.oracle, "waterfill_rows", recording)
        brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
    want = {
        (idx, frozenset(np.flatnonzero(vector == idx).tolist()))
        for vector in _feasible_vectors(scenario, allow_empty_relay)
        for idx in range(scenario.n_relays)
        if (vector == idx).any()
    }
    assert len(filled) == len(set(filled))
    assert {(idx, frozenset(block)) for idx, block in filled} == want
    assert all(list(block) == sorted(block, key=lambda p: sort_key(entries[p])) for _, block in filled)


def _chunked(scenario, allow_empty_relay, chunk):
    """The oracle's result with ``_CHUNK`` set to ``chunk``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freshcache.oracle, "_CHUNK", chunk)
        return brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)


FIXTURES = sorted(path.stem for path in fixture_path("table1").parent.glob("*.yaml"))

# Chunks of 1 and 3 vectors put every digit, or all but one, in the leading prefix; 40 puts 3 of table1's 10
# digits in the tail, and the default 8.  The chunks split the product differently, never the result.
CHUNKS = [1, 3]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunk_size_leaves_table1_unchanged(chunk):
    table1 = load_scenario("table1")
    assert _chunked(table1, False, chunk) == brute_force_assignments(table1)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_chunk_size_leaves_each_fixture_unchanged(fixture):
    scenario = load_scenario(fixture)
    for allow_empty_relay in (False, True):
        want = brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
        assert _chunked(scenario, allow_empty_relay, 40) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chunk_size_leaves_random_scenarios_unchanged(data):
    scenario, allow_empty_relay = _draw_scenario(data)
    want = brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
    for chunk in CHUNKS:
        assert _chunked(scenario, allow_empty_relay, chunk) == want
