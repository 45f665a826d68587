"""The brute-force oracle against a plain loop over its assignments.

``brute_force_assignments`` scores the whole K**H product in one numpy pass
and allocates each distinct (relay, block) pair once.  The reference below
walks ``itertools.product``, calls ``allocate`` afresh for every relay of
every feasible assignment and scores each one through ``system_freshness``,
so objective, best vector, trace and evaluation count must all match exactly.
"""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freshcache.oracle
import freshcache.search
from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    allocate,
    brute_force_assignments,
    evaluate_scheme,
    load_scenario,
    solve_exhaustive,
    system_freshness,
)

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


CASES = {
    "table1": (lambda: load_scenario("table1"), False),
    "table1-allow-empty": (lambda: load_scenario("table1"), True),
    "k1": (lambda: random_scenario(random.Random(11), 8, 3, 1), False),
    "k2-n14-7/7": (lambda: _with_capacities(random_scenario(random.Random(12), 14, 4, 2), [7, 7]), False),
    "n8k4": (lambda: _with_capacities(random_scenario(random.Random(13), 8, 3, 4), [3, 2, 2, 2]), False),
    # One raw vector, but 64+ holdings: a 64-bit block mask would wrap here.
    "k1-h70": (lambda: random_scenario(random.Random(15), 70, 5, 1), False),
    # 65,536 raw vectors: the largest K = 2 product under the default limit.
    "k2-n16-8/8": (lambda: _with_capacities(random_scenario(random.Random(16), 16, 4, 2), [8, 8]), False),
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


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_oracle_allocates_each_table1_block_once(monkeypatch):
    table1 = load_scenario("table1")
    sizes = []
    table = freshcache.search._Search.table

    def recording_table(self, k, c):
        values = table(self, k, c)
        sizes.append(len(values))
        return values

    monkeypatch.setattr(freshcache.search._Search, "table", recording_table)
    solve_exhaustive(table1)
    allocations = _count_calls(monkeypatch, freshcache.oracle, "allocate")
    brute_force_assignments(table1)
    # Every distinct (relay, block) pair of the 40,110 feasible assignments, allocated
    # once by the oracle and filled once into the exhaustive search's block tables.
    assert len(allocations) == sum(sizes) == 1869


def test_oracle_stores_no_block_at_two_relays(monkeypatch):
    scenario = _with_capacities(random_scenario(random.Random(14), 10, 3, 2), [5, 5])
    allocations = _count_calls(monkeypatch, freshcache.oracle, "allocate")
    result = brute_force_assignments(scenario)
    assert len(allocations) == 2 * result.evaluated_count == 2 * math.comb(10, 5)
