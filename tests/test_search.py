"""Placement search tests: enumeration, exhaustive and sampled solvers."""

import ast
import dataclasses
import gc
import inspect
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    DomainError,
    FileSpec,
    GuardError,
    Holding,
    InfeasibleError,
    ObjectiveValue,
    RelaySpec,
    Scenario,
    UserSpec,
    allocate,
    brute_force_assignments,
    enumerate_partitions,
    evaluate_scheme,
    solve_exhaustive,
    solve_sampled,
    system_freshness,
    validate_scheme,
)
from freshcache import search as search_module
from freshcache.scenario_io import result_rows
from freshcache.search import _MEMO_ENTRIES, count_assignments, make_solve_result

from conftest import REFERENCE_ASSIGNMENT, random_scenario, uncapped_scenario

# Objective of the optimal placement under exact (unrounded) rates.
OPTIMAL_SUM = 0.531856298
# Distinct feasible assignments for the bundled table1 fixture.
TABLE1_ASSIGNMENT_COUNT = 40110


class TestEnumeratePartitions:
    def test_two_relay_example(self):
        parts = [p.counts for p in enumerate_partitions(3, (2, 2))]
        assert parts == [(1, 2), (2, 1)]

    def test_table1_partition_count(self):
        parts = list(enumerate_partitions(10, (6, 5, 4)))
        assert len(parts) == 17

    def test_infeasible_is_empty(self):
        assert list(enumerate_partitions(5, (2, 2))) == []

    def test_allow_empty_relay(self):
        parts = [p.counts for p in enumerate_partitions(2, (2, 2), allow_empty_relay=True)]
        assert parts == [(0, 2), (1, 1), (2, 0)]

    def test_lexicographic_order_and_bounds(self):
        caps = (3, 2, 4)
        parts = [p.counts for p in enumerate_partitions(6, caps)]
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)
        for counts in parts:
            assert sum(counts) == 6
            assert all(1 <= c <= cap for c, cap in zip(counts, caps))

    def test_matches_product_filter(self):
        caps = (4, 3, 2)
        got = [p.counts for p in enumerate_partitions(5, caps)]
        expected = [
            c
            for c in itertools.product(*(range(1, cap + 1) for cap in caps))
            if sum(c) == 5
        ]
        assert got == expected

    def test_bad_arguments_raise_before_iteration(self):
        for n, caps in ((-1, [2]), (1.0, [2]), (2, [True]), (2, [2, -1])):
            with pytest.raises(DomainError):
                enumerate_partitions(n, caps)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 9),
        caps=st.lists(st.integers(0, 4), max_size=6),
        allow_empty_relay=st.booleans(),
    )
    def test_matches_the_product_filter_on_random_capacities(self, n, caps, allow_empty_relay):
        lo = 0 if allow_empty_relay else 1
        expected = [c for c in itertools.product(*(range(lo, cap + 1) for cap in caps)) if sum(c) == n]
        assert [p.counts for p in enumerate_partitions(n, caps, allow_empty_relay=allow_empty_relay)] == expected

    def test_wide_splits_in_order(self):
        # Two holdings over 64 single-slot relays, empty relays allowed: every pair of relays, in order.
        expected = [tuple(int(i in pair) for i in range(64)) for pair in itertools.combinations(range(64), 2)]
        assert [p.counts for p in enumerate_partitions(2, [1] * 64, allow_empty_relay=True)] == sorted(expected)
        # Spare slots on a few relays among many that must stay at one holding.
        caps = [1] * 40 + [3] + [1] * 40 + [2]
        got = [p.counts for p in enumerate_partitions(84, caps)]
        assert got == [(1,) * 40 + (a,) + (1,) * 40 + (b,) for a, b in ((2, 2), (3, 1))]


class TestCountAssignments:
    def test_table1(self):
        assert count_assignments(10, (6, 5, 4)) == TABLE1_ASSIGNMENT_COUNT

    def test_matches_the_multinomial_sum_over_partitions(self):
        rng = random.Random(20261018)
        for _ in range(300):
            n = rng.randint(0, 9)
            caps = [rng.randint(0, n + 1) for _ in range(rng.randint(0, 4))]
            empty = rng.random() < 0.5
            expected = sum(
                math.factorial(n) // math.prod(map(math.factorial, p.counts))
                for p in enumerate_partitions(n, caps, allow_empty_relay=empty)
            )
            assert count_assignments(n, caps, allow_empty_relay=empty) == expected, (n, caps, empty)

    def test_a_large_count_is_exact(self):
        onto_six_relays = sum((-1) ** j * math.comb(6, j) * (6 - j) ** 60 for j in range(7))   # inclusion-exclusion
        assert count_assignments(60, [60] * 6) == onto_six_relays

    def test_at_most_caps_the_count(self):
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randint(0, 9)
            caps = [rng.randint(0, n + 1) for _ in range(rng.randint(0, 4))]
            empty = rng.random() < 0.5
            count = count_assignments(n, caps, allow_empty_relay=empty)
            for cap in (1, count, count + 1, rng.randint(1, 2 * count + 2)):
                assert count_assignments(n, caps, allow_empty_relay=empty, at_most=cap) == min(count, cap), (n, caps, empty, cap)

    def test_bad_arguments(self):
        for n, caps in ((-1, [2]), (1.0, [2]), (2, [True]), (2, [2, -1])):
            with pytest.raises(DomainError):
                count_assignments(n, caps)


class TestEvaluateScheme:
    def test_reference_scheme(self, table1, reference_scheme):
        objective, per_relay = evaluate_scheme(table1, reference_scheme)
        assert objective.sum_form == pytest.approx(0.5319, abs=5e-4)
        assert objective.sum_form == pytest.approx(OPTIMAL_SUM, abs=1e-6)
        for relay_id, budget in ((1, 12.0), (2, 10.0), (3, 8.0)):
            assert sum(per_relay[relay_id].rates.values()) == pytest.approx(budget, abs=1e-6)

    def test_zero_budgets(self, table1, reference_scheme):
        drained = dataclasses.replace(
            table1,
            relays=tuple(dataclasses.replace(r, rate_budget=0.0) for r in table1.relays),
        )
        objective, _per_relay = evaluate_scheme(drained, reference_scheme)
        assert objective.sum_form == 0.0

    def test_single_relay_reduction(self):
        rng = random.Random(12)
        scenario = random_scenario(rng, n_files=4, n_users=2, n_relays=1)
        scheme = CacheScheme({pair: 1 for pair in scenario.holding_pairs})
        objective, per_relay = evaluate_scheme(scenario, scheme)
        entries = tuple(
            AllocationEntry((u.user_id, h.file_id), h.user_rate, scenario.file_by_id[h.file_id].server_rate)
            for u in scenario.users
            for h in u.holdings
        )
        direct = allocate(AllocationInput(entries, scenario.relays[0].rate_budget))
        assert per_relay[1].rates == direct.rates
        assert objective == system_freshness(scenario, scheme, direct.rates)

    @pytest.mark.parametrize("relay_id", [0, 4, True, 1.0, 9], ids=["relay-0", "relay-K+1", "bool", "float", "relay-9"])
    def test_unknown_relay_is_named(self, table1, relay_id):
        # Relays 0, 4 and 9 get no allocation, so the holding has no rate: the relay id is checked first.
        assignment = {**REFERENCE_ASSIGNMENT, (1, 1): relay_id}
        with pytest.raises(DomainError, match=rf"^holding \(user 1, file 1\) assigned to unknown relay {relay_id}$"):
            evaluate_scheme(table1, CacheScheme(assignment))


class TestSolveExhaustive:
    def test_table1_optimum(self, table1):
        result = solve_exhaustive(table1)
        assert result.objective.sum_form >= 0.5319 - 5e-4
        assert result.objective.sum_form == pytest.approx(OPTIMAL_SUM, abs=1e-6)
        assert result.evaluated_count == TABLE1_ASSIGNMENT_COUNT
        assert result.best_scheme.assignment == REFERENCE_ASSIGNMENT
        assert validate_scheme(table1, result.best_scheme) == []

    def test_trace_contract(self, table1):
        result = solve_exhaustive(table1)
        iterations = [i for i, _ in result.trace]
        values = [v for _, v in result.trace]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len(iterations)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == result.objective.sum_form

    def test_two_file_count(self):
        scenario = Scenario(
            files=(FileSpec(1, 2.0), FileSpec(2, 3.0)),
            users=(UserSpec(1, (Holding(1, 4.0, 0.5), Holding(2, 5.0, 0.5)), (0.5, 0.5)),),
            relays=(RelaySpec(1, 1, 6.0), RelaySpec(2, 1, 4.0)),
        )
        result = solve_exhaustive(scenario)
        assert result.evaluated_count == 2

    def test_limit_guard_names_the_limit(self, table1):
        # The count stops once it passes the limit, so the message names the limit, not the count.
        with pytest.raises(GuardError, match="^distinct assignment count exceeds the enumeration limit 100$"):
            solve_exhaustive(table1, limit=100)
        assert solve_exhaustive(table1, limit=TABLE1_ASSIGNMENT_COUNT).evaluated_count == TABLE1_ASSIGNMENT_COUNT

    def test_limit_guard_stops_counting_past_the_limit(self):
        # About 8e73 assignments: the full big-integer count took 1.5 s before the guard could trip.
        scenario = uncapped_scenario(1000, 10)
        scenario = dataclasses.replace(scenario, relays=tuple(dataclasses.replace(r, capacity=100) for r in scenario.relays))
        scenario.layout   # the layout's cost is not the guard's
        start = time.perf_counter()
        with pytest.raises(GuardError):
            solve_exhaustive(scenario)
        assert time.perf_counter() - start < 0.5

    def test_infeasible_scenario(self):
        scenario = Scenario(
            files=(FileSpec(1, 2.0), FileSpec(2, 3.0)),
            users=(UserSpec(1, (Holding(1, 4.0, 0.5), Holding(2, 5.0, 0.5)), (1.0,)),),
            relays=(RelaySpec(1, 1, 6.0),),
        )
        with pytest.raises(InfeasibleError):
            solve_exhaustive(scenario)

    def test_limit_guard_trips_before_any_partition(self, monkeypatch):
        # Six uncapped relays over 60 holdings split C(59, 5), about 5.0M, ways; the guard must not build one.
        def refuse(*args, **kwargs):
            raise AssertionError("a partition was enumerated before the limit guard")

        monkeypatch.setattr(search_module, "enumerate_partitions", refuse)
        with pytest.raises(GuardError) as err:
            solve_exhaustive(uncapped_scenario(60, 6))
        assert "exceeds the enumeration limit 10000000" in str(err.value)

    def test_beats_random_feasible_schemes(self):
        rng = random.Random(21)
        scenario = random_scenario(rng, n_files=5, n_users=2, n_relays=2)
        best = solve_exhaustive(scenario)
        pairs = scenario.holding_pairs
        caps = [r.capacity for r in scenario.relays]
        found = 0
        while found < 20:
            vector = [rng.randint(1, 2) for _ in pairs]
            counts = [vector.count(k + 1) for k in range(2)]
            if any(c < 1 or c > cap for c, cap in zip(counts, caps)):
                continue
            found += 1
            scheme = CacheScheme(dict(zip(pairs, vector)))
            objective, _rates = evaluate_scheme(scenario, scheme)
            assert objective.sum_form <= best.objective.sum_form

    def test_relay_relabeling_invariance(self):
        rng = random.Random(33)
        scenario = random_scenario(rng, n_files=5, n_users=2, n_relays=2)
        swapped = Scenario(
            files=scenario.files,
            users=tuple(
                UserSpec(u.user_id, u.holdings, (u.relay_prefs[1], u.relay_prefs[0]))
                for u in scenario.users
            ),
            relays=(
                RelaySpec(1, scenario.relays[1].capacity, scenario.relays[1].rate_budget),
                RelaySpec(2, scenario.relays[0].capacity, scenario.relays[0].rate_budget),
            ),
        )
        original = solve_exhaustive(scenario)
        relabeled = solve_exhaustive(swapped)
        assert relabeled.objective.sum_form == original.objective.sum_form
        swap = {1: 2, 2: 1}
        assert relabeled.best_scheme.assignment == {
            key: swap[rid] for key, rid in original.best_scheme.assignment.items()
        }

    def test_allow_empty_relay_never_hurts(self):
        rng = random.Random(44)
        scenario = random_scenario(rng, n_files=4, n_users=2, n_relays=2)
        strict = solve_exhaustive(scenario)
        relaxed = solve_exhaustive(scenario, allow_empty_relay=True)
        assert relaxed.objective.sum_form >= strict.objective.sum_form
        assert relaxed.evaluated_count >= strict.evaluated_count

    def test_result_table_shape(self, table1):
        result = solve_exhaustive(table1)
        assert result.scenario is table1
        assert len(result_rows(result)) == 10

    def test_recheck_is_exact(self, table1):
        # The search's objective and the public re-evaluation add the same terms in the same order.
        result = solve_exhaustive(table1)
        vector = tuple(result.best_scheme.assignment[pair] for pair in table1.holding_pairs)
        args = (result.trace, result.evaluated_count)
        assert make_solve_result(table1, vector, result.objective, *args) == result
        off = ObjectiveValue.of_sum(math.nextafter(result.objective.sum_form, math.inf), table1)
        with pytest.raises(AssertionError, match="diverged from the public evaluation"):
            make_solve_result(table1, vector, off, *args)

    def test_leaves_no_search_in_a_reference_cycle(self, table1):
        # With the collector off, a search held only by a reference cycle, its
        # memo and block tables with it, would outlive the solve.
        gc.collect()
        gc.disable()
        try:
            solve_exhaustive(table1)
            assert not any(isinstance(obj, search_module._Search) for obj in gc.get_objects())
        finally:
            gc.enable()

    def test_table1_offers_and_water_fills(self, table1, monkeypatch):
        # Each (relay, count) table is filled once, so each distinct block is
        # water-filled once, and only assignments whose block sum could tie or
        # beat the best so far are re-scored canonically.
        offers, tables = [0], []
        offer, fill = search_module._Search.offer, search_module._Search.fill

        def counting_offer(self, *args):
            offers[0] += 1
            return offer(self, *args)

        def recording_fill(self, ks, c):
            values = fill(self, ks, c)
            tables.extend(((k, c), len(row)) for k, row in zip(ks, values))
            return values

        monkeypatch.setattr(search_module._Search, "offer", counting_offer)
        monkeypatch.setattr(search_module._Search, "fill", recording_fill)
        result = solve_exhaustive(table1)
        used = {key for p in enumerate_partitions(10, (6, 5, 4)) for key in enumerate(p.counts)}
        assert sorted(key for key, _ in tables) == sorted(used)
        assert [sum(size for (k, _), size in tables if k == relay) for relay in range(3)] == [847, 637, 385]
        assert offers == [38]
        assert len(result.trace) == 38

    def test_table1_fills_each_count_in_one_call_and_unranks_each_subset_once(self, table1, monkeypatch):
        # A count guard on the fixed work of a solve: every table1 table is one chunk, so each of the six
        # counts is water-filled in one call over every relay that reads it, and no (m, c) subset list is
        # unranked twice.
        rows, unranked, offers = [], [], [0]
        waterfill_rows, unrank, offer = search_module.waterfill_rows, search_module._unrank, search_module._Search.offer

        def counting_waterfill_rows(w, s, budget):
            rows.append(len(w))
            return waterfill_rows(w, s, budget)

        def counting_unrank(m, c, ranks):
            unranked.append((m, c))
            return unrank(m, c, ranks)

        def counting_offer(self, *args):
            offers[0] += 1
            return offer(self, *args)

        monkeypatch.setattr(search_module, "waterfill_rows", counting_waterfill_rows)
        monkeypatch.setattr(search_module, "_unrank", counting_unrank)
        monkeypatch.setattr(search_module._Search, "offer", counting_offer)
        solve_exhaustive(table1)
        assert (len(rows), sum(rows)) == (6, 1869)
        assert unranked and len(unranked) == len(set(unranked))
        assert offers == [38]

    @pytest.mark.parametrize("scenario", [random_scenario(random.Random(3), 2, 1, 8), uncapped_scenario(4, 5)], ids=["h2-k8", "h4-k5"])
    def test_the_scorer_sees_only_the_relays_that_take_holdings(self, scenario, monkeypatch):
        # With empty relays allowed, every table filled and every key list scored names a relay that takes holdings.
        filled, scored = [], []
        fill, score = search_module._Search.fill, search_module._Search.score

        def recording_fill(self, ks, c):
            filled.extend((k, c) for k in ks)
            return fill(self, ks, c)

        def recording_score(self, keys, tables, i, *rest):
            scored.append((list(keys), i))
            return score(self, keys, tables, i, *rest)

        monkeypatch.setattr(search_module._Search, "fill", recording_fill)
        monkeypatch.setattr(search_module._Search, "score", recording_score)
        solve_exhaustive(scenario, allow_empty_relay=True)
        walk = enumerate_partitions(len(scenario.holding_pairs), [r.capacity for r in scenario.relays], allow_empty_relay=True)
        partitions = [[(k, c) for k, c in enumerate(p.counts) if c] for p in walk]
        assert all(c > 0 for k, c in filled) and sorted(filled) == sorted({key for keys in partitions for key in keys})
        assert all(c > 0 for keys, _ in scored for k, c in keys)
        assert [keys for keys, i in scored if i == 0] == partitions

    def test_evaluate_scheme_names_the_relay_of_a_budget_out_of_scale(self, table1, reference_scheme):
        # 1e308 passes validation but not check_scale, which allocate applies to its own input.
        relays = (table1.relays[0], dataclasses.replace(table1.relays[1], rate_budget=1e308), table1.relays[2])
        scenario = dataclasses.replace(table1, relays=relays)
        with pytest.raises(DomainError, match=r"^relay 2: allocation rate budget 1e\+308 would overflow the water-fill$"):
            evaluate_scheme(scenario, reference_scheme)

    @pytest.mark.parametrize("budget", [1e308, 1e200])
    def test_a_budget_out_of_scale_fails_before_any_water_fill(self, table1, budget):
        # Each solver reads Scenario.layout, which checks every relay's budget, before it water-fills.
        relays = (dataclasses.replace(table1.relays[0], rate_budget=budget),) + table1.relays[1:]
        scenario = dataclasses.replace(table1, relays=relays)
        for solve in (solve_exhaustive, lambda s: solve_sampled(s, 10, 1), brute_force_assignments):
            with pytest.raises(DomainError, match="relay 1 rate budget .* would overflow the water-fill"):
                solve(scenario)

    def test_many_empty_relays_match_the_oracle(self):
        # 2 holdings over 128 capacity-1 relays: nearly every relay is empty in every assignment.
        scenario = random_scenario(random.Random(3), 2, 1, 128)
        result = solve_exhaustive(scenario, allow_empty_relay=True)
        reference = brute_force_assignments(scenario, allow_empty_relay=True)
        assert result.objective.sum_form.hex() == reference.objective.sum_form.hex()
        assert result.best_scheme == reference.best_scheme
        assert result.evaluated_count == count_assignments(2, [1] * 128, allow_empty_relay=True) == 128 * 127


# Holding counts far above any fixture, pinned at their values before the scorer unranked its rows: no rank or
# digit may overflow int64.  (name, scenario, evaluated_count, objective, holdings off relay 1, trace)
LARGE_SOLVES = [
    ("k1-n100", lambda: uncapped_scenario(100, 1), 1, 0.050356668763976306, {}, ((1, 0.050356668763976306),)),
    (
        "caps-98-1-1", lambda: _with_capacities(random_scenario(random.Random(3), 100, 4, 3), (98, 1, 1)),
        9900, 0.07010224776244628, {(2, 7): 2, (3, 38): 3},
        ((1, 0.047446323841867526), (2, 0.04957530032256659), (3, 0.05328608614013951), (4, 0.05673148898327733),
         (32, 0.05808454104531507), (74, 0.062469649904904764), (112, 0.07010224776244628)),
    ),
    (
        "caps-38-2", lambda: _with_capacities(random_scenario(random.Random(4), 40, 4, 2), (38, 2)),
        780, 0.3101454111437749, {(2, 22): 2, (4, 27): 2},
        ((1, 0.24017158754605544), (2, 0.24753791361551547), (3, 0.26695041229721633), (18, 0.27251531660135253),
         (174, 0.2741249331402283), (187, 0.279576041627211), (291, 0.2807480880389368),
         (292, 0.29267952717811574), (296, 0.3014637212610161), (553, 0.30914114712545354),
         (655, 0.3101454111437749)),
    ),
]


@pytest.mark.parametrize("build, count, objective, moved, trace", [c[1:] for c in LARGE_SOLVES], ids=[c[0] for c in LARGE_SOLVES])
def test_large_holding_counts_are_pinned(build, count, objective, moved, trace):
    result = solve_exhaustive(build())
    assert result.evaluated_count == count
    assert result.objective.sum_form == objective
    assert {key: relay for key, relay in result.best_scheme.assignment.items() if relay != 1} == moved
    assert result.trace == trace


class TestSolveSampled:
    def test_budget_one(self, table1):
        result = solve_sampled(table1, budget=1, seed=0)
        assert result.evaluated_count == 1
        assert len(result.trace) == 1
        assert validate_scheme(table1, result.best_scheme) == []

    def test_budget_spent_exactly(self, table1):
        result = solve_sampled(table1, budget=137, seed=5)
        assert result.evaluated_count == 137

    def test_same_seed_same_result(self, table1):
        a = solve_sampled(table1, budget=500, seed=9)
        b = solve_sampled(table1, budget=500, seed=9)
        assert a.objective.sum_form == b.objective.sum_form
        assert a.best_scheme.assignment == b.best_scheme.assignment
        assert a.trace == b.trace

    def test_reaches_near_optimal_on_table1(self, table1):
        result = solve_sampled(table1, budget=5000, seed=7)
        assert result.objective.sum_form >= 0.52

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_reaches_the_optimum_on_table1(self, table1, seed):
        result = solve_sampled(table1, budget=3000, seed=seed)
        assert result.objective.sum_form == pytest.approx(OPTIMAL_SUM, abs=1e-9)

    def test_trace_contract(self, table1):
        result = solve_sampled(table1, budget=2000, seed=3)
        values = [v for _, v in result.trace]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == result.objective.sum_form
        assert result.trace[0][0] == 1

    def test_never_beats_exhaustive(self, table1):
        exact = solve_exhaustive(table1)
        sampled = solve_sampled(table1, budget=3000, seed=11)
        assert sampled.objective.sum_form <= exact.objective.sum_form + 1e-12

    def test_infeasible_scenario(self):
        scenario = Scenario(
            files=(FileSpec(1, 2.0),),
            users=(UserSpec(1, (Holding(1, 4.0, 1.0),), (0.5, 0.5)),),
            relays=(RelaySpec(1, 1, 6.0), RelaySpec(2, 1, 4.0)),
        )
        with pytest.raises(InfeasibleError):
            solve_sampled(scenario, budget=10, seed=0)


def _with_capacities(scenario, capacities):
    relays = tuple(dataclasses.replace(r, capacity=c) for r, c in zip(scenario.relays, capacities))
    return dataclasses.replace(scenario, relays=relays)


class TestRelayMemo:
    def test_more_blocks_than_the_memo_holds(self):
        # Two relays of capacity 7 over 14 holdings: the two block tables hold
        # 2 * C(14, 7) (relay, block) pairs, more than the memo could.  The
        # tables are filled without the memo, so only offers reach it; the
        # solve still matches the oracle.  Clearing a full memo is
        # test_clearing_a_full_memo_keeps_every_result's.
        scenario = _with_capacities(random_scenario(random.Random(1414), 14, 4, 2), (7, 7))
        assert 2 * math.comb(14, 7) > _MEMO_ENTRIES
        result = solve_exhaustive(scenario)
        reference = brute_force_assignments(scenario)
        assert result.evaluated_count == math.comb(14, 7)
        assert result.objective.sum_form == reference.objective.sum_form
        assert result.best_scheme.assignment == reference.best_scheme.assignment

    def test_clearing_a_full_memo_keeps_every_result(self, monkeypatch):
        # A cap of 8 makes both modes clear the memo over and over.
        calls = [0]
        waterfill = search_module.waterfill

        def counting_waterfill(*args):
            calls[0] += 1
            return waterfill(*args)

        monkeypatch.setattr(search_module, "waterfill", counting_waterfill)
        scenario = random_scenario(random.Random(909), 9, 3, 3)
        runs = []
        for cap in (_MEMO_ENTRIES, 8):
            monkeypatch.setattr(search_module, "_MEMO_ENTRIES", cap)
            calls[0] = 0
            results = (solve_exhaustive(scenario), solve_sampled(scenario, budget=400, seed=3))
            runs.append((calls[0], results))
        (full_calls, full), (small_calls, small) = runs
        assert small_calls > full_calls
        for a, b in zip(full, small):
            assert a.objective.sum_form == b.objective.sum_form
            assert a.best_scheme.assignment == b.best_scheme.assignment
            assert a.trace == b.trace
            assert a.evaluated_count == b.evaluated_count
        assert small[0].objective.sum_form == brute_force_assignments(scenario).objective.sum_form

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exhaustive_equals_brute_force(self, data):
        n_relays = data.draw(st.integers(1, 4))
        # At most 9 files, and 8 at K = 4 (65,536 raw assignments), keep the oracle's run time short.
        n_files = data.draw(st.integers(n_relays, 8 if n_relays == 4 else 9))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
        # One optional spare slot varies the partitions without blowing up the oracle's run time.
        caps = [r.capacity for r in scenario.relays]
        caps[rng.randrange(n_relays)] += data.draw(st.integers(0, 1))
        scenario = _with_capacities(scenario, caps)
        allow_empty_relay = data.draw(st.booleans())
        result = solve_exhaustive(scenario, allow_empty_relay=allow_empty_relay)
        reference = brute_force_assignments(scenario, allow_empty_relay=allow_empty_relay)
        assert result.objective.sum_form == reference.objective.sum_form
        assert result.best_scheme.assignment == reference.best_scheme.assignment


def test_search_imports_nothing_from_scenario_io():
    # Results carry their scenario; rendering them is scenario_io's business, not the search's.
    tree = ast.parse(inspect.getsource(search_module))
    modules = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    names = [a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
    assert not [m for m in modules + names if "scenario_io" in m]


def test_each_solve_builds_and_checks_one_search():
    # _Search reads the scenario's layout and checks the instance; each solver builds exactly one and decides nothing itself.
    tree = ast.parse(inspect.getsource(search_module))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    assert not defined & {"_EvalContext", "_build_context", "_canonical_vector"}

    def calls(node, name):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and ast.unparse(n.func) == name]

    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert {f.name: len(calls(f, "_Search")) for f in functions if calls(f, "_Search")} == {
        "solve_exhaustive": 1,
        "solve_sampled": 1,
    }
    assert len(calls(tree, "_Search")) == 2
    search_class = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Search")
    init = next(n for n in search_class.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")

    def infeasible_raises(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Raise) and n.exc is not None and calls(n.exc, "InfeasibleError")]

    assert len(infeasible_raises(init)) == len(infeasible_raises(tree)) == 2
