"""Placement search tests: enumeration, exhaustive and sampled solvers."""

import dataclasses
import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    DomainError,
    FileSpec,
    Holding,
    InfeasibleError,
    RelaySpec,
    Scenario,
    SearchBudgetError,
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
from freshcache.search import _MEMO_ENTRIES, count_assignments

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

    def test_limit_guard_names_the_count(self, table1):
        with pytest.raises(SearchBudgetError) as err:
            solve_exhaustive(table1, limit=100)
        assert str(TABLE1_ASSIGNMENT_COUNT) in str(err.value)

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
        with pytest.raises(SearchBudgetError) as err:
            solve_exhaustive(uncapped_scenario(60, 6))
        onto_six_relays = sum((-1) ** j * math.comb(6, j) * (6 - j) ** 60 for j in range(7))   # inclusion-exclusion
        assert f"count {onto_six_relays} exceeds" in str(err.value)

    def test_parallel_matches_serial(self, table1):
        serial = solve_exhaustive(table1, threads=1)
        parallel = solve_exhaustive(table1, threads=4)
        assert parallel.objective.sum_form == serial.objective.sum_form
        assert parallel.best_scheme.assignment == serial.best_scheme.assignment
        assert parallel.trace == serial.trace
        assert parallel.evaluated_count == serial.evaluated_count

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
        assert len(result.table.rows) == 10
        assert result.table.footer.objective_sum == result.objective.sum_form

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
        offer, table = search_module._Search.offer, search_module._Search.table

        def counting_offer(self, *args):
            offers[0] += 1
            return offer(self, *args)

        def recording_table(self, k, c):
            values = table(self, k, c)
            tables.append(((k, c), len(values)))
            return values

        monkeypatch.setattr(search_module._Search, "offer", counting_offer)
        monkeypatch.setattr(search_module._Search, "table", recording_table)
        result = solve_exhaustive(table1)
        used = {key for p in enumerate_partitions(10, (6, 5, 4)) for key in enumerate(p.counts)}
        assert sorted(key for key, _ in tables) == sorted(used)
        assert [sum(size for (k, _), size in tables if k == relay) for relay in range(3)] == [847, 637, 385]
        assert offers == [38]
        assert len(result.trace) == 38


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
        # 2 * C(14, 7) (relay, block) pairs, more than the memo, so filling
        # them clears it and offers must water-fill blocks it no longer holds.
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
        # Largest file count whose raw n_relays**n_files stays within the oracle's limit, capped at 9.
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
