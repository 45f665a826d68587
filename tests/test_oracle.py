"""Tests for the brute-force reference implementations."""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freshcache.oracle

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    DomainError,
    FileSpec,
    Holding,
    InfeasibleError,
    OracleScaleError,
    RelaySpec,
    Scenario,
    UserSpec,
    allocate,
    brute_force_assignments,
    evaluate_scheme,
    solve_exhaustive,
    solve_sampled,
)

from freshcache.search import count_assignments, relay_inputs

from conftest import REFERENCE_ASSIGNMENT, make_allocation_input, random_scenario
from grid_oracle import GRID_MAX_STEPS, GRID_ROW_BLOCK, grid_allocate


def grid_allocate_dense(alloc_input: AllocationInput, steps: int) -> tuple[tuple[float, ...], float]:
    """The earlier grid_allocate body: per stage, gather value[b - k] through a dense
    (steps+1)**2 index matrix and mask the infeasible k > b with np.where."""
    entries = alloc_input.entries
    n = len(entries)
    budget = alloc_input.rate_budget
    grid = budget * np.arange(steps + 1) / steps
    gains = [e.mu * grid / (grid + e.server_rate) for e in entries]

    value = gains[0]
    choice_tables = []
    rows = np.arange(steps + 1)
    spent = rows[:, None] - rows[None, :]
    feasible = spent >= 0
    spent_clipped = np.where(feasible, spent, 0)
    for g in gains[1:]:
        candidates = np.where(feasible, value[spent_clipped] + g[None, :], -np.inf)
        best = np.argmax(candidates, axis=1)
        value = candidates[rows, best]
        choice_tables.append(best)

    units = [0] * n
    b = steps
    for j in range(n - 1, 0, -1):
        used = int(choice_tables[j - 1][b])
        units[j] = used
        b -= used
    units[0] = b

    rates = tuple(budget * u / steps for u in units)
    objective = 0.0
    for e, r in zip(entries, rates):
        objective += e.mu * r / (r + e.server_rate)
    return rates, objective


def grid_allocate_enumerated(alloc_input: AllocationInput, steps: int) -> tuple[tuple[float, ...], float]:
    """Literal enumeration of every grid point; cross-checks grid_allocate at small sizes."""
    entries = alloc_input.entries
    n = len(entries)
    if n == 0:
        raise DomainError("grid allocation requires at least one entry")
    if (steps + 1) ** n > 2_000_000:
        raise OracleScaleError(f"literal grid enumeration too large: ({steps + 1})**{n}")
    budget = alloc_input.rate_budget
    mus = [e.user_rate / (e.user_rate + e.server_rate) for e in entries]
    best_units: tuple[int, ...] | None = None
    best_val = -math.inf
    for units in itertools.product(range(steps + 1), repeat=n):
        if sum(units) > steps:
            continue
        val = 0.0
        for mu, e, u in zip(mus, entries, units):
            r = budget * u / steps
            val += mu * r / (r + e.server_rate)
        if val > best_val:
            best_val = val
            best_units = units
    assert best_units is not None
    return tuple(budget * u / steps for u in best_units), best_val


def closed_form_objective(alloc_input):
    alloc = allocate(alloc_input)
    total = 0.0
    for e in alloc_input.entries:
        mu = e.user_rate / (e.user_rate + e.server_rate)
        r = alloc.rates[e.key]
        total += mu * r / (r + e.server_rate)
    return total


class TestGridAllocate:
    def test_single_entry_takes_full_budget(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        rates, objective = grid_allocate(alloc_input, steps=10)
        assert rates == (5.0,)
        assert objective == pytest.approx((5 / 8) * (5 / 8), abs=1e-15)

    def test_zero_budget(self):
        entries = (AllocationEntry((1, 1), 5.0, 3.0), AllocationEntry((1, 2), 2.0, 1.0))
        rates, objective = grid_allocate(AllocationInput(entries, 0.0), steps=10)
        assert rates == (0.0, 0.0)
        assert objective == 0.0

    def test_matches_literal_enumeration(self):
        rng = random.Random(42)
        for _ in range(20):
            alloc_input = make_allocation_input(rng, rng.randint(1, 3))
            steps = rng.randint(3, 12)
            dp_rates, dp_obj = grid_allocate(alloc_input, steps)
            enum_rates, enum_obj = grid_allocate_enumerated(alloc_input, steps)
            assert dp_obj == enum_obj
            assert dp_rates == enum_rates

    def test_matches_dense_reference(self):
        rng = random.Random(7)
        for i in range(120):
            alloc_input = make_allocation_input(rng, rng.randint(1, 4))
            if i % 10 == 0:
                alloc_input = AllocationInput(alloc_input.entries, 0.0)
            steps = rng.choice([1, 2, 3, rng.randint(1, 300)])
            assert grid_allocate(alloc_input, steps) == grid_allocate_dense(alloc_input, steps)

    def test_matches_dense_reference_on_table1(self, table1):
        inputs = relay_inputs(table1, CacheScheme(assignment=dict(REFERENCE_ASSIGNMENT)))
        checked = [ai for ai in inputs.values() if len(ai.entries) <= 4]
        assert len(checked) == 2
        for alloc_input in checked:
            assert grid_allocate(alloc_input, 1000) == grid_allocate_dense(alloc_input, 1000)

    def test_peak_memory_at_the_step_limit(self):
        # A full (steps+1)**2 stage would hold about 1.6 GB here; a block of rows holds a few MB.
        entries = tuple(AllocationEntry((1, j), 1.0 + j, 2.0 + j) for j in range(1, 5))
        tracemalloc.start()
        try:
            grid_allocate(AllocationInput(entries, 5.0), GRID_MAX_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_never_beats_closed_form(self):
        rng = random.Random(99)
        for _ in range(30):
            alloc_input = make_allocation_input(rng, rng.randint(1, 4))
            _rates, grid_obj = grid_allocate(alloc_input, steps=400)
            assert grid_obj <= closed_form_objective(alloc_input) + 1e-4

    def test_fine_grid_approaches_closed_form(self, table1):
        entries = (
            AllocationEntry((3, 7), 10.0, 6.0),
            AllocationEntry((4, 10), 6.0, 6.0),
        )
        alloc_input = AllocationInput(entries, 8.0)
        _rates, grid_obj = grid_allocate(alloc_input, steps=1000)
        assert grid_obj == pytest.approx(closed_form_objective(alloc_input), abs=1e-4)

    def test_grid_point_budget_feasible(self):
        rng = random.Random(5)
        for _ in range(20):
            alloc_input = make_allocation_input(rng, rng.randint(1, 4))
            rates, _obj = grid_allocate(alloc_input, steps=50)
            assert sum(rates) <= alloc_input.rate_budget + 1e-9
            assert all(r >= 0 for r in rates)

    def test_entry_guard(self):
        entries = tuple(AllocationEntry((1, j), 2.0, 3.0) for j in range(1, 6))
        with pytest.raises(OracleScaleError):
            grid_allocate(AllocationInput(entries, 5.0), steps=10)

    def test_steps_guard(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 2.0, 3.0),), 5.0)
        with pytest.raises(OracleScaleError):
            grid_allocate(alloc_input, steps=20_000)
        with pytest.raises(DomainError):
            grid_allocate(alloc_input, steps=0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            grid_allocate(AllocationInput((), 5.0), steps=10)
        alloc_input = AllocationInput((AllocationEntry((1, 1), 2.0, 3.0),), -1.0)
        with pytest.raises(DomainError):
            grid_allocate(alloc_input, steps=10)

    def test_enumeration_guard(self):
        entries = tuple(AllocationEntry((1, j), 2.0, 3.0) for j in range(1, 5))
        with pytest.raises(OracleScaleError):
            grid_allocate_enumerated(AllocationInput(entries, 5.0), steps=40)


rate_pairs = st.tuples(st.floats(0.5, 12.0), st.floats(0.5, 12.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rates=st.lists(rate_pairs, min_size=1, max_size=4),
    tied=st.booleans(),
    budget=st.one_of(st.just(0.0), st.floats(1.0, 20.0)),
    steps=st.sampled_from([GRID_ROW_BLOCK - 1, GRID_ROW_BLOCK, GRID_ROW_BLOCK + 1, 2 * GRID_ROW_BLOCK + 1, 1000]),
)
@example(rates=[(3.0, 2.0)] * 4, tied=True, budget=7.0, steps=2 * GRID_ROW_BLOCK + 1)
@example(rates=[(3.0, 2.0), (5.0, 1.0)], tied=False, budget=0.0, steps=GRID_ROW_BLOCK)
def test_blocked_grid_matches_dense_reference(rates, tied, budget, steps):
    # steps + 1 DP rows: B - 1 steps end on a full block, B on a one-row block, B + 1 and 2B + 1 on
    # a two-row block.  Tied entries (identical (u, s) pairs) make exact ties that argmax's first
    # maximum decides.
    if tied:
        rates = [rates[0]] * len(rates)
    entries = tuple(AllocationEntry((1, j), u, s) for j, (u, s) in enumerate(rates, start=1))
    alloc_input = AllocationInput(entries, budget)
    assert grid_allocate(alloc_input, steps) == grid_allocate_dense(alloc_input, steps)


class TestBruteForceAssignments:
    def test_single_holding_single_relay(self):
        rng = random.Random(1)
        scenario = random_scenario(rng, n_files=1, n_users=1, n_relays=1)
        result = brute_force_assignments(scenario)
        assert result.evaluated_count == 1
        assert result.best_scheme.assignment == {(1, 1): 1}
        assert result.objective.sum_form > 0

    def test_infeasible_capacities(self):
        scenario = Scenario(
            files=(FileSpec(1, 2.0), FileSpec(2, 3.0)),
            users=(UserSpec(1, (Holding(1, 4.0, 0.5), Holding(2, 5.0, 0.5)), (1.0,)),),
            relays=(RelaySpec(1, 1, 6.0),),
        )
        with pytest.raises(InfeasibleError):
            brute_force_assignments(scenario)

    def test_scale_guard(self):
        # 2**17 = 131,072 raw assignments exceed BRUTE_FORCE_LIMIT; the guard trips before any array is built.
        rng = random.Random(3)
        scenario = random_scenario(rng, n_files=17, n_users=2, n_relays=2)
        with pytest.raises(OracleScaleError, match="131072 raw assignments exceed the oracle limit 100000"):
            brute_force_assignments(scenario)

    @pytest.mark.parametrize(
        "solve",
        [solve_exhaustive, lambda s: solve_sampled(s, 10, 0), brute_force_assignments],
        ids=["exhaustive", "sampled", "oracle"],
    )
    @pytest.mark.parametrize("shape", ["no-relays", "no-holdings", "no-users", "two-holdings-one-slot", "one-holding-two-relays"])
    def test_empty_scenario_raises_the_solvers_error(self, shape, solve):
        # An empty scenario and one whose capacities admit no placement each raise one message in all three.
        files = (FileSpec(1, 2.0), FileSpec(2, 3.0)) if shape == "two-holdings-one-slot" else (FileSpec(1, 2.0),)
        n_relays = {"no-relays": 0, "one-holding-two-relays": 2}.get(shape, 1)
        relays = tuple(RelaySpec(k + 1, 1, 6.0) for k in range(n_relays))
        prefs = tuple(1.0 / n_relays for _ in relays)
        users = {
            "no-holdings": (UserSpec(1, (), prefs),),
            "no-users": (),
            "two-holdings-one-slot": (UserSpec(1, (Holding(1, 4.0, 0.5), Holding(2, 4.0, 0.5)), prefs),),
        }.get(shape, (UserSpec(1, (Holding(1, 4.0, 1.0),), prefs),))
        message = "no feasible cache scheme under the capacity constraints"
        if shape.startswith("no-"):
            message = "scenario has no holdings or no relays to assign them to"
        with pytest.raises(InfeasibleError, match=f"^{message}$"):
            solve(Scenario(files=files, users=users, relays=relays))

    def test_matches_exhaustive_search(self):
        rng = random.Random(4)
        for _ in range(5):
            n_files = rng.randint(2, 5)
            scenario = random_scenario(
                rng,
                n_files=n_files,
                n_users=rng.randint(1, 2),
                n_relays=rng.randint(1, min(3, n_files)),
            )
            reference = brute_force_assignments(scenario)
            result = solve_exhaustive(scenario)
            assert result.objective.sum_form == reference.objective.sum_form
            assert result.best_scheme.assignment == reference.best_scheme.assignment

    def test_trace_is_increasing(self):
        rng = random.Random(6)
        scenario = random_scenario(rng, n_files=4, n_users=2, n_relays=2)
        result = brute_force_assignments(scenario)
        values = [v for _, v in result.trace]
        assert values == sorted(values)
        assert values[-1] == result.objective.sum_form

    def test_allow_empty_relay_widens_the_space(self):
        scenario = Scenario(
            files=(FileSpec(1, 2.0), FileSpec(2, 3.0)),
            users=(UserSpec(1, (Holding(1, 4.0, 0.5), Holding(2, 5.0, 0.5)), (0.5, 0.5)),),
            relays=(RelaySpec(1, 2, 6.0), RelaySpec(2, 2, 1.0)),
        )
        strict = brute_force_assignments(scenario)
        relaxed = brute_force_assignments(scenario, allow_empty_relay=True)
        assert strict.evaluated_count == 2
        assert relaxed.evaluated_count == 4
        # both files on the generous relay beats splitting them
        assert relaxed.objective.sum_form > strict.objective.sum_form
        assert relaxed.best_scheme.assignment == {(1, 1): 1, (1, 2): 1}

    @staticmethod
    def _many_relays(h, k):
        # h holdings of one user over k relays of capacity 1; the last relay has the largest budget, so it is the best.
        files = tuple(FileSpec(i + 1, 1.0 + i) for i in range(h))
        user = UserSpec(1, tuple(Holding(i + 1, 2.0 + i, 1 / h) for i in range(h)), (1 / k,) * k)
        return Scenario(files, (user,), tuple(RelaySpec(j + 1, 1, 1.0 + j) for j in range(k)))

    @pytest.mark.parametrize("k", [127, 128, 129, 256, 257])
    def test_relay_indices_past_127_match_exhaustive(self, k):
        # Relay digits held in int8 wrapped from relay 129 on and scored the wrong relay.
        scenario = self._many_relays(1, k)
        reference = brute_force_assignments(scenario, allow_empty_relay=True)
        result = solve_exhaustive(scenario, allow_empty_relay=True)
        assert reference.best_scheme.assignment == result.best_scheme.assignment == {(1, 1): k}
        assert reference.objective.sum_form == result.objective.sum_form
        assert reference.evaluated_count == result.evaluated_count == k

    @pytest.mark.parametrize("k", [129, 257])
    def test_two_holdings_past_relay_128_count_every_assignment(self, k):
        # An exhaustive solve here takes tens of seconds (k = 129) to minutes (k = 257), so only the count is checked.
        result = brute_force_assignments(self._many_relays(2, k), allow_empty_relay=True)
        assert result.evaluated_count == count_assignments(2, [1] * k, allow_empty_relay=True) == k * (k - 1)
        assert result.best_scheme.assignment == {(1, 1): k - 1, (1, 2): k}

    def test_relay_passes_guard_trips_before_any_array(self):
        # 10,000 raw assignments pass the raw limit, but a pass per relay over them and a 10,000 x 10,000
        # slot table would take seconds and most of a gigabyte; K * K**H past 256 * BRUTE_FORCE_LIMIT exits at once.
        scenario = self._many_relays(1, 10_000)
        start = time.perf_counter()
        with pytest.raises(OracleScaleError, match="^10000 relays x 10000 raw assignments exceed the oracle limit 25600000$"):
            brute_force_assignments(scenario, allow_empty_relay=True)
        assert time.perf_counter() - start < 0.1

    def test_one_relay_with_70_holdings_fills_one_block(self, monkeypatch):
        # 70 holdings on one relay: every base-K digit of the key is 1, so the one block must hold them all.
        scenario = random_scenario(random.Random(15), n_files=70, n_users=5, n_relays=1)
        shapes = []
        original = freshcache.oracle.waterfill_rows

        def recording(w, s, budget):
            shapes.append(w.shape)
            return original(w, s, budget)

        monkeypatch.setattr(freshcache.oracle, "waterfill_rows", recording)
        result = brute_force_assignments(scenario)
        assert shapes == [(1, 70)]
        assert result.evaluated_count == 1
        assert set(result.best_scheme.assignment.values()) == {1}
        assert result.objective.sum_form == evaluate_scheme(scenario, result.best_scheme)[0].sum_form
