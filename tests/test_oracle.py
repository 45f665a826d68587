"""Tests for the brute-force reference implementations."""

import itertools
import math
import random

import pytest

from freshcache import (
    AllocationEntry,
    AllocationInput,
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
    grid_allocate,
    solve_exhaustive,
)

from conftest import make_allocation_input, random_scenario


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
        rng = random.Random(3)
        scenario = random_scenario(rng, n_files=5, n_users=2, n_relays=2)
        with pytest.raises(OracleScaleError):
            brute_force_assignments(scenario, limit=10)

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
