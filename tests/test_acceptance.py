"""Acceptance criteria.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS line when it succeeds (run with -v to see one line per criterion).
"""

import random
import subprocess
import sys
import time
import timeit

import pytest

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    allocate,
    brute_force_assignments,
    evaluate_scheme,
    file_freshness,
    kkt_check,
    load_scenario,
    simulate_file,
    simulate_system,
    solve_exhaustive,
    system_freshness,
)
from freshcache.cli import main

from conftest import (
    REFERENCE_ASSIGNMENT,
    REFERENCE_RATES,
    make_allocation_input,
    random_scenario,
)
from grid_oracle import grid_allocate

REFERENCE_SUM = 0.5319


def relay_inputs(scenario, assignment):
    """Group the holdings of a placement into per-relay allocation inputs."""
    grouped = {}
    for user in scenario.users:
        for h in user.holdings:
            relay_id = assignment[(user.user_id, h.file_id)]
            grouped.setdefault(relay_id, []).append(
                AllocationEntry(
                    (user.user_id, h.file_id), h.user_rate, scenario.file_by_id[h.file_id].server_rate
                )
            )
    return {
        relay_id: AllocationInput(tuple(entries), scenario.relays[relay_id - 1].rate_budget)
        for relay_id, entries in grouped.items()
    }


def test_criterion_1_allocation_reproduction(table1):
    """Closed-form rates reproduce the reference values in under a millisecond."""
    inputs = relay_inputs(table1, REFERENCE_ASSIGNMENT)
    for alloc_input in inputs.values():  # warm-up, untimed
        allocate(alloc_input)
    allocations = {relay_id: allocate(inp) for relay_id, inp in inputs.items()}
    # Best of 5 runs, so a busy machine does not fail the bound.
    elapsed = min(timeit.repeat(lambda: {relay_id: allocate(inp) for relay_id, inp in inputs.items()}, number=1, repeat=5))

    for key, expected in REFERENCE_RATES.items():
        relay_id = REFERENCE_ASSIGNMENT[key]
        assert allocations[relay_id].rates[key] == pytest.approx(expected, abs=5e-4)
    for relay_id, budget in ((1, 12.0), (2, 10.0), (3, 8.0)):
        assert sum(allocations[relay_id].rates.values()) == pytest.approx(budget, abs=1e-6)
    assert elapsed < 1e-3
    print(f"\ncriterion 1 PASS: ten rates within 5e-4, budget sums exact, {elapsed * 1e6:.0f} us")


def test_criterion_2_objective_reproduction(table1, reference_scheme):
    """System objective of the reference solution hits the expected value."""
    flat = {}
    for alloc_input in relay_inputs(table1, REFERENCE_ASSIGNMENT).values():
        flat.update(allocate(alloc_input).rates)
    objective = system_freshness(table1, reference_scheme, flat)   # untimed; warms up the timed runs
    elapsed = min(timeit.repeat(lambda: system_freshness(table1, reference_scheme, flat), number=1, repeat=5))
    assert objective.sum_form == pytest.approx(REFERENCE_SUM, abs=5e-4)
    assert elapsed < 1e-3
    print(f"\ncriterion 2 PASS: objective_sum={objective.sum_form:.7f} within 5e-4 of {REFERENCE_SUM}")


def test_criterion_3_search_optimality(table1):
    """Exhaustive search at least matches the reference optimum within budget."""
    start = time.perf_counter()
    result = solve_exhaustive(table1)
    elapsed = time.perf_counter() - start
    assert result.objective.sum_form >= REFERENCE_SUM - 5e-4
    assert result.evaluated_count <= 100_000
    assert elapsed < 30.0
    print(
        f"\ncriterion 3 PASS: optimum {result.objective.sum_form:.7f} from "
        f"{result.evaluated_count} evaluations in {elapsed:.2f}s"
    )


def test_criterion_4_kkt_suite():
    """200 random allocations satisfy KKT; no grid point beats the closed form."""
    rng = random.Random(41)
    grid_checked = 0
    for _ in range(200):
        alloc_input = make_allocation_input(rng, rng.randint(1, 8))
        allocation = allocate(alloc_input)
        report = kkt_check(alloc_input, allocation, 1e-6)
        assert report.satisfied, (alloc_input, report)
        if len(alloc_input.entries) <= 4:
            closed = 0.0
            for e in alloc_input.entries:
                mu = e.user_rate / (e.user_rate + e.server_rate)
                r = allocation.rates[e.key]
                closed += mu * r / (r + e.server_rate)
            _rates, grid_obj = grid_allocate(alloc_input, steps=1000)
            assert grid_obj <= closed + 1e-4
            grid_checked += 1
    print(f"\ncriterion 4 PASS: 200 KKT reports satisfied, {grid_checked} grid cross-checks")


def test_criterion_5_oracle_equivalence():
    """Brute force and deduplicated search agree exactly on 50 random instances."""
    rng = random.Random(73)
    for case in range(50):
        n_files = rng.randint(2, 6)
        scenario = random_scenario(
            rng,
            n_files=n_files,
            n_users=rng.randint(1, min(3, n_files)),
            n_relays=rng.randint(1, min(3, n_files)),
        )
        reference = brute_force_assignments(scenario)
        result = solve_exhaustive(scenario)
        assert result.objective.sum_form == reference.objective.sum_form, case
        assert result.best_scheme.assignment == reference.best_scheme.assignment, case
    print("\ncriterion 5 PASS: 50/50 instances identical (objective and tie-break)")


def test_criterion_6_simulator_validation(table1, reference_scheme):
    """Monte Carlo matches the analytic formula on triples and the full system."""
    start = time.perf_counter()
    rng = random.Random(97)
    worst = 0.0
    for i in range(20):
        u, s, r = (rng.uniform(0.5, 12.0) for _ in range(3))
        est = simulate_file(u, s, r, horizon=1e5, seed=1000 + i)
        analytic = file_freshness(u, s, r)
        gap = abs(est.freshness_estimate - analytic)
        assert gap <= max(3 * est.half_width_95, 0.01), (u, s, r, gap, est.half_width_95)
        worst = max(worst, gap)

    objective, per_relay = evaluate_scheme(table1, reference_scheme)
    flat = {}
    for alloc in per_relay.values():
        flat.update(alloc.rates)
    sim = simulate_system(table1, reference_scheme, flat, horizon=1e5, seed=11)
    agg_gap = abs(sim.aggregate.sum_form - REFERENCE_SUM)
    assert agg_gap <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\ncriterion 6 PASS: worst triple gap {worst:.4f}, aggregate gap {agg_gap:.4f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_monotonic_trends(capsys):
    """Objective trends: up in user rates, down in server rates, up in variance."""
    code = main(
        ["sweep", "--scenario", "table1", "--scale", "user", "--factors", "0.5,1,1.5", "--threads", "1"]
    )
    assert code == 0
    user_vals = [float(l.split(",")[1]) for l in capsys.readouterr().out.splitlines()[1:]]
    assert user_vals[0] < user_vals[1] < user_vals[2]

    code = main(
        ["sweep", "--scenario", "table1", "--scale", "server", "--factors", "1,1.5,2", "--threads", "1"]
    )
    assert code == 0
    server_vals = [float(l.split(",")[1]) for l in capsys.readouterr().out.splitlines()[1:]]
    assert server_vals[0] > server_vals[1] > server_vals[2]

    variance_vals = []
    for variant in (1, 2, 3, 4):
        scenario = load_scenario(f"popularity_var_{variant}")
        variance_vals.append(solve_exhaustive(scenario).objective.sum_form)
    assert all(a <= b for a, b in zip(variance_vals, variance_vals[1:]))

    with capsys.disabled():
        print(
            "\ncriterion 7 PASS: user scale "
            + "<".join(f"{v:.4f}" for v in user_vals)
            + "; server scale "
            + ">".join(f"{v:.4f}" for v in server_vals)
            + "; popularity variance "
            + "<=".join(f"{v:.4f}" for v in variance_vals)
        )


def test_criterion_8_determinism():
    """Sampled solve output is byte-identical regardless of worker count."""
    outputs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "freshcache.cli",
                "solve", "--scenario", "table1", "--mode", "sampled",
                "--budget", "5000", "--seed", "7", "--threads", threads,
            ],
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"objective_sum=" in outputs[0]
    print("\ncriterion 8 PASS: byte-identical output for --threads 1 and 8")
