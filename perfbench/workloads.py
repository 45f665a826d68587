"""The benchmark's four workloads: seeded inputs, command batches and output gates.

Each workload turns a seed into YAML documents on disk; the program only ever
reads those files.  Synthetic scenarios come from the test suite's
``random_scenario``; their relay capacities are then replaced by a balanced
split of the file count plus a stated slack, so the distinct-assignment count,
and with it the work of a run, is the same for every seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass
from importlib import resources
from math import comb
from pathlib import Path
from typing import Callable

from conftest import random_scenario  # tests/conftest.py, put on sys.path by run.py

from freshcache import CacheScheme, enumerate_partitions, evaluate_scheme, load_scenario, solve_sampled
from freshcache.scenario_io import (
    parse_rates,
    parse_scheme,
    serialize_rates,
    serialize_scenario,
    serialize_scheme,
)

WORKLOADS = ("solve-exhaustive", "sweep-sampled", "simulate", "verify")

# The printed optimum of table1 (fixtures/golden/table1_result.csv).
TABLE1_OPTIMUM = 0.531856
SWEEP_BUDGET = 1500
SWEEP_FACTORS = "0.5,1,2"
SIM_HORIZON = 1e5
# Printed simulate values carry 6 decimals; allow their rounding on top of 3 half-widths.
SIM_PRINT_SLACK = 3e-6
# Budget of the sampled reference the exhaustive optimum must not fall below.
REFERENCE_BUDGET = 2000

# Synthetic instances per workload: (label, files, relays, users, capacity slack).
INSTANCES = {
    "solve-exhaustive": (
        ("n12k3", 12, 3, 4, 1),
        ("n13k3", 13, 3, 4, 0),
        ("n10k4", 10, 4, 4, 0),
    ),
    "sweep-sampled": (
        ("n30k4", 30, 4, 6, 4),
        ("n45k5", 45, 5, 9, 5),
        ("n60k6", 60, 6, 12, 6),
    ),
    "simulate": tuple((f"n14k3.{i}", 14, 3, 4, 2) for i in range(1, 5)),
    "verify": (("n9k3", 9, 3, 3, 3),),
}


def capacities(n: int, k: int, slack: int) -> list[int]:
    """n split as evenly as possible over k relays, then ``slack`` spare slots round-robin."""
    caps = [n // k + (1 if i < n % k else 0) for i in range(k)]
    for i in range(slack):
        caps[i % k] += 1
    return caps


def synthetic(seed: int, label: str, n: int, k: int, users: int, slack: int):
    rng = random.Random(f"{seed}:{label}")
    scenario = random_scenario(rng, n, users, k)
    relays = tuple(
        dataclasses.replace(r, capacity=c) for r, c in zip(scenario.relays, capacities(n, k, slack))
    )
    return dataclasses.replace(scenario, relays=relays)


def distinct_assignments(scenario) -> int:
    """Distinct feasible placements, counted from the public partition enumeration."""
    n = len(scenario.holding_pairs)
    total = 0
    for part in enumerate_partitions(n, [r.capacity for r in scenario.relays]):
        size, remaining = 1, n
        for c in part.counts:
            size *= comb(remaining, c)
            remaining -= c
        total += size
    return total


def random_placement(scenario, rng: random.Random) -> CacheScheme:
    """Seeded random feasible placement: shuffled holdings dealt round-robin to relays with room.

    Dealing keeps the per-relay counts even, so no relay spends its whole
    budget on a single holding and the largest event stream, which sets the
    simulator's peak memory, does not swing with the seed.
    """
    pairs = list(scenario.holding_pairs)
    rng.shuffle(pairs)
    k = scenario.n_relays
    counts = [0] * k
    assignment = {}
    relay = 0
    for pair in pairs:
        while counts[relay] >= scenario.relays[relay].capacity:
            relay = (relay + 1) % k
        assignment[pair] = relay + 1
        counts[relay] += 1
        relay = (relay + 1) % k
    return CacheScheme(assignment)


def event_rate(scenario, rates) -> float:
    """Expected events per unit time over all holdings: sum of u + s + r."""
    return sum(
        h.user_rate + scenario.file_by_id[h.file_id].server_rate + rates[(u.user_id, h.file_id)]
        for u in scenario.users
        for h in u.holdings
    )


@dataclass
class Instance:
    label: str
    path: str
    scenario: object
    scheme_path: str | None = None
    rates_path: str | None = None
    rates: dict | None = None

    def describe(self) -> dict:
        sc = self.scenario
        return {
            "label": self.label,
            "n": len(sc.holding_pairs),
            "K": sc.n_relays,
            "users": sc.n_users,
            "capacities": [r.capacity for r in sc.relays],
            "distinct_assignments": distinct_assignments(sc),
        }


def _write_scenario(directory: Path, label: str, scenario) -> Instance:
    path = directory / f"{label}.yaml"
    path.write_text(serialize_scenario(scenario))
    loaded = load_scenario(path)
    if loaded != scenario:
        raise RuntimeError(f"{label}: scenario did not survive serialize/load")
    return Instance(label, str(path), loaded)


def prepare(workload: str, seed: int, directory: Path) -> list[Instance]:
    """Generate, serialize and reload the workload's documents; this is what setup_s times."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    instances = [_write_scenario(directory, "table1", load_scenario("table1"))]
    for label, n, k, users, slack in INSTANCES[workload]:
        instances.append(_write_scenario(directory, label, synthetic(seed, label, n, k, users, slack)))
    if workload == "simulate":
        for inst in instances:
            scheme = random_placement(inst.scenario, random.Random(f"{seed}:{inst.label}:placement"))
            _objective, per_relay = evaluate_scheme(inst.scenario, scheme)
            rates = {key: r for alloc in per_relay.values() for key, r in alloc.rates.items()}
            inst.scheme_path = str(directory / f"{inst.label}.scheme.yaml")
            inst.rates_path = str(directory / f"{inst.label}.rates.yaml")
            Path(inst.scheme_path).write_text(serialize_scheme(scheme))
            Path(inst.rates_path).write_text(serialize_rates(rates))
            if parse_scheme(Path(inst.scheme_path).read_text()) != scheme:
                raise RuntimeError(f"{inst.label}: scheme did not survive serialize/parse")
            inst.rates = parse_rates(Path(inst.rates_path).read_text())
    return instances


# --- gates: each takes (exit code, stdout) and returns None or the reason it failed


def gate_golden(expected: str) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else "CSV differs from fixtures/golden/table1_result.csv"
    return check


def gate_solve_json(distinct: int, sampled_objective: float) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(out)
            objective, count = doc["objective_sum"], doc["evaluated_count"]
        except (ValueError, KeyError, TypeError):
            return "output is not a solve result document"
        if count != distinct:
            return f"evaluated_count {count} != distinct assignments {distinct}"
        if not objective >= sampled_objective:
            return f"exhaustive objective {objective!r} < sampled objective {sampled_objective!r}"
        return None
    return check


def gate_sweep(factors: str, n_users: int, cap_at_1: float | None = None) -> Callable[[int, str], str | None]:
    wanted = [f"{float(f):g}" for f in factors.split(",")]

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if lines[:1] != ["factor,objective_sum"] or len(lines) != len(wanted) + 1:
            return "unexpected sweep table shape"
        for line, factor in zip(lines[1:], wanted):
            got, _, value = line.partition(",")
            try:
                objective = float(value)
            except ValueError:
                return f"unparsable objective in {line!r}"
            if got != factor or not 0.0 < objective <= n_users:
                return f"bad sweep row {line!r}"
            if cap_at_1 is not None and factor == "1" and objective > cap_at_1:
                return f"sampled objective {objective} exceeds the known optimum {cap_at_1}"
        return None
    return check


def gate_simulate(n_holdings: int) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith(("aggregate", "analytic"))]
        if len(rows) != n_holdings:
            return f"{len(rows)} holding rows, expected {n_holdings}"
        for row in rows:
            try:
                analytic, estimate, half_width = float(row[4]), float(row[5]), float(row[6])
            except (IndexError, ValueError):
                return f"malformed row {','.join(row)!r}"
            if abs(estimate - analytic) > 3.0 * half_width + SIM_PRINT_SLACK:
                return f"holding {row[0]},{row[1]}: estimate {estimate} outside 3 half-widths of {analytic}"
        return None
    return check


def gate_verify(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    return None if "verify=PASS" in out.splitlines() else "verify did not print verify=PASS"


@dataclass
class Command:
    label: str
    argv: list[str]
    work: int                                  # units of the workload's work measure
    gate: Callable[[int, str], str | None]


WORK_UNITS = {
    "solve-exhaustive": "assignments",
    "sweep-sampled": "evaluations",
    "simulate": "events",
    "verify": "raw_assignments",
}


def pool_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def commands(workload: str, seed: int, instances: list[Instance]) -> list[Command]:
    """The fixed command batch of a workload, with the work and gate of each command."""
    table1, *synth = instances
    golden = (resources.files("freshcache") / "fixtures" / "golden" / "table1_result.csv").read_text()
    out: list[Command] = []
    if workload == "solve-exhaustive":
        work = distinct_assignments(table1.scenario)
        out.append(Command("table1 csv", ["solve", "--scenario", table1.path, "--threads", "1"], work, gate_golden(golden)))
        for inst in synth:
            reference = solve_sampled(inst.scenario, REFERENCE_BUDGET, seed).objective.sum_form
            distinct = distinct_assignments(inst.scenario)
            out.append(Command(
                f"{inst.label} json",
                ["solve", "--scenario", inst.path, "--format", "json", "--threads", "1"],
                distinct,
                gate_solve_json(distinct, reference),
            ))
        threads = str(pool_threads())
        out.append(Command(
            f"table1 csv threads={threads}", ["solve", "--scenario", table1.path, "--threads", threads], work, gate_golden(golden)
        ))
    elif workload == "sweep-sampled":
        for inst in instances:
            cap = TABLE1_OPTIMUM + 1e-12 if inst is table1 else None
            out.append(Command(
                f"{inst.label} sweep",
                ["sweep", "--scenario", inst.path, "--mode", "sampled", "--budget", str(SWEEP_BUDGET),
                 "--seed", str(seed), "--scale", "server", "--factors", SWEEP_FACTORS, "--threads", "1"],
                SWEEP_BUDGET * len(SWEEP_FACTORS.split(",")),
                gate_sweep(SWEEP_FACTORS, inst.scenario.n_users, cap),
            ))
    elif workload == "simulate":
        # The synthetic instances share table1's event count, each over the horizon
        # that gives it its share, so the work of a run does not depend on the
        # seed's drawn rates.  Four of them average out how the drawn rates split
        # that work between the event streams.
        share = event_rate(table1.scenario, table1.rates) * SIM_HORIZON / len(synth)
        for inst in instances:
            rate = event_rate(inst.scenario, inst.rates)
            horizon = SIM_HORIZON if inst is table1 else share / rate
            out.append(Command(
                f"{inst.label} simulate",
                ["simulate", "--scenario", inst.path, "--scheme", inst.scheme_path, "--rates", inst.rates_path,
                 "--horizon", repr(horizon), "--seed", str(seed)],
                round(rate * horizon),
                gate_simulate(len(inst.scenario.holding_pairs)),
            ))
    elif workload == "verify":
        for inst in instances:
            sc = inst.scenario
            out.append(Command(
                f"{inst.label} verify",
                ["verify", "--scenario", inst.path, "--threads", "1"],
                sc.n_relays ** len(sc.holding_pairs),
                gate_verify,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
