"""Shared fixtures and seeded instance generators for the test suite."""

import dataclasses
import random

import pytest

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    UserSpec,
    load_scenario,
)

pytest_plugins = ["pytester"]

# The reference placement for the bundled `table1` fixture: relay 1 caches
# files {1,2,3,4,9}, relay 2 {5,6,8}, relay 3 {7,10}.
REFERENCE_ASSIGNMENT = {
    (1, 1): 1,
    (1, 2): 1,
    (1, 3): 1,
    (2, 4): 1,
    (2, 5): 2,
    (2, 6): 2,
    (3, 7): 3,
    (3, 8): 2,
    (4, 9): 1,
    (4, 10): 3,
}

# Optimal relay update rates for that placement, rounded to 4 decimals.
REFERENCE_RATES = {
    (1, 1): 2.4832,
    (1, 2): 3.0311,
    (1, 3): 3.1505,
    (2, 4): 0.8765,
    (2, 5): 3.4239,
    (2, 6): 3.3311,
    (3, 7): 4.5573,
    (3, 8): 3.2450,
    (4, 9): 2.4586,
    (4, 10): 3.4427,
}

REFERENCE_OBJECTIVE_SUM = 0.5319


@pytest.fixture(scope="session")
def table1() -> Scenario:
    return load_scenario("table1")


@pytest.fixture()
def reference_scheme() -> CacheScheme:
    return CacheScheme(assignment=dict(REFERENCE_ASSIGNMENT))


def random_scenario(rng: random.Random, n_files: int, n_users: int, n_relays: int) -> Scenario:
    """Build a small random but always-valid scenario.

    Every file is held by exactly one user, every user holds at least one
    file, and aggregate relay capacity covers the file count.
    """
    assert n_users <= n_files
    files = tuple(
        FileSpec(file_id=i + 1, server_rate=rng.uniform(0.5, 8.0)) for i in range(n_files)
    )
    ids = list(range(1, n_files + 1))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n_files), n_users - 1)) if n_users > 1 else []
    groups = []
    prev = 0
    for cut in cuts + [n_files]:
        groups.append(sorted(ids[prev:cut]))
        prev = cut
    users = []
    for uid, group in enumerate(groups, start=1):
        raw = [rng.uniform(0.1, 1.0) for _ in group]
        total = sum(raw)
        holdings = tuple(
            Holding(file_id=fid, user_rate=rng.uniform(0.5, 12.0), request_prob=p / total)
            for fid, p in zip(group, raw)
        )
        raw_prefs = [rng.uniform(0.1, 1.0) for _ in range(n_relays)]
        pref_total = sum(raw_prefs)
        users.append(
            UserSpec(
                user_id=uid,
                holdings=holdings,
                relay_prefs=tuple(p / pref_total for p in raw_prefs),
            )
        )
    caps = [1] * n_relays
    for _ in range(max(0, n_files - n_relays)):
        caps[rng.randrange(n_relays)] += 1
    while sum(caps) < n_files:
        caps[rng.randrange(n_relays)] += 1
    relays = tuple(
        RelaySpec(relay_id=k + 1, capacity=caps[k], rate_budget=rng.uniform(1.0, 20.0))
        for k in range(n_relays)
    )
    return Scenario(files=files, users=tuple(users), relays=relays)


def uncapped_scenario(n_files: int, n_relays: int, seed: int = 0) -> Scenario:
    """A random valid scenario in which every relay can cache every file."""
    scenario = random_scenario(random.Random(seed), n_files, min(4, n_files), n_relays)
    return dataclasses.replace(scenario, relays=tuple(dataclasses.replace(r, capacity=n_files) for r in scenario.relays))


def make_allocation_input(rng: random.Random, n_entries: int) -> AllocationInput:
    """Seeded random single-relay allocation problem."""
    entries = tuple(
        AllocationEntry(
            key=(1, j + 1),
            user_rate=rng.uniform(0.5, 12.0),
            server_rate=rng.uniform(0.5, 12.0),
        )
        for j in range(n_entries)
    )
    return AllocationInput(entries=entries, rate_budget=rng.uniform(1.0, 20.0))
