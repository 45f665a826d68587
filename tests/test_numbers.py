"""One number rule for every public numeric entry point.

Each entry point must reject a bool, nan, inf, a string and None with
DomainError, and a float where it needs an integer.  The package states the
rule once, in ``model.is_number``; a guard test keeps it that way.
"""

import math
import re
from pathlib import Path

import pytest

import freshcache
from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    DomainError,
    FileSpec,
    Holding,
    RateAllocation,
    RelaySpec,
    Scenario,
    UserSpec,
    allocate,
    file_freshness,
    kkt_check,
    load_scenario,
    simulate_file,
    solve_exhaustive,
    solve_sampled,
    system_freshness,
    weight,
    with_scaled_rates,
)

from grid_oracle import grid_allocate

ENTRY = AllocationEntry((1, 1), 5.0, 2.0)
INPUT = AllocationInput((ENTRY,), 4.0)
TABLE1 = load_scenario("table1")


def _with_rate(value):
    """The optimal allocation of INPUT with its one rate replaced by ``value``."""
    return RateAllocation({ENTRY.key: value}, allocate(INPUT).diagnostics)


# (name, call with the value under test)
REAL_ARGS = [
    ("file_freshness.user_rate", lambda v: file_freshness(v, 2.0, 1.0)),
    ("file_freshness.server_rate", lambda v: file_freshness(5.0, v, 1.0)),
    ("file_freshness.relay_rate", lambda v: file_freshness(5.0, 2.0, v)),
    ("weight.user_rate", lambda v: weight(v, 2.0)),
    ("weight.server_rate", lambda v: weight(5.0, v)),
    ("AllocationEntry.user_rate", lambda v: AllocationEntry((1, 1), v, 2.0)),
    ("AllocationEntry.server_rate", lambda v: AllocationEntry((1, 1), 5.0, v)),
    ("allocate.budget", lambda v: allocate(AllocationInput((ENTRY,), v))),
    ("allocate.user_rate", lambda v: allocate(AllocationInput((AllocationEntry((1, 1), v, 2.0),), 4.0))),
    ("kkt_check.tolerance", lambda v: kkt_check(INPUT, allocate(INPUT), v)),
    ("kkt_check.rate", lambda v: kkt_check(INPUT, _with_rate(v), 1e-6)),
    ("grid_allocate.budget", lambda v: grid_allocate(AllocationInput((ENTRY,), v), 10)),
    ("grid_allocate.user_rate", lambda v: grid_allocate(AllocationInput((AllocationEntry((1, 1), v, 2.0),), 4.0), 10)),
    ("grid_allocate.server_rate", lambda v: grid_allocate(AllocationInput((AllocationEntry((1, 1), 5.0, v),), 4.0), 10)),
    ("simulate_file.user_rate", lambda v: simulate_file(v, 2.0, 1.0, 100.0, 0)),
    ("simulate_file.server_rate", lambda v: simulate_file(5.0, v, 1.0, 100.0, 0)),
    ("simulate_file.relay_rate", lambda v: simulate_file(5.0, 2.0, v, 100.0, 0)),
    ("simulate_file.horizon", lambda v: simulate_file(5.0, 2.0, 1.0, v, 0)),
    ("with_scaled_rates.factor", lambda v: with_scaled_rates(TABLE1, "user", v)),
]
INT_ARGS = [
    ("grid_allocate.steps", lambda v: grid_allocate(INPUT, v)),
    ("solve_exhaustive.limit", lambda v: solve_exhaustive(TABLE1, limit=v)),
    ("solve_sampled.budget", lambda v: solve_sampled(TABLE1, v, 0)),
]
BAD_VALUES = [("True", True), ("nan", math.nan), ("inf", math.inf), ("str", "1"), ("None", None)]

CASES = [
    pytest.param(call, value, id=f"{name}-{label}")
    for args, bad in ((REAL_ARGS, BAD_VALUES), (INT_ARGS, BAD_VALUES + [("float", 1.0)]))
    for name, call in args
    for label, value in bad
]


@pytest.mark.parametrize("call, value", CASES)
def test_bad_number_raises_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("value", [0, 0.0, -1.0], ids=["0", "0.0", "negative"])
def test_allocation_entry_rejects_a_non_positive_rate(value):
    with pytest.raises(DomainError):
        AllocationEntry((1, 1), value, 2.0)
    with pytest.raises(DomainError):
        AllocationEntry((1, 1), 5.0, value)


def test_number_rule_is_written_once():
    src = Path(freshcache.__file__).parent
    pattern = re.compile(r"isinstance\([^,()]+,\s*bool\)")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "model.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == [], f"bool checks outside model.is_number: {hits}"


@pytest.mark.parametrize("value", [True, math.nan], ids=["True", "nan"])
def test_system_freshness_rejects_a_bad_user_rate(value):
    # Built directly, so no validation ran; the rate check is cached per scenario only once it passes.
    scenario = Scenario(
        files=(FileSpec(1, 2.0),),
        users=(UserSpec(1, (Holding(1, value, 1.0),), (1.0,)),),
        relays=(RelaySpec(1, 1, 4.0),),
    )
    for _call in range(2):
        with pytest.raises(DomainError):
            system_freshness(scenario, CacheScheme({(1, 1): 1}), {(1, 1): 1.0})
