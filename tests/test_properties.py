"""Property-based checks of the rate step and the document formats.

Every property runs derandomized and without an example database, so a run
is reproducible and leaves nothing behind.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from freshcache import (
    AllocationEntry,
    AllocationInput,
    CacheScheme,
    allocate,
    grid_allocate,
    kkt_check,
    parse_scenario,
    serialize_scenario,
    weight,
)
from freshcache.cli import KKT_TOLERANCE
from freshcache.scenario_io import parse_rates, parse_scheme, serialize_rates, serialize_scheme

from conftest import random_scenario

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

RATE = st.floats(0.1, 50.0)
BUDGET = st.one_of(st.just(0.0), st.floats(0.0, 60.0))


@st.composite
def allocation_inputs(draw, max_entries):
    """Random inputs; some entries repeat an earlier (user_rate, server_rate), so their mu/s tie exactly."""
    rates = []
    for _ in range(draw(st.integers(1, max_entries))):
        if rates and draw(st.booleans()):
            rates.append(draw(st.sampled_from(rates)))
        else:
            rates.append((draw(RATE), draw(RATE)))
    entries = tuple(AllocationEntry((1, j), u, s) for j, (u, s) in enumerate(rates, start=1))
    return AllocationInput(entries, draw(BUDGET))


@PROPERTY
@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
def test_entry_mu_and_weight_are_the_formulas_bit_for_bit(u, s):
    e = AllocationEntry((1, 1), u, s)
    assert e.mu == u / (u + s)
    assert e.weight == weight(u, s)


# A zero budget over entries tied on mu/s: float residue leaves two entries a
# rate of about 1.8e-15 instead of dropping them.
ZERO_BUDGET_TIES = AllocationInput(
    tuple(AllocationEntry((1, j), 1.0, s) for j, s in enumerate((15.0, 15.0, 15.0, 16.0), start=1)), 0.0
)


def _objective(alloc_input, rates):
    total = 0.0
    for e in alloc_input.entries:
        mu = e.user_rate / (e.user_rate + e.server_rate)
        r = rates[e.key]
        total += mu * r / (r + e.server_rate)
    return total


@PROPERTY
@given(alloc_input=allocation_inputs(4))
@example(alloc_input=ZERO_BUDGET_TIES)
def test_grid_never_beats_the_closed_form(alloc_input):
    _rates, grid_obj = grid_allocate(alloc_input, 200)
    assert grid_obj <= _objective(alloc_input, allocate(alloc_input).rates) + 1e-4


@PROPERTY
@given(alloc_input=allocation_inputs(10))
@example(alloc_input=ZERO_BUDGET_TIES)
def test_allocation_satisfies_kkt(alloc_input):
    report = kkt_check(alloc_input, allocate(alloc_input), KKT_TOLERANCE)
    assert report.satisfied, report


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_files=st.integers(1, 9), n_relays=st.integers(1, 4))
def test_scenario_round_trip(seed, n_files, n_relays):
    rng = random.Random(seed)
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_files=st.integers(1, 9), n_relays=st.integers(1, 4))
def test_coef_is_request_prob_times_relay_pref(seed, n_files, n_relays):
    rng = random.Random(seed)
    scenario = random_scenario(rng, n_files, rng.randint(1, n_files), n_relays)
    assert list(scenario.coef) == list(scenario.entries)
    for user in scenario.users:
        for h in user.holdings:
            assert scenario.coef[user.user_id, h.file_id] == tuple(h.request_prob * p for p in user.relay_prefs)


KEYS = st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))


@PROPERTY
@given(assignment=st.dictionaries(KEYS, st.integers(1, 64), max_size=30))
def test_scheme_round_trip(assignment):
    scheme = CacheScheme(assignment)
    text = serialize_scheme(scheme)
    assert parse_scheme(text) == scheme
    assert serialize_scheme(parse_scheme(text)) == text


@PROPERTY
@given(rates=st.dictionaries(KEYS, st.floats(0.0, 1e12), max_size=30))
def test_rate_table_round_trip(rates):
    text = serialize_rates(rates)
    assert parse_rates(text) == rates
    assert serialize_rates(parse_rates(text)) == text


def test_a_failing_property_is_reported_and_the_run_goes_on(pytester, pytestconfig):
    # Under the suite's own warning filters, a failing @given test must be
    # reported as failed, not end the session in an internal error.
    filters = "".join(f"\n    {f}" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_later():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
