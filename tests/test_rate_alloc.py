"""Water-filling rate allocation and KKT residual tests."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freshcache import (
    AllocationEntry,
    AllocationInput,
    DomainError,
    RateAllocation,
    allocate,
    kkt_check,
    weight,
)

from freshcache.rate_alloc import KKT_TOLERANCE, sort_key, waterfill, waterfill_rows

from conftest import REFERENCE_RATES, make_allocation_input


def relay_input(table1, keys, budget):
    entries = []
    for user in table1.users:
        for h in user.holdings:
            if (user.user_id, h.file_id) in keys:
                entries.append(
                    AllocationEntry(
                        key=(user.user_id, h.file_id),
                        user_rate=h.user_rate,
                        server_rate=table1.file_by_id[h.file_id].server_rate,
                    )
                )
    return AllocationInput(entries=tuple(entries), rate_budget=budget)


RELAY_KEYS = {
    1: ((1, 1), (1, 2), (1, 3), (2, 4), (4, 9)),
    2: ((2, 5), (2, 6), (3, 8)),
    3: ((3, 7), (4, 10)),
}
RELAY_BUDGETS = {1: 12.0, 2: 10.0, 3: 8.0}


class TestWeight:
    def test_mixed_rates(self):
        assert weight(10, 6) == pytest.approx(math.sqrt(3.75), abs=1e-15)

    def test_equal_rates(self):
        assert weight(6, 6) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_equal_rates_general_form(self):
        rng = random.Random(3)
        for _ in range(20):
            r = rng.uniform(0.1, 50.0)
            assert weight(r, r) == pytest.approx(math.sqrt(r / 2), rel=1e-12)

    def test_symmetry(self):
        assert weight(3.5, 9.25) == weight(9.25, 3.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True, "3"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(DomainError):
            weight(bad, 1.0)
        with pytest.raises(DomainError):
            weight(1.0, bad)

    @pytest.mark.parametrize("u, s", [(1e308, 4.0), (4.0, 1e308), (1e308, 1e308)])
    def test_rejects_rates_that_overflow(self, u, s):
        # u*s or u+s overflows to inf, and the weight would be inf or nan.
        with pytest.raises(DomainError, match="overflow"):
            weight(u, s)


class TestAllocate:
    @pytest.mark.parametrize("relay_id", [1, 2, 3])
    def test_reference_relay_rates(self, table1, relay_id):
        alloc = allocate(relay_input(table1, RELAY_KEYS[relay_id], RELAY_BUDGETS[relay_id]))
        for key in RELAY_KEYS[relay_id]:
            assert alloc.rates[key] == pytest.approx(REFERENCE_RATES[key], abs=5e-4)
        assert sum(alloc.rates.values()) == pytest.approx(RELAY_BUDGETS[relay_id], abs=1e-9)
        assert alloc.diagnostics.dropped_keys == frozenset()

    def test_reference_relay3_water_level(self, table1):
        alloc = allocate(relay_input(table1, RELAY_KEYS[3], 8.0))
        diag = alloc.diagnostics
        assert diag.water_level == pytest.approx(0.0336455, abs=1e-6)
        assert diag.water_level == (diag.alpha / diag.beta) ** 2

    def test_single_entry_gets_full_budget(self):
        alloc = allocate(AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0))
        assert alloc.rates[(1, 1)] == 5.0
        assert alloc.diagnostics.dropped_keys == frozenset()

    def test_weak_entry_dropped(self):
        entries = (
            AllocationEntry((1, 1), 10.0, 1.0),
            AllocationEntry((1, 2), 0.1, 10.0),
        )
        alloc = allocate(AllocationInput(entries, 1.0))
        assert alloc.rates[(1, 1)] == 1.0
        assert alloc.rates[(1, 2)] == 0.0
        assert alloc.diagnostics.dropped_keys == frozenset({(1, 2)})

    def test_zero_budget_drops_everything(self):
        entries = (
            AllocationEntry((1, 1), 4.0, 2.0),
            AllocationEntry((1, 2), 7.0, 5.0),
            AllocationEntry((1, 3), 1.5, 9.0),
        )
        alloc = allocate(AllocationInput(entries, 0.0))
        assert all(rate == 0.0 for rate in alloc.rates.values())
        assert alloc.diagnostics.dropped_keys == {(1, 1), (1, 2), (1, 3)}
        assert alloc.diagnostics.water_level == math.inf

    def test_zero_budget_with_tied_entries_leaves_no_residue(self):
        # Three entries tie on mu/s; a plain water-filling pass leaves rates of ~1e-15 on them.
        entries = tuple(AllocationEntry((1, f), 1.0, 15.0) for f in (1, 2, 3)) + (AllocationEntry((1, 4), 1.0, 16.0),)
        alloc = allocate(AllocationInput(entries, 0.0))
        assert list(alloc.rates.values()) == [0.0] * 4
        assert alloc.diagnostics.dropped_keys == {e.key for e in entries}
        assert (alloc.diagnostics.alpha, alloc.diagnostics.beta) == (0.0, 0.0)
        assert alloc.diagnostics.water_level == math.inf

    def test_negligible_budget_goes_to_the_best_entry(self):
        # 1e-20 is below an ulp of every server rate, but it is still the budget: the entry with the
        # largest mu/s takes all of it, and the others get no residue.
        entries = (AllocationEntry((1, 1), 1.0, 1.0), AllocationEntry((1, 2), 1.0, 2.0), AllocationEntry((1, 3), 2.0, 2.0))
        alloc_input = AllocationInput(entries, 1e-20)
        alloc = allocate(alloc_input)
        assert alloc.rates == {(1, 1): 1e-20, (1, 2): 0.0, (1, 3): 0.0}
        assert alloc.diagnostics.dropped_keys == {(1, 2), (1, 3)}
        assert (alloc.diagnostics.alpha, alloc.diagnostics.beta) == (entries[0].weight, 1.0)
        assert kkt_check(alloc_input, alloc).satisfied

    @pytest.mark.parametrize("server_rate", [1e17, 1e20, 1e30])
    def test_lone_entry_beside_a_huge_server_rate_gets_the_budget(self, server_rate):
        # G + s rounds to s here, so a form that adds G to s and subtracts s again gave rate 0.
        alloc_input = AllocationInput((AllocationEntry((1, 1), 1.0, server_rate),), 1.0)
        alloc = allocate(alloc_input)
        assert abs(alloc.rates[(1, 1)] - 1.0) <= math.ulp(1.0)
        assert alloc.diagnostics.dropped_keys == frozenset()
        assert kkt_check(alloc_input, alloc).satisfied

    def test_tiny_budget_on_a_lone_entry_is_spent(self):
        # beta + s rounded to s at G = 1.33e-18, so the entry used to drop and the budget went unspent.
        alloc = allocate(AllocationInput((AllocationEntry((1, 1), 1.0, 1.0),), 1.33e-18))
        assert alloc.rates[(1, 1)] == 1.33e-18

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)), min_size=1, max_size=6),
        st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
        st.floats(0.1, 50.0),
        st.one_of(st.floats(0.1, 50.0), st.floats(1e20, 1e30)),
    )
    @example([(8.0, 4.0), (3.0, 2.5), (5.0, 6.0)], 12.0, 1.0, 1e30)
    def test_entry_that_drops_leaves_the_others_bit_identical(self, rates, budget, user_rate, server_rate):
        # A pass that summed every entry and subtracted the dropped ones back out left
        # their rounding in alpha and beta; with s >= 1e20 it wiped out the other rates.
        base = AllocationInput(tuple(AllocationEntry((1, j), u, s) for j, (u, s) in enumerate(rates, 1)), budget)
        extra = AllocationEntry((2, 1), user_rate, server_rate)
        grown = allocate(AllocationInput(base.entries + (extra,), budget))
        assume(grown.rates[extra.key] == 0.0)
        alone = allocate(base)
        assert [grown.rates[e.key] for e in base.entries] == [alone.rates[e.key] for e in base.entries]
        assert (grown.diagnostics.alpha, grown.diagnostics.beta) == (alone.diagnostics.alpha, alone.diagnostics.beta)
        assert grown.diagnostics.dropped_keys == alone.diagnostics.dropped_keys | {extra.key}

    def test_entry_order_is_irrelevant(self):
        rng = random.Random(11)
        base = make_allocation_input(rng, 6)
        expected = allocate(base).rates
        for _ in range(10):
            shuffled = list(base.entries)
            rng.shuffle(shuffled)
            got = allocate(AllocationInput(tuple(shuffled), base.rate_budget)).rates
            assert got == expected

    def test_budget_spent_exactly(self):
        rng = random.Random(202)
        for _ in range(100):
            alloc_input = make_allocation_input(rng, rng.randint(1, 8))
            alloc = allocate(alloc_input)
            assert sum(alloc.rates.values()) == pytest.approx(alloc_input.rate_budget, abs=1e-9)

    def test_survivors_sit_at_the_water_level(self):
        rng = random.Random(303)
        for _ in range(100):
            alloc_input = make_allocation_input(rng, rng.randint(2, 8))
            alloc = allocate(alloc_input)
            delta = alloc.diagnostics.water_level
            for e in alloc_input.entries:
                lam = alloc.rates[e.key]
                mu = e.user_rate / (e.user_rate + e.server_rate)
                if lam > 0:
                    gradient = mu * e.server_rate / (lam + e.server_rate) ** 2
                    assert gradient == pytest.approx(delta, abs=1e-9)

    def test_dropped_iff_zero_rate(self):
        rng = random.Random(404)
        for _ in range(100):
            alloc_input = make_allocation_input(rng, rng.randint(1, 8))
            alloc = allocate(alloc_input)
            delta = alloc.diagnostics.water_level
            for e in alloc_input.entries:
                dropped = e.key in alloc.diagnostics.dropped_keys
                assert dropped == (alloc.rates[e.key] == 0.0)
                if dropped:
                    # marginal return at rate zero cannot reach the water level
                    mu = e.user_rate / (e.user_rate + e.server_rate)
                    assert mu / e.server_rate <= delta + 1e-9

    def test_rejects_bad_inputs(self):
        entry = AllocationEntry((1, 1), 2.0, 3.0)
        with pytest.raises(DomainError):
            allocate(AllocationInput((), 5.0))
        with pytest.raises(DomainError):
            allocate(AllocationInput((entry,), -1.0))
        with pytest.raises(DomainError):
            allocate(AllocationInput((entry,), math.inf))
        with pytest.raises(DomainError):
            allocate(AllocationInput((entry, entry), 5.0))
        with pytest.raises(DomainError):
            allocate(AllocationInput((AllocationEntry((1, 1), 0.0, 3.0),), 5.0))
        for budget in (1e308, 1e200):   # finite, but w*G or the certificate's (rate + s)**2 would overflow
            with pytest.raises(DomainError, match="would overflow the water-fill"):
                allocate(AllocationInput((entry,), budget))


class TestWaterfillRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        c=st.integers(1, 6),
        n_rows=st.integers(1, 8),
        pairs=st.lists(
            st.tuples(st.floats(0.1, 50.0), st.one_of(st.floats(0.1, 50.0), st.floats(1e20, 1e30))), min_size=1, max_size=12
        ),
        budget=st.one_of(st.just(0.0), st.just(1e-20), st.floats(0.0, 60.0)),
    )
    @example(c=1, n_rows=3, pairs=[(8.0, 4.0), (3.0, 2.5), (5.0, 6.0)], budget=12.0)
    @example(c=4, n_rows=2, pairs=[(8.0, 4.0), (3.0, 2.5), (5.0, 6.0), (1.0, 1.0)], budget=0.0)   # every row dropped
    @example(c=3, n_rows=1, pairs=[(0.1, 10.0), (10.0, 1.0), (8.0, 2.0)], budget=1.0)   # a dropped prefix
    @example(c=4, n_rows=2, pairs=[(8.0, 4.0), (3.0, 2.5), (5.0, 6.0), (1.0, 1e30)], budget=10.0)
    # Runs of exact ties that survive at a tiny budget, beside a tied run that drops.
    @example(c=9, n_rows=2, pairs=[(33.765625, 0.109375)] * 3 + [(1.0, 1.0)] * 6, budget=2.225073858507e-311)
    def test_each_row_is_the_scalar_waterfill_bit_for_bit(self, c, n_rows, pairs, budget):
        # Rows of c (u, s) pairs, cycled from ``pairs`` so that rows repeat and share entries, each in mu/s order.
        cells = itertools.cycle(pairs)
        rows = []
        for _ in range(n_rows):
            row = [AllocationEntry((1, j), *next(cells)) for j in range(c)]
            rows.append(sorted(row, key=lambda e: e.mu / e.server_rate))
        w = np.array([[e.weight for e in row] for row in rows])
        s = np.array([[e.server_rate for e in row] for row in rows])
        got = waterfill_rows(w, s, budget)
        for r, row in enumerate(rows):
            want = waterfill([e.weight for e in row], [e.server_rate for e in row], budget)[0]
            assert got[r].tobytes() == np.array(want).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        c=st.integers(1, 6),
        pairs=st.lists(
            st.tuples(st.floats(0.1, 50.0), st.one_of(st.floats(0.1, 50.0), st.floats(1e20, 1e30))), min_size=1, max_size=12
        ),
        budgets=st.lists(st.one_of(st.just(0.0), st.just(1e-20), st.floats(0.0, 60.0)), min_size=1, max_size=8),
    )
    @example(c=2, pairs=[(8.0, 4.0), (3.0, 2.5), (5.0, 1e30)], budgets=[0.0, 12.0, 0.0, 1e-20])
    def test_a_budget_per_row_fills_each_row_as_its_own_call(self, c, pairs, budgets):
        # One call can carry several relays' blocks: row r under budgets[r] must be a scalar call on that row alone.
        cells = itertools.cycle(pairs)
        rows = [
            sorted((AllocationEntry((1, j), *next(cells)) for j in range(c)), key=lambda e: e.mu / e.server_rate)
            for _ in budgets
        ]
        w = np.array([[e.weight for e in row] for row in rows])
        s = np.array([[e.server_rate for e in row] for row in rows])
        got = waterfill_rows(w, s, np.array(budgets))
        for r, budget in enumerate(budgets):
            assert got[r].tobytes() == waterfill_rows(w[r:r + 1], s[r:r + 1], budget)[0].tobytes()


def exact_waterfill(weights, server_rates, budget):
    """``waterfill``'s backward pass in exact rationals over the same float inputs.

    Returns (cut, rates, margin, scale): the first survivor's index, the exact
    rates, a function giving entry j's exact margin against every entry after
    it, and one giving the size of the terms that form entry j's margin or rate
    numerator over the entries in ``among`` whose (w, s) differ from j's.  An
    exact tie's terms are exactly 0, so the pass needs no runs.
    """
    w, s, g = [Fraction(x) for x in weights], [Fraction(x) for x in server_rates], Fraction(budget)
    n = len(w)

    def margin(j):
        return w[j] * g + sum(w[j] * s[i] - s[j] * w[i] for i in range(j + 1, n))

    def scale(j, among):
        others = [i for i in among if (w[i], s[i]) != (w[j], s[j])]
        return w[j] * g + w[j] * sum(s[i] for i in others) + s[j] * sum(w[i] for i in others)

    cut = n
    while cut and margin(cut - 1) > 0:
        cut -= 1
    total = sum(w[cut:], Fraction(0))
    rates = [Fraction(0)] * cut + [
        (w[j] * g + sum(w[j] * s[i] - s[j] * w[i] for i in range(cut, n))) / total for j in range(cut, n)
    ]
    return cut, rates, margin, scale


EPS = Fraction(2) ** -52
TINY = Fraction(2) ** -1074   # the least subnormal: below about 1e-308 an operation's error is absolute
RATE_OR_HUGE = st.one_of(st.floats(0.1, 50.0), st.floats(1.0, 1e30))
PAIR = st.tuples(RATE_OR_HUGE, RATE_OR_HUGE)


class TestExactReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pool=st.lists(PAIR, min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=9),   # repeated picks are exact ties
        budget=st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.floats(1e-320, 1e-290), st.floats(60.0, 1e30)),
    )
    # Rounding among exactly tied entries in w*S - s*A gave the three survivors -1.4e-17 each.
    @example(pool=[(33.765625, 0.109375), (1.0, 1.0)], picks=[0, 0, 0, 1, 1, 1, 1, 1, 1], budget=2.225073858507e-311)
    @example(pool=[(1.0, 1e17)], picks=[0], budget=1.0)
    @example(pool=[(1.0, 1.0)], picks=[0], budget=1.33e-18)
    def test_rates_are_the_exact_pass_within_rounding(self, pool, picks, budget):
        entries = sorted((AllocationEntry((1, j), *pool[p % len(pool)]) for j, p in enumerate(picks)), key=sort_key)
        weights, server_rates = [e.weight for e in entries], [e.server_rate for e in entries]
        rates, dropped, _alpha, _beta = waterfill(weights, server_rates, budget)
        assert min(rates) >= 0.0
        cut, exact, margin, scale = exact_waterfill(weights, server_rates, budget)
        float_cut = dropped.count(True)
        if float_cut != cut:
            # The passes part at the later of the two cuts: there the exact margin is within rounding of zero.
            j = max(float_cut, cut) - 1
            assert abs(margin(j)) <= 16 * EPS * scale(j, range(j + 1, len(entries))) + 4 * TINY
            return
        total = sum(Fraction(x) for x in weights[cut:])
        for j, (rate, want) in enumerate(zip(rates, exact)):
            if j < cut:
                assert rate == 0.0
                continue
            slack = 16 * EPS * scale(j, range(cut, len(entries))) / total + 4 * TINY / total + EPS * want + TINY
            assert abs(Fraction(rate) - want) <= slack, (j, rate, float(want))


class TestKktCheck:
    def test_allocation_satisfies_kkt(self):
        rng = random.Random(505)
        for _ in range(50):
            alloc_input = make_allocation_input(rng, rng.randint(1, 8))
            report = kkt_check(alloc_input, allocate(alloc_input))
            assert report.satisfied
            assert report.stationarity_residual <= 1e-6
            assert report.budget_slackness_residual <= 1e-6

    def test_perturbed_allocation_fails(self):
        rng = random.Random(606)
        alloc_input = make_allocation_input(rng, 4)
        alloc = allocate(alloc_input)
        survivors = [k for k, v in alloc.rates.items() if v > 0.2]
        assert len(survivors) >= 2
        rates = dict(alloc.rates)
        rates[survivors[0]] += 0.1
        rates[survivors[1]] -= 0.1
        moved = RateAllocation(rates=rates, diagnostics=alloc.diagnostics)
        assert not kkt_check(alloc_input, moved).satisfied

    def test_unspent_budget_fails(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        alloc = allocate(alloc_input)
        short = RateAllocation(rates={(1, 1): 4.0}, diagnostics=alloc.diagnostics)
        report = kkt_check(alloc_input, short)
        assert report.budget_slackness_residual > 1e-6
        assert not report.satisfied

    def test_unequal_split_of_equal_entries_fails_dual_feasibility(self):
        # Two identical entries, the whole budget on the first, and diagnostics
        # claiming the first entry's gradient as the water level.
        entries = (AllocationEntry((1, 1), 5.0, 2.0), AllocationEntry((1, 2), 5.0, 2.0))
        alloc_input = AllocationInput(entries, 4.0)
        claimed = dataclasses.replace(
            allocate(alloc_input).diagnostics, water_level=5 / 7 * 2 / 36, dropped_keys=frozenset({(1, 2)})
        )
        lopsided = RateAllocation(rates={(1, 1): 4.0, (1, 2): 0.0}, diagnostics=claimed)
        report = kkt_check(alloc_input, lopsided)
        assert report.stationarity_residual == 0.0
        assert report.budget_slackness_residual == 0.0
        # mu/s = 5/14 for the idle entry against delta = (5/7) * 2/36: (5/14) / delta - 1 = 9 - 1.
        assert report.dual_feasibility_residual == pytest.approx(8.0)
        assert not report.satisfied
        assert kkt_check(alloc_input, allocate(alloc_input)).dual_feasibility_residual == 0.0

    @pytest.mark.parametrize(
        "rate, budget, server_rate",
        [(0.0, 1.0, 1e17), (0.0, 1e-20, 1.0), (4.0, 5.0, 3.0), (5.0 - 1e-5, 5.0, 3.0), (0.0, 5e-324, 1.0)],
    )
    def test_any_unspent_budget_fails(self, rate, budget, server_rate):
        # Every term of the objective grows with its rate, so leaving budget unspent is never optimal,
        # whatever the water level: the residual is relative to the budget.
        alloc_input = AllocationInput((AllocationEntry((1, 1), 1.0, server_rate),), budget)
        short = RateAllocation(rates={(1, 1): rate}, diagnostics=allocate(alloc_input).diagnostics)
        report = kkt_check(alloc_input, short)
        assert report.budget_slackness_residual == pytest.approx((budget - rate) / budget)
        assert not report.satisfied

    def test_zero_budget_is_degenerate_but_satisfied(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 0.0)
        report = kkt_check(alloc_input, allocate(alloc_input))
        assert report.satisfied
        assert report.stationarity_residual == 0.0
        assert report.budget_slackness_residual == 0.0

    def test_key_mismatch_raises(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        alloc = allocate(alloc_input)
        other = AllocationInput((AllocationEntry((2, 2), 5.0, 3.0),), 5.0)
        with pytest.raises(DomainError, match="allocation keys do not match the input entries"):
            kkt_check(other, alloc)

    def test_tolerance_is_a_constant(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        alloc = allocate(alloc_input)
        assert KKT_TOLERANCE == 1e-6
        with pytest.raises(TypeError):
            kkt_check(alloc_input, alloc, 1e-6)

    def test_out_of_scale_budget_raises(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        alloc = allocate(alloc_input)
        with pytest.raises(DomainError, match="would overflow the water-fill"):   # the input's budget, checked as allocate checks it
            kkt_check(dataclasses.replace(alloc_input, rate_budget=1e200), alloc)

    def test_negative_rate_raises(self):
        alloc_input = AllocationInput((AllocationEntry((1, 1), 5.0, 3.0),), 5.0)
        alloc = allocate(alloc_input)
        bad = RateAllocation(rates={(1, 1): -1.0}, diagnostics=alloc.diagnostics)
        with pytest.raises(DomainError):
            kkt_check(alloc_input, bad)


class TestDataShapes:
    def test_allocation_entry_is_frozen(self):
        entry = AllocationEntry((1, 1), 2.0, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.user_rate = 4.0
