"""Monte Carlo simulator tests.

Horizons here are kept moderate so the module suite stays fast; the full
20-triple battery at horizon 1e5 runs in the acceptance suite.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshcache import (
    CacheScheme,
    DomainError,
    GuardError,
    Scenario,
    SimEstimate,
    file_freshness,
    simulate_file,
    simulate_system,
)
from freshcache import simulator
from freshcache.simulator import stream_seed

from conftest import REFERENCE_ASSIGNMENT, REFERENCE_RATES, random_scenario
from test_simulator_reference import _event_times, reference_event_times, reference_simulate_file

# (u, s, r) regimes for the memory bound: user-heavy, relay-heavy, u < r, and balanced.
MEMORY_REGIMES = [(12.0, 5.0, 4.5), (0.5, 8.0, 15.0), (12.0, 3.0, 3.15), (5.0, 8.0, 15.0), (0.5, 8.0, 3.0), (1.0, 1.0, 1.0)]


def _synthetic_case():
    """A seeded 14-holding scenario, its holdings dealt to relays with room, and rates with a 0 and a u < r."""
    rng = random.Random(14)
    scenario = random_scenario(rng, 14, 4, 3)
    room, relay = [r.capacity for r in scenario.relays], 0
    assignment, rates = {}, {}
    for key in scenario.holding_pairs:
        while not room[relay]:
            relay = (relay + 1) % len(room)
        room[relay] -= 1
        assignment[key] = relay + 1
        rates[key] = rng.uniform(0.1, 12.0)
        relay = (relay + 1) % len(room)
    first, second = scenario.holding_pairs[:2]
    rates[first] = 0.0
    rates[second] = scenario.entries[second].user_rate + 5.0
    return scenario, CacheScheme(assignment), rates


class TestSimulateFile:
    def test_unit_rates_analytic_value(self):
        est = simulate_file(1.0, 1.0, 1.0, horizon=2e5, seed=42)
        assert abs(est.freshness_estimate - 0.25) <= 0.01
        assert abs(est.freshness_estimate - 0.25) <= max(3 * est.half_width_95, 0.01)

    def test_reference_row7(self):
        est = simulate_file(10.0, 6.0, 4.5573, horizon=1e5, seed=7)
        assert abs(est.freshness_estimate - 0.2698) <= 0.01

    def test_zero_relay_rate_is_exactly_zero(self):
        est = simulate_file(5.0, 2.0, 0.0, horizon=1e4, seed=3)
        assert est.freshness_estimate == 0.0
        assert est.cycles_observed == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [0.01, 1.0, 1e4])
    def test_zero_relay_rate_draws_no_stream(self, seed, horizon, monkeypatch):
        # No refresh, so no cycle turns fresh: the reference replay's result, with no stream drawn.
        want = reference_simulate_file(5.0, 2.0, 0.0, horizon, seed)
        calls = []
        monkeypatch.setattr(simulator, "_event_pieces", lambda *args: calls.append(args))
        got = simulate_file(5.0, 2.0, 0.0, horizon, seed)
        assert got == SimEstimate(0.0, 0, 0.0) == SimEstimate(want.freshness_estimate, want.cycles_observed, want.half_width_95)
        assert calls == []

    def test_deterministic_given_seed(self):
        a = simulate_file(4.0, 2.5, 3.0, horizon=5e3, seed=17)
        b = simulate_file(4.0, 2.5, 3.0, horizon=5e3, seed=17)
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate_file(4.0, 2.5, 3.0, horizon=5e3, seed=1)
        b = simulate_file(4.0, 2.5, 3.0, horizon=5e3, seed=2)
        assert a.freshness_estimate != b.freshness_estimate

    def test_estimate_fields_well_formed(self):
        est = simulate_file(6.0, 3.0, 2.0, horizon=1e4, seed=9)
        assert 0.0 <= est.freshness_estimate <= 1.0
        assert est.half_width_95 > 0.0
        assert est.cycles_observed > 0

    def test_convergence_on_seeded_grid(self):
        # Small version of the acceptance battery.
        triples = [
            (0.5, 0.5, 0.5),
            (12.0, 12.0, 12.0),
            (2.0, 8.0, 3.0),
            (8.0, 2.0, 0.7),
            (5.0, 1.0, 11.0),
        ]
        for i, (u, s, r) in enumerate(triples):
            est = simulate_file(u, s, r, horizon=5e4, seed=100 + i)
            analytic = file_freshness(u, s, r)
            assert abs(est.freshness_estimate - analytic) <= max(3 * est.half_width_95, 0.01)

    def test_half_width_covers_about_95_percent(self):
        # 5 regimes x 40 seeds: a 95% interval covers 190 +- 9 of 200 (3 sigma), so 0.90-0.99.
        covered = 0
        for u, s, r in [(1.0, 1.0, 1.0), (10.0, 6.0, 4.5573), (0.5, 8.0, 3.0), (12.0, 3.0, 3.15), (2.0, 0.5, 8.0)]:
            analytic = file_freshness(u, s, r)
            for seed in range(40):
                est = simulate_file(u, s, r, horizon=2e3, seed=seed)
                covered += abs(est.freshness_estimate - analytic) <= est.half_width_95
        assert 0.90 <= covered / 200 <= 0.99

    def test_two_seeds_statistical_contract(self):
        analytic = file_freshness(1.0, 1.0, 1.0)
        for seed in (11, 12):
            est = simulate_file(1.0, 1.0, 1.0, horizon=1e5, seed=seed)
            assert abs(est.freshness_estimate - analytic) <= max(3 * est.half_width_95, 0.01)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            simulate_file(0.0, 1.0, 1.0, 100.0, 0)
        with pytest.raises(DomainError):
            simulate_file(1.0, 0.0, 1.0, 100.0, 0)
        with pytest.raises(DomainError):
            simulate_file(1.0, 1.0, -1.0, 100.0, 0)
        with pytest.raises(DomainError):
            simulate_file(1.0, 1.0, 1.0, 0.0, 0)
        with pytest.raises(DomainError):
            simulate_file(1.0, 1.0, math.inf, 100.0, 0)

    def test_stream_too_large_to_draw(self):
        # The limit leaves 10x room over the largest stream the tests draw (rate 12, horizon 1e5).
        assert 10 * 12 * 1e5 <= simulator._MAX_STREAM_EVENTS <= 1e8
        # Each of the three streams is checked, the relay's too.
        for rates in ((12.0, 1.0, 1.0), (1.0, 12.0, 1.0), (1.0, 1.0, 12.0)):
            with pytest.raises(GuardError):
                simulate_file(*rates, horizon=1e16, seed=0)

    @staticmethod
    def _peak_per_expected_event(u, s, r):
        expected = 2e6
        tracemalloc.start()
        try:
            simulate_file(u, s, r, horizon=expected / (u + s + r), seed=1)
            return tracemalloc.get_traced_memory()[1] / expected
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("u,s,r", MEMORY_REGIMES)
    def test_peak_memory_per_expected_event(self, u, s, r):
        # The server pieces are dropped as the relay refreshes pass them, the user pieces take each cycle's first
        # refresh and end from the front of a queue, and only the fresh intervals are joined whole: 2.4-6.2 bytes per
        # expected event here, (0.5, 8, 3) at the top, where the server stream is held at the start of the relay stage.
        # The bound leaves about 30% over that.  Holding the whole server stream and joining the cycle list took
        # 3.2-9.3; holding the whole user stream through the replay too took 7.6-15.4.
        assert self._peak_per_expected_event(u, s, r) <= 8.0

    def test_refresh_heavy_holding_joins_no_cycle_list(self):
        # Refreshes far outnumber requests, so the queue of first refreshes and ends is the largest thing held:
        # 4.5 bytes per expected event.  Joining it whole before the user stage held it twice, 8.17.
        assert self._peak_per_expected_event(0.5, 8.0, 15.0) <= 6.0

    def test_peak_memory_does_not_grow_with_the_user_stream(self):
        # At fixed server and relay streams, 8x the user requests (300k -> 2.4M, 37 pieces) moves the peak by
        # less than two pieces' worth of event times; holding the whole user stream moved it by about 30.
        peaks = []
        for u in (1.5, 12.0):
            tracemalloc.start()
            try:
                simulate_file(u, 1.0, 1.0, horizon=2e5, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 * 8 * simulator._PIECE


class _ShortFirstValues:
    """A generator whose first ``count`` gaps are a quarter of the usual length, however the draws are split,
    so a stream's first batch ends short of the horizon and its extension batches are drawn."""

    def __init__(self, seed: int, count: int):
        self._rng = np.random.default_rng(seed)
        self._left = count
        self.values = 0

    def standard_exponential(self, size: int) -> np.ndarray:
        gaps = self._rng.standard_exponential(size)
        head = min(self._left, size)
        gaps[:head] *= 0.25
        self._left -= head
        self.values += size
        return gaps

    def exponential(self, scale: float, size: int) -> np.ndarray:
        return self.standard_exponential(size) * scale


PIECE_SIZES = [1, 2, 7, 64, simulator._PIECE]


class TestEventPieces:
    @pytest.mark.parametrize("size", PIECE_SIZES)
    @pytest.mark.parametrize("rate,horizon", [(0.0, 10.0), (1e-4, 1.0), (0.7, 30.0), (3.15, 1e3), (12.0, 0.01), (5.0, 400.0)])
    def test_pieces_are_event_times_in_order(self, size, rate, horizon):
        whole_rng, piece_rng = np.random.default_rng(4), np.random.default_rng(4)
        whole = _event_times(whole_rng, rate, horizon)
        pieces = list(simulator._event_pieces(piece_rng, rate, horizon, size))
        assert all(0 < piece.size <= size for piece in pieces)
        assert np.concatenate([np.empty(0), *pieces]).tobytes() == whole.tobytes()
        # The unused tail of the last batch was drawn too: both generators are in the same state.
        assert piece_rng.standard_exponential(3).tobytes() == whole_rng.standard_exponential(3).tobytes()

    @pytest.mark.parametrize("size", PIECE_SIZES)
    def test_pieces_extend_a_short_first_batch(self, size):
        rate, horizon, n_guess = 2.0, 100.0, 272   # n_guess: 200 expected events + 4 sigma + 16
        want_rng, got_rng = _ShortFirstValues(5, n_guess), _ShortFirstValues(5, n_guess)
        want = reference_event_times(want_rng, rate, horizon)
        got = np.concatenate([np.empty(0), *simulator._event_pieces(got_rng, rate, horizon, size)])
        assert got_rng.values == want_rng.values >= n_guess + 2 * (n_guess // 4)
        assert got.tobytes() == want.tobytes()
        assert got[-1] < horizon < got[-1] + 5.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        u=st.floats(min_value=0.05, max_value=12.0),
        s=st.floats(min_value=0.05, max_value=12.0),
        r=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=12.0)),
        horizon=st.floats(min_value=0.01, max_value=200.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_small_pieces_match_the_reference(self, u, s, r, horizon, seed):
        # Pieces of 1, 3 and 64 events put cycle boundaries across piece boundaries in both stages.
        want = reference_simulate_file(u, s, r, horizon, seed)
        whole = simulate_file(u, s, r, horizon, seed)
        for size in (1, 3, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simulator, "_PIECE", size)
                got = simulate_file(u, s, r, horizon, seed)
            assert got == whole
            assert (got.freshness_estimate, got.cycles_observed) == (want.freshness_estimate, want.cycles_observed)
            assert abs(got.half_width_95 - want.half_width_95) <= 1e-12


class TestStreamSeed:
    def test_deterministic_and_distinct(self):
        seen = {stream_seed(123, u, f) for u in range(1, 5) for f in range(1, 11)}
        assert len(seen) == 40
        assert all(0 <= s < 2**63 for s in seen)
        assert stream_seed(123, 2, 7) == stream_seed(123, 2, 7)

    def test_depends_on_base_seed(self):
        assert stream_seed(1, 1, 1) != stream_seed(2, 1, 1)


class TestSimulateSystem:
    def test_no_users_has_no_mean(self, table1):
        with pytest.raises(DomainError, match="at least one user"):
            simulate_system(Scenario(files=table1.files, users=(), relays=table1.relays), CacheScheme({}), {}, 10.0, 0)

    def test_aggregate_matches_manual_weighting(self, table1, reference_scheme):
        sim = simulate_system(table1, reference_scheme, REFERENCE_RATES, horizon=2e3, seed=0)
        manual = 0.0
        for user in table1.users:
            for h in user.holdings:
                key = (user.user_id, h.file_id)
                relay_id = reference_scheme.assignment[key]
                manual += (
                    h.request_prob
                    * user.relay_prefs[relay_id - 1]
                    * sim.estimates[key].freshness_estimate
                )
        assert sim.aggregate.sum_form == pytest.approx(manual, abs=1e-12)
        assert sim.aggregate.mean_form == sim.aggregate.sum_form / 4

    def test_estimates_cover_every_holding(self, table1, reference_scheme):
        sim = simulate_system(table1, reference_scheme, REFERENCE_RATES, horizon=1e3, seed=1)
        assert set(sim.estimates) == set(table1.holding_pairs)

    def test_aggregate_near_analytic(self, table1, reference_scheme):
        sim = simulate_system(table1, reference_scheme, REFERENCE_RATES, horizon=2e4, seed=5)
        assert abs(sim.aggregate.sum_form - 0.5319) <= 0.02

    def test_deterministic(self, table1, reference_scheme):
        a = simulate_system(table1, reference_scheme, REFERENCE_RATES, horizon=1e3, seed=8)
        b = simulate_system(table1, reference_scheme, REFERENCE_RATES, horizon=1e3, seed=8)
        assert a.aggregate == b.aggregate
        assert a.estimates == b.estimates

    def test_zero_rates_aggregate_zero(self, table1, reference_scheme):
        zero = {key: 0.0 for key in REFERENCE_RATES}
        sim = simulate_system(table1, reference_scheme, zero, horizon=1e3, seed=2)
        assert sim.aggregate.sum_form == 0.0

    def test_missing_rate_raises(self, table1, reference_scheme):
        partial = dict(REFERENCE_RATES)
        del partial[(3, 7)]
        with pytest.raises(DomainError, match="missing refresh rate for user 3, file 7"):
            simulate_system(table1, reference_scheme, partial, horizon=1e3, seed=0)

    def test_missing_last_rate_raises_before_any_draw(self, table1, reference_scheme, monkeypatch):
        calls = []
        monkeypatch.setattr(simulator, "simulate_file", lambda *args: calls.append(args))
        partial = dict(REFERENCE_RATES)
        del partial[table1.holding_pairs[-1]]
        with pytest.raises(DomainError, match="missing refresh rate for user {}, file {}".format(*table1.holding_pairs[-1])):
            simulate_system(table1, reference_scheme, partial, horizon=1e3, seed=0)
        assert calls == []

    def test_scale_guard_trips_before_any_draw(self, table1, reference_scheme, monkeypatch):
        calls = []
        monkeypatch.setattr(simulator, "_event_pieces", lambda *args: calls.append(args))   # every stream's draws
        rates = {**REFERENCE_RATES, table1.holding_pairs[-1]: 1e3}
        with pytest.raises(GuardError):
            simulate_system(table1, reference_scheme, rates, horizon=1e5, seed=0)
        assert calls == []

    @pytest.mark.parametrize("case", ["table1", "synthetic"])
    def test_same_result_on_one_or_two_workers(self, case, table1, reference_scheme, monkeypatch):
        if case == "table1":
            scenario, scheme, rates = table1, reference_scheme, REFERENCE_RATES
        else:
            scenario, scheme, rates = _synthetic_case()
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(simulator, "_WORKERS", workers)
            results.append(simulate_system(scenario, scheme, rates, horizon=2e3, seed=3))
        one, two = results
        assert list(one.estimates) == list(two.estimates) == list(scenario.entries)
        assert list(one.estimates.values()) == list(two.estimates.values())
        assert one.aggregate == two.aggregate

    @pytest.mark.parametrize("relay_id", [0, 4, True, 1.0], ids=["relay-0", "relay-K+1", "bool", "float"])
    def test_relay_outside_one_to_k(self, table1, relay_id):
        assignment = dict(REFERENCE_ASSIGNMENT)
        assignment[(1, 1)] = relay_id
        with pytest.raises(DomainError, match=f"unknown relay {relay_id}"):
            simulate_system(table1, CacheScheme(assignment), REFERENCE_RATES, horizon=1e3, seed=0)
