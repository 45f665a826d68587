"""The simulator against copies of its earlier per-request replay and event draws.

``simulate_file`` searches the relay refreshes into the server stream, keeps
each server cycle's first refresh, and searches those into the user requests
to find each cycle's first successful request; the batch means come off a
running total of fresh time at the batch edges.  The reference below is an
earlier body, kept verbatim: every user request searched into both other
streams, an ``_event_before`` lookup per request, ``np.unique`` for each
cycle's first request, and a batches x intervals overlap matrix.  Both draw
the same streams from the same seed, so the estimate, the cycle count and the
cycle ratio must be equal; the half-width sums in another order and must
agree within 1e-12.  ``_event_times`` is pinned bit for bit to its earlier
body, extension loop included, and a plain event loop confirms that the edge
cases below reach the edges they name.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshcache import SimulationScaleError, simulate_file
from freshcache.model import check_non_negative, check_positive
from freshcache.simulator import _BATCHES, _MAX_STREAM_EVENTS, _T_CRIT_19, SimEstimate, _event_times


def reference_event_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Strictly increasing Poisson event times in (0, horizon)."""
    if rate <= 0.0:
        return np.empty(0)
    expected = rate * horizon
    n_guess = int(expected + 4.0 * math.sqrt(expected) + 16.0)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n_guess))
    while times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=max(16, n_guess // 4)))
        times = np.concatenate([times, times[-1] + extra])
    return times[times < horizon]


def _event_before(times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Time of the counts-th event (1-based), or -inf where counts is zero."""
    if times.size == 0:
        return np.full(counts.shape, -np.inf)
    return np.where(counts > 0, times[np.maximum(counts - 1, 0)], -np.inf)


def reference_simulate_file(user_rate: float, server_rate: float, relay_rate: float, horizon: float, seed: int) -> SimEstimate:
    """Simulate one holding and estimate the long-run freshness fraction.

    Raises SimulationScaleError, before any draw, if a stream's rate * horizon exceeds ``_MAX_STREAM_EVENTS``.
    """
    check_positive("user_rate", user_rate)
    check_positive("server_rate", server_rate)
    check_non_negative("relay_rate", relay_rate)
    check_positive("horizon", horizon)
    if max(user_rate, server_rate, relay_rate) * horizon > _MAX_STREAM_EVENTS:
        raise SimulationScaleError(f"horizon {horizon:g} makes a stream expect over {_MAX_STREAM_EVENTS} events")
    rng = np.random.default_rng(seed)
    # Stream draw order is fixed so a seed fully determines the run.
    server_t = _event_times(rng, server_rate, horizon)
    relay_t = _event_times(rng, relay_rate, horizon)
    user_t = _event_times(rng, user_rate, horizon)

    starts = np.empty(0)
    ends = np.empty(0)
    valid_times = np.empty(0)
    if user_t.size:
        # Number of server updates / relay requests at or before each user request.
        n_server = np.searchsorted(server_t, user_t, side="right")
        n_relay = np.searchsorted(relay_t, user_t, side="right")
        last_server = _event_before(server_t, n_server)
        last_relay = _event_before(relay_t, n_relay)
        # The relay copy is fresh iff it refreshed after the last server update;
        # before any refresh it is outdated (both copies start outdated).
        valid = last_relay > last_server
        valid_times = user_t[valid]
        valid_cycle = n_server[valid]  # index of the next server update
        if valid_times.size:
            # The user copy stays fresh from the first successful request of a
            # server cycle until the next server update (repeat requests within
            # the cycle change nothing).
            _, first_pos = np.unique(valid_cycle, return_index=True)
            starts = valid_times[first_pos]
            end_idx = valid_cycle[first_pos]
            guarded = np.minimum(end_idx, max(server_t.size - 1, 0))
            ends = np.where(end_idx < server_t.size, server_t[guarded] if server_t.size else horizon, horizon)

    fresh_total = float((ends - starts).sum())
    estimate = fresh_total / horizon

    edges = np.linspace(0.0, horizon, _BATCHES + 1)
    if starts.size:
        lo = edges[:-1, None]
        hi = edges[1:, None]
        overlap = np.clip(np.minimum(ends[None, :], hi) - np.maximum(starts[None, :], lo), 0.0, None)
        fractions = overlap.sum(axis=1) / (horizon / _BATCHES)
    else:
        fractions = np.zeros(_BATCHES)
    half_width = float(_T_CRIT_19 * fractions.std(ddof=1) / math.sqrt(_BATCHES))

    n_valid = int(valid_times.size)
    cycles = max(0, n_valid - 1)
    if cycles > 0:
        span = float(valid_times[-1] - valid_times[0])
        lo_t, hi_t = float(valid_times[0]), float(valid_times[-1])
        in_span = np.clip(np.minimum(ends, hi_t) - np.maximum(starts, lo_t), 0.0, None).sum()
        cycle_ratio = float(in_span / span) if span > 0 else math.nan
    else:
        cycle_ratio = math.nan

    return SimEstimate(
        freshness_estimate=estimate,
        cycles_observed=cycles,
        total_time=float(horizon),
        half_width_95=half_width,
        cycle_ratio_estimate=cycle_ratio,
    )


def _assert_same(u, s, r, horizon, seed):
    got = simulate_file(u, s, r, horizon, seed)
    want = reference_simulate_file(u, s, r, horizon, seed)
    assert got.freshness_estimate == want.freshness_estimate
    assert got.cycles_observed == want.cycles_observed
    assert got.total_time == want.total_time
    if math.isnan(want.cycle_ratio_estimate):
        assert math.isnan(got.cycle_ratio_estimate)
    else:
        assert got.cycle_ratio_estimate == want.cycle_ratio_estimate
    assert abs(got.half_width_95 - want.half_width_95) <= 1e-12
    return got


# (user rate, server rate, relay rate, horizon): balanced rates, r = 0, s >> u,
# u >> s, a near-zero relay rate, and horizons short enough to leave a stream empty.
GRID = [
    (1.0, 1.0, 1.0, 2e4),
    (10.0, 6.0, 4.5573, 1e4),
    (5.0, 2.0, 0.0, 1e4),
    (0.5, 8.0, 3.0, 2e4),
    (0.2, 12.0, 12.0, 2e4),
    (12.0, 0.5, 4.0, 1e4),
    (12.0, 0.05, 0.3, 2e4),
    (1.0, 0.7, 1e-4, 2e4),
    (2.0, 3.0, 5.0, 0.01),
    (0.01, 5.0, 5.0, 1.0),
    (5.0, 0.01, 5.0, 1.0),
    (5.0, 5.0, 0.01, 1.0),
    (0.01, 0.01, 0.01, 1.0),
]


@pytest.mark.parametrize("u,s,r,horizon", GRID)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_reference_on_grid(u, s, r, horizon, seed):
    _assert_same(u, s, r, horizon, seed)


def test_grid_reaches_empty_streams_and_many_cycles():
    # Guard the grid itself: each of the three streams is empty in some case at
    # seed 1, and some case has thousands of cycles.
    empty = set()
    for u, s, r, horizon in GRID:
        rng = np.random.default_rng(1)
        sizes = [_event_times(rng, rate, horizon).size for rate in (s, r, u)]   # the simulator's draw order
        empty.update(i for i, size in enumerate(sizes) if size == 0)
    assert empty == {0, 1, 2}
    assert max(simulate_file(u, s, r, horizon, 1).cycles_observed for u, s, r, horizon in GRID) > 5000


rates = st.floats(min_value=0.05, max_value=12.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    u=rates,
    s=rates,
    r=st.one_of(st.just(0.0), rates),
    horizon=st.floats(min_value=0.01, max_value=2000.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_matches_reference_property(u, s, r, horizon, seed):
    _assert_same(u, s, r, horizon, seed)


class _ShortFirstBatch:
    """A generator whose first batch of gaps is a quarter of the usual length, so the
    first batch ends short of the horizon; later batches draw as usual."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.batches = 0

    def standard_exponential(self, size: int) -> np.ndarray:
        gaps = self._rng.standard_exponential(size)
        if self.batches == 0:
            gaps *= 0.25
        self.batches += 1
        return gaps

    def exponential(self, scale: float, size: int) -> np.ndarray:
        return self.standard_exponential(size) * scale


@pytest.mark.parametrize("rate", [0.0, 1e-4, 0.7, 3.15, 12.0])
@pytest.mark.parametrize("horizon", [0.01, 1.0, 1e4])
def test_event_times_match_reference(rate, horizon):
    got = _event_times(np.random.default_rng(3), rate, horizon)
    want = reference_event_times(np.random.default_rng(3), rate, horizon)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_event_times_extend_a_short_first_batch():
    got_rng, want_rng = _ShortFirstBatch(5), _ShortFirstBatch(5)
    got = _event_times(got_rng, 2.0, 100.0)
    want = reference_event_times(want_rng, 2.0, 100.0)
    assert got_rng.batches == want_rng.batches > 2
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got[-1] < 100.0 < got[-1] + 5.0


def _event_loop(u, s, r, horizon, seed):
    """Replay the holding one event at a time: (fresh intervals, successful requests per fresh cycle)."""
    rng = np.random.default_rng(seed)
    server_t = _event_times(rng, s, horizon)
    relay_t = _event_times(rng, r, horizon)
    user_t = _event_times(rng, u, horizon)
    # Ties: a refresh before an update at the same instant, a request after both.
    events = sorted([(t, 1) for t in server_t] + [(t, 0) for t in relay_t] + [(t, 2) for t in user_t])
    relay_fresh = user_fresh = False
    start, successes, intervals, counts = 0.0, 0, [], []
    for t, kind in events:
        if kind == 1:
            if user_fresh:
                intervals.append((start, t))
                counts.append(successes)
            relay_fresh = user_fresh = False
            successes = 0
        elif kind == 0:
            relay_fresh = True
        elif relay_fresh:
            successes += 1
            if not user_fresh:
                user_fresh, start = True, t
    if user_fresh:
        intervals.append((start, horizon))
        counts.append(successes)
    return (server_t, relay_t, user_t), intervals, counts


# (user rate, server rate, relay rate, horizon, seed) for edges of the refresh-driven replay.
EDGES = {
    "several-requests-per-cycle": (5.6, 2.6, 5.5, 5.0, 12),
    "last-cycle-ends-at-horizon": (3.4, 4.3, 4.1, 2.0, 11),
    "refreshes-before-first-update": (0.8, 5.4, 3.2, 1.0, 77),
    "no-request-after-last-refresh": (2.2, 5.5, 4.0, 5.0, 93),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_matches_reference_on_edges(edge):
    u, s, r, horizon, seed = EDGES[edge]
    got = _assert_same(u, s, r, horizon, seed)
    (server_t, relay_t, user_t), intervals, counts = _event_loop(u, s, r, horizon, seed)
    lengths = np.array([end - start for start, end in intervals])
    assert got.freshness_estimate == float(lengths.sum()) / horizon
    assert got.cycles_observed == sum(counts) - 1
    assert len(intervals) >= 1
    if edge == "several-requests-per-cycle":
        assert max(counts) >= 3 and len(intervals) >= 2
    elif edge == "last-cycle-ends-at-horizon":
        assert intervals[-1][1] == horizon and server_t.size >= 2
    elif edge == "refreshes-before-first-update":
        assert server_t.size >= 2 and relay_t.size >= 2 and relay_t[-1] < server_t[0]
    else:
        # The last refresh opens its server cycle's refreshes, and no request follows it.
        cycle_of = np.searchsorted(server_t, relay_t[-2:], side="left")
        assert user_t[-1] < relay_t[-1] and cycle_of[1] > cycle_of[0]
