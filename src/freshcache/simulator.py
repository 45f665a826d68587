"""Event-stream Monte Carlo check of the analytic freshness values.

Per (user, file) holding, three independent exponential event streams are
drawn over a finite horizon: server updates, relay refresh requests, and user
refresh requests.  The freshness state machine is replayed exactly on those
streams: a server update makes both cached copies outdated, a relay request
refreshes the relay copy, and a user request adopts the relay copy's current
state.  Both copies start outdated, so each server cycle holds at most one
fresh interval: from the first user request at or after the cycle's first
relay refresh to the cycle's end.  Searching the refreshes rather than the
requests, the replay runs slower than a per-request search only where users
request less often than the relay refreshes.  The primary estimator is the
fraction of the horizon those intervals cover, with 20 batch means from a
running total of fresh time at the batch edges.

The replay is staged: the server and relay streams are reduced to each
cycle's first refresh and end, and freed, before the user stream is drawn
from the same generator, so a holding peaks at about 7.6-15.4 bytes per
expected event.  ``simulate_system`` runs two holdings at once on threads,
each with its own seeded generator, and sums them in scenario order.

A relay refresh at the instant of a server update serves the cycle that update
closes, so it leaves the relay copy outdated; a user request at the instant of
a refresh sees it.  Continuous exponential draws make such ties improbable.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SimulationScaleError
from .freshness import ObjectiveValue, RateTable, holding_placement
from .model import CacheScheme, Scenario, check_non_negative, check_positive

_BATCHES = 20
# Expected events one stream may draw: 16x the tests' largest (rate 12, horizon 1e5).  A holding at the limit,
# (199, 199, 199) at horizon 1e5, peaks near 551 MiB under tracemalloc; _WORKERS of them run at once, 1.1 GiB.
_MAX_STREAM_EVENTS = 20_000_000
# Holdings simulated at once on threads; the guard's memory above is priced for this many.
_WORKERS = 2
# Two-sided 95% Student-t quantile at 19 degrees of freedom (20 batch means).
_T_CRIT_19 = 2.093


@dataclass(frozen=True)
class SimEstimate:
    freshness_estimate: float   # fraction of the horizon the user copy was fresh
    cycles_observed: int        # completed successful-refresh renewal cycles
    half_width_95: float        # from 20 batch means of the time-fraction estimator


@dataclass(frozen=True)
class SystemSimResult:
    estimates: dict[tuple[int, int], SimEstimate]
    aggregate: ObjectiveValue


def stream_seed(seed: int, user_id: int, file_id: int) -> int:
    """Stable per-holding seed: independent of platform hash randomization."""
    digest = hashlib.blake2b(f"{user_id}:{file_id}".encode(), digest_size=8).digest()
    return (int(seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def _event_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Strictly increasing Poisson event times in (0, horizon)."""
    if rate <= 0.0:
        return np.empty(0)
    expected = rate * horizon
    n_guess = int(expected + 4.0 * math.sqrt(expected) + 16.0)
    times = rng.standard_exponential(n_guess)
    times *= 1.0 / rate
    np.cumsum(times, out=times)
    while times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=max(16, n_guess // 4)))
        times = np.concatenate([times, times[-1] + extra])
    return times[: np.searchsorted(times, horizon)]


def _check_holding(user_rate: float, server_rate: float, relay_rate: float, horizon: float) -> None:
    """Raise DomainError on a bad rate or horizon, SimulationScaleError if a stream expects over ``_MAX_STREAM_EVENTS``."""
    check_positive("user_rate", user_rate)
    check_positive("server_rate", server_rate)
    check_non_negative("relay_rate", relay_rate)
    check_positive("horizon", horizon)
    if max(user_rate, server_rate, relay_rate) * horizon > _MAX_STREAM_EVENTS:
        raise SimulationScaleError(f"horizon {horizon:g} makes a stream expect over {_MAX_STREAM_EVENTS} events")


def simulate_file(user_rate: float, server_rate: float, relay_rate: float, horizon: float, seed: int) -> SimEstimate:
    """Simulate one holding and estimate the long-run freshness fraction.

    Raises SimulationScaleError, before any draw, if a stream's rate * horizon exceeds ``_MAX_STREAM_EVENTS``.
    """
    _check_holding(user_rate, server_rate, relay_rate, horizon)
    rng = np.random.default_rng(seed)
    # Stream draw order is fixed so a seed fully determines the run.
    server_t = _event_times(rng, server_rate, horizon)
    relay_t = _event_times(rng, relay_rate, horizon)
    # Server cycle c ends at server_t[c], the last at the horizon; a refresh at the instant of an update
    # serves the cycle it closes.  Cycles ascend, so a refresh is its cycle's first where the cycle changes.
    refresh_cycle = np.searchsorted(server_t, relay_t, side="left")
    first = np.ones(refresh_cycle.size, dtype=bool)
    np.not_equal(refresh_cycle[1:], refresh_cycle[:-1], out=first[1:])
    first_t = relay_t[first]
    del relay_t
    cycle = refresh_cycle[first]
    del refresh_cycle, first
    ends = np.full(cycle.size, horizon, dtype=float)
    closed = np.searchsorted(cycle, server_t.size)
    ends[:closed] = server_t[cycle[:closed]]
    del server_t, cycle
    user_t = _event_times(rng, user_rate, horizon)

    # A cycle turns fresh at the first request at or after its first refresh, if that comes before it ends.
    u_first = np.searchsorted(user_t, first_t, side="left")
    del first_t
    seen = np.searchsorted(u_first, user_t.size)   # u_first ascends: the cycles with no later request are a suffix
    u_first, ends = u_first[:seen], ends[:seen]
    starts = user_t[u_first]
    fresh = starts < ends
    first_sum = int(u_first.sum(where=fresh))   # all the cycle count below needs of u_first
    del u_first
    starts = starts[fresh]
    ends = ends[fresh]
    lengths = ends - starts
    estimate = float(lengths.sum()) / horizon

    # Fresh time up to each batch edge: the intervals started by then, less the last one's overrun.
    edges = np.linspace(0.0, horizon, _BATCHES + 1)
    started = np.searchsorted(starts, edges, side="right")
    fresh_before = np.concatenate(([0.0], lengths))   # summed in place: 0.0 + x == x, so no bit moves
    del lengths
    np.cumsum(fresh_before, out=fresh_before)
    fresh_to_edge = fresh_before[started]
    del fresh_before
    fresh_to_edge -= np.maximum(np.concatenate(([-np.inf], ends))[started] - edges, 0.0)
    fractions = np.diff(fresh_to_edge) / (horizon / _BATCHES)
    half_width = float(_T_CRIT_19 * fractions.std(ddof=1) / math.sqrt(_BATCHES))

    # A fresh cycle's successful requests run from its start to its end; the renewal cycles lie between consecutive ones.
    u_end = np.searchsorted(user_t, ends, side="left")
    cycles = max(0, int(u_end.sum()) - first_sum - 1)
    return SimEstimate(freshness_estimate=estimate, cycles_observed=cycles, half_width_95=half_width)


@functools.cache
def _pool(workers: int):
    """A pool kept for the process: new threads per call left glibc malloc arenas behind, raising peak RSS."""
    from concurrent.futures import ThreadPoolExecutor   # here, not at import: other commands would pay for it
    return ThreadPoolExecutor(workers)


def simulate_system(scenario: Scenario, scheme: CacheScheme, rates: RateTable, horizon: float, seed: int) -> SystemSimResult:
    """Simulate every holding independently and aggregate like the analytic objective.

    Each holding uses its own deterministic substream, so results do not
    depend on iteration order or on the thread that ran it.  Every holding's
    relay, rates and stream sizes are checked before the first draw, so bad
    input fails before any simulation.
    """
    placements = {key: holding_placement(scenario, scheme, rates, key) for key in scenario.entries}
    holdings = [(e.user_rate, e.server_rate, placements[key][1], horizon) for key, e in scenario.entries.items()]
    for holding in holdings:
        _check_holding(*holding)
    seeds = [stream_seed(seed, *key) for key in scenario.entries]
    runs = _pool(min(_WORKERS, os.cpu_count() or 1)).map(simulate_file, *zip(*holdings), seeds)
    estimates = dict(zip(scenario.entries, runs))
    total = 0.0
    for key, est in estimates.items():
        total += scenario.coef[key][placements[key][0] - 1] * est.freshness_estimate
    return SystemSimResult(estimates=estimates, aggregate=ObjectiveValue.of_sum(total, scenario))
