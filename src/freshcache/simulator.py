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
running total of fresh time at the batch edges; a renewal (cycle-ratio)
estimator over successful refresh cycles serves as a cross-check.

A relay refresh at the instant of a server update serves the cycle that update
closes, so it leaves the relay copy outdated; a user request at the instant of
a refresh sees it.  Continuous exponential draws make such ties improbable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationScaleError
from .freshness import ObjectiveValue, RateTable, holding_placement
from .model import CacheScheme, Scenario, check_non_negative, check_positive

_BATCHES = 20
# Expected events one stream may draw: 16x the tests' largest (rate 12, horizon 1e5), 160 MB of float64.
_MAX_STREAM_EVENTS = 20_000_000
# Two-sided 95% Student-t quantile at 19 degrees of freedom (20 batch means).
_T_CRIT_19 = 2.093


@dataclass(frozen=True)
class SimEstimate:
    freshness_estimate: float   # fraction of the horizon the user copy was fresh
    cycles_observed: int        # completed successful-refresh renewal cycles
    total_time: float
    half_width_95: float        # from 20 batch means of the time-fraction estimator
    cycle_ratio_estimate: float # renewal estimator E[fresh]/E[cycle]; nan if no cycles


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


def simulate_file(user_rate: float, server_rate: float, relay_rate: float, horizon: float, seed: int) -> SimEstimate:
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

    # Server cycle c ends at cycle_end[c]; a refresh at the instant of an update serves the cycle it closes.
    cycle_end = np.append(server_t, horizon)
    refresh_cycle = np.searchsorted(server_t, relay_t, side="left")
    first = np.diff(refresh_cycle, prepend=-1) > 0
    # A cycle turns fresh at the first request at or after its first refresh, if that comes before it ends.
    u_first = np.searchsorted(user_t, relay_t[first], side="left")
    seen = u_first < user_t.size
    cycle, u_first = refresh_cycle[first][seen], u_first[seen]
    fresh = user_t[u_first] < cycle_end[cycle]
    u_first = u_first[fresh]
    starts = user_t[u_first]
    ends = cycle_end[cycle[fresh]]
    lengths = ends - starts
    estimate = float(lengths.sum()) / horizon

    # Fresh time up to each batch edge: the intervals started by then, less the last one's overrun.
    edges = np.linspace(0.0, horizon, _BATCHES + 1)
    started = np.searchsorted(starts, edges, side="right")
    fresh_to_edge = np.concatenate(([0.0], np.cumsum(lengths)))[started]
    fresh_to_edge -= np.maximum(np.concatenate(([-np.inf], ends))[started] - edges, 0.0)
    fractions = np.diff(fresh_to_edge) / (horizon / _BATCHES)
    half_width = float(_T_CRIT_19 * fractions.std(ddof=1) / math.sqrt(_BATCHES))

    # A fresh cycle's successful requests run from its start to its end; only the last interval ends past them.
    u_end = np.searchsorted(user_t, ends, side="left")
    cycles = max(0, int((u_end - u_first).sum()) - 1)
    cycle_ratio = math.nan
    if cycles > 0:
        last = user_t[u_end[-1] - 1]
        if last > starts[0]:
            cycle_ratio = float((np.minimum(ends, last) - starts).sum() / (last - starts[0]))

    return SimEstimate(
        freshness_estimate=estimate,
        cycles_observed=cycles,
        total_time=float(horizon),
        half_width_95=half_width,
        cycle_ratio_estimate=cycle_ratio,
    )


def simulate_system(
    scenario: Scenario,
    scheme: CacheScheme,
    rates: RateTable,
    horizon: float,
    seed: int,
) -> SystemSimResult:
    """Simulate every holding independently and aggregate like the analytic objective.

    Each holding uses its own deterministic substream, so results do not
    depend on iteration order.  Every holding's relay and rate are checked
    before the first draw, so bad input fails before any simulation.
    """
    placements = {key: holding_placement(scenario, scheme, rates, key) for key in scenario.holding_pairs}
    estimates: dict[tuple[int, int], SimEstimate] = {}
    total = 0.0
    for user in scenario.users:
        for h in user.holdings:
            key = (user.user_id, h.file_id)
            e = scenario.entries[key]
            relay_id, rate = placements[key]
            est = simulate_file(e.user_rate, e.server_rate, rate, horizon, stream_seed(seed, *key))
            estimates[key] = est
            total += h.request_prob * user.relay_prefs[relay_id - 1] * est.freshness_estimate
    return SystemSimResult(estimates=estimates, aggregate=ObjectiveValue(total, total / scenario.n_users))
