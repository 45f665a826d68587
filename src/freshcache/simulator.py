"""Event-stream Monte Carlo check of the analytic freshness values.

Per (user, file) holding, three independent exponential event streams are
drawn over a finite horizon: server updates, relay refresh requests, and user
refresh requests.  The freshness state machine is replayed exactly on those
streams: a server update makes both cached copies outdated, a relay request
refreshes the relay copy, and a user request adopts the relay copy's current
state.  Both copies start outdated, so each server cycle holds at most one
fresh interval: from its first user request that finds the relay copy fresh
to the cycle's end.  The primary estimator is the fraction of the horizon
those intervals cover, with 20 batch means from a running total of fresh
time at the batch edges; a renewal (cycle-ratio) estimator over successful
refresh cycles serves as a cross-check.

Simultaneous events would be processed server update first, then relay
request, then user request; with continuous exponential draws ties have
probability zero and never occur in practice.
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
    times = np.cumsum(rng.exponential(1.0 / rate, size=n_guess))
    while times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=max(16, n_guess // 4)))
        times = np.concatenate([times, times[-1] + extra])
    return times[times < horizon]


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

    # Server cycle j runs from bounds[j] to bounds[j + 1]; -inf stands for no update yet.
    bounds = np.concatenate(([-np.inf], server_t, [horizon]))
    cycle = np.searchsorted(server_t, user_t, side="right")
    n_relay = np.searchsorted(relay_t, user_t, side="right")
    # A request succeeds iff the relay's last refresh (-inf: none yet) came after the cycle began.
    valid = np.concatenate(([-np.inf], relay_t))[n_relay] > bounds[cycle]
    valid_times = user_t[valid]
    valid_cycle = cycle[valid]
    # Fresh from a cycle's first successful request to the cycle's end.
    first = np.diff(valid_cycle, prepend=-1) > 0
    starts = valid_times[first]
    ends = bounds[valid_cycle[first] + 1]
    lengths = ends - starts
    estimate = float(lengths.sum()) / horizon

    # Fresh time up to each batch edge: the intervals started by then, less the last one's overrun.
    edges = np.linspace(0.0, horizon, _BATCHES + 1)
    started = np.searchsorted(starts, edges, side="right")
    fresh_to_edge = np.concatenate(([0.0], np.cumsum(lengths)))[started]
    fresh_to_edge -= np.maximum(np.concatenate(([-np.inf], ends))[started] - edges, 0.0)
    fractions = np.diff(fresh_to_edge) / (horizon / _BATCHES)
    half_width = float(_T_CRIT_19 * fractions.std(ddof=1) / math.sqrt(_BATCHES))

    # Every interval starts within the span of successful requests; only the last may end past it.
    cycles = max(0, valid_times.size - 1)
    cycle_ratio = math.nan
    if cycles > 0 and valid_times[-1] > valid_times[0]:
        in_span = (np.minimum(ends, valid_times[-1]) - starts).sum()
        cycle_ratio = float(in_span / (valid_times[-1] - valid_times[0]))

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
