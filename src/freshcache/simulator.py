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

The server stream is drawn whole.  The relay and user streams are drawn in
pieces of at most ``_PIECE`` events, the same numbers in the same order as
whole draws, and each piece is replayed as it is drawn.  The relay pieces
reduce to each cycle's first refresh and end, and the server stream is freed
before the first user piece, so a user stream of any length costs a piece's
worth and a holding peaks at about 2.8-9.3 bytes per expected event,
server-heavy holdings at the top.  ``simulate_system`` runs two holdings at
once on threads, each with its own seeded generator, and sums them in
scenario order.

A relay refresh at the instant of a server update serves the cycle that update
closes, so it leaves the relay copy outdated; a user request at the instant of
a refresh sees it.  Continuous exponential draws make such ties improbable.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SimulationScaleError
from .freshness import ObjectiveValue, RateTable, holding_placement
from .model import CacheScheme, Scenario, check_non_negative, check_positive

_BATCHES = 20
# Expected events one stream may draw: 16x the tests' largest (rate 12, horizon 1e5).  A holding at the limit,
# (199, 199, 199) at horizon 1e5, peaks at 305 MiB under tracemalloc (measured); _WORKERS of them, 0.6 GiB.
_MAX_STREAM_EVENTS = 20_000_000
# Events per relay or user piece the replay draws and searches at once: 512 KiB of event times.
_PIECE = 1 << 16
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


def _event_pieces(rng: np.random.Generator, rate: float, horizon: float, size: int) -> Iterator[np.ndarray]:
    """Yield ``_event_times(rng, rate, horizon)`` in consecutive non-empty pieces of at most ``size`` events.

    Draws the same numbers in the same order as one draw per batch, the unused tail of the batch that
    crosses the horizon included, so the generator is left in the same state whatever ``size`` is.
    """
    if rate <= 0.0:
        return
    expected = rate * horizon
    n_guess = int(expected + 4.0 * math.sqrt(expected) + 16.0)
    batch, base = n_guess, 0.0
    while True:
        done, run = 0, 0.0   # run: the batch-local running sum, carried into each piece's first gap
        while done < batch:
            piece = rng.standard_exponential(min(size, batch - done))
            done += piece.size
            piece *= 1.0 / rate
            piece[0] += run   # 0.0 + x == x, so the first piece's bits do not move
            np.cumsum(piece, out=piece)
            run = piece[-1]
            if base:   # an extension batch
                piece += base
            if piece[-1] >= horizon:
                if piece[0] < horizon:
                    yield piece[: np.searchsorted(piece, horizon)]
                while done < batch:   # the unused tail, drawn so later streams see the same numbers
                    done += rng.standard_exponential(min(size, batch - done)).size
                return
            yield piece
        batch, base = max(16, n_guess // 4), float(piece[-1])


def _event_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Strictly increasing Poisson event times in (0, horizon), drawn one whole batch at a time."""
    pieces = list(_event_pieces(rng, rate, horizon, sys.maxsize))
    return pieces[0] if len(pieces) == 1 else np.concatenate([np.empty(0), *pieces])


def _check_holding(user_rate: float, server_rate: float, relay_rate: float, horizon: float) -> None:
    """Raise DomainError on a bad rate or horizon, or on a horizon whose batch width is 0;
    SimulationScaleError if a stream expects over ``_MAX_STREAM_EVENTS``."""
    check_positive("user_rate", user_rate)
    check_positive("server_rate", server_rate)
    check_non_negative("relay_rate", relay_rate)
    check_positive("horizon", horizon)
    if horizon / _BATCHES == 0.0:
        raise DomainError(f"horizon {horizon!r} is too small to split into {_BATCHES} batches")
    if max(user_rate, server_rate, relay_rate) * horizon > _MAX_STREAM_EVENTS:
        raise SimulationScaleError(f"horizon {horizon:g} makes a stream expect over {_MAX_STREAM_EVENTS} events")


def simulate_file(user_rate: float, server_rate: float, relay_rate: float, horizon: float, seed: int) -> SimEstimate:
    """Simulate one holding and estimate the long-run freshness fraction.

    Raises SimulationScaleError, before any draw, if a stream's rate * horizon exceeds ``_MAX_STREAM_EVENTS``.
    """
    _check_holding(user_rate, server_rate, relay_rate, horizon)
    rng = np.random.default_rng(seed)
    # Stream draw order is fixed so a seed fully determines the run.  The relay search needs the whole server stream.
    server_t = _event_times(rng, server_rate, horizon)
    # Server cycle c ends at server_t[c], the last at the horizon; a refresh at the instant of an update
    # serves the cycle it closes.  Cycles ascend, so a refresh is its cycle's first where the cycle changes.
    first_t, ends, last = [], [], -1
    for relay_t in _event_pieces(rng, relay_rate, horizon, _PIECE):
        cycle = np.searchsorted(server_t, relay_t, side="left")
        first = np.empty(cycle.size, dtype=bool)
        first[0] = cycle[0] != last
        np.not_equal(cycle[1:], cycle[:-1], out=first[1:])
        last = cycle[-1]
        first_t.append(relay_t[first])
        cycle = cycle[first]
        end = np.full(cycle.size, horizon, dtype=float)
        closed = np.searchsorted(cycle, server_t.size)
        end[:closed] = server_t[cycle[:closed]]
        ends.append(end)
    del server_t
    first_t, ends = np.concatenate([np.empty(0), *first_t]), np.concatenate([np.empty(0), *ends])

    # A cycle turns fresh at the first request at or after its first refresh, if that comes before it ends.  Each user
    # piece settles the cycles whose first refresh is at or below its last request, and the request index of each fresh
    # end up to there; only the fresh cycle spanning its last request, if any, waits for a later piece.  A cycle whose
    # first refresh follows the last request never turns fresh.
    starts, fresh_ends, waiting = [], [], np.empty(0)
    done = base = first_sum = end_sum = 0   # end_sum - first_sum: the requests made in fresh cycles
    for user_t in _event_pieces(rng, user_rate, horizon, _PIECE):
        top = np.searchsorted(first_t, user_t[-1], side="right")
        u_first = np.searchsorted(user_t, first_t[done:top], side="left")
        start = user_t[u_first]
        fresh = start < ends[done:top]
        starts.append(start[fresh])
        first_sum += int(u_first.sum(where=fresh)) + base * starts[-1].size
        fresh_ends.append(ends[done:top][fresh])
        waiting = np.concatenate((waiting, fresh_ends[-1]))
        closed = np.searchsorted(waiting, user_t[-1], side="right")
        end_sum += int(np.searchsorted(user_t, waiting[:closed], side="left").sum()) + base * int(closed)
        waiting, done, base = waiting[closed:], top, base + user_t.size
    end_sum += base * waiting.size   # no request after these ends
    del first_t, ends
    starts, ends = np.concatenate([np.empty(0), *starts]), np.concatenate([np.empty(0), *fresh_ends])
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
    cycles = max(0, end_sum - first_sum - 1)
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
