"""Slow, independent reference placement used to cross-check the exhaustive search.

``brute_force_assignments`` scores the raw K**H assignment product in one
numpy pass, sharing no enumeration or scoring code with the search module,
only its input, ``Scenario.layout``.  It reads each relay's holding counts
and block keys off the product as sums of one value per holding, gives each
distinct block a dense slot, and water-fills every relay's blocks of one size
in one ``waterfill_rows`` call, the batched pass the search's block tables
use.  It is deliberately small-scale and guarded.  Its rates come from the
water-fill the search uses, so ``verify`` certifies them separately, with
``rate_alloc.kkt_check``.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError, InfeasibleError
from .freshness import ObjectiveValue
from .model import Scenario
from .rate_alloc import waterfill_rows
from .search import make_solve_result

BRUTE_FORCE_LIMIT = 100_000


def _product_sum(rows) -> np.ndarray:
    """Entry j is the sum over holdings p of rows[p][digit p of vector j], for the whole K**H product.

    Built from the last holding outward, so the long axis stays innermost."""
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = (row[:, None] + acc).ravel()
    return acc


def brute_force_assignments(
    scenario: Scenario,
    *,
    allow_empty_relay: bool = False,
):
    """Exhaustively try every raw relay assignment of every holding; returns a SolveResult.

    The K**H product is an (H, K**H) array of relay indices in the smallest
    unsigned type that fits K - 1, columns in ``itertools.product`` order,
    less those that break a capacity or leave a relay empty.  A relay's
    holding counts and block keys are sums over the product, one value per
    holding: the key is the base-K number whose digit p is 1 where holding p
    sits on the relay, so distinct blocks get distinct keys.  Each key present
    gets a dense slot and its block is read off one vector that holds it.
    Every relay's blocks of one size go through one ``waterfill_rows`` call,
    holdings in ``Scenario.layout``'s order, a budget per row, so rates are
    ``allocate``'s bit for bit; each column is scored with
    ``system_freshness``'s float expression in its order, so values are the
    public API's bit for bit.  ``argmax`` takes the first maximum: ties
    resolve to the lexicographically smallest vector.  Raises InfeasibleError
    and DomainError as the solvers do, and GuardError past
    ``BRUTE_FORCE_LIMIT`` raw assignments or 256 times that many relay passes
    over them.
    """
    pairs = scenario.holding_pairs
    k, h = scenario.n_relays, len(pairs)
    if k == 0 or not pairs:
        raise InfeasibleError("scenario has no holdings or no relays to assign them to")
    raw_total = k**h
    if raw_total > BRUTE_FORCE_LIMIT:
        raise GuardError(f"{raw_total} raw assignments exceed the oracle limit {BRUTE_FORCE_LIMIT}")
    if k * raw_total > 256 * BRUTE_FORCE_LIMIT:   # a pass per relay over the product, a K x (feasible vectors) slot table
        raise GuardError(f"{k} relays x {raw_total} raw assignments exceed the oracle limit {256 * BRUTE_FORCE_LIMIT}")

    # Row p repeats each relay k**(h-1-p) times, so the last holding varies fastest; column j is vector j.
    raw = np.empty((h, raw_total), dtype=np.min_scalar_type(k - 1))
    for p in range(h):
        raw[p].reshape(k**p, k, -1)[...] = np.arange(k, dtype=raw.dtype)[:, None]
    feasible = np.ones(raw_total, dtype=bool)
    for idx, relay in enumerate(scenario.relays):
        count = _product_sum([(np.arange(k) == idx).astype(np.min_scalar_type(h))] * h)
        feasible &= (count >= (0 if allow_empty_relay else 1)) & (count <= relay.capacity)
    feasible = np.flatnonzero(feasible)
    evaluated = len(feasible)
    if evaluated == 0:
        raise InfeasibleError("no feasible cache scheme under the capacity constraints")
    raw = raw.take(feasible, axis=1)

    # Keys are at most sum(place): below K**H for K >= 2, H for K = 1.  So a dense table maps each to
    # one vector holding its block, and the keys present, in ascending order, are the relay's slots.
    # slot_of[relay, j] is vector j's slot; a block row marks its holdings in sort_key order.
    order, weights, server_rates = scenario.layout[:3]
    place = k ** np.arange(h - 1, -1, -1, dtype=np.intp)
    columns = np.arange(evaluated)
    blocks, slot_of = [], np.empty((k, evaluated), dtype=np.intp)
    for idx in range(k):
        keys = _product_sum(place[:, None] * (np.arange(k) == idx)).take(feasible)
        holder = np.full(int(place.sum()) + 1, evaluated)
        holder[keys] = columns
        present = holder < evaluated
        slot_of[idx] = (np.cumsum(present) + (sum(map(len, blocks)) - 1))[keys]
        blocks.append((raw[order[:, None], holder[present]] == idx).T)
    slot_relay = np.repeat(np.arange(k), [len(b) for b in blocks])
    blocks = np.concatenate(blocks)
    budgets = np.array([r.rate_budget for r in scenario.relays])[slot_relay]
    sizes = blocks.sum(axis=1)
    table = np.zeros((len(blocks), h))
    for c in np.unique(sizes[sizes > 0]).tolist():
        slots = np.flatnonzero(sizes == c)
        cols = (np.flatnonzero(blocks[slots]) % h).reshape(len(slots), c)
        table[slots[:, None], order[cols]] = waterfill_rows(weights[cols], server_rates[cols], budgets[slots])
    rate_of, slot_of = table.T, slot_of.ravel()

    # A holding's term depends only on its slot, whose relay is known: score each slot once, gather per
    # column through the flat slot table, where vector j's slot on relay idx sits at idx * evaluated + j.
    values, p = np.zeros(evaluated), 0
    for user in scenario.users:
        user_total = np.zeros(evaluated)
        prefs = np.array(user.relay_prefs)[slot_relay]
        for holding in user.holdings:
            e, r = scenario.entries[pairs[p]], rate_of[p]
            term = (holding.request_prob * prefs) * (e.mu * (r / (r + e.server_rate)))
            user_total += term[slot_of[raw[p].astype(np.intp) * evaluated + columns]]
            p += 1
        values += user_total

    # The trace keeps each vector that beats every earlier one, numbered from 1 like evaluated_count.
    improving = np.flatnonzero(values > np.concatenate(([-np.inf], np.maximum.accumulate(values)[:-1])))
    trace = [(int(i) + 1, float(values[i])) for i in improving]
    best = int(np.argmax(values))
    best_val, best_vector = float(values[best]), tuple(int(v) + 1 for v in raw[:, best])
    return make_solve_result(scenario, best_vector, ObjectiveValue.of_sum(best_val, scenario), trace, evaluated)
