"""Slow, independent reference placement used to cross-check the exhaustive search.

``brute_force_assignments`` scores every raw assignment of the K**H product
with numpy, sharing no enumeration or scoring code with the search module,
only its input, ``Scenario.layout``.  It walks the product a chunk at a time,
so its memory does not grow with the product: a chunk is one prefix of the
leading digits times every vector of the trailing ones.  Each relay's
block is keyed by its H-bit holding mask, and every block a feasible vector
can hold is water-filled up front, every relay's blocks of one size in one
``waterfill_rows`` call, the batched pass the search's block tables use.  It
is deliberately small-scale, guarded on its work, K passes over K**H
vectors, and on its mask table.  Its rates come from the water-fill
the search uses, so ``verify`` certifies them separately, with
``rate_alloc.kkt_check``.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .errors import GuardError, InfeasibleError
from .freshness import ObjectiveValue
from .model import Scenario
from .rate_alloc import waterfill_rows
from .search import make_solve_result

RELAY_PASS_LIMIT = 150_000_000   # K * K**H: every chunk takes a pass per relay over its vectors
MASK_BITS = 16   # at K >= 2 a relay's block is looked up by its H-bit mask in a table of 2**H slots per relay
_CHUNK = 1 << 13   # most tail vectors in a chunk; its per-relay arrays stay under 64 times that many cells


def check_oracle_limits(scenario: Scenario) -> None:
    """Raise GuardError, naming the quantity and its limit, before any array is built, for a pass too large to run.

    The limits bound a pass per relay over the raw K**H product and the holding-mask table, which K = 1 does
    not need, and so the product: one vector at K = 1, 2**16 at K = 2, 150M / K at K >= 3 (3**16 at most).
    """
    k, h = scenario.n_relays, len(scenario.holding_pairs)
    raw_total = k**h
    if k * raw_total > RELAY_PASS_LIMIT:
        raise GuardError(f"{k} relays x {raw_total} raw assignments exceed the oracle limit {RELAY_PASS_LIMIT}")
    if k > 1 and h > MASK_BITS:
        raise GuardError(f"{h} holdings over {k} relays exceed the oracle's holding-mask limit {MASK_BITS}")


def brute_force_assignments(
    scenario: Scenario,
    *,
    allow_empty_relay: bool = False,
):
    """Exhaustively try every raw relay assignment of every holding; returns a SolveResult.

    Vectors are the K**H product in ``itertools.product`` order, less those
    that break a capacity or leave a relay empty.  The last t digits, with
    K**t at most ``_CHUNK`` vectors, are the tail: its per-relay holding
    counts and masks are built once, and a chunk, one prefix of the leading
    digits times the whole tail, adds the prefix's own, whose bits are
    disjoint from the tail's.  A relay's mask sets bit p where holding p sits
    on it, so it keys the relay's block.  A block of c holdings appears on
    relay k exactly when c fits relay k and the other H - c holdings fit the
    other relays, so every such block is filled up front, once: one
    ``waterfill_rows`` call per block size over every relay, holdings in
    ``Scenario.layout``'s order, a budget per row, so rates are
    ``allocate``'s bit for bit.  Each holding's term is computed
    once per block, and a chunk's vectors add them user by user in
    ``system_freshness``'s order, so values are the public API's bit for
    bit.  The running maximum, the trace and the first maximum carry from
    chunk to chunk: ties resolve to the lexicographically smallest vector.
    Raises InfeasibleError and DomainError as the solvers do, and GuardError
    past one of ``check_oracle_limits``' two limits.
    """
    pairs = scenario.holding_pairs
    k, h = scenario.n_relays, len(pairs)
    if k == 0 or not pairs:
        raise InfeasibleError("scenario has no holdings or no relays to assign them to")
    check_oracle_limits(scenario)
    lo, caps = (0 if allow_empty_relay else 1), [min(r.capacity, h) for r in scenario.relays]
    room = sum(caps)
    if room < h or lo * k > h or min(caps) < lo:
        raise InfeasibleError("no feasible cache scheme under the capacity constraints")

    # Block c-subsets of layout positions, relay by relay for each c; slot_of[idx, mask] is a block's row.
    order, weights, server_rates, mus, coef = scenario.layout
    bit = 1 << np.arange(h) if k > 1 else np.zeros(h, dtype=np.intp)   # K = 1: one block, one mask
    sizes = [
        (c, [idx for idx in range(k) if c <= caps[idx] and lo * (k - 1) <= h - c <= room - caps[idx]])
        for c in range(max(lo, 1), h + 1)
    ]
    sizes = [(c, np.array(ks)) for c, ks in sizes if ks]
    slot_of = np.zeros((k, int(bit.sum()) + 1), dtype=np.intp)
    terms = np.zeros((h, sum(len(ks) * comb(h, c) for c, ks in sizes)))   # terms[p, row]: holding p's, on its row
    budgets, first = np.array([r.rate_budget for r in scenario.relays]), 0
    for c, ks in sizes:
        cols = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(h), c)), np.intp).reshape(-1, c)
        rows = first + np.arange(len(ks) * len(cols))
        slot_of[ks[:, None], bit[order[cols]].sum(axis=1)] = rows.reshape(len(ks), -1)
        cols, rel = np.tile(cols, (len(ks), 1)), np.repeat(ks, len(cols))
        r = waterfill_rows(weights[cols], server_rates[cols], budgets[rel])
        terms[order[cols], rows[:, None]] = coef[cols, rel[:, None]] * (mus[cols] * (r / (r + server_rates[cols])))
        first += len(cols)

    t = max(t for t in range(h + 1) if k**t <= _CHUNK and k ** (t + 1) <= 64 * _CHUNK)
    width, head_bits = k**t, bit[: h - t]
    # Tail digit q of vector j is d on the d-th of k runs inside each of its k**q runs; q's bit then counts for d.
    tail_at, tail_counts = np.empty((t, width), dtype=np.int32), np.zeros((k, width), dtype=np.min_scalar_type(t))
    tail_keys = np.zeros((k, width), dtype=np.int32)
    for q, b in enumerate(bit[h - t :]):
        tail_at[q].reshape(k**q, k, -1)[...] = np.arange(k)[:, None]
        for d in range(k):
            tail_counts[d].reshape(k**q, k, -1)[:, d] += 1
            tail_keys[d].reshape(k**q, k, -1)[:, d] += b
    tail_keys += np.arange(k)[:, None] * slot_of.shape[1]   # keys into the flat slot_of
    tail_at *= width
    tail_at += np.arange(width)   # tail holding q's own relay's entry in a flat (K, width) array
    caps = np.array(caps)[:, None]
    users = [len(u.holdings) for u in scenario.users]
    best, trace, evaluated = -np.inf, [], 0
    for head in itertools.product(range(k), repeat=h - t):
        counts = np.bincount(head, minlength=k)[:, None]
        cols = np.flatnonzero(((tail_counts >= lo - counts) & (tail_counts <= caps - counts)).all(axis=0))
        # Each relay's block row for every tail vector; holding p's term is read at its own relay's.
        slots = slot_of.take(tail_keys + np.bincount(head, head_bits, k).astype(np.intp)[:, None]).ravel()
        at = itertools.chain((cols + d * width for d in head), (q.take(cols) for q in tail_at))
        found = (term.take(slots.take(a)) for term, a in zip(terms, at))
        values = np.zeros(len(cols))
        for n in users:
            user_total = np.zeros(len(cols))
            for term in itertools.islice(found, n):
                user_total += term
            values += user_total
        # The trace keeps each vector that beats every earlier one, numbered from 1 like evaluated_count.
        improving = np.flatnonzero(values > np.maximum.accumulate(np.concatenate(([best], values)))[:-1])
        trace += [(evaluated + int(i) + 1, float(values[i])) for i in improving]
        if len(improving):
            best, j = values[improving[-1]], cols[improving[-1]]
            best_vector = tuple(d + 1 for d in head + tuple((tail_at[:, j] // width).tolist()))
        evaluated += len(cols)
    return make_solve_result(scenario, best_vector, ObjectiveValue.of_sum(trace[-1][1], scenario), trace, evaluated)
