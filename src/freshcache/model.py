"""Problem-instance types and feasibility validation.

A scenario describes an update server that keeps N files current, a set of
relays that cache copies subject to a per-relay capacity and a total
refresh-rate budget, and a set of users that each hold a private subset of
the files.  A cache scheme assigns every (user, file) holding to exactly one
relay.  All ids are 1-based and contiguous.

``AllocationEntry`` is the package's one per-holding record: built once per
holding, it checks the holding's two rates and derives from them the
objective factor mu and the water-filling weight.  ``sort_key`` is the
processing order every layer reads; ``Scenario.layout`` lays an instance out in it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

# Probability vectors (request probabilities, relay preferences) must sum to
# one within this absolute tolerance.
PROB_TOL = 1e-9

# Violation codes whose presence means the instance admits no cache scheme at
# all, as opposed to being merely malformed.
INFEASIBILITY_CODES = frozenset({"capacity-aggregate"})

Key = tuple[int, int]   # a holding: (user_id, file_id)


@dataclass(frozen=True)
class FileSpec:
    """One file kept current at the update server."""

    file_id: int
    server_rate: float  # expected server updates per unit time


@dataclass(frozen=True)
class Holding:
    """One file stored by a user: the user's refresh rate and request probability."""

    file_id: int
    user_rate: float
    request_prob: float


@dataclass(frozen=True)
class UserSpec:
    user_id: int
    holdings: tuple[Holding, ...]
    relay_prefs: tuple[float, ...]  # probability of directing a request to each relay


@dataclass(frozen=True)
class RelaySpec:
    relay_id: int
    capacity: int       # maximum number of holdings the relay may cache
    rate_budget: float  # total refresh rate the relay can spend on its holdings


def weight(user_rate: float, server_rate: float) -> float:
    """sqrt(u*s/(u+s)): the square-root weight that sets the water level. Symmetric in u, s; checks both rates.

    Rates near the float maximum overflow u*s or u+s; they raise DomainError rather than make an inf or nan weight.
    """
    check_positive("user_rate", user_rate)
    check_positive("server_rate", server_rate)
    w = math.sqrt(user_rate * server_rate / (user_rate + server_rate))
    if not math.isfinite(w):
        raise DomainError(f"user_rate {user_rate!r} and server_rate {server_rate!r} overflow the water-filling weight")
    return w


def check_scale(what: str, budget: float, weight_sum: float, server_sum: float) -> None:
    """Raise DomainError unless ``what``'s budget G is a number of at least 0 that keeps the water-fill in float range.

    With W and S the sums of the weights and server rates of the holdings it may take, every float of
    either water-fill is at most 2*W*(G + S), and ``kkt_check`` squares at most G + S, so both are finite
    when 4*W*(G + S) and (G + S)**2 are.
    """
    check_non_negative(f"{what} rate budget", budget)
    reach = budget + server_sum
    if not math.isfinite(4.0 * weight_sum * reach) or not math.isfinite(reach * reach):
        raise DomainError(f"{what} rate budget {budget!r} would overflow the water-fill")


@dataclass(frozen=True)
class AllocationEntry:
    """One holding, identified by (user_id, file_id), with its fixed rates and the values they set.

    ``mu`` = u/(u+s) is the holding's objective factor, so its freshness at
    relay rate r is mu * r/(r+s); ``weight`` is ``weight(u, s)``, which checks
    both rates when the entry is built.
    """

    key: Key
    user_rate: float
    server_rate: float
    mu: float = field(init=False, compare=False)
    weight: float = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", weight(self.user_rate, self.server_rate))
        object.__setattr__(self, "mu", self.user_rate / (self.user_rate + self.server_rate))


def sort_key(entry: AllocationEntry) -> tuple[float, Key]:
    """Canonical processing order: ascending mu/s, ties broken by (user_id, file_id)."""
    return (entry.mu / entry.server_rate, entry.key)


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance. Immutable; derived lookups are cached."""

    files: tuple[FileSpec, ...]
    users: tuple[UserSpec, ...]
    relays: tuple[RelaySpec, ...]

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_relays(self) -> int:
        return len(self.relays)

    @cached_property
    def file_by_id(self) -> dict[int, FileSpec]:
        return {f.file_id: f for f in self.files}

    @cached_property
    def user_by_id(self) -> dict[int, UserSpec]:
        return {u.user_id: u for u in self.users}

    @cached_property
    def entries(self) -> dict[Key, AllocationEntry]:
        """(user_id, file_id) -> the holding's entry, in document order; each holding's rates checked once per scenario.

        An unvalidated scenario's holding of an unknown file raises DomainError.
        """
        entries = {}
        for u in self.users:
            for h in u.holdings:
                if h.file_id not in self.file_by_id:
                    raise DomainError(f"user {u.user_id}: holding references unknown file {h.file_id!r}")
                entries[u.user_id, h.file_id] = AllocationEntry((u.user_id, h.file_id), h.user_rate, self.file_by_id[h.file_id].server_rate)
        return entries

    @cached_property
    def coef(self) -> dict[Key, tuple[float, ...]]:
        """(user_id, file_id) -> objective weights c = request_prob * relay_pref over relays 1..K; the one place c is computed.

        An unvalidated scenario's relay_prefs without one entry per relay raise DomainError, here and in ``layout``.
        """
        for u in self.users:
            if len(u.relay_prefs) != self.n_relays:
                raise DomainError(f"user {u.user_id}: relay_prefs length {len(u.relay_prefs)} != relay count {self.n_relays}")
        return {(u.user_id, h.file_id): tuple(h.request_prob * p for p in u.relay_prefs) for u in self.users for h in u.holdings}

    @cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        """The holdings in ``sort_key`` order: their document positions, then w, s, mu and the (n, K) ``coef`` as arrays.

        Raises DomainError (``check_scale``) for a relay budget that is negative, not finite or too large to water-fill.
        """
        entries = list(self.entries.values())
        order = sorted(range(len(entries)), key=lambda p: sort_key(entries[p]))
        ordered = [entries[p] for p in order]
        columns = ([e.weight for e in ordered], [e.server_rate for e in ordered], [e.mu for e in ordered])
        coef = np.array([self.coef[e.key] for e in ordered], dtype=float).reshape(len(order), self.n_relays)
        weight_sum, server_sum = sum(columns[0]), sum(columns[1])
        for r in self.relays:   # any relay may take every holding
            check_scale(f"relay {r.relay_id}", r.rate_budget, weight_sum, server_sum)
        return (np.array(order, dtype=np.intp), *(np.array(column, dtype=float) for column in columns), coef)

    @cached_property
    def holding_pairs(self) -> tuple[tuple[int, int], ...]:
        """(user_id, file_id) pairs in document order; the canonical assignment order."""
        return tuple(self.entries)


@dataclass(frozen=True)
class CacheScheme:
    """A placement: maps each (user_id, file_id) holding to one relay id."""

    assignment: dict[tuple[int, int], int]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def is_number(value, integer=False) -> bool:
    """The package's one number rule: a finite int or float, or any int when ``integer``; never a bool."""
    if isinstance(value, bool):
        return False
    if integer:
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_positive(name, value, integer=False) -> None:
    """Raise DomainError unless ``value`` is a number (an int when ``integer``) above zero."""
    if not is_number(value, integer) or value <= 0:
        raise DomainError(f"{name} must be a positive {'integer' if integer else 'finite number'}, got {value!r}")


def check_non_negative(name, value, integer=False) -> None:
    """Raise DomainError unless ``value`` is a number (an int when ``integer``) of at least zero."""
    if not is_number(value, integer) or value < 0:
        raise DomainError(f"{name} must be a non-negative {'integer' if integer else 'finite number'}, got {value!r}")


def _ids_in_order(ids: list) -> bool:
    """Whether ``ids`` are the ints 1..len(ids) in order; True == 1 and 1.0 == 1 would pass a plain list compare."""
    return all(is_number(i, integer=True) for i in ids) and ids == list(range(1, len(ids) + 1))


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Check structural and numeric invariants. Empty report means valid."""
    report: list[Violation] = []
    add = report.append

    files, users, relays = scenario.files, scenario.users, scenario.relays
    n, m, k = len(files), len(users), len(relays)
    if n == 0:
        add(Violation("files-empty", "scenario has no files"))
    if m == 0:
        add(Violation("users-empty", "scenario has no users"))
    if k == 0:
        add(Violation("relays-empty", "scenario has no relays"))

    if not _ids_in_order([f.file_id for f in files]):
        add(Violation("file-ids", "file ids must be 1..N in order"))
    if not _ids_in_order([u.user_id for u in users]):
        add(Violation("user-ids", "user ids must be 1..M in order"))
    if not _ids_in_order([r.relay_id for r in relays]):
        add(Violation("relay-ids", "relay ids must be 1..K in order"))

    for f in files:
        if not is_number(f.server_rate) or f.server_rate <= 0:
            add(Violation("server-rate", f"file {f.file_id}: server_rate must be positive, got {f.server_rate!r}"))

    cap_total = 0
    for r in relays:
        if not is_number(r.capacity, True) or r.capacity < 0:
            add(Violation("capacity-range", f"relay {r.relay_id}: capacity must be a non-negative integer, got {r.capacity!r}"))
        else:
            cap_total += r.capacity
        if not is_number(r.rate_budget) or r.rate_budget < 0:
            add(Violation("rate-budget", f"relay {r.relay_id}: rate_budget must be non-negative, got {r.rate_budget!r}"))
    if n > 0 and cap_total < n:
        add(Violation("capacity-aggregate", f"aggregate capacity below file count: {cap_total} < {n}"))

    valid_file_ids = {f.file_id for f in files}
    holder_of: dict[int, int] = {}
    for u in users:
        if not u.holdings:
            add(Violation("holdings-empty", f"user {u.user_id}: holdings are empty"))
        if len(u.relay_prefs) != k:
            add(Violation("relay-prefs-len", f"user {u.user_id}: relay_prefs length {len(u.relay_prefs)} != relay count {k}"))
        else:
            bad = [p for p in u.relay_prefs if not is_number(p) or p < 0 or p > 1]
            if bad:
                add(Violation("relay-prefs-range", f"user {u.user_id}: relay preference {bad[0]!r} outside [0, 1]"))
            elif abs(math.fsum(u.relay_prefs) - 1.0) > PROB_TOL:
                add(Violation("relay-prefs-sum", f"user {u.user_id}: relay_prefs sum != 1 (got {math.fsum(u.relay_prefs)!r})"))

        seen: set[int] = set()
        prob_ok = bool(u.holdings)
        for h in u.holdings:
            if h.file_id in seen:
                add(Violation("holding-duplicate", f"user {u.user_id}: file {h.file_id} listed twice"))
            seen.add(h.file_id)
            if not is_number(h.file_id, integer=True) or h.file_id not in valid_file_ids:
                add(Violation("holding-unknown-file", f"user {u.user_id}: holding references unknown file {h.file_id}"))
            if not is_number(h.user_rate) or h.user_rate <= 0:
                add(Violation("user-rate", f"user {u.user_id}, file {h.file_id}: user_rate must be positive, got {h.user_rate!r}"))
            if not is_number(h.request_prob) or h.request_prob < 0 or h.request_prob > 1:
                add(Violation("request-prob", f"user {u.user_id}, file {h.file_id}: request_prob {h.request_prob!r} outside [0, 1]"))
                prob_ok = False
        if prob_ok and abs(math.fsum(h.request_prob for h in u.holdings) - 1.0) > PROB_TOL:
            add(Violation("request-prob-sum", f"user {u.user_id}: request probabilities sum != 1"))
        for fid in sorted(seen):
            if fid in holder_of:
                add(Violation("file-shared", f"file {fid} held by users {holder_of[fid]} and {u.user_id}"))
            else:
                holder_of[fid] = u.user_id

    for fid in sorted(valid_file_ids - set(holder_of)):
        add(Violation("file-unheld", f"file {fid} not held by any user"))

    return report


def validate_scheme(scenario: Scenario, scheme: CacheScheme) -> list[Violation]:
    """Check a placement against a scenario. Empty report means valid."""
    report: list[Violation] = []
    add = report.append

    relay_ids = {r.relay_id for r in scenario.relays}
    counts = {rid: 0 for rid in relay_ids}
    expected = scenario.holding_pairs
    expected_set = set(expected)

    for (uid, fid) in expected:
        rid = scheme.assignment.get((uid, fid))
        if rid is None:
            add(Violation("holding-unassigned", f"unassigned holding (user {uid}, file {fid})"))
        elif not is_number(rid, integer=True) or rid not in relay_ids:   # True == 1 and 1.0 == 1 would pass `in`
            add(Violation("relay-unknown", f"holding (user {uid}, file {fid}) assigned to unknown relay {rid}"))
        else:
            counts[rid] += 1

    for key in sorted(scheme.assignment):
        if key not in expected_set:
            add(Violation("holding-unknown", f"assignment contains unknown holding (user {key[0]}, file {key[1]})"))

    for r in scenario.relays:
        if counts[r.relay_id] > r.capacity:
            add(Violation("relay-over-capacity", f"relay {r.relay_id} over capacity: {counts[r.relay_id]} > {r.capacity}"))

    return report


def with_scaled_rates(scenario: Scenario, target: str, factor: float) -> Scenario:
    """Return a copy with every user ("user") or server ("server") rate scaled by ``factor``."""
    if target not in ("user", "server"):
        raise DomainError(f"scale target must be 'user' or 'server', got {target!r}")
    check_positive("scale factor", factor)
    if target == "server":
        files = tuple(FileSpec(f.file_id, f.server_rate * factor) for f in scenario.files)
        return dataclasses.replace(scenario, files=files)
    users = tuple(
        UserSpec(
            u.user_id,
            tuple(Holding(h.file_id, h.user_rate * factor, h.request_prob) for h in u.holdings),
            u.relay_prefs,
        )
        for u in scenario.users
    )
    return dataclasses.replace(scenario, users=users)
