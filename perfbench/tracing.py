"""Span tracing from outside the program: wrappers on the names each module calls.

``install`` replaces module attributes such as ``freshcache.search.waterfill``
with timing wrappers and returns a function that puts the originals back.
Nothing under ``src/`` changes; a target that no longer exists is reported as
absent instead of failing the run.

Each call of an ordinary target becomes one span (name, parent, start, end).
Hot targets, called hundreds of thousands of times per command, are folded
into one span per (parent, name) holding a call count and summed time, so
that tracing stays cheap and memory stays flat.  Self time of a span is its
time minus the time of its direct children, which is exact because a child's
interval always lies inside its parent's.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

from workloads import event_rate


class Span:
    __slots__ = ("name", "parent", "start", "end", "count", "total", "work")

    def __init__(self, name: str, parent: int, start: float | None = None, end: float | None = None,
                 count: int = 0, total: float = 0.0, work: int = 0):
        self.name = name
        self.parent = parent      # index of the enclosing span, -1 at the root
        self.start = start        # None for a folded hot span
        self.end = end
        self.count = count
        self.total = total
        self.work = work          # units of work the call did, where the target measures it


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._folded: dict[tuple[int, str], int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, hot: bool = False, measure=None):
        spans = self.spans
        stack = self._stack
        folded = self._folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                idx = folded.get((parent, name))
                if idx is None:
                    idx = folded[(parent, name)] = len(spans)
                    spans.append(Span(name, parent))
            else:
                idx = len(spans)
                spans.append(Span(name, parent))
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[idx]
                span.count += 1
                span.total += t1 - t0
                if not hot:
                    span.start, span.end = t0, t1
            if measure is not None:
                spans[idx].work += measure(args, result)
            return result

        return traced


def _n_events(args, _result) -> int:
    """Events a simulate_system call draws, computed from its inputs: sum of (u + s + r) * horizon."""
    scenario, _scheme, rates, horizon = args[:4]
    return round(event_rate(scenario, rates) * horizon)


# (module, attribute, span name, hot, work measure).  The span name is the layer
# that defines the function; the module is the one whose binding the caller uses.
TARGETS = (
    ("freshcache.cli", "main", "cli.main", False, None),
    ("freshcache.cli", "load_scenario", "scenario_io.load_scenario", False, None),
    ("freshcache.cli", "parse_scheme", "scenario_io.parse_scheme", False, None),
    ("freshcache.cli", "parse_rates", "scenario_io.parse_rates", False, None),
    ("freshcache.cli", "write_result_table", "scenario_io.write_result_table", False, None),
    ("freshcache.search", "build_result_table", "scenario_io.build_result_table", False, None),
    ("freshcache.scenario_io", "validate_scenario", "model.validate_scenario", False, None),
    ("freshcache.cli", "validate_scheme", "model.validate_scheme", False, None),
    ("freshcache.cli", "with_scaled_rates", "model.with_scaled_rates", False, None),
    ("freshcache.cli", "solve_exhaustive", "search.solve_exhaustive", False, lambda args, r: r.evaluated_count),
    ("freshcache.cli", "solve_sampled", "search.solve_sampled", False, lambda args, r: r.evaluated_count),
    ("freshcache.search", "make_solve_result", "search.make_solve_result", False, None),
    ("freshcache.search", "evaluate_scheme", "search.evaluate_scheme", False, None),
    ("freshcache.search", "waterfill", "rate_alloc.waterfill", True, None),
    ("freshcache.rate_alloc", "waterfill", "rate_alloc.waterfill", True, None),
    ("freshcache.search", "allocate", "rate_alloc.allocate", True, None),
    ("freshcache.oracle", "allocate", "rate_alloc.allocate", True, None),
    ("freshcache.search", "system_freshness", "freshness.system_freshness", True, None),
    ("freshcache.oracle", "system_freshness", "freshness.system_freshness", True, None),
    ("freshcache.cli", "system_freshness", "freshness.system_freshness", False, None),
    ("freshcache.cli", "brute_force_assignments", "oracle.brute_force_assignments", False,
     lambda args, r: args[0].n_relays ** len(args[0].holding_pairs)),
    ("freshcache.cli", "grid_allocate", "oracle.grid_allocate", False, None),
    ("freshcache.cli", "simulate_system", "simulator.simulate_system", False, _n_events),
    ("freshcache.simulator", "simulate_file", "simulator.simulate_file", False, None),
)

# What a wrapper in this process cannot see.
UNSEEN = (
    "calls inside --threads worker processes (their time shows only as the parent's wait in search.solve_exhaustive)",
    "the simulator's internal phases (event draws, search/merge, batch means) inside simulator.simulate_file",
)


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every present target; return (restore function, absent target names)."""
    saved = []
    absent = []
    for module_name, attr, name, hot, measure in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, hot, measure))

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore, absent


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: total time minus the time of direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.total
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += s.total - child[i]
    return dict(out)


SOLVES = ("search.solve_exhaustive", "search.solve_sampled")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced batch."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.total
        calls[s.name] += s.count
        work[s.name] += s.work
    own = self_times(spans)
    # Water-fills the enumeration itself makes sit directly under a solve span.  A
    # solve that ran in worker processes has none there, so its evaluations are
    # left out of the ratio rather than diluting it.
    direct = defaultdict(int)
    for s in spans:
        if s.name == "rate_alloc.waterfill" and s.parent >= 0 and spans[s.parent].name in SOLVES:
            direct[s.parent] += s.count
    seen_evals = sum(spans[i].work for i in direct)
    return {
        "search.assignments": work["search.solve_exhaustive"],
        "search.evals": work["search.solve_sampled"],
        "search.solve_s": sum(total[n] for n in SOLVES),
        "search.self_s": sum(own.get(n, 0.0) for n in SOLVES),
        "search.package_s": total["search.make_solve_result"],
        "rate_alloc.waterfill_calls": calls["rate_alloc.waterfill"],
        "rate_alloc.waterfill_s": total["rate_alloc.waterfill"],
        "rate_alloc.waterfill_per_eval": sum(direct.values()) / seen_evals if seen_evals else 0.0,
        "rate_alloc.allocate_calls": calls["rate_alloc.allocate"],
        "rate_alloc.allocate_s": total["rate_alloc.allocate"],
        "freshness.system_calls": calls["freshness.system_freshness"],
        "freshness.system_s": total["freshness.system_freshness"],
        "oracle.brute_force_s": total["oracle.brute_force_assignments"],
        "oracle.raw_assignments": work["oracle.brute_force_assignments"],
        "oracle.grid_s": total["oracle.grid_allocate"],
        "simulator.system_s": total["simulator.simulate_system"],
        "simulator.file_calls": calls["simulator.simulate_file"],
        "simulator.file_s": total["simulator.simulate_file"],
        "simulator.events": work["simulator.simulate_system"],
        "scenario_io.load_s": total["scenario_io.load_scenario"],
        "scenario_io.load_calls": calls["scenario_io.load_scenario"],
        "scenario_io.render_s": total["scenario_io.write_result_table"],
        "model.validate_s": total["model.validate_scenario"] + total["model.validate_scheme"],
        "model.scale_s": total["model.with_scaled_rates"],
        "cli.self_s": own.get("cli.main", 0.0),
    }
