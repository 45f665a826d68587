"""Command-line interface.

Subcommands: solve, allocate, freshness, simulate, verify, sweep.
Exit codes: 0 success, 1 verification mismatch, 2 validation/parse failure,
3 infeasible instance, 4 search/oracle/simulator guard tripped, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import (
    DomainError,
    FreshCacheError,
    InfeasibleError,
    OracleScaleError,
    ScenarioValidationError,
    SearchBudgetError,
    SimulationScaleError,
)
from .freshness import file_freshness, system_freshness, user_freshness
from .model import INFEASIBILITY_CODES, Scenario, check_positive, validate_scheme, with_scaled_rates
from .oracle import brute_force_assignments
from .rate_alloc import allocate, kkt_check
from .search import SolveResult, relay_inputs, solve_exhaustive, solve_sampled
from .scenario_io import (
    _TABLE_HEADER,
    load_scenario,
    parse_rates,
    parse_scheme,
    read_document,
    result_rows,
    write_result_table,
    write_trace,
)
from .simulator import simulate_system

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_IO = 5

KKT_TOLERANCE = 1e-6


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_scheme(path: str, scenario: Scenario):
    scheme = parse_scheme(read_document(path))
    report = validate_scheme(scenario, scheme)
    if report:
        raise ScenarioValidationError(
            "scheme failed validation: " + "; ".join(v.message for v in report), report=report
        )
    return scheme


def _load_rates(path: str, scenario: Scenario):
    rates = parse_rates(read_document(path))
    unknown = [key for key in sorted(rates) if key not in scenario.entries]
    if unknown:
        raise DomainError("rate table names unknown holdings: " + ", ".join(f"(user {u}, file {f})" for u, f in unknown))
    return rates


def _json_float(x: float):
    return x if math.isfinite(x) else None


def _result_json(result: SolveResult) -> str:
    scenario = result.scenario
    doc = {
        "objective_sum": result.objective.sum_form,
        "objective_mean": result.objective.mean_form,
        "evaluated_count": result.evaluated_count,
        "assignment": [
            {"user": uid, "file": fid, "relay": relay}
            for (uid, fid), relay in sorted(result.best_scheme.assignment.items())
        ],
        "rates": [
            {"user": uid, "file": fid, "rate": rate}
            for relay_id in sorted(result.best_rates)
            for (uid, fid), rate in sorted(result.best_rates[relay_id].rates.items())
        ],
        "relays": [
            {
                "relay": relay_id,
                "alpha": alloc.diagnostics.alpha,
                "beta": alloc.diagnostics.beta,
                "water_level": _json_float(alloc.diagnostics.water_level),
                "dropped": [list(k) for k in sorted(alloc.diagnostics.dropped_keys)],
            }
            for relay_id, alloc in sorted(result.best_rates.items())
        ],
        "trace": [[i, v] for i, v in result.trace],
        "table": {
            "rows": [dict(zip(_TABLE_HEADER, row)) for row in result_rows(result)],
            "footer": {
                "users": scenario.n_users,
                "relays": scenario.n_relays,
                "files": scenario.n_files,
                "objective_sum": result.objective.sum_form,
                "objective_mean": result.objective.mean_form,
            },
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _run_solve(scenario: Scenario, args) -> SolveResult:
    check_positive("threads", args.threads, True)   # accepted in both modes and ignored, but checked the same way
    check_positive("budget", args.budget, True)     # used only in sampled mode, but checked in both
    if args.mode == "sampled":
        return solve_sampled(scenario, args.budget, args.seed, allow_empty_relay=args.allow_empty_relay)
    return solve_exhaustive(scenario, allow_empty_relay=args.allow_empty_relay)


def _cmd_solve(scenario: Scenario, args) -> tuple[str, int]:
    result = _run_solve(scenario, args)
    if args.trace:
        Path(args.trace).write_text(write_trace(result))
    text = _result_json(result) if args.format == "json" else write_result_table(result, fmt=args.format)
    return text, EXIT_OK


def _kkt_line(relay_id: int, alloc_input, alloc) -> tuple[str, bool]:
    """One relay's diagnostics and KKT residuals as ``allocate`` and ``verify`` print them, and whether they certify."""
    report = kkt_check(alloc_input, alloc, KKT_TOLERANCE)
    diag = alloc.diagnostics
    line = (
        f"relay={relay_id} alpha={diag.alpha:.6f} beta={diag.beta:.6f} "
        f"water_level={diag.water_level:.6f} stationarity={report.stationarity_residual:.3e} "
        f"budget_slackness={report.budget_slackness_residual:.3e} "
        f"drop_slackness={report.drop_slackness_residual:.3e} "
        f"dual_feasibility={report.dual_feasibility_residual:.3e} satisfied={report.satisfied}"
    )
    return line, report.satisfied


def _cmd_allocate(scenario: Scenario, args) -> tuple[str, int]:
    scheme = _load_scheme(args.scheme, scenario)
    lines = ["file_index,user_index,relay_index,relay_rate"]
    reports = []
    inputs = relay_inputs(scenario, scheme)
    rows = []
    for relay_id in sorted(inputs):
        try:
            alloc = allocate(inputs[relay_id])
        except DomainError as exc:   # a budget out of scale: name its relay
            raise DomainError(f"relay {relay_id}: {exc}") from exc
        for (uid, fid), rate in alloc.rates.items():
            rows.append((fid, uid, relay_id, rate))
        reports.append(_kkt_line(relay_id, inputs[relay_id], alloc)[0])
    rows.sort()
    lines.extend(f"{fid},{uid},{relay_id},{rate:.4f}" for fid, uid, relay_id, rate in rows)
    lines.extend(reports)
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_freshness(scenario: Scenario, args) -> tuple[str, int]:
    scheme = _load_scheme(args.scheme, scenario)
    rates = _load_rates(args.rates, scenario)
    lines = []
    for user in scenario.users:
        value = user_freshness(scenario, scheme, rates, user.user_id)
        lines.append(f"user={user.user_id} freshness={value:.6f}")
    objective = system_freshness(scenario, scheme, rates)
    lines.append(f"objective_sum={objective.sum_form:.6f}")
    lines.append(f"objective_mean={objective.mean_form:.6f}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_simulate(scenario: Scenario, args) -> tuple[str, int]:
    scheme = _load_scheme(args.scheme, scenario)
    rates = _load_rates(args.rates, scenario)
    sim = simulate_system(scenario, scheme, rates, args.horizon, args.seed)
    analytic = system_freshness(scenario, scheme, rates)
    lines = ["user_index,file_index,relay_index,relay_rate,analytic,estimate,half_width_95,cycles"]
    for (uid, fid), e in scenario.entries.items():
        est, rate = sim.estimates[uid, fid], rates[uid, fid]
        point = file_freshness(e.user_rate, e.server_rate, rate)
        lines.append(
            f"{uid},{fid},{scheme.assignment[uid, fid]},{rate:.4f},"
            f"{point:.6f},{est.freshness_estimate:.6f},{est.half_width_95:.6f},{est.cycles_observed}"
        )
    lines.append(f"aggregate_sum_estimate={sim.aggregate.sum_form:.6f}")
    lines.append(f"aggregate_mean_estimate={sim.aggregate.mean_form:.6f}")
    lines.append(f"analytic_sum={analytic.sum_form:.6f}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_verify(scenario: Scenario, args) -> tuple[str, int]:
    check_positive("grid steps", args.grid_steps, True)   # accepted and ignored, but checked as threads is
    check_positive("threads", args.threads, True)         # accepted and ignored, but checked as solve checks it
    scenario.layout   # the search's first check, cached: a budget out of scale exits 2 before the oracle's guard
    reference = brute_force_assignments(scenario, allow_empty_relay=args.allow_empty_relay)
    solver = solve_exhaustive(scenario, allow_empty_relay=args.allow_empty_relay)
    objectives_match = solver.objective.sum_form == reference.objective.sum_form
    assignments_match = solver.best_scheme.assignment == reference.best_scheme.assignment
    lines = [
        f"exhaustive_objective={solver.objective.sum_form:.12f}",
        f"oracle_objective={reference.objective.sum_form:.12f}",
        f"objectives_match={objectives_match}",
        f"assignments_match={assignments_match}",
    ]
    # Each relay's rates are certified optimal by their KKT residuals, at any number of holdings.
    certified = True
    inputs = relay_inputs(scenario, solver.best_scheme)
    for relay_id in sorted(solver.best_rates):
        line, ok = _kkt_line(relay_id, inputs[relay_id], solver.best_rates[relay_id])
        certified = certified and ok
        lines.append(f"kkt_check {line}")
    passed = objectives_match and assignments_match and certified
    lines.append(f"verify={'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n", EXIT_OK if passed else EXIT_MISMATCH


def _cmd_sweep(scenario: Scenario, args) -> tuple[str, int]:
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip()]
    except ValueError as exc:
        raise DomainError(f"factors must be a comma-separated list of numbers, got {args.factors!r}") from exc
    if not factors:
        raise DomainError("factors must contain at least one number")
    scaled = [with_scaled_rates(scenario, args.scale, factor) for factor in factors]
    for each in scaled:   # every factor's scale checks, cached, before the first solve
        each.layout
    lines = ["factor,objective_sum"]
    for factor, each in zip(factors, scaled):
        lines.append(f"{factor:g},{_run_solve(each, args).objective.sum_form:.6f}")
    return "\n".join(lines) + "\n", EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at first use; it binds no ``_cmd_*`` function, which ``main`` looks up by name."""
    parser = argparse.ArgumentParser(prog="freshcache", description="Freshness-optimal cache placement and rate allocation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=False, sampled=False):
        """Every command's flags; ``solver`` adds the solver's, ``sampled`` those and the sampled mode's."""
        p.add_argument("--scenario", required=True, help="scenario file path or bundled fixture name")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        if sampled:
            p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
            p.add_argument("--budget", type=int, default=10_000, help="evaluation budget for sampled mode")
            p.add_argument("--seed", type=int, default=0, help="seed for sampled mode")
        if solver or sampled:
            p.add_argument("--allow-empty-relay", action="store_true", help="permit relays with no assigned holdings")
            p.add_argument(
                "--threads", type=int, default=1,
                help="accepted for compatibility; has no effect (exhaustive search runs in one process)",
            )

    p_solve = sub.add_parser("solve", help="find the best placement and its rate allocation")
    add_common(p_solve, sampled=True)
    p_solve.add_argument("--format", choices=("csv", "table", "json"), default="csv")
    p_solve.add_argument("--trace", default=None, help="write the improvement trace CSV to this file")

    p_alloc = sub.add_parser("allocate", help="allocate rate budgets for a fixed placement")
    add_common(p_alloc)
    p_alloc.add_argument("--scheme", required=True, help="placement document")

    p_fresh = sub.add_parser("freshness", help="score a fixed placement and rate table")
    add_common(p_fresh)
    p_fresh.add_argument("--scheme", required=True)
    p_fresh.add_argument("--rates", required=True, help="rate table document")

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of the analytic freshness values")
    add_common(p_sim)
    p_sim.add_argument("--scheme", required=True)
    p_sim.add_argument("--rates", required=True)
    p_sim.add_argument("--horizon", type=float, default=100_000.0)
    p_sim.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="cross-check the solver against the brute-force oracle and certify its rates")
    add_common(p_verify, solver=True)
    p_verify.add_argument(
        "--grid-steps", type=int, default=1000,
        help="accepted for compatibility; has no effect (each relay's rates are certified by their KKT residuals)",
    )

    p_sweep = sub.add_parser("sweep", help="re-solve under scaled user or server rates")
    add_common(p_sweep, sampled=True)
    p_sweep.add_argument("--scale", choices=("user", "server"), required=True)
    p_sweep.add_argument("--factors", required=True, help="comma-separated scale factors")

    return parser


# Exit code of each error type; an error takes the entry of the first class in its MRO listed here.
_EXIT_CODES = {
    InfeasibleError: EXIT_INFEASIBLE,
    SearchBudgetError: EXIT_GUARD,
    OracleScaleError: EXIT_GUARD,
    SimulationScaleError: EXIT_GUARD,
    FreshCacheError: EXIT_VALIDATION,
    OSError: EXIT_IO,
}



def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ScenarioValidationError) and exc.report and {v.code for v in exc.report} <= INFEASIBILITY_CODES:
        return EXIT_INFEASIBLE
    return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = globals()[f"_cmd_{args.command}"](load_scenario(args.scenario), args)
        _emit(text, args.out)
        return code
    except (FreshCacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
