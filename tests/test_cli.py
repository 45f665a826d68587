"""End-to-end command-line interface tests."""

import ast
import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import freshcache.cli
from freshcache import serialize_scenario
from freshcache.cli import main
from freshcache.errors import (
    FreshCacheError,
    InfeasibleError,
    OracleScaleError,
    ScenarioValidationError,
    SearchBudgetError,
    SimulationScaleError,
)
from freshcache.model import Violation
from freshcache.scenario_io import serialize_rates, serialize_scheme

from conftest import REFERENCE_ASSIGNMENT, REFERENCE_RATES
from conftest import random_scenario, uncapped_scenario

from freshcache import CacheScheme


@pytest.fixture()
def scheme_file(tmp_path, reference_scheme):
    path = tmp_path / "scheme.yaml"
    path.write_text(serialize_scheme(reference_scheme))
    return str(path)


@pytest.fixture()
def rates_file(tmp_path):
    path = tmp_path / "rates.yaml"
    path.write_text(serialize_rates(REFERENCE_RATES))
    return str(path)


class TestSolveCommand:
    def test_exhaustive_csv(self, capsys):
        code = main(["solve", "--scenario", "table1", "--threads", "1"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("file_index,")
        assert "objective_sum=0.531856" in captured.out
        value = float(next(l for l in lines if l.startswith("objective_sum=")).split("=")[1])
        assert value >= 0.5319 - 5e-4

    def test_json_format(self, capsys):
        code = main(["solve", "--scenario", "table1", "--threads", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["objective_sum"] == pytest.approx(0.531856298, abs=1e-6)
        assert doc["evaluated_count"] == 40110
        assignment = {(e["user"], e["file"]): e["relay"] for e in doc["assignment"]}
        assert assignment == REFERENCE_ASSIGNMENT
        assert doc["trace"][-1][1] == doc["objective_sum"]

    def test_out_and_trace_files(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "solve", "--scenario", "table1", "--threads", "1",
                "--out", str(out), "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_text().startswith("file_index,")
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0] == "iteration,best_objective_sum"
        assert len(trace_lines) >= 2

    def test_sampled_mode(self, capsys):
        code = main(
            ["solve", "--scenario", "table1", "--mode", "sampled", "--budget", "2000", "--seed", "7"]
        )
        captured = capsys.readouterr()
        assert code == 0
        value = float(
            next(l for l in captured.out.splitlines() if l.startswith("objective_sum=")).split("=")[1]
        )
        assert value >= 0.52

    def test_uncapped_limit_guard_exit_code(self, tmp_path, capsys):
        path = tmp_path / "uncapped.yaml"
        path.write_text(serialize_scenario(uncapped_scenario(60, 6)))
        code = main(["solve", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "exceeds the enumeration limit" in captured.err

    def test_infeasible_scenario_exit_code(self, tmp_path, capsys):
        doc = """
files:
  - {id: 1, server_rate: 2.0}
  - {id: 2, server_rate: 3.0}
users:
  - id: 1
    holdings:
      - {file: 1, user_rate: 4.0, request_prob: 0.5}
      - {file: 2, user_rate: 5.0, request_prob: 0.5}
    relay_prefs: [1.0]
relays:
  - {id: 1, capacity: 1, rate_budget: 6.0}
"""
        path = tmp_path / "tight.yaml"
        path.write_text(doc)
        code = main(["solve", "--scenario", str(path), "--threads", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error" in captured.err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("files: [\n")
        code = main(["solve", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--scenario", str(tmp_path / "absent.yaml")])
        captured = capsys.readouterr()
        assert code == 5
        assert "error" in captured.err

    def test_missing_path_named_like_a_fixture_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--scenario", str(tmp_path / "no" / "such" / "table1.yaml")])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert "error" in captured.err


class TestAllocateCommand:
    def test_rate_table_and_kkt_reports(self, scheme_file, capsys):
        code = main(["allocate", "--scenario", "table1", "--scheme", scheme_file])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "file_index,user_index,relay_index,relay_rate"
        assert "7,3,3,4.5573" in lines
        assert "1,1,1,2.4832" in lines
        relay_lines = [l for l in lines if l.startswith("relay=")]
        assert len(relay_lines) == 3
        assert all("satisfied=True" in l for l in relay_lines)
        assert all("water_level=" in l for l in relay_lines)

    def test_prints_the_certificate_verify_prints(self, scheme_file, capsys):
        # The scheme is table1's optimum, so both commands certify the same rates on the same relays.
        assert main(["allocate", "--scenario", "table1", "--scheme", scheme_file]) == 0
        relay_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("relay=")]
        assert main(["verify", "--scenario", "table1"]) == 0
        assert [f"kkt_check {line}" for line in relay_lines] == _kkt_lines(capsys.readouterr().out)

    def test_invalid_scheme_exit_code(self, tmp_path, capsys):
        partial = dict(REFERENCE_ASSIGNMENT)
        del partial[(1, 1)]
        path = tmp_path / "partial.yaml"
        path.write_text(serialize_scheme(CacheScheme(partial)))
        code = main(["allocate", "--scenario", "table1", "--scheme", str(path)])
        capsys.readouterr()
        assert code == 2


class TestFreshnessCommand:
    def test_per_user_and_objective(self, scheme_file, rates_file, capsys):
        code = main(
            ["freshness", "--scenario", "table1", "--scheme", scheme_file, "--rates", rates_file]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert "user=3 freshness=0.128353" in lines
        assert "objective_sum=0.531855" in lines
        assert "objective_mean=0.132964" in lines

    def test_duplicate_rate_entry_exit_code(self, tmp_path, scheme_file, capsys):
        rates = tmp_path / "dup_rates.yaml"
        rates.write_text(serialize_rates(REFERENCE_RATES) + "- {user: 1, file: 1, rate: 9.0}\n")
        code = main(["freshness", "--scenario", "table1", "--scheme", scheme_file, "--rates", str(rates)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "duplicate" in captured.err


@pytest.fixture()
def unknown_holding_rates_file(tmp_path):
    # table1's optimal rates plus a holding table1 does not have.
    path = tmp_path / "unknown_rates.yaml"
    path.write_text(serialize_rates({**REFERENCE_RATES, (9, 99): -5.0}))
    return str(path)


@pytest.mark.parametrize("flag", ["--scenario", "--scheme", "--rates"])
def test_document_that_is_not_utf8_exits_2(flag, scheme_file, rates_file, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"files: [\xff\xfe]\n")
    paths = {"--scenario": "table1", "--scheme": scheme_file, "--rates": rates_file, flag: str(bad)}
    code = main(["freshness", *(arg for item in paths.items() for arg in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not valid UTF-8" in captured.err


@pytest.mark.parametrize(
    "flag, old, new, message",
    [
        # table1's file 1 with its server rate written twice, 99 and then 4: a loader that kept the last read 4.
        ("--scenario", "{id: 1, server_rate: 4}", "{id: 1, server_rate: 99.0, server_rate: 4}",
         "duplicate key 'server_rate' at line 3"),
        ("--scheme", "assignment:\n", "assignment: []\nassignment:\n", "duplicate key 'assignment' at line 2"),
        ("--rates", "  rate: 2.4832\n", "  rate: 9.0\n  rate: 2.4832\n", "duplicate key 'rate' at line 5"),
    ],
    ids=["scenario", "scheme", "rates"],
)
def test_duplicate_key_exits_2(flag, old, new, message, scheme_file, rates_file, tmp_path, capsys):
    paths = {"--scenario": freshcache.scenario_io.fixture_path("table1"), "--scheme": Path(scheme_file), "--rates": Path(rates_file)}
    text = paths[flag].read_text()
    assert old in text
    paths[flag] = tmp_path / "twice.yaml"
    paths[flag].write_text(text.replace(old, new, 1))
    code = main(["freshness", *(str(arg) for item in paths.items() for arg in item)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["freshness", "simulate"])
def test_rate_table_with_unknown_holding_exit_code(command, scheme_file, unknown_holding_rates_file, capsys):
    code = main([command, "--scenario", "table1", "--scheme", scheme_file, "--rates", unknown_holding_rates_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown holdings: (user 9, file 99)" in captured.err


# simulate's stdout on table1 at --horizon 20000 --seed 1: the reference rates, and the same rates with
# holding (2, 4) refreshed faster than its user requests (u < r) and holding (4, 10) never refreshed.
SIMULATE_OUT = {
    "reference": """\
user_index,file_index,relay_index,relay_rate,analytic,estimate,half_width_95,cycles
1,1,1,2.4832,0.255347,0.257302,0.003623,61907
1,2,1,3.0311,0.386599,0.383580,0.003665,99942
1,3,1,3.1505,0.409788,0.409554,0.003726,122475
2,4,1,0.8765,0.063732,0.062938,0.002418,15032
2,5,2,3.4239,0.345900,0.345002,0.003601,110733
2,6,2,3.3311,0.382654,0.386686,0.005159,85192
3,7,3,4.5573,0.269796,0.268803,0.003694,86054
3,8,2,3.2450,0.319925,0.317985,0.004165,88985
4,9,1,2.4586,0.232682,0.233048,0.003669,79851
4,10,3,3.4427,0.182294,0.182867,0.002597,43695
aggregate_sum_estimate=0.531932
aggregate_mean_estimate=0.132983
analytic_sum=0.531855
""",
    "u-below-r": """\
user_index,file_index,relay_index,relay_rate,analytic,estimate,half_width_95,cycles
1,1,1,2.4832,0.255347,0.257302,0.003623,61907
1,2,1,3.0311,0.386599,0.383580,0.003665,99942
1,3,1,3.1505,0.409788,0.409554,0.003726,122475
2,4,1,15.0000,0.357143,0.358639,0.003198,85939
2,5,2,3.4239,0.345900,0.345002,0.003601,110733
2,6,2,3.3311,0.382654,0.386686,0.005159,85192
3,7,3,4.5573,0.269796,0.268803,0.003694,86054
3,8,2,3.2450,0.319925,0.317985,0.004165,88985
4,9,1,2.4586,0.232682,0.233048,0.003669,79851
4,10,3,0.0000,0.000000,0.000000,0.000000,0
aggregate_sum_estimate=0.522245
aggregate_mean_estimate=0.130561
analytic_sum=0.522116
""",
}
SIMULATE_RATES = {"reference": REFERENCE_RATES, "u-below-r": {**REFERENCE_RATES, (2, 4): 15.0, (4, 10): 0.0}}


class TestSimulateCommand:
    def test_csv_output(self, scheme_file, rates_file, capsys):
        code = main(
            [
                "simulate", "--scenario", "table1", "--scheme", scheme_file,
                "--rates", rates_file, "--horizon", "2000", "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "user_index,file_index,relay_index,relay_rate,analytic,estimate,half_width_95,cycles"
        assert len([l for l in lines if "," in l and not l.startswith("user_index")]) == 10
        assert any(l.startswith("aggregate_sum_estimate=") for l in lines)
        assert any(l.startswith("analytic_sum=0.531855") for l in lines)

    def test_horizon_beyond_memory_exits_4(self, scheme_file, rates_file, capsys):
        code = main(
            [
                "simulate", "--scenario", "table1", "--scheme", scheme_file,
                "--rates", rates_file, "--horizon", "1e16", "--seed", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "error:" in captured.err

    def test_horizon_too_small_to_batch_exits_2(self, scheme_file, rates_file, capsys):
        # 5e-324 / 20 is 0: the batch means would divide by a zero width and print nan half-widths.
        code = main(["simulate", "--scenario", "table1", "--scheme", scheme_file, "--rates", rates_file, "--horizon", "5e-324"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: horizon 5e-324 is too small to split into 20 batches\n"

    def test_scale_guard_on_the_last_holding_exits_4(self, scheme_file, table1, tmp_path, capsys):
        rates = tmp_path / "rates.yaml"
        rates.write_text(serialize_rates({**REFERENCE_RATES, table1.holding_pairs[-1]: 1e3}))
        code = main(["simulate", "--scenario", "table1", "--scheme", scheme_file, "--rates", str(rates), "--horizon", "1e5"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(SIMULATE_OUT))
    def test_stdout_is_pinned(self, case, scheme_file, tmp_path, capsys):
        rates = tmp_path / "rates.yaml"
        rates.write_text(serialize_rates(SIMULATE_RATES[case]))
        code = main(["simulate", "--scenario", "table1", "--scheme", scheme_file, "--rates", str(rates), "--horizon", "20000", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out == SIMULATE_OUT[case]


TABLE1_VERIFY_OUT = """\
exhaustive_objective=0.531856297758
oracle_objective=0.531856297758
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=8.312019 beta=33.000000 water_level=0.063443 stationarity=4.375e-16 budget_slackness=4.441e-16 drop_slackness=1.149e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=4.899457 beta=21.000000 water_level=0.054432 stationarity=2.550e-16 budget_slackness=0.000e+00 drop_slackness=8.273e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=3.668542 beta=20.000000 water_level=0.033646 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
"""


# verify's stdout on the other bundled fixtures, with or without --allow-empty-relay: no optimum leaves a relay empty.
FIXTURE_VERIFY_OUT = {
    "popularity_var_1": """\
exhaustive_objective=0.501177064225
oracle_objective=0.501177064225
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=6.579968 beta=27.000000 water_level=0.059391 stationarity=2.337e-16 budget_slackness=1.480e-16 drop_slackness=5.275e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=6.631508 beta=27.000000 water_level=0.060325 stationarity=4.601e-16 budget_slackness=0.000e+00 drop_slackness=1.326e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=3.668542 beta=20.000000 water_level=0.033646 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "popularity_var_2": """\
exhaustive_objective=0.543693666112
oracle_objective=0.543693666112
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=6.579968 beta=27.000000 water_level=0.059391 stationarity=2.337e-16 budget_slackness=1.480e-16 drop_slackness=5.275e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=3.422359 beta=18.000000 water_level=0.036150 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=6.877691 beta=29.000000 water_level=0.056246 stationarity=2.467e-16 budget_slackness=2.220e-16 drop_slackness=6.678e-17 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "popularity_var_3": """\
exhaustive_objective=0.621958955388
oracle_objective=0.621958955388
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=6.679026 beta=29.000000 water_level=0.053043 stationarity=3.924e-16 budget_slackness=0.000e+00 drop_slackness=8.125e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=3.422359 beta=18.000000 water_level=0.036150 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=6.778634 beta=27.000000 water_level=0.063031 stationarity=2.202e-16 budget_slackness=2.220e-16 drop_slackness=7.936e-17 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "popularity_var_4": """\
exhaustive_objective=0.724516013024
oracle_objective=0.724516013024
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=6.891968 beta=32.000000 water_level=0.046386 stationarity=2.992e-16 budget_slackness=2.961e-16 drop_slackness=1.045e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=3.422359 beta=18.000000 water_level=0.036150 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=6.565692 beta=24.000000 water_level=0.074841 stationarity=1.854e-16 budget_slackness=0.000e+00 drop_slackness=5.561e-17 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "server_rates_high": """\
exhaustive_objective=0.289363243163
oracle_objective=0.289363243163
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=5.936492 beta=32.000000 water_level=0.034416 stationarity=4.032e-16 budget_slackness=2.961e-16 drop_slackness=1.491e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=8.087207 beta=42.000000 water_level=0.037076 stationarity=3.743e-16 budget_slackness=1.776e-16 drop_slackness=5.518e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=6.440346 beta=37.000000 water_level=0.030298 stationarity=3.435e-16 budget_slackness=4.441e-16 drop_slackness=1.730e-16 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "server_rates_mid": """\
exhaustive_objective=0.400255128140
oracle_objective=0.400255128140
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=5.274000 beta=26.000000 water_level=0.041147 stationarity=3.373e-16 budget_slackness=0.000e+00 drop_slackness=8.793e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=7.421125 beta=34.000000 water_level=0.047641 stationarity=2.913e-16 budget_slackness=0.000e+00 drop_slackness=1.014e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=6.062455 beta=31.000000 water_level=0.038245 stationarity=5.443e-16 budget_slackness=0.000e+00 drop_slackness=1.891e-16 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
    "table1_zipf": """\
exhaustive_objective=0.474197354167
oracle_objective=0.474197354167
objectives_match=True
assignments_match=True
kkt_check relay=1 alpha=6.579968 beta=27.000000 water_level=0.059391 stationarity=2.337e-16 budget_slackness=1.480e-16 drop_slackness=5.275e-17 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=2 alpha=6.631508 beta=27.000000 water_level=0.060325 stationarity=4.601e-16 budget_slackness=0.000e+00 drop_slackness=1.326e-16 dual_feasibility=0.000e+00 satisfied=True
kkt_check relay=3 alpha=3.668542 beta=20.000000 water_level=0.033646 stationarity=0.000e+00 budget_slackness=0.000e+00 drop_slackness=0.000e+00 dual_feasibility=0.000e+00 satisfied=True
verify=PASS
""",
}


def _solve_stdout(capsys, *argv):
    assert main(["solve", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(FIXTURE_VERIFY_OUT))
def test_json_table_carries_the_csv_rows_and_footer(name, capsys):
    csv_lines = _solve_stdout(capsys, "--scenario", name).splitlines()
    table = json.loads(_solve_stdout(capsys, "--scenario", name, "--format", "json"))["table"]
    header = csv_lines[0].split(",")
    rows = [
        ",".join([str(r["file_index"]), str(r["user_index"]), f"{r['user_rate']:.6g}", str(r["relay_index"]),
                  f"{r['relay_rate']:.4f}", f"{r['server_rate']:.6g}"])
        for r in table["rows"]
    ]
    assert [list(r) for r in table["rows"]] == [header] * len(rows)
    assert rows == csv_lines[1:-3]
    footer = table["footer"]
    assert csv_lines[-3:] == [
        f"users={footer['users']},relays={footer['relays']},files={footer['files']}",
        f"objective_sum={footer['objective_sum']:.6f}",
        f"objective_mean={footer['objective_mean']:.6f}",
    ]


def _six_per_relay_scenario():
    """12 holdings on 2 relays of capacity 6: every placement puts six holdings on each relay."""
    scenario = random_scenario(random.Random(5), n_files=12, n_users=3, n_relays=2)
    return dataclasses.replace(scenario, relays=tuple(dataclasses.replace(r, capacity=6) for r in scenario.relays))


def _no_solve(*args, **kwargs):
    raise AssertionError("the exhaustive search ran")


def _kkt_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("kkt_check ")]


class TestVerifyCommand:
    def test_table1_passes(self, capsys):
        code = main(["verify", "--scenario", "table1"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert "objectives_match=True" in lines
        assert "assignments_match=True" in lines
        assert lines[-1] == "verify=PASS"
        # One certificate per relay of the best placement, relay 1 with its five holdings included.
        kkt = _kkt_lines(captured.out)
        assert [line.split()[1] for line in kkt] == ["relay=1", "relay=2", "relay=3"]
        assert all(line.endswith("satisfied=True") for line in kkt)

    @pytest.mark.parametrize("flags", [[], ["--allow-empty-relay"]], ids=["strict", "allow-empty"])
    def test_table1_output_is_pinned(self, flags, capsys):
        # The 12-decimal oracle value must not drift; table1's optimum leaves no relay empty, so both match.
        code = main(["verify", "--scenario", "table1", *flags])
        assert code == 0
        assert capsys.readouterr().out == TABLE1_VERIFY_OUT

    @pytest.mark.parametrize("flags", [[], ["--allow-empty-relay"]], ids=["strict", "allow-empty"])
    @pytest.mark.parametrize("fixture", sorted(FIXTURE_VERIFY_OUT))
    def test_fixture_output_is_pinned(self, fixture, flags, capsys):
        # With table1 above, every bundled fixture: the oracle's value and the KKT residuals must not drift.
        code = main(["verify", "--scenario", fixture, *flags])
        assert code == 0
        assert capsys.readouterr().out == FIXTURE_VERIFY_OUT[fixture]

    @pytest.mark.parametrize("scenario", ["table1", "six-per-relay"])
    def test_a_moved_rate_fails_the_certificate(self, scenario, monkeypatch, tmp_path, capsys):
        # Relay 1 holds five holdings on table1 and six on the other scenario.  Shifting 1e-3 of
        # budget between two of its rates keeps the placement, the objective and the budget spent,
        # so only stationarity sees it.
        if scenario == "six-per-relay":
            path = tmp_path / "six.yaml"
            path.write_text(serialize_scenario(_six_per_relay_scenario()))
            scenario = str(path)
        solve = freshcache.cli.solve_exhaustive

        def shifted(*args, **kwargs):
            result = solve(*args, **kwargs)
            alloc = result.best_rates[1]
            first, second = sorted(key for key, rate in alloc.rates.items() if rate > 1e-3)[:2]
            rates = {**alloc.rates, first: alloc.rates[first] + 1e-3, second: alloc.rates[second] - 1e-3}
            return dataclasses.replace(result, best_rates={**result.best_rates, 1: dataclasses.replace(alloc, rates=rates)})

        assert main(["verify", "--scenario", scenario]) == 0
        kept = capsys.readouterr().out
        monkeypatch.setattr(freshcache.cli, "solve_exhaustive", shifted)
        assert main(["verify", "--scenario", scenario]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "verify=FAIL"
        assert out.splitlines()[:4] == kept.splitlines()[:4]   # the objectives and the placement still match the oracle
        certified = [line.endswith("satisfied=True") for line in _kkt_lines(out)]
        assert certified == [False] + [True] * (len(_kkt_lines(kept)) - 1)

    def test_scale_guard_exit_code(self, tmp_path, monkeypatch, capsys):
        # The oracle refuses 3**12 raw assignments at once, so the search never runs.
        rng = random.Random(13)
        scenario = random_scenario(rng, n_files=12, n_users=2, n_relays=3)
        path = tmp_path / "big.yaml"
        path.write_text(serialize_scenario(scenario))
        monkeypatch.setattr(freshcache.cli, "solve_exhaustive", _no_solve)
        code = main(["verify", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "error: 531441 raw assignments exceed the oracle limit 100000\n"

    @pytest.mark.parametrize("steps, expected", [("0", 2), ("-3", 2)])
    @pytest.mark.parametrize("scenario", ["table1", "all-skipped"])
    def test_grid_steps_checked_before_the_solve(self, scenario, steps, expected, tmp_path, capsys):
        # "all-skipped" is the six-per-relay scenario, whose relays all hold more than four holdings.
        if scenario == "all-skipped":
            path = tmp_path / "six.yaml"
            path.write_text(serialize_scenario(_six_per_relay_scenario()))
            scenario = str(path)
        code = main(["verify", "--scenario", scenario, "--grid-steps", steps])
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert captured.err.startswith("error: grid steps must be a positive integer")

    @pytest.mark.parametrize("steps", ["1", "100000"])
    def test_grid_steps_has_no_effect(self, steps, capsys):
        assert main(["verify", "--scenario", "table1", "--grid-steps", steps]) == 0
        assert capsys.readouterr().out == TABLE1_VERIFY_OUT

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_checked_as_solve_checks_it(self, value, capsys):
        code = main(["verify", "--scenario", "table1", "--threads", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "threads must be a positive integer" in captured.err


class TestSweepCommand:
    def test_user_scale_strictly_increases(self, capsys):
        code = main(
            ["sweep", "--scenario", "table1", "--scale", "user", "--factors", "0.5,1,1.5", "--threads", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "factor,objective_sum"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(values) == 3
        assert values[0] < values[1] < values[2]

    def test_server_scale_strictly_decreases(self, capsys):
        code = main(
            ["sweep", "--scenario", "table1", "--scale", "server", "--factors", "1,1.5,2", "--threads", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        values = [float(l.split(",")[1]) for l in captured.out.splitlines()[1:]]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize(
        "scale, factors, message",
        [
            ("user", "1,-1", "scale factor must be a positive finite number, got -1.0"),
            ("server", "1,1e300", "relay 1 rate budget 12.0 would overflow the water-fill"),
        ],
        ids=["negative-factor", "overflowing-factor"],
    )
    def test_every_factor_is_checked_before_the_first_solve(self, scale, factors, message, monkeypatch, capsys):
        monkeypatch.setattr(freshcache.cli, "solve_exhaustive", _no_solve)
        code = main(["sweep", "--scenario", "table1", "--scale", scale, "--factors", factors])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_factors_exit_code(self, capsys):
        for factors, message in [("1,a", "comma-separated list of numbers"), (",", "at least one number")]:
            code = main(["sweep", "--scenario", "table1", "--scale", "user", "--factors", factors])
            assert message in capsys.readouterr().err
            assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--threads", "0"), ("--threads", "-3"), ("--budget", "0"), ("--budget", "-5")],
    ids=["0", "-3", "budget-0", "budget--5"],
)
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize(
    "command", [["solve"], ["sweep", "--scale", "user", "--factors", "1"]], ids=["solve", "sweep"]
)
def test_threads_checked_in_every_mode(command, mode, flag, value, capsys):
    # --budget comes first so that the second --budget overrides it.
    code = main([*command, "--scenario", "table1", "--mode", mode, "--budget", "10", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag[2:]} must be a positive integer" in captured.err


@pytest.mark.parametrize(
    "argv", [["solve"], ["sweep", "--scale", "user", "--factors", "1"], ["verify"]], ids=["solve", "sweep", "verify"]
)
def test_solver_flags_are_defined_once(argv):
    args = freshcache.cli.build_parser().parse_args([*argv, "--scenario", "table1"])
    assert (args.threads, args.allow_empty_relay) == (1, False)
    source = inspect.getsource(freshcache.cli)
    assert source.count('"--threads"') == source.count('"--allow-empty-relay"') == 1


def _main_node():
    tree = ast.parse(inspect.getsource(freshcache.cli))
    return tree, next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")


def _calls(node, name):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


def _stderr_prints(node):
    return [c for c in _calls(node, "print") if any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in c.keywords)]


def test_main_is_the_one_command_path():
    tree, main_node = _main_node()
    for find in (lambda n: _calls(n, "load_scenario"), lambda n: _calls(n, "_emit"), _stderr_prints):
        assert len(find(tree)) == 1
        assert len(find(main_node)) == 1
    handlers = [h for t in ast.walk(main_node) if isinstance(t, ast.Try) for h in t.handlers]
    assert len(handlers) == 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _expected_exit_code(cls):
    if issubclass(cls, InfeasibleError):
        return 3
    if issubclass(cls, (SearchBudgetError, OracleScaleError, SimulationScaleError)):
        return 4
    return 2


EXIT_CASES = [(cls.__name__, cls("boom"), _expected_exit_code(cls)) for cls in [FreshCacheError, *_subclasses(FreshCacheError)]]
EXIT_CASES += [
    ("capacity-aggregate", ScenarioValidationError("boom", report=[Violation("capacity-aggregate", "too small")]), 3),
    ("capacity-aggregate+other", ScenarioValidationError(
        "boom", report=[Violation("capacity-aggregate", "too small"), Violation("holding-unassigned", "gap")]), 2),
    ("OSError", OSError("boom"), 5),
    ("FileNotFoundError", FileNotFoundError("boom"), 5),
]


@pytest.mark.parametrize("exc, expected", [case[1:] for case in EXIT_CASES], ids=[case[0] for case in EXIT_CASES])
def test_every_error_maps_to_its_exit_code(exc, expected, monkeypatch, capsys):
    def stub(scenario, args):
        raise exc

    monkeypatch.setattr(freshcache.cli, "load_scenario", lambda path: None)
    monkeypatch.setattr(freshcache.cli, "_cmd_solve", stub)
    code = main(["solve", "--scenario", "table1"])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err == "error: boom\n"


class TestDeterminism:
    def test_sampled_output_independent_of_threads(self):
        runs = []
        for threads in ("1", "4"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "freshcache.cli",
                    "solve", "--scenario", "table1", "--mode", "sampled",
                    "--budget", "500", "--seed", "7", "--threads", threads,
                ],
                capture_output=True,
                check=True,
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1]

    def test_exhaustive_output_independent_of_threads(self):
        runs = []
        for threads in ("1", "3"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "freshcache.cli",
                    "solve", "--scenario", "table1", "--threads", threads, "--format", "json",
                ],
                capture_output=True,
                check=True,
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1]


# A small valid document for the mutation fuzz: 6 holdings over 2 users and 2 relays.
FUZZ_BASE = """\
files:
  - {id: 1, server_rate: 4}
  - {id: 2, server_rate: 2.5}
  - {id: 3, server_rate: 6}
  - {id: 4, server_rate: 1}
  - {id: 5, server_rate: 3}
  - {id: 6, server_rate: 5}
users:
  - id: 1
    holdings:
      - {file: 1, user_rate: 8, request_prob: 0.5}
      - {file: 2, user_rate: 3, request_prob: 0.25}
      - {file: 3, user_rate: 5, request_prob: 0.25}
    relay_prefs: [0.75, 0.25]
  - id: 2
    holdings:
      - {file: 4, user_rate: 2, request_prob: 0.5}
      - {file: 5, user_rate: 6, request_prob: 0.25}
      - {file: 6, user_rate: 1, request_prob: 0.25}
    relay_prefs: [0.5, 0.5]
relays:
  - {id: 1, capacity: 4, rate_budget: 12}
  - {id: 2, capacity: 3, rate_budget: 10}
"""

WRONG_VALUES = ("x", None, [], {}, True, math.nan, math.inf, -math.inf, -1, -0.5, 0, 1e308, 10**30)
# Keys no document declares, of every type a YAML key can load as; two of them together do not sort.
UNKNOWN_KEYS = ("zz", 7, None, 1.5)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("old, new", [("server_rate: 4}", "server_rate: 1.0e+308}"), ("user_rate: 5,", "user_rate: 1.0e+308,")])
def test_rate_that_overflows_the_weight_exit_code(old, new, mode, tmp_path, capsys):
    # Found by the mutation fuzz below: the solver scored nan everywhere and failed an internal assert.
    path = tmp_path / "huge.yaml"
    path.write_text(FUZZ_BASE.replace(old, new, 1))
    code = main(["solve", "--scenario", str(path), "--mode", mode, "--budget", "30", "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "overflow the water-filling weight" in captured.err


@pytest.mark.parametrize("command", ["solve", "verify", "allocate"])
@pytest.mark.parametrize("budget", ["1.0e+308", "1.0e+200"])
def test_budget_that_overflows_the_water_fill_exit_code(budget, command, scheme_file, tmp_path, capsys):
    # Both budgets passed validation.  At 1e308, w*G overflowed, every block holding a weight above
    # about 1.8 scored nan, and solve exited 0 with a wrong optimum; at 1e200 the certificate's
    # (rate + s)**2 raised OverflowError, a traceback from allocate and verify.
    path = tmp_path / "huge.yaml"
    path.write_text(freshcache.scenario_io.fixture_path("table1").read_text().replace("rate_budget: 12}", f"rate_budget: {budget}}}", 1))
    extra = ["--scheme", scheme_file] if command == "allocate" else []
    code = main([command, "--scenario", str(path), *extra])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: relay 1") and captured.err.count("\n") == 1
    assert f"rate budget {float(budget)!r} would overflow the water-fill" in captured.err


def test_budget_inside_the_float_range_still_verifies(tmp_path, capsys):
    # sqrt(float max) is about 1.34e154, so the certificate's square of G + S still fits here.
    path = tmp_path / "large.yaml"
    path.write_text(freshcache.scenario_io.fixture_path("table1").read_text().replace("rate_budget: 12}", "rate_budget: 1.3e+154}", 1))
    code = main(["verify", "--scenario", str(path)])
    assert (code, capsys.readouterr().out.splitlines()[-1]) == (0, "verify=PASS")


# Documents the reader crashed on with a traceback (exit 1): two unknown keys that do not sort together
# (an int and a str), an int past the float range in a number field, and values PyYAML fails to build.
READER_CRASHES = {
    "scenario-keys": (["solve"], "files: []\n1: 2\nzz: 3\n", "scenario document: unknown field '1'"),
    "file-keys": (["solve"], FUZZ_BASE.replace("{id: 1, server_rate: 4}", "{id: 1, server_rate: 2.0, 7: 1, zz: 2}"),
                  "file entry: unknown field '7'"),
    "scheme-keys": (["allocate", "--scenario", "table1"], "assignment:\n- {user: 1, file: 1, relay: 1, 2: 3, q: 1}\n",
                    "assignment entry: unknown field '2'"),
    "huge-int": (["solve"], FUZZ_BASE.replace("server_rate: 4}", "server_rate: 1" + "0" * 400 + "}"),
                 "file entry: field 'server_rate' must be a number, got 1000"),
    "no-such-date": (["solve"], "files: []\nusers: []\nrelays: []\nwhen: 2001-13-01\n",
                     "malformed scenario document: month must be in 1..12"),
    "int-past-digit-limit": (["allocate", "--scenario", "table1"], "assignment: []\nn: " + "9" * 5000 + "\n",
                             "malformed scheme document: Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("case", sorted(READER_CRASHES))
def test_document_the_reader_crashed_on_exits_2(case, tmp_path, capsys):
    argv, text, message = READER_CRASHES[case]
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    code = main([*argv, "--scheme" if "allocate" in argv else "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_holding_with_a_huge_server_rate_drops_without_disturbing_its_relay(tmp_path, capsys):
    # Found by a fuzz of verify: a water-fill that subtracted file 6's server rate back out of its
    # sums zeroed its relay-mates' rates, reported 0.331195 as the optimum and failed verify.
    path = tmp_path / "huge_server.yaml"
    path.write_text(FUZZ_BASE.replace("{id: 6, server_rate: 5}", "{id: 6, server_rate: 1.0e+30}", 1))
    assert main(["verify", "--scenario", str(path)]) == 0
    assert "verify=PASS" in capsys.readouterr().out.splitlines()
    assert main(["solve", "--scenario", str(path), "--threads", "1"]) == 0
    assert "objective_sum=0.419469" in capsys.readouterr().out.splitlines()
    assert main(["solve", "--scenario", str(path), "--threads", "1", "--format", "json"]) == 0
    scheme = tmp_path / "scheme.yaml"
    scheme.write_text(yaml.safe_dump({"assignment": json.loads(capsys.readouterr().out)["assignment"]}))
    assert main(["allocate", "--scenario", str(path), "--scheme", str(scheme)]) == 0
    relay_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("relay=")]
    assert len(relay_lines) == 2
    assert all("satisfied=True" in line for line in relay_lines)


def _slots(node):
    """Every (container, key) pair below ``node``, each parent before its children."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(children):
        yield node, key
        yield from _slots(child)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.yaml"




def _mutate(doc, data):
    """Apply 1-3 mutations to ``doc`` in place: drop a key, repeat a list entry, add an unknown key of any YAML
    key type to a mapping, or set a field to a wrong type or value."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots), label="slot")
        action = data.draw(st.sampled_from(("drop", "repeat", "set", "add")), label="action")
        if action == "drop":
            del container[key]
        elif action == "repeat" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        elif action == "add" and isinstance(container, dict):
            container[data.draw(st.sampled_from(UNKNOWN_KEYS), label="key")] = 1
        else:
            container[key] = copy.deepcopy(data.draw(st.sampled_from(WRONG_VALUES), label="value"))


def _exit_code_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(data, fuzz_path):
    doc = yaml.safe_load(FUZZ_BASE)
    _mutate(doc, data)
    fuzz_path.write_text(yaml.safe_dump(doc))
    argv = ["solve", "--scenario", str(fuzz_path), "--threads", "1"]
    if data.draw(st.booleans(), label="sampled"):
        argv += ["--mode", "sampled", "--budget", "30", "--seed", "1"]
    assert _exit_code_quietly(argv) in {0, 2, 3, 4, 5}


@pytest.fixture(scope="module")
def holding_doc_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("holding_fuzz")
    return base / "scheme.yaml", base / "rates.yaml"


# table1's reference scheme and rates as parsed YAML, the bases of the holding-document fuzz.
HOLDING_FUZZ_BASES = (
    yaml.safe_load(serialize_scheme(CacheScheme(dict(REFERENCE_ASSIGNMENT)))),
    yaml.safe_load(serialize_rates(REFERENCE_RATES)),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_scheme_and_rate_documents_exit_with_a_documented_code(data, holding_doc_paths):
    # One of the two documents is mutated like the scenario fuzz above; the other stays as it is.
    scheme_path, rates_path = holding_doc_paths
    which = data.draw(st.sampled_from((0, 1)), label="document")
    doc = copy.deepcopy(HOLDING_FUZZ_BASES[which])
    _mutate(doc, data)
    for i, path in enumerate(holding_doc_paths):
        path.write_text(yaml.safe_dump(doc if i == which else HOLDING_FUZZ_BASES[i]))
    command = data.draw(st.sampled_from(("allocate", "freshness", "simulate")), label="command")
    argv = [command, "--scenario", "table1", "--scheme", str(scheme_path)]
    if command != "allocate":
        argv += ["--rates", str(rates_path)]
    if command == "simulate":
        argv += ["--horizon", "50", "--seed", "1"]
    assert _exit_code_quietly(argv) in {0, 2, 3, 4, 5}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_byte_mutated_scenario_documents_exit_with_a_documented_code(data, fuzz_path):
    # Byte-level mutants: the document cut short, or a byte that is never valid UTF-8 put in.
    raw = FUZZ_BASE.encode()
    at = data.draw(st.integers(0, len(raw)), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:at]
    else:
        raw = raw[:at] + data.draw(st.sampled_from((b"\xff", b"\xfe", b"\xc0", b"\x80")), label="byte") + raw[at:]
    fuzz_path.write_bytes(raw)
    assert _exit_code_quietly(["solve", "--scenario", str(fuzz_path), "--threads", "1"]) in {0, 2, 3, 4, 5}
