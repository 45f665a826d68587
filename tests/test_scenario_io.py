"""Scenario document parsing, serialization, and result rendering tests."""

import random
from importlib import resources

import pytest
import yaml

from freshcache import (
    ScenarioParseError,
    ScenarioValidationError,
    build_result_table,
    fixture_path,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    solve_exhaustive,
    solve_sampled,
    system_freshness,
    write_result_table,
    write_trace,
)
from freshcache.scenario_io import _YAML_LOADER, parse_rates, parse_scheme, serialize_rates, serialize_scheme

from conftest import random_scenario

MINIMAL_DOC = """
files:
  - {id: 1, server_rate: 2.0}
  - {id: 2, server_rate: 3.0}
users:
  - id: 1
    holdings:
      - {file: 1, user_rate: 4.0, request_prob: 0.5}
      - {file: 2, user_rate: 5.0, request_prob: 0.5}
    relay_prefs: [0.5, 0.5]
relays:
  - {id: 1, capacity: 2, rate_budget: 6.0}
  - {id: 2, capacity: 2, rate_budget: 1.0}
"""

FIXTURE_DIR = resources.files("freshcache") / "fixtures"
# Every bundled scenario, the minimal document, and resolver corners: a float
# with no leading digit, hex and underscored ints, -.inf, YAML 1.1 booleans,
# null and a date.
LOADER_DOCS = {
    **{f.name: f.read_text() for f in FIXTURE_DIR.iterdir() if f.name.endswith(".yaml")},
    "minimal": MINIMAL_DOC,
    "corners": "rates:\n  - {user: 1, file: 2, rate: .5e1}\n  - {user: 0x1f, file: 1_0, rate: -.inf}\n"
    "flags: [yes, No, ~, 2001-12-14]\n",
}


class TestParseScenario:
    def test_table1_fixture(self, table1):
        assert table1.n_files == 10
        assert table1.n_users == 4
        assert table1.n_relays == 3
        assert tuple(r.rate_budget for r in table1.relays) == (12, 10, 8)
        assert tuple(r.capacity for r in table1.relays) == (6, 5, 4)
        assert table1.popularity_mode == "explicit"
        user1 = table1.user_by_id[1]
        assert [h.file_id for h in user1.holdings] == [1, 2, 3]
        assert [h.user_rate for h in user1.holdings] == [8, 10, 12]
        assert [h.request_prob for h in user1.holdings] == [0.3, 0.3, 0.4]

    def test_minimal_document(self):
        scenario = parse_scenario(MINIMAL_DOC)
        assert scenario.n_files == 2
        assert scenario.users[0].holdings[0].request_prob == 0.5

    def test_missing_relays_names_the_field(self):
        doc = MINIMAL_DOC[: MINIMAL_DOC.index("relays:")]
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc)
        assert err.value.field == "relays"
        assert "relays" in str(err.value)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MINIMAL_DOC + "\nfires: 3\n")
        assert "fires" in str(err.value)

    def test_malformed_yaml_reports_line(self):
        bad = "files:\n  - {id: 1, server_rate: 2.0}\n users: [\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line is not None

    def test_malformed_rate_document_reports_line(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_rates("rates:\n  - {user: 1, file: 1, rate: 2.0\n  - {user: 1\n")
        assert err.value.line is not None

    @pytest.mark.parametrize("name", sorted(LOADER_DOCS))
    def test_loader_reads_what_safe_load_reads(self, name):
        doc = LOADER_DOCS[name]
        assert yaml.load(doc, Loader=_YAML_LOADER) == yaml.safe_load(doc)

    def test_non_mapping_document(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("- 1\n- 2\n")

    def test_wrong_type_for_rate(self):
        doc = MINIMAL_DOC.replace("server_rate: 2.0", "server_rate: fast")
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)

    def test_validation_failure_carries_report(self):
        doc = MINIMAL_DOC.replace("request_prob: 0.5}", "request_prob: 0.9}", 1)
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert any(v.code == "request-prob-sum" for v in err.value.report)

    def test_infeasible_capacity_is_validation_error(self):
        doc = MINIMAL_DOC.replace("capacity: 2", "capacity: 0")
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert [v.code for v in err.value.report] == ["capacity-aggregate"]


class TestZipfMode:
    def test_bundled_zipf_fixture(self):
        scenario = load_scenario("table1_zipf")
        assert scenario.popularity_mode == "zipf"
        assert scenario.zipf_exponent == 1.0
        user1 = scenario.user_by_id[1]
        assert [h.request_prob for h in user1.holdings] == pytest.approx(
            [6 / 11, 3 / 11, 2 / 11], abs=1e-12
        )
        user3 = scenario.user_by_id[3]
        assert [h.request_prob for h in user3.holdings] == pytest.approx(
            [8 / 15, 7 / 15], abs=1e-12
        )

    def test_request_prob_forbidden_in_zipf_mode(self):
        doc = MINIMAL_DOC + "\npopularity: {mode: zipf, exponent: 1.0}\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc)
        assert err.value.field == "request_prob"

    def test_zipf_requires_exponent(self):
        doc = MINIMAL_DOC + "\npopularity: {mode: zipf}\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)

    def test_exponent_invalid_in_explicit_mode(self):
        doc = MINIMAL_DOC + "\npopularity: {mode: explicit, exponent: 1.0}\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc)
        assert err.value.field == "exponent"

    def test_unknown_mode(self):
        doc = MINIMAL_DOC + "\npopularity: {mode: uniform}\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(doc)


class TestRoundTrips:
    def test_table1_round_trip(self, table1):
        assert parse_scenario(serialize_scenario(table1)) == table1

    def test_zipf_round_trip(self):
        scenario = load_scenario("table1_zipf")
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario

    def test_random_scenario_round_trips(self):
        rng = random.Random(31)
        for _ in range(10):
            n_files = rng.randint(1, 7)
            scenario = random_scenario(
                rng,
                n_files=n_files,
                n_users=rng.randint(1, min(3, n_files)),
                n_relays=rng.randint(1, 3),
            )
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_scheme_round_trip(self, reference_scheme):
        assert parse_scheme(serialize_scheme(reference_scheme)) == reference_scheme

    def test_rates_round_trip(self):
        rates = {(1, 1): 2.4832, (2, 5): 3.4239, (4, 10): 3.4427}
        assert parse_rates(serialize_rates(rates)) == rates

    def test_scheme_duplicate_entry_rejected(self):
        text = "assignment:\n- {user: 1, file: 1, relay: 1}\n- {user: 1, file: 1, relay: 2}\n"
        with pytest.raises(ScenarioParseError):
            parse_scheme(text)

    def test_rates_duplicate_entry_rejected(self):
        text = "rates:\n- {user: 1, file: 1, rate: 2.0}\n- {user: 1, file: 1, rate: 3.0}\n"
        with pytest.raises(ScenarioParseError):
            parse_rates(text)


class TestFixturePaths:
    def test_bundled_fixture_exists(self):
        assert fixture_path("table1").is_file()

    def test_unknown_fixture(self):
        with pytest.raises(FileNotFoundError):
            fixture_path("no_such_fixture")

    def test_load_scenario_from_literal_path(self, tmp_path):
        target = tmp_path / "tiny.yaml"
        target.write_text(MINIMAL_DOC)
        scenario = load_scenario(target)
        assert scenario.n_files == 2

    @pytest.mark.parametrize(
        "name",
        [
            "table1",
            "table1_zipf",
            "server_rates_mid",
            "server_rates_high",
            "popularity_var_1",
            "popularity_var_2",
            "popularity_var_3",
            "popularity_var_4",
        ],
    )
    def test_all_bundled_fixtures_parse(self, name):
        scenario = load_scenario(name)
        assert scenario.n_files == 10


class TestWriteResultTable:
    def test_reference_rows(self, table1):
        result = solve_exhaustive(table1)
        text = write_result_table(result, fmt="csv")
        lines = text.splitlines()
        assert lines[0] == "file_index,user_index,user_rate,relay_index,relay_rate,server_rate"
        assert lines[1] == "1,1,8,1,2.4832,4"
        assert lines[7] == "7,3,10,3,4.5573,6"
        assert lines[11] == "users=4,relays=3,files=10"
        assert lines[12].startswith("objective_sum=0.531856")
        assert lines[13].startswith("objective_mean=0.132964")

    def test_matches_golden_file(self, table1):
        result = solve_exhaustive(table1)
        golden = fixture_path("table1").parent / "golden" / "table1_result.csv"
        assert write_result_table(result, fmt="csv") == golden.read_text()

    def test_per_relay_rate_sums(self, table1):
        result = solve_exhaustive(table1)
        budgets = {r.relay_id: r.rate_budget for r in table1.relays}
        for relay_id, budget in budgets.items():
            total = sum(r.relay_rate for r in result.table.rows if r.relay_index == relay_id)
            assert total == pytest.approx(budget, abs=1e-6)

    def test_aligned_table_format(self, table1):
        result = solve_exhaustive(table1)
        text = write_result_table(result, fmt="table")
        lines = text.splitlines()
        assert lines[0].split() == list(
            "file_index user_index user_rate relay_index relay_rate server_rate".split()
        )
        assert len(lines) == 14
        assert "4.5573" in text

    def test_unknown_format(self, table1):
        result = solve_exhaustive(table1)
        with pytest.raises(ScenarioParseError):
            write_result_table(result, fmt="markdown")

    def test_single_holding_table(self):
        rng = random.Random(77)
        scenario = random_scenario(rng, n_files=1, n_users=1, n_relays=1)
        result = solve_exhaustive(scenario)
        lines = write_result_table(result, fmt="csv").splitlines()
        assert len(lines) == 5  # header, one row, three footer lines
        assert lines[2] == "users=1,relays=1,files=1"

    def test_build_result_table_sorted_by_file(self, table1, reference_scheme):
        from conftest import REFERENCE_RATES

        objective = system_freshness(table1, reference_scheme, REFERENCE_RATES)
        table = build_result_table(table1, reference_scheme, REFERENCE_RATES, objective)
        assert [r.file_index for r in table.rows] == list(range(1, 11))
        assert table.footer.objective_sum == objective.sum_form


class TestWriteTrace:
    def test_exhaustive_trace_file(self, table1):
        result = solve_exhaustive(table1)
        lines = write_trace(result).splitlines()
        assert lines[0] == "iteration,best_objective_sum"
        iterations = [int(line.split(",")[0]) for line in lines[1:]]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len(iterations)
        assert values == sorted(values)
        assert values[-1] == result.objective.sum_form

    def test_budget_one_trace(self, table1):
        result = solve_sampled(table1, budget=1, seed=0)
        lines = write_trace(result).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,")
