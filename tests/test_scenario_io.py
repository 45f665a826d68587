"""Scenario document parsing, serialization, and result rendering tests."""

import functools
import math
import operator
import random
from importlib import resources

import pytest
import yaml

from freshcache import (
    ScenarioParseError,
    ScenarioValidationError,
    evaluate_scheme,
    fixture_path,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    solve_exhaustive,
    solve_sampled,
    write_result_table,
    write_trace,
)
from freshcache.errors import FreshCacheError
from freshcache.scenario_io import _YAML_LOADER, parse_rates, parse_scheme, result_rows, serialize_rates, serialize_scheme
from freshcache.search import make_solve_result

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
# null and a date.  The loader's one addition, YAML 1.2's exponents without a
# dot or without a sign, is pinned in the parse-error table below; .5e+1 has
# both, so both loaders read it as a float.
LOADER_DOCS = {
    **{f.name: f.read_text() for f in FIXTURE_DIR.iterdir() if f.name.endswith(".yaml")},
    "minimal": MINIMAL_DOC,
    "corners": "rates:\n  - {user: 1, file: 2, rate: .5e+1}\n  - {user: 0x1f, file: 1_0, rate: -.inf}\n"
    "flags: [yes, No, ~, 2001-12-14]\n",
}


class TestParseScenario:
    def test_table1_fixture(self, table1):
        assert table1.n_files == 10
        assert table1.n_users == 4
        assert table1.n_relays == 3
        assert tuple(r.rate_budget for r in table1.relays) == (12, 10, 8)
        assert tuple(r.capacity for r in table1.relays) == (6, 5, 4)
        probs = [[h.request_prob for h in u.holdings] for u in table1.users]
        assert probs == [[0.3, 0.3, 0.4], [0.2, 0.3, 0.5], [0.4, 0.6], [0.5, 0.5]]   # as the document gives them
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

    def test_exponent_without_dot_is_a_float(self):
        scenario = parse_scenario(MINIMAL_DOC.replace("server_rate: 2.0", "server_rate: 1e-3"))
        assert scenario.files[0].server_rate == 0.001

    def test_dotted_unsigned_exponent_is_a_float_to_the_loader_alone(self):
        doc = "rates: [1.5e3, .5e3, 1.e3, -2.5E1]\n"
        assert yaml.load(doc, Loader=_YAML_LOADER) == {"rates": [1500.0, 500.0, 1000.0, -25.0]}
        assert yaml.safe_load(doc) == {"rates": ["1.5e3", ".5e3", "1.e3", "-2.5E1"]}   # YAML 1.1 needs the sign

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


# Documents the pinned parse-error table mutates, each with the parser that reads it.
ERROR_BASES = {
    "explicit": (parse_scenario, MINIMAL_DOC),
    "explicit-popularity": (parse_scenario, MINIMAL_DOC + "popularity: {mode: explicit}\n"),
    "zipf": (parse_scenario, MINIMAL_DOC.replace(", request_prob: 0.5}", "}") + "popularity: {mode: zipf, exponent: 1.0}\n"),
    "scheme": (parse_scheme, "assignment:\n- {user: 1, file: 1, relay: 1}\n- {user: 1, file: 2, relay: 2}\n"),
    "rates": (parse_rates, "rates:\n- {user: 1, file: 1, rate: 2.0}\n- {user: 1, file: 2, rate: 3.0}\n"),
}
DROP, REPEAT = "<drop>", "<repeat>"


class Twice:
    """A mutation that writes the key at its path twice in its mapping: first with ``first``, then with the value it had."""

    def __init__(self, first):
        self.first = first

    def __repr__(self):
        return f"Twice({self.first!r})"


class _PairsDumper(yaml.SafeDumper):
    """``yaml.safe_dump``'s dumper, writing a tuple of (key, value) pairs as one mapping, so a key may appear twice."""


_PairsDumper.add_representer(tuple, lambda dumper, pairs: dumper.represent_mapping("tag:yaml.org,2002:map", pairs))


class Quoted(str):
    """A string the mutant writes single-quoted, so that no resolver reads it as a number."""

    def __repr__(self):
        return f"Quoted({str(self)!r})"


_PairsDumper.add_representer(Quoted, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:str", text, style="'"))
H0 = ("users", 0, "holdings", 0)

# (base, path, value, exception type, message, field): one fault each, the error it raises pinned exactly.
PARSE_ERRORS = [
    ("explicit", (), [1, 2], ScenarioParseError, "scenario document must be a mapping, got list", None),
    ("explicit", (), "x", ScenarioParseError, "scenario document must be a mapping, got str", None),
    ("explicit", (), None, ScenarioParseError, "scenario document must be a mapping, got NoneType", None),
    ("explicit", ("zz",), 1, ScenarioParseError, "scenario document: unknown field 'zz'", "zz"),
    ("explicit", (7,), 1, ScenarioParseError, "scenario document: unknown field '7'", "7"),
    ("explicit", ("files",), DROP, ScenarioParseError, "scenario document: missing required field 'files'", "files"),
    ("explicit", ("users",), DROP, ScenarioParseError, "scenario document: missing required field 'users'", "users"),
    ("explicit", ("relays",), DROP, ScenarioParseError, "scenario document: missing required field 'relays'", "relays"),
    ("explicit", ("files",), "x", ScenarioParseError, "files must be a list, got str", None),
    ("explicit", ("files",), {}, ScenarioParseError, "files must be a list, got dict", None),
    ("explicit", ("files",), None, ScenarioParseError, "files must be a list, got NoneType", None),
    ("explicit", ("users",), "x", ScenarioParseError, "users must be a list, got str", None),
    ("explicit", ("relays",), None, ScenarioParseError, "relays must be a list, got NoneType", None),
    ("explicit", ("files", 0), REPEAT,
     ScenarioValidationError, "scenario failed validation: file ids must be 1..N in order", None),
    ("explicit", ("popularity",), None, ScenarioParseError, "popularity must be a mapping, got NoneType", None),
    ("explicit", ("popularity",), "zipf", ScenarioParseError, "popularity must be a mapping, got str", None),
    ("explicit-popularity", ("popularity", "mode"), DROP,
     ScenarioParseError, "popularity: missing required field 'mode'", "mode"),
    ("explicit-popularity", ("popularity", "zz"), 1, ScenarioParseError, "popularity: unknown field 'zz'", "zz"),
    ("explicit-popularity", ("popularity", "mode"), "uniform",
     ScenarioParseError, "popularity: unknown mode 'uniform'", "mode"),
    ("explicit-popularity", ("popularity", "mode"), None, ScenarioParseError, "popularity: unknown mode None", "mode"),
    ("explicit-popularity", ("popularity", "mode"), True, ScenarioParseError, "popularity: unknown mode True", "mode"),
    ("explicit-popularity", ("popularity", "exponent"), 1.0,
     ScenarioParseError, "popularity: field 'exponent' is only valid in zipf mode", "exponent"),
    ("zipf", ("popularity", "mode"), DROP, ScenarioParseError, "popularity: missing required field 'mode'", "mode"),
    ("zipf", ("popularity", "exponent"), DROP,
     ScenarioParseError, "popularity: missing required field 'exponent'", "exponent"),
    ("zipf", ("popularity", "exponent"), "x",
     ScenarioParseError, "popularity: field 'exponent' must be a number, got 'x'", "exponent"),
    ("zipf", ("popularity", "exponent"), True,
     ScenarioParseError, "popularity: field 'exponent' must be a number, got True", "exponent"),
    ("zipf", ("popularity", "exponent"), None,
     ScenarioParseError, "popularity: field 'exponent' must be a number, got None", "exponent"),
    ("zipf", ("popularity", "exponent"), math.nan,
     ScenarioParseError, "popularity: zipf exponent must be finite and non-negative, got nan", "exponent"),
    ("zipf", ("popularity", "exponent"), -1,
     ScenarioParseError, "popularity: zipf exponent must be finite and non-negative, got -1.0", "exponent"),
    ("zipf", ("popularity", "exponent"), math.inf,
     ScenarioParseError, "popularity: zipf exponent must be finite and non-negative, got inf", "exponent"),
    ("explicit", ("files", 0), "x", ScenarioParseError, "file entry must be a mapping, got str", None),
    ("explicit", ("files", 0), [], ScenarioParseError, "file entry must be a mapping, got list", None),
    ("explicit", ("files", 0), None, ScenarioParseError, "file entry must be a mapping, got NoneType", None),
    ("explicit", ("files", 0, "zz"), 1, ScenarioParseError, "file entry: unknown field 'zz'", "zz"),
    ("explicit", ("files", 0, None), 1, ScenarioParseError, "file entry: unknown field 'None'", "None"),
    ("explicit", ("files", 0, "id"), DROP, ScenarioParseError, "file entry: missing required field 'id'", "id"),
    ("explicit", ("files", 0, "server_rate"), DROP,
     ScenarioParseError, "file entry: missing required field 'server_rate'", "server_rate"),
    ("explicit", ("files", 0, "id"), "x",
     ScenarioParseError, "file entry: field 'id' must be an integer, got 'x'", "id"),
    ("explicit", ("files", 0, "id"), True,
     ScenarioParseError, "file entry: field 'id' must be an integer, got True", "id"),
    ("explicit", ("files", 0, "id"), None,
     ScenarioParseError, "file entry: field 'id' must be an integer, got None", "id"),
    ("explicit", ("files", 0, "id"), 1.5,
     ScenarioParseError, "file entry: field 'id' must be an integer, got 1.5", "id"),
    ("explicit", ("files", 0, "server_rate"), "x",
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got 'x'", "server_rate"),
    ("explicit", ("files", 0, "server_rate"), True,
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got True", "server_rate"),
    ("explicit", ("files", 0, "server_rate"), None,
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got None", "server_rate"),
    ("explicit", ("files", 0, "server_rate"), math.nan,
     ScenarioValidationError, "scenario failed validation: file 1: server_rate must be positive, got nan", None),
    # An exponent without a dot is a YAML 1.2 float; the string values below are written unquoted.
    ("explicit", ("users", 0, "relay_prefs", 0), "1e-3",
     ScenarioValidationError, "scenario failed validation: user 1: relay_prefs sum != 1 (got 0.501)", None),
    ("explicit", H0 + ("request_prob",), "1E3",
     ScenarioValidationError, "scenario failed validation: user 1, file 1: request_prob 1000.0 outside [0, 1]", None),
    ("zipf", ("popularity", "exponent"), "-2e+1",
     ScenarioParseError, "popularity: zipf exponent must be finite and non-negative, got -20.0", "exponent"),
    ("explicit", ("relays", 0, "capacity"), "1e3",
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got 1000.0", "capacity"),
    ("explicit", ("files", 0, "server_rate"), "1e400",
     ScenarioValidationError, "scenario failed validation: file 1: server_rate must be positive, got inf", None),
    ("explicit", ("files", 0, "server_rate"), Quoted("1e-3"),
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got '1e-3'", "server_rate"),
    # So is an exponent without a sign after a dot, or after a dot with no digit before or after it.
    ("explicit", H0 + ("request_prob",), "1.5e3",
     ScenarioValidationError, "scenario failed validation: user 1, file 1: request_prob 1500.0 outside [0, 1]", None),
    ("explicit", H0 + ("request_prob",), ".5e1",
     ScenarioValidationError, "scenario failed validation: user 1, file 1: request_prob 5.0 outside [0, 1]", None),
    ("explicit", ("users", 0, "relay_prefs", 0), ".5e3",
     ScenarioValidationError, "scenario failed validation: user 1: relay preference 500.0 outside [0, 1]", None),
    ("explicit", ("users", 0, "relay_prefs", 0), "1.e3",
     ScenarioValidationError, "scenario failed validation: user 1: relay preference 1000.0 outside [0, 1]", None),
    ("zipf", ("popularity", "exponent"), "-2.5E1",
     ScenarioParseError, "popularity: zipf exponent must be finite and non-negative, got -25.0", "exponent"),
    ("explicit", ("relays", 0, "capacity"), "1.5e3",
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got 1500.0", "capacity"),
    ("explicit", ("files", 0, "server_rate"), "1.5e3.2",
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got '1.5e3.2'", "server_rate"),
    ("explicit", ("files", 0, "server_rate"), Quoted("1.5e3"),
     ScenarioParseError, "file entry: field 'server_rate' must be a number, got '1.5e3'", "server_rate"),
    ("explicit", ("users", 0), "x", ScenarioParseError, "user entry must be a mapping, got str", None),
    ("explicit", ("users", 0), None, ScenarioParseError, "user entry must be a mapping, got NoneType", None),
    ("explicit", ("users", 0, "zz"), 1, ScenarioParseError, "user entry: unknown field 'zz'", "zz"),
    ("explicit", ("users", 0, "id"), DROP, ScenarioParseError, "user entry: missing required field 'id'", "id"),
    ("explicit", ("users", 0, "id"), "x",
     ScenarioParseError, "user entry: field 'id' must be an integer, got 'x'", "id"),
    ("explicit", ("users", 0, "id"), True,
     ScenarioParseError, "user entry: field 'id' must be an integer, got True", "id"),
    ("explicit", ("users", 0, "id"), None,
     ScenarioParseError, "user entry: field 'id' must be an integer, got None", "id"),
    ("explicit", ("users", 0, "id"), 1.5,
     ScenarioParseError, "user entry: field 'id' must be an integer, got 1.5", "id"),
    ("explicit", ("users", 0, "holdings"), DROP,
     ScenarioParseError, "user 1: missing required field 'holdings'", "holdings"),
    ("explicit", ("users", 0, "holdings"), "x", ScenarioParseError, "user 1 holdings must be a list, got str", None),
    ("explicit", ("users", 0, "holdings"), None,
     ScenarioParseError, "user 1 holdings must be a list, got NoneType", None),
    ("explicit", ("users", 0, "holdings"), {}, ScenarioParseError, "user 1 holdings must be a list, got dict", None),
    ("explicit", ("users", 0, "relay_prefs"), DROP,
     ScenarioParseError, "user 1: missing required field 'relay_prefs'", "relay_prefs"),
    ("explicit", ("users", 0, "relay_prefs"), "x",
     ScenarioParseError, "user 1 relay_prefs must be a list, got str", None),
    ("explicit", ("users", 0, "relay_prefs"), None,
     ScenarioParseError, "user 1 relay_prefs must be a list, got NoneType", None),
    ("explicit", ("users", 0, "relay_prefs", 0), "x",
     ScenarioParseError, "user 1: relay_prefs entries must be numbers, got 'x'", "relay_prefs"),
    ("explicit", ("users", 0, "relay_prefs", 0), True,
     ScenarioParseError, "user 1: relay_prefs entries must be numbers, got True", "relay_prefs"),
    ("explicit", ("users", 0, "relay_prefs", 0), None,
     ScenarioParseError, "user 1: relay_prefs entries must be numbers, got None", "relay_prefs"),
    ("explicit", H0, "x", ScenarioParseError, "user 1 holding must be a mapping, got str", None),
    ("explicit", H0, None, ScenarioParseError, "user 1 holding must be a mapping, got NoneType", None),
    ("explicit", H0 + ("zz",), 1, ScenarioParseError, "user 1 holding: unknown field 'zz'", "zz"),
    ("explicit", H0 + (1.5,), 1, ScenarioParseError, "user 1 holding: unknown field '1.5'", "1.5"),
    ("explicit", H0 + ("file",), DROP, ScenarioParseError, "user 1 holding: missing required field 'file'", "file"),
    ("explicit", H0 + ("file",), "x",
     ScenarioParseError, "user 1 holding: field 'file' must be an integer, got 'x'", "file"),
    ("explicit", H0 + ("file",), True,
     ScenarioParseError, "user 1 holding: field 'file' must be an integer, got True", "file"),
    ("explicit", H0 + ("file",), None,
     ScenarioParseError, "user 1 holding: field 'file' must be an integer, got None", "file"),
    ("explicit", H0 + ("file",), 1.5,
     ScenarioParseError, "user 1 holding: field 'file' must be an integer, got 1.5", "file"),
    ("explicit", H0 + ("user_rate",), DROP,
     ScenarioParseError, "user 1 holding: missing required field 'user_rate'", "user_rate"),
    ("explicit", H0 + ("user_rate",), "x",
     ScenarioParseError, "user 1 holding: field 'user_rate' must be a number, got 'x'", "user_rate"),
    ("explicit", H0 + ("user_rate",), True,
     ScenarioParseError, "user 1 holding: field 'user_rate' must be a number, got True", "user_rate"),
    ("explicit", H0 + ("user_rate",), None,
     ScenarioParseError, "user 1 holding: field 'user_rate' must be a number, got None", "user_rate"),
    ("explicit", H0 + ("request_prob",), DROP,
     ScenarioParseError, "user 1 holding file 1: missing required field 'request_prob'", "request_prob"),
    ("explicit", H0 + ("request_prob",), "x",
     ScenarioParseError, "user 1 holding file 1: field 'request_prob' must be a number, got 'x'", "request_prob"),
    ("explicit", H0 + ("request_prob",), True,
     ScenarioParseError, "user 1 holding file 1: field 'request_prob' must be a number, got True", "request_prob"),
    ("explicit", H0 + ("request_prob",), None,
     ScenarioParseError, "user 1 holding file 1: field 'request_prob' must be a number, got None", "request_prob"),
    ("explicit", H0, REPEAT,
     ScenarioValidationError, "scenario failed validation: user 1: file 1 listed twice; user 1: request probabilities sum != 1", None),
    ("zipf", H0 + ("request_prob",), 0.5,
     ScenarioParseError, "user 1, file 1: request_prob is not allowed in zipf mode", "request_prob"),
    ("zipf", H0 + ("file",), DROP, ScenarioParseError, "user 1 holding: missing required field 'file'", "file"),
    ("zipf", H0 + ("file",), "x",
     ScenarioParseError, "user 1 holding: field 'file' must be an integer, got 'x'", "file"),
    ("zipf", H0 + ("user_rate",), None,
     ScenarioParseError, "user 1 holding: field 'user_rate' must be a number, got None", "user_rate"),
    ("zipf", H0 + ("zz",), 1, ScenarioParseError, "user 1 holding: unknown field 'zz'", "zz"),
    # A zipf document's faults are the validator's to report, as in explicit mode.
    ("zipf", H0 + ("file",), 9, ScenarioValidationError,
     "scenario failed validation: user 1: holding references unknown file 9; file 1 not held by any user", None),
    ("zipf", ("users", 0, "holdings"), [], ScenarioValidationError,
     "scenario failed validation: user 1: holdings are empty; file 1 not held by any user; "
     "file 2 not held by any user", None),
    ("zipf", ("files",), [], ScenarioValidationError,
     "scenario failed validation: scenario has no files; user 1: holding references unknown file 1; "
     "user 1: holding references unknown file 2; user 1: request probabilities sum != 1", None),
    ("explicit", ("relays", 0), "x", ScenarioParseError, "relay entry must be a mapping, got str", None),
    ("explicit", ("relays", 0), None, ScenarioParseError, "relay entry must be a mapping, got NoneType", None),
    ("explicit", ("relays", 0, "zz"), 1, ScenarioParseError, "relay entry: unknown field 'zz'", "zz"),
    ("explicit", ("relays", 0, "id"), DROP, ScenarioParseError, "relay entry: missing required field 'id'", "id"),
    ("explicit", ("relays", 0, "capacity"), DROP,
     ScenarioParseError, "relay entry: missing required field 'capacity'", "capacity"),
    ("explicit", ("relays", 0, "rate_budget"), DROP,
     ScenarioParseError, "relay entry: missing required field 'rate_budget'", "rate_budget"),
    ("explicit", ("relays", 0, "id"), "x",
     ScenarioParseError, "relay entry: field 'id' must be an integer, got 'x'", "id"),
    ("explicit", ("relays", 0, "capacity"), "x",
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got 'x'", "capacity"),
    ("explicit", ("relays", 0, "capacity"), True,
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got True", "capacity"),
    ("explicit", ("relays", 0, "capacity"), None,
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got None", "capacity"),
    ("explicit", ("relays", 0, "capacity"), 1.5,
     ScenarioParseError, "relay entry: field 'capacity' must be an integer, got 1.5", "capacity"),
    ("explicit", ("relays", 0, "rate_budget"), "x",
     ScenarioParseError, "relay entry: field 'rate_budget' must be a number, got 'x'", "rate_budget"),
    ("explicit", ("relays", 0, "rate_budget"), True,
     ScenarioParseError, "relay entry: field 'rate_budget' must be a number, got True", "rate_budget"),
    ("explicit", ("relays", 0, "rate_budget"), None,
     ScenarioParseError, "relay entry: field 'rate_budget' must be a number, got None", "rate_budget"),
    ("scheme", (), [1], ScenarioParseError, "scheme document must be a mapping, got list", None),
    ("scheme", (), "x", ScenarioParseError, "scheme document must be a mapping, got str", None),
    ("scheme", (), None, ScenarioParseError, "scheme document must be a mapping, got NoneType", None),
    ("scheme", ("zz",), 1, ScenarioParseError, "scheme document: unknown field 'zz'", "zz"),
    ("scheme", ("assignment",), DROP,
     ScenarioParseError, "scheme document: missing required field 'assignment'", "assignment"),
    ("scheme", ("assignment",), "x", ScenarioParseError, "assignment must be a list, got str", None),
    ("scheme", ("assignment",), None, ScenarioParseError, "assignment must be a list, got NoneType", None),
    ("scheme", ("assignment",), {}, ScenarioParseError, "assignment must be a list, got dict", None),
    ("scheme", ("assignment", 0), "x", ScenarioParseError, "assignment entry must be a mapping, got str", None),
    ("scheme", ("assignment", 0), None, ScenarioParseError, "assignment entry must be a mapping, got NoneType", None),
    ("scheme", ("assignment", 0, "zz"), 1, ScenarioParseError, "assignment entry: unknown field 'zz'", "zz"),
    ("scheme", ("assignment", 0, 2), 3, ScenarioParseError, "assignment entry: unknown field '2'", "2"),
    ("scheme", ("assignment", 0, "user"), DROP,
     ScenarioParseError, "assignment entry: missing required field 'user'", "user"),
    ("scheme", ("assignment", 0, "file"), DROP,
     ScenarioParseError, "assignment entry: missing required field 'file'", "file"),
    ("scheme", ("assignment", 0, "relay"), DROP,
     ScenarioParseError, "assignment entry: missing required field 'relay'", "relay"),
    ("scheme", ("assignment", 0, "user"), "x",
     ScenarioParseError, "assignment entry: field 'user' must be an integer, got 'x'", "user"),
    ("scheme", ("assignment", 0, "user"), True,
     ScenarioParseError, "assignment entry: field 'user' must be an integer, got True", "user"),
    ("scheme", ("assignment", 0, "user"), None,
     ScenarioParseError, "assignment entry: field 'user' must be an integer, got None", "user"),
    ("scheme", ("assignment", 0, "user"), 1.5,
     ScenarioParseError, "assignment entry: field 'user' must be an integer, got 1.5", "user"),
    ("scheme", ("assignment", 0, "file"), 1.5,
     ScenarioParseError, "assignment entry: field 'file' must be an integer, got 1.5", "file"),
    ("scheme", ("assignment", 0, "relay"), "x",
     ScenarioParseError, "assignment entry: field 'relay' must be an integer, got 'x'", "relay"),
    ("scheme", ("assignment", 0, "relay"), True,
     ScenarioParseError, "assignment entry: field 'relay' must be an integer, got True", "relay"),
    ("scheme", ("assignment", 0, "relay"), None,
     ScenarioParseError, "assignment entry: field 'relay' must be an integer, got None", "relay"),
    ("scheme", ("assignment", 0, "relay"), 1.5,
     ScenarioParseError, "assignment entry: field 'relay' must be an integer, got 1.5", "relay"),
    ("scheme", ("assignment", 0), REPEAT,
     ScenarioParseError, "assignment entry: duplicate holding (user 1, file 1)", None),
    ("rates", (), "x", ScenarioParseError, "rates document must be a mapping, got str", None),
    ("rates", ("zz",), 1, ScenarioParseError, "rates document: unknown field 'zz'", "zz"),
    ("rates", ("rates",), DROP, ScenarioParseError, "rates document: missing required field 'rates'", "rates"),
    ("rates", ("rates",), "x", ScenarioParseError, "rates must be a list, got str", None),
    ("rates", ("rates", 0), None, ScenarioParseError, "rate entry must be a mapping, got NoneType", None),
    ("rates", ("rates", 0, "zz"), 1, ScenarioParseError, "rate entry: unknown field 'zz'", "zz"),
    ("rates", ("rates", 0, "rate"), DROP, ScenarioParseError, "rate entry: missing required field 'rate'", "rate"),
    ("rates", ("rates", 0, "rate"), "x",
     ScenarioParseError, "rate entry: field 'rate' must be a number, got 'x'", "rate"),
    ("rates", ("rates", 0, "rate"), True,
     ScenarioParseError, "rate entry: field 'rate' must be a number, got True", "rate"),
    ("rates", ("rates", 0, "rate"), None,
     ScenarioParseError, "rate entry: field 'rate' must be a number, got None", "rate"),
    ("rates", ("rates", 0, "user"), 1.5,
     ScenarioParseError, "rate entry: field 'user' must be an integer, got 1.5", "user"),
    ("rates", ("rates", 0, "file"), "x",
     ScenarioParseError, "rate entry: field 'file' must be an integer, got 'x'", "file"),
    ("rates", ("rates", 0), REPEAT, ScenarioParseError, "rate entry: duplicate holding (user 1, file 1)", None),
    # A key written twice in one mapping; the last column is the line of the second key.
    ("explicit", ("files",), Twice([]), ScenarioParseError, "duplicate key 'files' at line 2", "files", 2),
    ("explicit", ("files", 0, "server_rate"), Twice(99.0),
     ScenarioParseError, "duplicate key 'server_rate' at line 4", "server_rate", 4),
    ("explicit", H0 + ("request_prob",), Twice(0.9),
     ScenarioParseError, "duplicate key 'request_prob' at line 12", "request_prob", 12),
    ("explicit-popularity", ("popularity", "mode"), Twice("zipf"),
     ScenarioParseError, "duplicate key 'mode' at line 27", "mode", 27),
    ("explicit", ("relays", 1, "capacity"), Twice(5),
     ScenarioParseError, "duplicate key 'capacity' at line 24", "capacity", 24),
    ("scheme", ("assignment", 0, "relay"), Twice(2),
     ScenarioParseError, "duplicate key 'relay' at line 5", "relay", 5),
    ("scheme", ("assignment",), Twice([]),
     ScenarioParseError, "duplicate key 'assignment' at line 2", "assignment", 2),
    ("rates", ("rates", 1, "rate"), Twice(9.0), ScenarioParseError, "duplicate key 'rate' at line 8", "rate", 8),
    ("rates", ("rates",), Twice([]), ScenarioParseError, "duplicate key 'rates' at line 2", "rates", 2),
]


def _mutant(text, path, value):
    """``text`` with the node at ``path`` dropped, repeated, written twice or set to ``value``; an empty path replaces the document."""
    if not path:
        return yaml.safe_dump(value)
    doc = yaml.safe_load(text)
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, doc)
    if value == DROP:
        del node[last]
    elif value == REPEAT:
        node.append(node[last])
    elif isinstance(value, Twice):
        pairs = ()
        for key, old in node.items():
            pairs += ((key, value.first), (key, old)) if key == last else ((key, old),)
        if parents:
            functools.reduce(operator.getitem, parents[:-1], doc)[parents[-1]] = pairs
        else:
            doc = pairs
    else:
        node[last] = value
    return yaml.dump(doc, Dumper=_PairsDumper, sort_keys=False)


@pytest.mark.parametrize(
    "base, path, value, error, message, field, line",
    [case if len(case) == 7 else (*case, None) for case in PARSE_ERRORS],
    ids=[f"{c[0]}:{'.'.join(map(str, c[1]))}={c[2]!r}" for c in PARSE_ERRORS],
)
def test_parse_error_is_pinned(base, path, value, error, message, field, line):
    parse, text = ERROR_BASES[base]
    with pytest.raises(FreshCacheError) as err:
        parse(_mutant(text, path, value))
    got = (type(err.value), str(err.value), getattr(err.value, "field", None), getattr(err.value, "line", None))
    assert got == (error, message, field, line)


@pytest.mark.parametrize(
    "parse, text, prefix, line",
    [
        (parse_scenario, "files: [\n", "malformed scenario document at line 2: ", 2),
        (parse_scheme, "assignment:\n- {user: 1\n", "malformed scheme document at line 3: ", 3),
        (parse_rates, "rates: [\n  - {rate: 1}\n ]: x\n", "malformed rates document at line 2: ", 2),
    ],
)
def test_malformed_document_error_is_pinned(parse, text, prefix, line):
    # The rest of the message is PyYAML's own text.
    with pytest.raises(ScenarioParseError) as err:
        parse(text)
    assert str(err.value).startswith(prefix)
    assert (err.value.field, err.value.line) == (None, line)


class TestZipfMode:
    def test_bundled_zipf_fixture(self):
        scenario = load_scenario("table1_zipf")
        # The document's law, zipf with exponent 1.0, restricted to each user's files, bit for bit.
        assert [[h.request_prob.hex() for h in u.holdings] for u in scenario.users] == [
            ["0x1.1745d1745d174p-1", "0x1.1745d1745d174p-2", "0x1.745d1745d1745p-3"],
            ["0x1.9f22983759f23p-2", "0x1.4c1bacf914c1cp-2", "0x1.14c1bacf914c1p-2"],
            ["0x1.1111111111111p-1", "0x1.dddddddddddddp-2"],
            ["0x1.0d79435e50d79p-1", "0x1.e50d79435e50fp-2"],
        ]
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
            total = sum(rate for _f, _u, _ur, relay, rate, _sr in result_rows(result) if relay == relay_id)
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

    def test_result_rows_sorted_by_file(self, table1, reference_scheme):
        from conftest import REFERENCE_RATES

        objective, _rates = evaluate_scheme(table1, reference_scheme)
        vector = tuple(reference_scheme.assignment[pair] for pair in table1.holding_pairs)
        rows = result_rows(make_solve_result(table1, vector, objective, (), 0))
        assert [(fid, uid) for fid, uid, *_ in rows] == sorted((fid, uid) for uid, fid in table1.holding_pairs)
        assert [fid for fid, *_ in rows] == list(range(1, 11))
        for fid, uid, _user_rate, relay, rate, _server_rate in rows:
            assert relay == reference_scheme.assignment[uid, fid]
            assert rate == pytest.approx(REFERENCE_RATES[uid, fid], abs=1e-4)


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
