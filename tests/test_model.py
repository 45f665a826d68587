"""Domain model, validation, and popularity distribution tests."""

import ast
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import freshcache
from freshcache import (
    AllocationEntry,
    CacheScheme,
    DomainError,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    UserSpec,
    fixture_path,
    load_scenario,
    parse_scenario,
    rate_alloc,
    serialize_scenario,
    solve_exhaustive,
    validate_scenario,
    validate_scheme,
    weight,
    with_scaled_rates,
)
from freshcache.model import sort_key
from freshcache.oracle import brute_force_assignments
from freshcache.search import solve_sampled
from freshcache.search import relay_inputs

from conftest import REFERENCE_ASSIGNMENT, random_scenario
from test_search_reference import _duplicated

FIXTURES = sorted(path.stem for path in fixture_path("table1").parent.glob("*.yaml"))


def codes(report):
    return [v.code for v in report]


class TestScenarioStructure:
    def test_table1_shape(self, table1):
        assert table1.n_files == 10
        assert table1.n_users == 4
        assert table1.n_relays == 3
        assert [r.rate_budget for r in table1.relays] == [12, 10, 8]
        assert [r.capacity for r in table1.relays] == [6, 5, 4]
        assert [f.server_rate for f in table1.files] == [4, 3, 3, 6, 4, 3, 6, 4, 5, 6]

    def test_holding_pairs_document_order(self, table1):
        assert table1.holding_pairs == (
            (1, 1), (1, 2), (1, 3),
            (2, 4), (2, 5), (2, 6),
            (3, 7), (3, 8),
            (4, 9), (4, 10),
        )

    def test_lookup_maps(self, table1):
        assert table1.file_by_id[7].server_rate == 6
        assert table1.user_by_id[3].relay_prefs == (0.2, 0.5, 0.3)

    def test_specs_are_immutable(self, table1):
        with pytest.raises(dataclasses.FrozenInstanceError):
            table1.files[0].server_rate = 99.0


class TestHoldingEntries:
    def test_one_entry_per_holding_in_document_order(self, table1):
        assert tuple(table1.entries) == table1.holding_pairs
        e = table1.entries[(3, 7)]
        assert (e.key, e.user_rate, e.server_rate) == ((3, 7), 10, 6)
        assert table1.entries is table1.entries

    def test_derived_fields_are_neither_arguments_nor_compared(self):
        e = AllocationEntry((1, 1), 5.0, 3.0)
        assert (e.mu, e.weight) == (5.0 / 8.0, math.sqrt(15.0 / 8.0))
        assert e == AllocationEntry((1, 1), 5.0, 3.0)
        with pytest.raises(TypeError):
            AllocationEntry((1, 1), 5.0, 3.0, 0.5)

    def test_rate_alloc_reexports_the_model_record(self):
        assert rate_alloc.AllocationEntry is AllocationEntry
        assert rate_alloc.weight is weight

    def test_relay_inputs_share_the_scenario_entries(self, table1):
        inputs = relay_inputs(table1, CacheScheme(dict(REFERENCE_ASSIGNMENT)))
        entries = [e for alloc_input in inputs.values() for e in alloc_input.entries]
        assert len(entries) == len(table1.entries)
        assert all(e is table1.entries[e.key] for e in entries)

    def test_mu_is_written_once(self):
        # mu = u/(u+s) comes from AllocationEntry; file_freshness, which takes bare rates, is the one other place.
        src = Path(freshcache.__file__).parent
        pattern = re.compile(r"\b(?:user_rate|u)\s*/\s*\(")
        hits = []
        for path in sorted(src.glob("*.py")):
            if path.name == "model.py":
                continue
            text = path.read_text()
            allowed = set()
            if path.name == "freshness.py":
                fn = next(n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef) and n.name == "file_freshness")
                allowed = set(range(fn.lineno, fn.end_lineno + 1))
            hits += [
                f"{path.name}:{lineno}"
                for lineno, line in enumerate(text.splitlines(), 1)
                if pattern.search(line) and lineno not in allowed
            ]
        assert hits == [], f"mu written outside model.AllocationEntry and freshness.file_freshness: {hits}"

    def test_c_is_written_once(self):
        # c = request_prob * relay_pref comes from Scenario.coef; the oracle keeps its own copy as the independent reference.
        src = Path(freshcache.__file__).parent
        pattern = re.compile(r"request_prob\s*\*|\*\s*[\w.]*request_prob")
        hits = [
            f"{path.name}:{lineno}"
            for path in sorted(src.glob("*.py"))
            if path.name not in ("model.py", "oracle.py")
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == [], f"c written outside model.Scenario.coef and oracle: {hits}"

    def test_the_layout_is_built_once(self):
        # Scenario.layout is the one sort_key order and the one set of column arrays; allocate sorts its own
        # input.  The search and the oracle read the layout and build no columns of their own.
        src = Path(freshcache.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}

        def defined(node, name):
            return next(n for n in ast.walk(node) if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)

        allowed = set(ast.walk(defined(trees["rate_alloc.py"], "allocate")))
        uses = [
            f"{name}:{node.lineno}"
            for name, tree in trees.items()
            if name != "model.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sort_key" and node not in allowed
        ]
        assert uses == [], f"sort_key used outside model and rate_alloc.allocate: {uses}"
        columns = {"weight", "server_rate", "mu", "coef"}
        search_init = defined(defined(trees["search.py"], "_Search"), "__init__")
        for fn in (search_init, defined(trees["oracle.py"], "brute_force_assignments")):
            built = [
                f"{fn.name}:{node.lineno}"
                for comp in ast.walk(fn)
                if isinstance(comp, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp))
                for node in ast.walk(comp)
                if isinstance(node, ast.Attribute) and node.attr in columns
            ]
            assert built == [], f"per-holding columns built outside Scenario.layout: {built}"


def _assert_layout(scenario):
    # The layout is sorted(entries, key=sort_key): document positions, then each column bit for bit.
    entries = list(scenario.entries.values())
    expected = sorted(entries, key=sort_key)
    order, weights, server_rates, mus, coef = scenario.layout
    assert order.dtype == np.intp and [entries[p] for p in order.tolist()] == expected
    assert all(column.dtype == np.float64 for column in (weights, server_rates, mus, coef))
    assert coef.shape == (len(entries), scenario.n_relays)
    for column, name in ((weights, "weight"), (server_rates, "server_rate"), (mus, "mu")):
        assert [x.hex() for x in column.tolist()] == [float(getattr(e, name)).hex() for e in expected]
    assert [[x.hex() for x in row] for row in coef.tolist()] == [[float(c).hex() for c in scenario.coef[e.key]] for e in expected]


class TestLayout:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_layouts_are_the_sort_key_order(self, name):
        scenario = load_scenario(fixture_path(name))
        _assert_layout(scenario)
        assert scenario.layout is scenario.layout

    @given(
        kinds=st.lists(st.sampled_from([(3.0, 2.0), (6.0, 1.0), (1.5, 4.0), (2.5, 0.7), (1.0, 1.0)]), min_size=1, max_size=3),
        per_user=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        n_relays=st.integers(1, 4),
    )
    def test_ties_on_mu_over_s_keep_document_order(self, kinds, per_user, n_relays):
        # Repeated kinds tie on mu/s exactly, so the (user_id, file_id) tie-break decides the order.
        _assert_layout(_duplicated(kinds, tuple(per_user), n_relays, 4, 5.0))

    @pytest.mark.parametrize(
        "users, n_relays",
        [((), 2), ((UserSpec(1, (), (1.0,)),), 1), ((UserSpec(1, (Holding(1, 4.0, 1.0),), ()),), 0), ((), 0)],
        ids=["no-users", "no-holdings", "no-relays", "nothing"],
    )
    def test_empty_instances_lay_out_empty_arrays(self, users, n_relays):
        # The solvers raise InfeasibleError on these (tests/test_oracle.py); building the layout must not raise first.
        relays = tuple(RelaySpec(k + 1, 1, 6.0) for k in range(n_relays))
        scenario = Scenario(files=(FileSpec(1, 2.0),), users=users, relays=relays)
        _assert_layout(scenario)
        n = len(scenario.entries)
        assert [a.shape for a in scenario.layout] == [(n,)] * 4 + [(n, n_relays)]

    @pytest.mark.parametrize(
        "defect, message",
        [("short-relay-prefs", "user 2: relay_prefs length 1 != relay count 2"), ("unknown-file", "user 2: holding references unknown file 99")],
    )
    @pytest.mark.parametrize(
        "solve",
        [solve_exhaustive, lambda scenario: solve_sampled(scenario, 10, 0), brute_force_assignments],
        ids=["exhaustive", "sampled", "oracle"],
    )
    def test_an_unvalidated_scenario_fails_with_a_domain_error(self, solve, defect, message):
        # Built through the API, so no validation ran: the solvers read entries and layout first, which name the defect.
        holding = Holding(99 if defect == "unknown-file" else 2, 1.0, 1.0)
        users = (
            UserSpec(1, (Holding(1, 1.0, 1.0),), (0.5, 0.5)),
            UserSpec(2, (holding,), (1.0,) if defect == "short-relay-prefs" else (0.5, 0.5)),
        )
        scenario = Scenario(files=(FileSpec(1, 2.0), FileSpec(2, 3.0)), users=users, relays=(RelaySpec(1, 2, 4.0), RelaySpec(2, 2, 4.0)))
        with pytest.raises(DomainError, match=re.escape(message)):
            solve(scenario)

    def test_a_scaled_copy_gets_its_own_layout(self):
        # table1's order survives any uniform scale of either rate (no pair's mu/s crosses), so the case uses
        # server_rates_high, whose holdings (1, 1) and (4, 9) swap below a server factor of 0.8.
        base = load_scenario(fixture_path("server_rates_high"))
        base_order = base.layout[0].tolist()
        scaled = with_scaled_rates(base, "server", 0.5)
        assert scaled.layout is not base.layout and scaled.layout[0].tolist() != base_order
        assert base.layout[0].tolist() == base_order
        _assert_layout(scaled)
        result, reloaded = solve_exhaustive(scaled), solve_exhaustive(parse_scenario(serialize_scenario(scaled)))
        assert result.objective.sum_form.hex() == reloaded.objective.sum_form.hex()
        assert result.best_scheme == reloaded.best_scheme and result.best_rates == reloaded.best_rates
        assert (result.trace, result.evaluated_count) == (reloaded.trace, reloaded.evaluated_count)


class TestValidateScenario:
    def test_table1_is_valid(self, table1):
        assert validate_scenario(table1) == []

    def test_random_scenarios_are_valid(self):
        rng = random.Random(20260817)
        for _ in range(25):
            scenario = random_scenario(
                rng,
                n_files=rng.randint(2, 8),
                n_users=rng.randint(1, 2),
                n_relays=rng.randint(1, 3),
            )
            assert validate_scenario(scenario) == []

    def test_empty_scenario(self):
        report = validate_scenario(Scenario(files=(), users=(), relays=()))
        assert {"files-empty", "users-empty", "relays-empty"} <= set(codes(report))

    def test_aggregate_capacity_message(self):
        scenario = Scenario(
            files=tuple(FileSpec(i, 1.0) for i in (1, 2, 3)),
            users=(
                UserSpec(1, (Holding(1, 1.0, 0.5), Holding(2, 1.0, 0.25), Holding(3, 1.0, 0.25)), (1.0,)),
            ),
            relays=(RelaySpec(1, 2, 5.0),),
        )
        report = validate_scenario(scenario)
        assert codes(report) == ["capacity-aggregate"]
        assert report[0].message == "aggregate capacity below file count: 2 < 3"

    def test_relay_prefs_sum(self):
        scenario = Scenario(
            files=(FileSpec(1, 1.0),),
            users=(UserSpec(1, (Holding(1, 1.0, 1.0),), (0.6, 0.6)),),
            relays=(RelaySpec(1, 1, 5.0), RelaySpec(2, 1, 5.0)),
        )
        report = validate_scenario(scenario)
        assert codes(report) == ["relay-prefs-sum"]
        assert "relay_prefs sum != 1" in report[0].message

    def test_relay_prefs_length(self):
        scenario = Scenario(
            files=(FileSpec(1, 1.0),),
            users=(UserSpec(1, (Holding(1, 1.0, 1.0),), (1.0,)),),
            relays=(RelaySpec(1, 1, 5.0), RelaySpec(2, 1, 5.0)),
        )
        assert codes(validate_scenario(scenario)) == ["relay-prefs-len"]

    def test_nonpositive_rates(self):
        scenario = Scenario(
            files=(FileSpec(1, 0.0),),
            users=(UserSpec(1, (Holding(1, -1.0, 1.0),), (1.0,)),),
            relays=(RelaySpec(1, 1, -2.0),),
        )
        report = codes(validate_scenario(scenario))
        assert "server-rate" in report
        assert "user-rate" in report
        assert "rate-budget" in report

    def test_shared_and_unheld_files(self):
        scenario = Scenario(
            files=(FileSpec(1, 1.0), FileSpec(2, 1.0)),
            users=(
                UserSpec(1, (Holding(1, 1.0, 1.0),), (1.0,)),
                UserSpec(2, (Holding(1, 1.0, 1.0),), (1.0,)),
            ),
            relays=(RelaySpec(1, 2, 5.0),),
        )
        report = codes(validate_scenario(scenario))
        assert "file-shared" in report
        assert "file-unheld" in report

    def test_request_prob_sum(self):
        scenario = Scenario(
            files=(FileSpec(1, 1.0), FileSpec(2, 1.0)),
            users=(UserSpec(1, (Holding(1, 1.0, 0.5), Holding(2, 1.0, 0.6)), (1.0,)),),
            relays=(RelaySpec(1, 2, 5.0),),
        )
        assert codes(validate_scenario(scenario)) == ["request-prob-sum"]

    def test_duplicate_and_unknown_holdings(self):
        scenario = Scenario(
            files=(FileSpec(1, 1.0),),
            users=(UserSpec(1, (Holding(1, 1.0, 0.5), Holding(1, 1.0, 0.25), Holding(9, 1.0, 0.25)), (1.0,)),),
            relays=(RelaySpec(1, 3, 5.0),),
        )
        report = codes(validate_scenario(scenario))
        assert "holding-duplicate" in report
        assert "holding-unknown-file" in report

    def test_noncontiguous_ids(self):
        scenario = Scenario(
            files=(FileSpec(2, 1.0),),
            users=(UserSpec(1, (Holding(2, 1.0, 1.0),), (1.0,)),),
            relays=(RelaySpec(1, 1, 5.0),),
        )
        assert "file-ids" in codes(validate_scenario(scenario))

    @pytest.mark.parametrize(
        "code",
        ["relay-ids", "capacity-range", "holdings-empty", "request-prob", "file-ids", "user-ids", "relay-ids-float", "holding-unknown-file"],
    )
    def test_one_violation_per_case(self, code):
        # Each case breaks one rule of a valid two-relay scenario, which is reported alone.  An id that is
        # True or 1.0 equals 1 but is not an int id.
        prefs = (0.5, 0.5)
        user = UserSpec(1, (Holding(1, 1.0, 0.5), Holding(2, 1.0, 0.5)), prefs)
        base = Scenario(files=(FileSpec(1, 1.0), FileSpec(2, 1.0)), users=(user,), relays=(RelaySpec(1, 1, 5.0), RelaySpec(2, 1, 5.0)))
        broken = {
            "relay-ids": dataclasses.replace(base, relays=(RelaySpec(1, 1, 5.0), RelaySpec(3, 1, 5.0))),
            "capacity-range": dataclasses.replace(base, relays=(RelaySpec(1, 2, 5.0), RelaySpec(2, -1, 5.0))),
            "holdings-empty": dataclasses.replace(base, users=(user, UserSpec(2, (), prefs))),
            "request-prob": dataclasses.replace(base, users=(UserSpec(1, (Holding(1, 1.0, 1.5), Holding(2, 1.0, 0.5)), prefs),)),
            "file-ids": dataclasses.replace(base, files=(FileSpec(True, 1.0), FileSpec(2, 1.0))),
            "user-ids": dataclasses.replace(base, users=(UserSpec(True, user.holdings, prefs),)),
            "relay-ids-float": dataclasses.replace(base, relays=(RelaySpec(1.0, 1, 5.0), RelaySpec(2, 1, 5.0))),
            "holding-unknown-file": dataclasses.replace(base, users=(UserSpec(1, (Holding(1.0, 1.0, 0.5), Holding(2, 1.0, 0.5)), prefs),)),
        }
        assert validate_scenario(base) == []
        assert codes(validate_scenario(broken[code])) == [code.removesuffix("-float")]


class TestValidateScheme:
    def test_reference_scheme_is_valid(self, table1, reference_scheme):
        assert validate_scheme(table1, reference_scheme) == []

    def test_unassigned_holding_message(self, table1):
        partial = dict(REFERENCE_ASSIGNMENT)
        del partial[(4, 10)]
        report = validate_scheme(table1, CacheScheme(partial))
        assert [v.code for v in report] == ["holding-unassigned"]
        assert report[0].message == "unassigned holding (user 4, file 10)"

    def test_over_capacity_message(self, table1):
        crowded = {pair: 3 for pair in REFERENCE_ASSIGNMENT}
        report = validate_scheme(table1, CacheScheme(crowded))
        assert [v.code for v in report] == ["relay-over-capacity"]
        assert report[0].message == "relay 3 over capacity: 10 > 4"

    def test_unknown_relay_and_holding(self, table1):
        bad = dict(REFERENCE_ASSIGNMENT)
        bad[(1, 1)] = 7
        bad[(9, 9)] = 1
        report = codes(validate_scheme(table1, CacheScheme(bad)))
        assert "relay-unknown" in report
        assert "holding-unknown" in report

    @pytest.mark.parametrize("relay_id", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_relay_id_is_unknown(self, table1, relay_id):
        # Both compare equal to relay 1, so only the number rule can reject them.
        bad = dict(REFERENCE_ASSIGNMENT)
        bad[(1, 1)] = relay_id
        report = validate_scheme(table1, CacheScheme(bad))
        assert [v.code for v in report] == ["relay-unknown"]
        assert report[0].message == f"holding (user 1, file 1) assigned to unknown relay {relay_id}"


def _zipf_document(exponent, held, n_files=None) -> str:
    """A zipf-mode document: files 1..n_files, user u holding the file ids held[u - 1], one relay that takes them all."""
    n_files = sum(map(len, held)) if n_files is None else n_files
    doc = {
        "files": [{"id": i, "server_rate": 1.0} for i in range(1, n_files + 1)],
        "users": [
            {"id": uid, "holdings": [{"file": fid, "user_rate": 1.0} for fid in files], "relay_prefs": [1.0]}
            for uid, files in enumerate(held, 1)
        ],
        "relays": [{"id": 1, "capacity": n_files, "rate_budget": 1.0}],
        "popularity": {"mode": "zipf", "exponent": exponent},
    }
    return yaml.safe_dump(doc, sort_keys=False)


def _zipf_probs(exponent, n) -> tuple[float, ...]:
    """The request probabilities the reader derives for one user holding files 1..n, in rank order."""
    (user,) = parse_scenario(_zipf_document(exponent, [range(1, n + 1)])).users
    return tuple(h.request_prob for h in user.holdings)


def _violation_codes(text: str) -> list[str]:
    """The codes of the violation report a document fails with; a bare DomainError fails the calling test."""
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(text)
    return [v.code for v in err.value.report]


class TestZipfPopularity:
    """The rank law p_i proportional to i**(-exponent), as the reader applies it to one-user documents."""

    def test_exponent_zero_is_uniform(self):
        assert _zipf_probs(0, 4) == (0.25, 0.25, 0.25, 0.25)

    def test_exponent_one_two_files(self):
        assert _zipf_probs(1, 2) == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_exponent_two_three_files(self):
        assert _zipf_probs(2, 3) == pytest.approx((36 / 49, 9 / 49, 4 / 49), abs=1e-15)

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_distribution_properties(self, exponent, n):
        probs = _zipf_probs(exponent, n)
        assert len(probs) == n
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in probs)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_zero_files_raises(self):
        # The law over no files is empty, so the user's holding is unknown and its probability 0.
        text = _zipf_document(1.0, [[1]], n_files=0)
        assert _violation_codes(text) == ["files-empty", "holding-unknown-file", "request-prob-sum"]

    def test_bad_arguments_raise(self):
        # The reader refuses a law it cannot apply before it builds any holding.
        for exponent in (-1, math.nan, math.inf):
            with pytest.raises(ScenarioParseError) as err:
                parse_scenario(_zipf_document(exponent, [[1, 2, 3]]))
            assert err.value.field == "exponent"


class TestPerUserRequestProbs:
    """The law restricted to each user's files and renormalized, as the reader applies it."""

    def test_three_file_example(self):
        first, _ = parse_scenario(_zipf_document(1, [[1, 2, 3], range(4, 11)])).users
        assert [h.request_prob for h in first.holdings] == pytest.approx([6 / 11, 3 / 11, 2 / 11], abs=1e-15)

    def test_scaling_invariance(self):
        # More files scale the law's first six ranks by one factor; user 1's renormalized share of them stays put.
        def probs(n_files):
            held = [[2, 5], [f for f in range(1, n_files + 1) if f not in (2, 5)]]
            return [h.request_prob for h in parse_scenario(_zipf_document(1.3, held)).users[0].holdings]

        assert probs(6) == pytest.approx(probs(60), abs=1e-15)

    def test_empty_user_raises(self):
        assert _violation_codes(_zipf_document(1.0, [[], [1, 2]], n_files=2)) == ["holdings-empty"]
        assert _violation_codes(_zipf_document(1.0, [[]], n_files=1)) == ["holdings-empty", "file-unheld"]

    def test_zero_mass_raises(self):
        # At exponent 5000 every rank from 2 up underflows to 0.0, so only user 1, who holds file 1, has mass.
        doc = yaml.safe_load(fixture_path("table1_zipf").read_text())
        doc["popularity"]["exponent"] = 5000
        assert _violation_codes(yaml.safe_dump(doc)) == ["request-prob-sum"] * 3

    def test_missing_entry_raises(self):
        # File ids outside 1..N get no mass; the user's other file keeps all of it.
        for file_id in (5, 0, 99):
            assert _violation_codes(_zipf_document(1.0, [[file_id, 2]])) == ["holding-unknown-file", "file-unheld"]


class TestWithScaledRates:
    def test_user_scaling(self, table1):
        scaled = with_scaled_rates(table1, "user", 1.5)
        assert scaled.users[0].holdings[0].user_rate == pytest.approx(12.0)
        assert scaled.files[0].server_rate == table1.files[0].server_rate
        assert scaled.users[0].holdings[0].request_prob == table1.users[0].holdings[0].request_prob
        assert validate_scenario(scaled) == []

    def test_server_scaling(self, table1):
        scaled = with_scaled_rates(table1, "server", 2.0)
        assert [f.server_rate for f in scaled.files] == [8, 6, 6, 12, 8, 6, 12, 8, 10, 12]
        assert scaled.users == table1.users
        assert validate_scenario(scaled) == []

    def test_identity_factor(self, table1):
        assert with_scaled_rates(table1, "user", 1.0) == table1

    def test_bad_arguments(self, table1):
        with pytest.raises(DomainError):
            with_scaled_rates(table1, "relay", 1.0)
        with pytest.raises(DomainError):
            with_scaled_rates(table1, "user", 0.0)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # A field that neither the package nor its benchmark reads is carried for the tests alone.  Exception
    # attributes (ScenarioParseError's line and field) are not dataclass fields, so they stay out of scope.
    src = Path(freshcache.__file__).parent
    bench = [path for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    assert bench, "perfbench/ not found beside tests/"
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(src.glob("*.py")), *bench]}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = [
        f"{path.stem}.{cls.name}.{stmt.target.id}"
        for path, tree in trees.items()
        if path.parent == src
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert len(fields) > 30
    assert [name for name in fields if name.rsplit(".", 1)[1] not in read] == []


def test_every_top_level_name_is_read():
    # A function, class or constant that nothing in the package or its benchmark reads is carried for the
    # tests alone, and belongs under tests/.  A re-export in __init__.py is not a read, nor is a definition's
    # use of itself; main looks the cli._cmd_* functions up by name, so they are exempt.
    src = Path(freshcache.__file__).parent
    bench = [path for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    assert bench, "perfbench/ not found beside tests/"
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(src.glob("*.py")), *bench]}

    def loads(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}

    readers = [(stmt, loads(stmt)) for path, tree in trees.items() if path.name != "__init__.py" for stmt in tree.body]
    defined = []
    for path, tree in trees.items():
        for stmt in tree.body if path.parent == src else ():
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(path.stem, stmt, t.id) for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]
    assert len(defined) > 100
    unread = [
        f"{module}.{name}" for module, stmt, name in defined
        if not any(name in names for other, names in readers if other is not stmt)
        and not (module == "cli" and name.startswith("_cmd_"))
    ]
    assert unread == []


@pytest.mark.parametrize("module", ["conftest", "workloads"])
def test_suite_helpers_import_no_test_framework(module):
    # The benchmark times a fresh process that imports its workloads, and they take their generators from
    # conftest: neither may load pytest, or every setup probe would time a test framework besides the package.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(p) for p in (Path(freshcache.__file__).parents[1], root / "tests", root / "perfbench"))
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] in ('pytest', '_pytest')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
