"""Analytic freshness formula and objective tests."""

import ast
import inspect
import math

import pytest

import freshcache
from freshcache import (
    CacheScheme,
    DomainError,
    EmptyDomainError,
    IncompleteAllocationError,
    Scenario,
    file_freshness,
    system_freshness,
    user_freshness,
)
from freshcache import freshness as freshness_module

from conftest import REFERENCE_ASSIGNMENT, REFERENCE_RATES

# Regression anchors for the 4-decimal reference rate table, cross-checked by
# Monte Carlo simulation and the grid oracle.
EXPECTED_PER_USER = {1: 0.1782494, 2: 0.1513723, 3: 0.1283530, 4: 0.0738805}
EXPECTED_SUM = 0.5318552


class TestFileFreshness:
    def test_unit_rates(self):
        assert file_freshness(1, 1, 1) == 0.25

    def test_reference_row7(self):
        assert file_freshness(10, 6, 4.5573) == pytest.approx(0.2698, abs=1e-4)

    def test_zero_relay_rate(self):
        assert file_freshness(8, 4, 0.0) == 0.0

    def test_product_form(self):
        u, s, r = 7.5, 2.25, 3.0
        assert file_freshness(u, s, r) == (u / (u + s)) * (r / (r + s))

    def test_monotone_in_relay_rate(self):
        values = [file_freshness(5, 3, r) for r in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_concave_in_relay_rate(self):
        grid = [0.5 * i for i in range(30)]
        values = [file_freshness(5, 3, r) for r in grid]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_monotone_in_user_rate(self):
        values = [file_freshness(u, 3, 2) for u in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounded_by_both_factors(self):
        for u, s, r in ((1, 9, 1), (9, 1, 1), (4, 4, 4), (12, 0.5, 11)):
            f = file_freshness(u, s, r)
            assert 0 <= f < u / (u + s)
            assert f < r / (r + s) if r > 0 else f == 0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            file_freshness(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            file_freshness(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            file_freshness(1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            file_freshness(math.nan, 1.0, 1.0)
        with pytest.raises(DomainError):
            file_freshness(1.0, math.inf, 1.0)


class TestUserFreshness:
    def test_reference_user3(self, table1, reference_scheme):
        value = user_freshness(table1, reference_scheme, REFERENCE_RATES, 3)
        assert value == pytest.approx(0.1284, abs=1e-3)

    @pytest.mark.parametrize("user_id", [1, 2, 3, 4])
    def test_reference_values(self, table1, reference_scheme, user_id):
        value = user_freshness(table1, reference_scheme, REFERENCE_RATES, user_id)
        assert value == pytest.approx(EXPECTED_PER_USER[user_id], abs=1e-6)

    def test_manual_row_formula(self, table1, reference_scheme):
        for user in table1.users:
            expected = 0.0
            for h in user.holdings:
                key = (user.user_id, h.file_id)
                relay_id = reference_scheme.assignment[key]
                fresh = file_freshness(
                    h.user_rate, table1.file_by_id[h.file_id].server_rate, REFERENCE_RATES[key]
                )
                expected += h.request_prob * user.relay_prefs[relay_id - 1] * fresh
            got = user_freshness(table1, reference_scheme, REFERENCE_RATES, user.user_id)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_unknown_user(self, table1, reference_scheme):
        for user_id in (99, True, 1.0):   # True == 1 and 1.0 == 1, but neither is user 1's id
            with pytest.raises(DomainError):
                user_freshness(table1, reference_scheme, REFERENCE_RATES, user_id)

    def test_missing_assignment(self, table1):
        partial = dict(REFERENCE_ASSIGNMENT)
        del partial[(1, 2)]
        with pytest.raises(IncompleteAllocationError):
            user_freshness(table1, CacheScheme(partial), REFERENCE_RATES, 1)

    def test_missing_rate(self, table1, reference_scheme):
        partial = dict(REFERENCE_RATES)
        del partial[(1, 2)]
        with pytest.raises(IncompleteAllocationError):
            user_freshness(table1, reference_scheme, partial, 1)


    def test_one_placement_lookup_per_holding(self, table1, reference_scheme, monkeypatch):
        seen = []
        lookup = freshness_module.holding_placement

        def counted(scenario, scheme, rates, key):
            seen.append(key)
            return lookup(scenario, scheme, rates, key)

        monkeypatch.setattr(freshness_module, "holding_placement", counted)
        system_freshness(table1, reference_scheme, REFERENCE_RATES)
        assert seen == list(table1.holding_pairs)

    def test_one_scoring_path(self):
        # No fallback branch: every holding goes through holding_placement and Scenario.coef.
        tree = ast.parse(inspect.getsource(user_freshness))
        assert not any(isinstance(node, ast.Try) for node in ast.walk(tree))


class TestSystemFreshness:
    def test_reference_objective(self, table1, reference_scheme):
        objective = system_freshness(table1, reference_scheme, REFERENCE_RATES)
        assert objective.sum_form == pytest.approx(0.5319, abs=5e-4)
        assert objective.sum_form == pytest.approx(EXPECTED_SUM, abs=1e-6)
        assert objective.mean_form == pytest.approx(EXPECTED_SUM / 4, abs=1e-6)

    def test_mean_is_sum_over_users(self, table1, reference_scheme):
        objective = system_freshness(table1, reference_scheme, REFERENCE_RATES)
        assert objective.mean_form == objective.sum_form / 4

    def test_sum_of_user_values(self, table1, reference_scheme):
        objective = system_freshness(table1, reference_scheme, REFERENCE_RATES)
        total = sum(
            user_freshness(table1, reference_scheme, REFERENCE_RATES, uid) for uid in (1, 2, 3, 4)
        )
        assert objective.sum_form == pytest.approx(total, abs=1e-12)

    def test_all_zero_rates(self, table1, reference_scheme):
        zero = {key: 0.0 for key in REFERENCE_RATES}
        objective = system_freshness(table1, reference_scheme, zero)
        assert objective.sum_form == 0.0
        assert objective.mean_form == 0.0

    def test_incomplete_rates(self, table1, reference_scheme):
        with pytest.raises(IncompleteAllocationError):
            system_freshness(table1, reference_scheme, {})

    def test_no_users_has_no_mean(self, table1):
        with pytest.raises(EmptyDomainError, match="at least one user"):
            system_freshness(Scenario(files=table1.files, users=(), relays=table1.relays), CacheScheme({}), {})

    @pytest.mark.parametrize("relay_id", [0, 4, True, 1.0], ids=["relay-0", "relay-K+1", "bool", "float"])
    def test_relay_outside_one_to_k(self, table1, relay_id):
        # Relay 0 would silently read the last relay's preference; relay K+1 would index past the end;
        # True would be scored as relay 1 and 1.0 cannot index a tuple.  validate_scheme rejects all four.
        assignment = dict(REFERENCE_ASSIGNMENT)
        assignment[(1, 1)] = relay_id
        with pytest.raises(DomainError, match=f"unknown relay {relay_id}"):
            system_freshness(table1, CacheScheme(assignment), REFERENCE_RATES)


def test_objective_values_are_built_in_one_place():
    # Every ObjectiveValue comes from ObjectiveValue.of_sum, the one place that divides by the user count.
    for module in (freshcache.freshness, freshcache.oracle, freshcache.search, freshcache.simulator):
        tree = ast.parse(inspect.getsource(module))
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "ObjectiveValue"]
        assert not calls, module.__name__
        divisions = [n for n in ast.walk(tree) if isinstance(n, ast.BinOp) and "n_users" in ast.unparse(n.right)]
        assert len(divisions) == (module is freshcache.freshness), module.__name__
