"""Scenario documents, bundled fixtures, and result/trace emission.

Scenario files are YAML mappings with ``files``, ``users``, ``relays`` and an
optional ``popularity`` block.  Request probabilities are given per holding
(explicit mode, the default) or derived from a rank-based popularity law
(zipf mode), never both; ``validate_scenario`` reports a faulty document of
either mode.  A scenario keeps only the probabilities, so
``serialize_scenario`` writes every scenario in explicit mode.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Hashable
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import yaml

from .errors import ScenarioParseError, ScenarioValidationError
from .model import (
    CacheScheme,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    UserSpec,
    is_number,
    validate_scenario,
)

if TYPE_CHECKING:  # pragma: no cover
    from .search import SolveResult


# libyaml's safe loader where PyYAML was built with it: the same resolver as SafeLoader, so the same values, faster.
class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, refusing a key written twice in one mapping rather than keeping the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value:
            # ``<<`` merges in keys the mapping may override; an unhashable key is left for the base class to report.
            key = self.construct_object(key_node, deep=deep) if key_node.tag != "tag:yaml.org,2002:merge" else []
            if isinstance(key, Hashable):
                if key in seen:
                    line = key_node.start_mark.line + 1
                    raise ScenarioParseError(f"duplicate key {key!r} at line {line}", line=line, field=str(key))
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


# The 1.1 resolver above reads an exponent only after a dot and with a sign (1.5e+3); YAML 1.2 also reads 1e-3 and 1.5e3.
_YAML_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789.")
)


# A field's kind names what its value must be: _INT, _NUMBER, or None for any value.
_INT, _NUMBER = "an integer", "a number"
# Each record's fields, in the order they are read; a key outside its table is an unknown field.
_SCENARIO_FIELDS = {"files": None, "users": None, "relays": None, "popularity": None}
_POPULARITY_FIELDS = {"mode": None, "exponent": _NUMBER}
_FILE_FIELDS = {"id": _INT, "server_rate": _NUMBER}
_USER_FIELDS = {"id": _INT, "holdings": None, "relay_prefs": None}
_HOLDING_FIELDS = {"file": _INT, "user_rate": _NUMBER, "request_prob": _NUMBER}
_RELAY_FIELDS = {"id": _INT, "capacity": _INT, "rate_budget": _NUMBER}


def _require_list(node, what: str) -> list:
    if not isinstance(node, list):
        raise ScenarioParseError(f"{what} must be a list, got {type(node).__name__}")
    return node


def _is_yaml_number(value) -> bool:
    """A float, or an int in the float range; ``.inf`` and ``.nan`` pass so that ``validate_scenario`` reports them by code."""
    return isinstance(value, float) or is_number(value, True) and abs(value) <= sys.float_info.max


def _record(node, what: str, fields: Mapping[str, str | None], read: Iterable[str] | None = None) -> list:
    """The values of the ``read`` fields (default: all) of a mapping whose keys are all in ``fields``.

    Raises ScenarioParseError, naming ``what``, for a node that is not a mapping,
    an unknown key, a missing field or a value of the wrong kind; numbers come
    back as floats.
    """
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{what} must be a mapping, got {type(node).__name__}")
    unknown = [key for key in node if key not in fields]
    if unknown:
        key = min(unknown, key=str)   # by text, since YAML keys may be ints, floats or null as well as strings
        raise ScenarioParseError(f"{what}: unknown field '{key}'", field=str(key))
    values = []
    for key in fields if read is None else read:
        if key not in node:
            raise ScenarioParseError(f"{what}: missing required field '{key}'", field=key)
        value, kind = node[key], fields[key]
        if kind is not None and not (is_number(value, True) if kind == _INT else _is_yaml_number(value)):
            raise ScenarioParseError(f"{what}: field '{key}' must be {kind}, got {value!r}", field=key)
        values.append(float(value) if kind == _NUMBER else value)
    return values


def _load_yaml(text: str, kind: str):
    """The one YAML document in ``text``; a malformed one raises ScenarioParseError with its line where known."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:   # ValueError: a date that does not exist, an int past the digit limit
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        at = f" at line {line}" if line is not None else ""
        raise ScenarioParseError(f"malformed {kind} document{at}: {exc}", line=line) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises on any malformation."""
    doc = _load_yaml(text, "scenario")
    file_nodes, user_nodes, relay_nodes = _record(doc, "scenario document", _SCENARIO_FIELDS, ("files", "users", "relays"))
    pop = doc.get("popularity", {"mode": "explicit"})   # present but null is still "not a mapping"
    (mode,) = _record(pop, "popularity", _POPULARITY_FIELDS, ("mode",))
    if mode not in ("explicit", "zipf"):
        raise ScenarioParseError(f"popularity: unknown mode {mode!r}", field="mode")
    exponent: float | None = None
    if mode == "zipf":
        (exponent,) = _record(pop, "popularity", _POPULARITY_FIELDS, ("exponent",))
        if not is_number(exponent) or exponent < 0:
            raise ScenarioParseError(f"popularity: zipf exponent must be finite and non-negative, got {exponent!r}", field="exponent")
    elif "exponent" in pop:
        raise ScenarioParseError("popularity: field 'exponent' is only valid in zipf mode", field="exponent")

    files = tuple(FileSpec(*_record(node, "file entry", _FILE_FIELDS)) for node in _require_list(file_nodes, "files"))
    if mode == "zipf":   # p_i proportional to i**(-exponent) over ranks 1..N; zero files make an empty law
        ranked = [float(rank) ** -exponent for rank in range(1, len(files) + 1)]
        total = math.fsum(ranked)
        popularity = [w / total for w in ranked]

    users = []
    for node in _require_list(user_nodes, "users"):
        (uid,) = _record(node, "user entry", _USER_FIELDS, ("id",))
        holding_nodes, pref_nodes = _record(node, f"user {uid}", _USER_FIELDS, ("holdings", "relay_prefs"))
        holdings = []
        for h in _require_list(holding_nodes, f"user {uid} holdings"):
            fid, user_rate = _record(h, f"user {uid} holding", _HOLDING_FIELDS, ("file", "user_rate"))
            prob = 0.0
            if mode == "explicit":
                (prob,) = _record(h, f"user {uid} holding file {fid}", _HOLDING_FIELDS, ("request_prob",))
            elif "request_prob" in h:
                raise ScenarioParseError(f"user {uid}, file {fid}: request_prob is not allowed in zipf mode", field="request_prob")
            holdings.append(Holding(fid, user_rate, prob))
        prefs = []
        for p in _require_list(pref_nodes, f"user {uid} relay_prefs"):
            if not _is_yaml_number(p):
                raise ScenarioParseError(f"user {uid}: relay_prefs entries must be numbers, got {p!r}", field="relay_prefs")
            prefs.append(float(p))
        if mode == "zipf":   # the law restricted to the user's files; a file outside 1..N or a user of zero mass gets 0
            mass = [popularity[h.file_id - 1] if 0 < h.file_id <= len(popularity) else 0.0 for h in holdings]
            total = math.fsum(mass)
            holdings = [Holding(h.file_id, h.user_rate, q / total if total else 0.0) for h, q in zip(holdings, mass)]
        users.append(UserSpec(uid, tuple(holdings), tuple(prefs)))

    relays = tuple(RelaySpec(*_record(node, "relay entry", _RELAY_FIELDS)) for node in _require_list(relay_nodes, "relays"))
    scenario = Scenario(files=files, users=tuple(users), relays=relays)
    report = validate_scenario(scenario)
    if report:
        summary = "; ".join(v.message for v in report[:4])
        if len(report) > 4:
            summary += f"; and {len(report) - 4} more"
        raise ScenarioValidationError(f"scenario failed validation: {summary}", report=report)
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Inverse of parse_scenario: parse(serialize(s)) reconstructs s exactly."""
    doc: dict = {
        "files": [{"id": f.file_id, "server_rate": f.server_rate} for f in scenario.files],
        "users": [],
        "relays": [
            {"id": r.relay_id, "capacity": r.capacity, "rate_budget": r.rate_budget} for r in scenario.relays
        ],
    }
    for u in scenario.users:
        holdings = [{"file": h.file_id, "user_rate": h.user_rate, "request_prob": h.request_prob} for h in u.holdings]
        doc["users"].append({"id": u.user_id, "holdings": holdings, "relay_prefs": list(u.relay_prefs)})
    return yaml.safe_dump(doc, sort_keys=False)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled scenario fixture, by stem name."""
    base = resources.files(__package__) / "fixtures" / f"{name}.yaml"
    path = Path(str(base))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def read_document(path: str | Path) -> str:
    """Text of a scenario, scheme or rate document; bytes that are not UTF-8 raise ScenarioParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: document is not valid UTF-8 ({exc})") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario from a file path, or a bundled fixture by bare name such as ``table1``.

    Only a name with no directory part and no suffix falls back to a fixture;
    any other missing path raises FileNotFoundError.
    """
    p = Path(path)
    if not p.is_file() and str(path) == p.name and not p.suffix:
        p = fixture_path(p.name)
    return parse_scenario(read_document(p))


def _parse_holding_doc(text: str, kind: str, top: str, entry: str, field: str, field_kind: str) -> dict[tuple[int, int], object]:
    """Read a ``{top: [{user, file, field}, ...]}`` document into (user_id, file_id) -> the ``field_kind`` value of ``field``."""
    (nodes,) = _record(_load_yaml(text, kind), f"{kind} document", {top: None})
    fields = {"user": _INT, "file": _INT, field: field_kind}
    out: dict[tuple[int, int], object] = {}
    for node in _require_list(nodes, top):
        uid, fid, value = _record(node, entry, fields)
        if (uid, fid) in out:
            raise ScenarioParseError(f"{entry}: duplicate holding (user {uid}, file {fid})")
        out[uid, fid] = value
    return out


def _holding_doc(top: str, field: str, values: Mapping[tuple[int, int], object], cast) -> str:
    """Write ``values`` as a ``{top: [{user, file, field}, ...]}`` document, sorted by holding."""
    entries = [{"user": uid, "file": fid, field: cast(value)} for (uid, fid), value in sorted(values.items())]
    return yaml.safe_dump({top: entries}, sort_keys=False)


def parse_scheme(text: str) -> CacheScheme:
    """Parse a placement document: {assignment: [{user, file, relay}, ...]}."""
    return CacheScheme(_parse_holding_doc(text, "scheme", "assignment", "assignment entry", "relay", _INT))


def serialize_scheme(scheme: CacheScheme) -> str:
    return _holding_doc("assignment", "relay", scheme.assignment, lambda relay: relay)


def parse_rates(text: str) -> dict[tuple[int, int], float]:
    """Parse a rate table document: {rates: [{user, file, rate}, ...]}."""
    return _parse_holding_doc(text, "rates", "rates", "rate entry", "rate", _NUMBER)


def serialize_rates(rates: Mapping[tuple[int, int], float]) -> str:
    return _holding_doc("rates", "rate", rates, float)


_TABLE_HEADER = ("file_index", "user_index", "user_rate", "relay_index", "relay_rate", "server_rate")


def result_rows(result: "SolveResult") -> list[tuple[int, int, float, int, float, float]]:
    """One row per holding of the solved scenario, in ``_TABLE_HEADER``'s columns, sorted by (file, user)."""
    assignment = result.best_scheme.assignment
    rates = {key: r for alloc in result.best_rates.values() for key, r in alloc.rates.items()}
    return sorted(
        (fid, uid, e.user_rate, assignment[uid, fid], rates[uid, fid], e.server_rate)
        for (uid, fid), e in result.scenario.entries.items()
    )


def _plain_number(x: float) -> str:
    return f"{x:.6g}"


def _footer_lines(result: "SolveResult", sep: str) -> list[str]:
    scenario = result.scenario
    return [
        sep.join([f"users={scenario.n_users}", f"relays={scenario.n_relays}", f"files={scenario.n_files}"]),
        f"objective_sum={result.objective.sum_form:.6f}",
        f"objective_mean={result.objective.mean_form:.6f}",
    ]


def write_result_table(result: "SolveResult", fmt: str = "csv") -> str:
    """Render a solve result as CSV or an aligned text table."""
    cells = [
        [str(fid), str(uid), _plain_number(user_rate), str(relay), f"{rate:.4f}", _plain_number(server_rate)]
        for fid, uid, user_rate, relay, rate, server_rate in result_rows(result)
    ]
    if fmt == "csv":
        lines = [",".join(_TABLE_HEADER)]
        lines.extend(",".join(row) for row in cells)
        lines.extend(_footer_lines(result, ","))
    elif fmt == "table":
        widths = [len(h) for h in _TABLE_HEADER]
        for row in cells:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(_TABLE_HEADER, widths))]
        lines.extend("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)
        lines.extend(_footer_lines(result, "  "))
    else:
        raise ScenarioParseError(f"unknown table format {fmt!r}")
    return "\n".join(lines) + "\n"


def write_trace(result: "SolveResult") -> str:
    """Improvement trace as CSV: evaluation index and best objective so far.

    Values print with shortest round-trip precision, so the last row parses
    back to exactly the result's objective.
    """
    lines = ["iteration,best_objective_sum"]
    lines.extend(f"{i},{v!r}" for i, v in result.trace)
    return "\n".join(lines) + "\n"
