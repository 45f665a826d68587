"""Scenario documents, bundled fixtures, and result/trace emission.

Scenario files are YAML mappings with ``files``, ``users``, ``relays`` and an
optional ``popularity`` block.  Request probabilities are given per holding
(explicit mode, the default) or derived from a rank-based popularity law
(zipf mode), never both.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import yaml

from .errors import ScenarioParseError, ScenarioValidationError
from .freshness import ObjectiveValue, holding_placement
from .model import (
    CacheScheme,
    FileSpec,
    Holding,
    RelaySpec,
    Scenario,
    UserSpec,
    is_number,
    per_user_request_probs,
    validate_scenario,
    zipf_popularity,
)

if TYPE_CHECKING:  # pragma: no cover
    from .search import SolveResult

# libyaml's safe loader where PyYAML was built with it: the same resolver as SafeLoader, so the same values, faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_KEYS = {"files", "users", "relays", "popularity"}
_FILE_KEYS = {"id", "server_rate"}
_USER_KEYS = {"id", "holdings", "relay_prefs"}
_HOLDING_KEYS = {"file", "user_rate", "request_prob"}
_RELAY_KEYS = {"id", "capacity", "rate_budget"}
_POPULARITY_KEYS = {"mode", "exponent"}


@dataclass(frozen=True)
class TableRow:
    file_index: int
    user_index: int
    user_rate: float
    relay_index: int
    relay_rate: float
    server_rate: float


@dataclass(frozen=True)
class TableFooter:
    user_count: int
    relay_count: int
    file_count: int
    objective_sum: float
    objective_mean: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[TableRow, ...]
    footer: TableFooter


def _require_mapping(node, what: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{what} must be a mapping, got {type(node).__name__}")
    return node


def _require_list(node, what: str) -> list:
    if not isinstance(node, list):
        raise ScenarioParseError(f"{what} must be a list, got {type(node).__name__}")
    return node


def _check_keys(node: Mapping, allowed: set, what: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ScenarioParseError(f"{what}: unknown field '{unknown[0]}'", field=str(unknown[0]))


def _is_yaml_number(value) -> bool:
    """An int or a float; ``.inf`` and ``.nan`` pass so that ``validate_scenario`` reports them by code."""
    return isinstance(value, float) or is_number(value, True)


def _get_number(node: Mapping, key: str, what: str) -> float:
    if key not in node:
        raise ScenarioParseError(f"{what}: missing required field '{key}'", field=key)
    value = node[key]
    if not _is_yaml_number(value):
        raise ScenarioParseError(f"{what}: field '{key}' must be a number, got {value!r}", field=key)
    return float(value)


def _get_int(node: Mapping, key: str, what: str) -> int:
    if key not in node:
        raise ScenarioParseError(f"{what}: missing required field '{key}'", field=key)
    value = node[key]
    if not is_number(value, True):
        raise ScenarioParseError(f"{what}: field '{key}' must be an integer, got {value!r}", field=key)
    return value


def _load_yaml(text: str, kind: str):
    """The one YAML document in ``text``; a malformed one raises ScenarioParseError with its line where known."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        at = f" at line {line}" if line is not None else ""
        raise ScenarioParseError(f"malformed {kind} document{at}: {exc}", line=line) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises on any malformation."""
    doc = _require_mapping(_load_yaml(text, "scenario"), "scenario document")
    _check_keys(doc, _TOP_KEYS, "scenario document")
    for required in ("files", "users", "relays"):
        if required not in doc:
            raise ScenarioParseError(f"scenario document: missing required field '{required}'", field=required)

    mode = "explicit"
    exponent: float | None = None
    if "popularity" in doc:
        pop = _require_mapping(doc["popularity"], "popularity")
        _check_keys(pop, _POPULARITY_KEYS, "popularity")
        if "mode" not in pop:
            raise ScenarioParseError("popularity: missing required field 'mode'", field="mode")
        mode = pop["mode"]
        if mode not in ("explicit", "zipf"):
            raise ScenarioParseError(f"popularity: unknown mode {mode!r}", field="mode")
        if mode == "zipf":
            exponent = _get_number(pop, "exponent", "popularity")
        elif "exponent" in pop:
            raise ScenarioParseError("popularity: field 'exponent' is only valid in zipf mode", field="exponent")

    files = []
    for node in _require_list(doc["files"], "files"):
        node = _require_mapping(node, "file entry")
        _check_keys(node, _FILE_KEYS, "file entry")
        files.append(FileSpec(file_id=_get_int(node, "id", "file entry"), server_rate=_get_number(node, "server_rate", "file entry")))

    users = []
    raw_users = []
    for node in _require_list(doc["users"], "users"):
        node = _require_mapping(node, "user entry")
        _check_keys(node, _USER_KEYS, "user entry")
        uid = _get_int(node, "id", "user entry")
        if "holdings" not in node:
            raise ScenarioParseError(f"user {uid}: missing required field 'holdings'", field="holdings")
        holdings = []
        for h in _require_list(node["holdings"], f"user {uid} holdings"):
            h = _require_mapping(h, f"user {uid} holding")
            _check_keys(h, _HOLDING_KEYS, f"user {uid} holding")
            fid = _get_int(h, "file", f"user {uid} holding")
            user_rate = _get_number(h, "user_rate", f"user {uid} holding")
            if mode == "zipf":
                if "request_prob" in h:
                    raise ScenarioParseError(
                        f"user {uid}, file {fid}: request_prob is not allowed in zipf mode", field="request_prob"
                    )
                prob = 0.0
            else:
                prob = _get_number(h, "request_prob", f"user {uid} holding file {fid}")
            holdings.append(Holding(file_id=fid, user_rate=user_rate, request_prob=prob))
        if "relay_prefs" not in node:
            raise ScenarioParseError(f"user {uid}: missing required field 'relay_prefs'", field="relay_prefs")
        prefs = []
        for p in _require_list(node["relay_prefs"], f"user {uid} relay_prefs"):
            if not _is_yaml_number(p):
                raise ScenarioParseError(f"user {uid}: relay_prefs entries must be numbers, got {p!r}", field="relay_prefs")
            prefs.append(float(p))
        raw_users.append((uid, tuple(holdings), tuple(prefs)))

    relays = []
    for node in _require_list(doc["relays"], "relays"):
        node = _require_mapping(node, "relay entry")
        _check_keys(node, _RELAY_KEYS, "relay entry")
        relays.append(
            RelaySpec(
                relay_id=_get_int(node, "id", "relay entry"),
                capacity=_get_int(node, "capacity", "relay entry"),
                rate_budget=_get_number(node, "rate_budget", "relay entry"),
            )
        )

    if mode == "zipf":
        if not is_number(exponent) or exponent < 0:
            raise ScenarioParseError(f"popularity: zipf exponent must be finite and non-negative, got {exponent!r}", field="exponent")
        popularity = zipf_popularity(exponent, len(files))
        for uid, holdings, prefs in raw_users:
            probs = per_user_request_probs(popularity, UserSpec(uid, holdings, prefs))
            users.append(UserSpec(uid, tuple(Holding(h.file_id, h.user_rate, p) for h, p in zip(holdings, probs)), prefs))
    else:
        users = [UserSpec(uid, holdings, prefs) for uid, holdings, prefs in raw_users]

    scenario = Scenario(
        files=tuple(files),
        users=tuple(users),
        relays=tuple(relays),
        popularity_mode=mode,
        zipf_exponent=exponent,
    )
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
    explicit = scenario.popularity_mode == "explicit"
    for u in scenario.users:
        holdings = []
        for h in u.holdings:
            node = {"file": h.file_id, "user_rate": h.user_rate}
            if explicit:
                node["request_prob"] = h.request_prob
            holdings.append(node)
        doc["users"].append({"id": u.user_id, "holdings": holdings, "relay_prefs": list(u.relay_prefs)})
    if not explicit:
        doc["popularity"] = {"mode": scenario.popularity_mode, "exponent": scenario.zipf_exponent}
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


def _parse_holding_doc(text: str, kind: str, top: str, entry: str, field: str, get) -> dict[tuple[int, int], object]:
    """Read a ``{top: [{user, file, field}, ...]}`` document into (user_id, file_id) -> ``get(node, field, entry)``."""
    doc = _require_mapping(_load_yaml(text, kind), f"{kind} document")
    _check_keys(doc, {top}, f"{kind} document")
    if top not in doc:
        raise ScenarioParseError(f"{kind} document: missing required field '{top}'", field=top)
    out: dict[tuple[int, int], object] = {}
    for node in _require_list(doc[top], top):
        node = _require_mapping(node, entry)
        _check_keys(node, {"user", "file", field}, entry)
        key = (_get_int(node, "user", entry), _get_int(node, "file", entry))
        if key in out:
            raise ScenarioParseError(f"{entry}: duplicate holding (user {key[0]}, file {key[1]})")
        out[key] = get(node, field, entry)
    return out


def _holding_doc(top: str, field: str, values: Mapping[tuple[int, int], object], cast) -> str:
    """Write ``values`` as a ``{top: [{user, file, field}, ...]}`` document, sorted by holding."""
    entries = [{"user": uid, "file": fid, field: cast(value)} for (uid, fid), value in sorted(values.items())]
    return yaml.safe_dump({top: entries}, sort_keys=False)


def parse_scheme(text: str) -> CacheScheme:
    """Parse a placement document: {assignment: [{user, file, relay}, ...]}."""
    return CacheScheme(_parse_holding_doc(text, "scheme", "assignment", "assignment entry", "relay", _get_int))


def serialize_scheme(scheme: CacheScheme) -> str:
    return _holding_doc("assignment", "relay", scheme.assignment, lambda relay: relay)


def parse_rates(text: str) -> dict[tuple[int, int], float]:
    """Parse a rate table document: {rates: [{user, file, rate}, ...]}."""
    return _parse_holding_doc(text, "rates", "rates", "rate entry", "rate", _get_number)


def serialize_rates(rates: Mapping[tuple[int, int], float]) -> str:
    return _holding_doc("rates", "rate", rates, float)


def build_result_table(
    scenario: Scenario,
    scheme: CacheScheme,
    rates: Mapping[tuple[int, int], float],
    objective: ObjectiveValue,
) -> ResultTable:
    """One row per holding, sorted by file index, plus an objective footer."""
    rows = []
    for (uid, fid), e in scenario.entries.items():
        relay_id, rate = holding_placement(scenario, scheme, rates, (uid, fid))
        rows.append(TableRow(fid, uid, e.user_rate, relay_id, rate, e.server_rate))
    rows.sort(key=lambda r: (r.file_index, r.user_index))
    footer = TableFooter(
        user_count=scenario.n_users,
        relay_count=scenario.n_relays,
        file_count=scenario.n_files,
        objective_sum=objective.sum_form,
        objective_mean=objective.mean_form,
    )
    return ResultTable(rows=tuple(rows), footer=footer)


def _plain_number(x: float) -> str:
    return f"{x:.6g}"


_TABLE_HEADER = ("file_index", "user_index", "user_rate", "relay_index", "relay_rate", "server_rate")


def _table_cells(table: ResultTable) -> list[list[str]]:
    return [
        [
            str(r.file_index),
            str(r.user_index),
            _plain_number(r.user_rate),
            str(r.relay_index),
            f"{r.relay_rate:.4f}",
            _plain_number(r.server_rate),
        ]
        for r in table.rows
    ]


def _footer_lines(footer: TableFooter, sep: str) -> list[str]:
    return [
        sep.join([f"users={footer.user_count}", f"relays={footer.relay_count}", f"files={footer.file_count}"]),
        f"objective_sum={footer.objective_sum:.6f}",
        f"objective_mean={footer.objective_mean:.6f}",
    ]


def write_result_table(result: "SolveResult", fmt: str = "csv") -> str:
    """Render a solve result as CSV or an aligned text table."""
    table = result.table
    cells = _table_cells(table)
    if fmt == "csv":
        lines = [",".join(_TABLE_HEADER)]
        lines.extend(",".join(row) for row in cells)
        lines.extend(_footer_lines(table.footer, ","))
    elif fmt == "table":
        widths = [len(h) for h in _TABLE_HEADER]
        for row in cells:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(_TABLE_HEADER, widths))]
        lines.extend("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)
        lines.extend(_footer_lines(table.footer, "  "))
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
