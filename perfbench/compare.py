"""Compare benchmark runs of two commits, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the captured stdout of runs of perfbench/run.py, one file
per run (any name ending in .txt).  The workload of a run is read from its
detail line.  For every workload and metric the script prints both medians,
their quartile spreads and the change, and flags a change that is worse than
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.txt")):
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            continue
        workload = json.loads(lines[-2])["detail"]["workload"]
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values[(workload, name)].append(metric["value"])
    return values


def spread(vals: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(vals) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} {'metric':32s} {'n':>5s} {'base':>12s} {'new':>12s} {'change':>8s} "
          f"{'spread b/n':>13s}  verdict")
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else float("nan")
        rule = rules.get(name, {})
        sign = 1 if rule.get("better") == "lower" else -1
        verdict = ""
        if "bound" in rule and b and sign * change > rule["bound"]:
            verdict = f"WORSE than bound {rule['bound']}"
            worse += 1
        print(f"{workload:18s} {name:32s} {len(base[key]):>2d}/{len(new[key]):<2d} {b:12.5g} {n:12.5g} "
              f"{change:+8.2%} {spread(base[key]):6.3f}/{spread(new[key]):<6.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
