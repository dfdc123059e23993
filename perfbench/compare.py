"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` files that
run.py wrote under .perfbench-out/, one per run. For every workload and
metric it prints each side's median and quartiles, the change of the
median, and, for the end-to-end metrics, whether that change is a
regression beyond the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(directory: str) -> dict:
    """workload -> metric -> list of values over the runs in `directory`."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        metrics = out.setdefault(record["env"]["workload"], {})
        for name, value in record["end_to_end"].items():
            metrics.setdefault(name, []).append(value)
        for name, doc in record["workload_metrics"].items():
            metrics.setdefault(name, []).append(doc["value"])
        metrics.setdefault("error_rate", []).append(record["error_rate"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    before, after = _load(argv[0]), _load(argv[1])
    regressions = 0
    for workload in sorted(set(before) & set(after)):
        print(f"== {workload}: {len(before[workload]['error_rate'])} runs before, "
              f"{len(after[workload]['error_rate'])} after")
        for name in before[workload]:
            if name not in after[workload]:
                continue
            a1, a, a3 = _quartiles(before[workload][name])
            b1, b, b3 = _quartiles(after[workload][name])
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                spread = (a3 - a1) / a if a else 0.0
                if worse > bound:
                    verdict = f"REGRESSION (bound {bound:.0%})"
                    regressions += 1
                elif abs(change) <= spread:
                    verdict = "within the before-side spread"
            print(f"  {name:34s} {a:12.6g} [{a1:.6g}, {a3:.6g}]  ->  "
                  f"{b:12.6g} [{b1:.6g}, {b3:.6g}]  {change:+7.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
