"""Compare saved benchmark runs of two commits.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the full standard output of `run.py` runs, one file
per run (any name ending in `.out`). Runs are grouped by workload and
trace flag, read from their facts line. For every metric the script
prints both sides' medians and quartile spreads, and for end-to-end
metrics whether the change is worse than the base median by more than
the metric's bound in BENCHMARK.json ("unresolved" when either side's
spread is wider than the bound).
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.out")):
        facts, result = (json.loads(line) for line in path.read_text().splitlines()[-2:])
        key = (facts["workload"], facts["trace"])
        for name, metric in result["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance as a share of it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(change)):
        print(f"## {key[0]} (trace {key[1]})")
        for name, b_vals in base[key].items():
            c_vals = change[key].get(name)
            if not c_vals:
                continue
            (bm, bs), (cm, cs) = summary(b_vals), summary(c_vals)
            line = f"{name:28s} base {bm:.5g} ±{bs:.3f}  change {cm:.5g} ±{cs:.3f}"
            if name in bounds and bm:
                m = bounds[name]
                worse = (cm - bm) / bm if m["better"] == "lower" else (bm - cm) / bm
                verdict = "worse than bound" if worse > m["bound"] else "within bound"
                if max(bs, cs) > m["bound"]:
                    verdict = "unresolved"
                line += f"  {worse:+.3f} worse, {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
