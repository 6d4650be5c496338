#!/usr/bin/env python3
"""Compare two sets of runs under BENCHMARK.json's bounds and directions.

    python3 perfbench/compare.py A.jsonl B.jsonl

``A`` is the base (the parent commit), ``B`` the change.  Each file holds
run envelopes as ``run.py --append-history PATH`` writes them (JSON lines;
a single ``out/<workload>.json`` works too); only the end-to-end runs
(``trace`` 0) are read.  One row per (workload, metric):

* ``regressed``  — B's median is worse than A's by more than the bound, and
  the runs are steady enough to say so (or every B run is worse than every A run);
* ``improved``   — every B run beats every A run, or B's median is better by
  more than A's own quartile distance and B wins at least 9 in 10 pairs;
* ``unresolved`` — a side's run-to-run spread (quartile distance over
  median) is wider than the bound, so the difference cannot be judged;
* ``unchanged``  — anything else.

Counts (unit ``count``) repeat exactly, so any difference is a verdict.
Every ratio is printed beside its base.  Exits nonzero on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from harness import benchmark_spec, quartile_spread


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per end-to-end run, in file order]}}``."""
    text = Path(path).read_text().strip()
    try:
        envelopes = [json.loads(text)]
    except json.JSONDecodeError:
        envelopes = [json.loads(line) for line in text.splitlines() if line.strip()]
    runs: dict[str, dict[str, list[float]]] = {}
    for envelope in envelopes:
        if envelope.get("trace"):
            continue
        per_metric = runs.setdefault(envelope["workload"], {})
        for name, reading in envelope["metrics"].items():
            per_metric.setdefault(name, []).append(float(reading["value"]))
    return runs


def classify(base: list[float], new: list[float], metric: dict) -> tuple[str, float]:
    """The verdict and how much worse B's median is, as a share of A's."""
    lower_is_better = metric["better"] == "lower"
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    worse = (new_mid - base_mid) / base_mid if base_mid else 0.0
    if not lower_is_better:
        worse = -worse

    def beats(b: float, a: float) -> bool:
        return b < a if lower_is_better else b > a

    if metric["unit"] == "count" and len(set(base)) == 1 and len(set(new)) == 1:
        return ("regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"), worse
    all_better = all(beats(b, a) for b in new for a in base)
    all_worse = all(beats(a, b) for b in new for a in base)
    steady = max(quartile_spread(base), quartile_spread(new)) <= metric["bound"]
    if worse > metric["bound"]:
        return ("regressed" if steady or all_worse else "unresolved"), worse
    if all_better:
        return "improved", worse
    if not steady:
        return "unresolved", worse
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if beats(b, a))
    if -worse > quartile_spread(base) and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "unchanged", worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = benchmark_spec()
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    print(f"{'workload':<15} {'metric':<14} {'verdict':<10} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'A spread':>9} {'B spread':>9} {'runs':>6}")
    regressed = 0
    # the listed workloads first, then whatever else the base holds (farm_replay)
    for name in dict.fromkeys([w["name"] for w in spec["workloads"]] + list(base_runs)):
        for metric in spec["end_to_end"]:
            base = base_runs.get(name, {}).get(metric["name"])
            new = new_runs.get(name, {}).get(metric["name"])
            if not base or not new:
                print(f"{name:<15} {metric['name']:<14} {'missing':<10}")
                continue
            verdict, worse = classify(base, new, metric)
            regressed += verdict == "regressed"
            base_mid, new_mid = statistics.median(base), statistics.median(new)
            print(f"{name:<15} {metric['name']:<14} {verdict:<10} {base_mid:>12.4f} "
                  f"{new_mid:>12.4f} {new_mid / base_mid:>7.3f} {worse:>+9.1%} "
                  f"{metric['bound']:>6.1%} {quartile_spread(base):>9.1%} "
                  f"{quartile_spread(new):>9.1%} {len(base):>3}/{len(new):<2}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
