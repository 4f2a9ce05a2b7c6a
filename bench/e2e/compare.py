#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py A_DIR B_DIR

Each directory holds result files (<workload>.json, as run.py writes them
with --out) from any number of runs, in any layout below it. For every
(workload, metric) the table shows each side's median and quartiles and
the median gap from A to B. For end-to-end metrics it then says:

  ok          the medians are within the metric's bound
  WORSE       B's median is worse than A's by more than the bound
  BETTER      B's median is better than A's by more than the bound
  unresolved  either side's interquartile range exceeds the bound, so
              the runs are too noisy to tell (unless every B run beats
              every A run, which counts as BETTER)

Other metrics have no bound and are listed for reading only. Exits 1 if
any end-to-end metric is WORSE or unresolved.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory):
    """{workload: {metric: [values]}} over every result file below it."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).rglob("*.json")):
        with open(path) as f:
            result = json.load(f)
        if "workload" not in result or "metrics" not in result:
            continue
        for name, metric in result["metrics"].items():
            runs[result["workload"]][name].append(metric["value"])
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def relative(a, b):
    return (b - a) / abs(a) if a else 0.0


def verdict(entry, a_values, b_values):
    bound, higher = entry["bound"], entry["better"] == "higher"
    a_med, a_q1, a_q3 = summary(a_values)
    b_med, b_q1, b_q3 = summary(b_values)
    gap = relative(a_med, b_med)
    worse = -gap if higher else gap
    if worse < -bound:
        return "BETTER"
    noisy = any(med and (q3 - q1) / abs(med) > bound
                for med, q1, q3 in ((a_med, a_q1, a_q3),
                                    (b_med, b_q1, b_q3)))
    if noisy:
        beats_all = (min(b_values) > max(a_values) if higher
                     else max(b_values) < min(a_values))
        return "BETTER" if beats_all else "unresolved"
    return "WORSE" if worse > bound else "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    a_runs, b_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    failed = False
    print(f"{'workload':10s} {'metric':34s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'gap':>8s}  verdict")
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        names = sorted(set(a) | set(b), key=lambda n: (n not in bounded, n))
        for name in names:
            if name not in a or name not in b:
                print(f"{workload:10s} {name:34s} only in "
                      f"{'A' if name in a else 'B'}")
                failed |= name in bounded
                continue
            cells = []
            for values in (a[name], b[name]):
                med, q1, q3 = summary(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            gap = relative(summary(a[name])[0], summary(b[name])[0])
            note = ""
            if name in bounded:
                note = verdict(bounded[name], a[name], b[name])
                note += f" (bound {bounded[name]['bound']:.0%})"
                failed |= note.startswith(("WORSE", "unresolved"))
            print(f"{workload:10s} {name:34s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {gap:+8.2%}  {note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
