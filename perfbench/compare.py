#!/usr/bin/env python3
"""Compare two sets of benchmark records against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the JSON records perfbench/run.py writes to
.perfbench/results/.  For every workload and end-to-end metric this prints
both medians with their quartiles, the change (positive is worse), and
whether it stays within the metric's bound.  Records made with different
kernel backends measure different programs, so such sets are refused.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record["env"]["trace"] == 0:
            records.append(record)
    return records


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refused: records come from different kernel backends "
              f"{sorted(backends)} and are not comparable", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    regressions = 0
    for workload in sorted({r["env"]["workload"] for r in base + new}):
        print(workload)
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], (1 if metric["better"] == "lower"
                                          else -1)
            sides = [[r["result"]["metrics"][name]["value"] for r in records
                      if r["env"]["workload"] == workload]
                     for records in (base, new)]
            if not all(sides):
                print(f"  {name:20s} missing on one side")
                continue
            (bq1, bmed, bq3), (nq1, nmed, nq3) = map(summary, sides)
            change = sign * (nmed - bmed) / bmed
            if change > metric["bound"]:
                verdict, regressions = "REGRESSION", regressions + 1
            elif (bq3 - bq1) / bmed > metric["bound"]:
                verdict = "unresolved (base spread exceeds the bound)"
            else:
                verdict = "within bound"
            print(f"  {name:20s} base {bmed:.5g} [{bq1:.5g}, {bq3:.5g}] "
                  f"n={len(sides[0])}  new {nmed:.5g} [{nq1:.5g}, {nq3:.5g}] "
                  f"n={len(sides[1])}  change {change:+.1%} "
                  f"(bound {metric['bound']:.0%}): {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
