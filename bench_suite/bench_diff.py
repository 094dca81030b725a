#!/usr/bin/env python3
"""Compares two sets of bench_suite reports against BENCHMARK.json's bounds.

    python3 bench_suite/bench_diff.py --parent P1.json P2.json ... \
        --change C1.json C2.json ... [--benchmark BENCHMARK.json]
    python3 bench_suite/bench_diff.py --overhead R1.json R2.json ...

Each file is one report written by `bench_suite --json_out`, or a baseline
file under bench_suite/baseline/ holding {"untraced": [...], "traced": [...]}.
Reports are told apart by their own "traced" stamp.

--parent/--change prints, per workload and end-to-end metric, both sides'
median and quartiles over their untraced reports and the change's move
against the metric's bound. A row is "unresolved" when the parent's own
quartile spread is wider than the bound, unless every change run beats every
parent run. Run both sides on the same seeds; a workload whose seed lists
differ is flagged. When both sides include traced reports, their per-layer
medians follow with deltas and no verdict. Exits 1 when a row regresses.

--overhead prints how far the traced reports' end-to-end medians sit from the
untraced ones: the cost of tracing.

Smoke reports are refused: their inputs are too small to compare.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    """Returns ({workload: [untraced reports]}, {workload: [traced reports]})."""
    untraced, traced = defaultdict(list), defaultdict(list)
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        reports = doc["untraced"] + doc["traced"] if "untraced" in doc else [doc]
        for report in reports:
            if report["smoke"]:
                sys.exit(f"bench_diff: {path} holds a --smoke report")
            side = traced if report["traced"] else untraced
            side[report["workload"]].append(report)
    return untraced, traced


def values(reports, name):
    return [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def worse_by(base, other, better):
    """Relative move from `base` to `other`, positive when worse."""
    move = (other - base) / abs(base)
    return -move if better == "higher" else move


def compare(spec, parent, change):
    regressions = 0
    print(f"{'workload':14} {'metric':15} {'unit':5} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        if (sorted(r["seed"] for r in parent[workload])
                != sorted(r["seed"] for r in change[workload])):
            print(f"{workload}: the two sides ran different seeds, so their "
                  f"sampling streams differ")
        for m in spec["end_to_end"]:
            p = values(parent[workload], m["name"])
            c = values(change[workload], m["name"])
            if not p or not c:
                continue
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            worse = worse_by(pmed, cmed, m["better"])
            if m["better"] == "higher":
                all_better = min(c) > max(p)
            else:
                all_better = max(c) < min(p)
            if (pq3 - pq1) / abs(pmed) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:14} {m['name']:15} {m['unit']:5} "
                  f"{f'{pmed:.5g} [{pq1:.5g}, {pq3:.5g}]':>32} "
                  f"{f'{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]':>32} "
                  f"{100 * worse:8.1f}% {100 * m['bound']:5.0f}%  {verdict}")
    return regressions


def compare_layers(spec, parent, change):
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["per_layer"]:
            p = values(parent[workload], m["name"])
            c = values(change[workload], m["name"])
            if p and c:
                pmed, cmed = statistics.median(p), statistics.median(c)
                delta = f"{100 * (cmed - pmed) / abs(pmed):+.1f}%" if pmed else "-"
                rows.append(f"{workload:14} {m['name']:30} {pmed:12.5g} "
                            f"{cmed:12.5g} {delta:>9} {m['unit']}")
    if rows:
        print(f"\n{'workload':14} {'per-layer metric':30} {'parent':>12} "
              f"{'change':>12} {'delta':>9}")
        print("\n".join(rows))


def overhead(spec, untraced, traced):
    print(f"{'workload':14} {'metric':15} {'untraced':>12} {'traced':>12} "
          f"{'overhead':>9}")
    for workload in sorted(set(untraced) & set(traced)):
        for m in spec["end_to_end"]:
            u = values(untraced[workload], m["name"])
            t = values(traced[workload], m["name"])
            if u and t:
                umed, tmed = statistics.median(u), statistics.median(t)
                print(f"{workload:14} {m['name']:15} {umed:12.5g} {tmed:12.5g} "
                      f"{100 * worse_by(umed, tmed, m['better']):8.1f}%")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--parent", nargs="+")
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--overhead", nargs="+")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    if args.parent and args.change:
        parent_untraced, parent_traced = load(args.parent)
        change_untraced, change_traced = load(args.change)
        regressions = compare(spec, parent_untraced, change_untraced)
        compare_layers(spec, parent_traced, change_traced)
        sys.exit(1 if regressions else 0)
    if args.overhead:
        overhead(spec, *load(args.overhead))
        return
    parser.error("give --parent and --change, or --overhead")


if __name__ == "__main__":
    main()
