#!/usr/bin/env python3
"""Compares two sets of benchmark run records, or summarizes one.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR

A result set is a directory of the run records perfbench/run.py leaves in
<build dir>/runs (<workload>-seed<n>-trace<0|1>.json); copy them aside
after running each commit. For every workload and end-to-end metric, the
comparison prints both medians with their quartiles and a verdict under the
bounds in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound
  improved    better by more than the parent's own spread (quartile
              distance over median), winning at least 9 of 10 same-seed
              pairs (so run both commits on the same seeds)
  unresolved  either side spreads wider than the bound, unless every
              change run beats every parent run
  no change   otherwise

The workload's named timings (scan_query_s, pagerank_s, ...) get rows too,
under the op_median_ms bound. Per-layer metrics from the traced runs are
printed as median deltas, without verdicts. With one directory, it prints
each metric's median, quartiles and spread against a third of its bound,
the steadiness target.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): [record, ...]} from one result set."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith(".spans.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        key = (rec["run"]["workload"], bool(rec["run"]["trace"]))
        runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def series(records):
    """{metric: ({seed: value}, unit, kind)} of the untraced records."""
    out = {}
    for rec in records:
        seed = rec["run"]["seed"]
        for name, m in rec["end_to_end"].items():
            out.setdefault(name, ({}, m["unit"], "e2e"))[0][seed] = m["value"]
        for name, m in rec["named"].items():
            value = m["median"] if isinstance(m, dict) else m
            out.setdefault(name, ({}, "", "named"))[0][seed] = value
    return out


def verdict(parent, change, bound, lower_is_better):
    p, c = list(parent.values()), list(change.values())
    pm, cm = statistics.median(p), statistics.median(c)
    sign = 1 if lower_is_better else -1
    worse = sign * (cm - pm) / pm if pm else 0.0
    beats = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    if spread(p) > bound or spread(c) > bound:
        if all(beats(x, y) for x in c for y in p):
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    # A gain needs same-seed pairs: sets on different seeds (or different
    # hours of a shared machine) differ by more than their own spread.
    seeds = sorted(set(parent) & set(change))
    wins = sum(beats(change[s], parent[s]) for s in seeds)
    if -worse > spread(p) and seeds and wins >= 0.9 * len(seeds):
        return "improved", worse
    return "no change", worse


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    return bounds


def fmt(values):
    q1, med, q3 = quartiles(list(values))
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def summarize(runs, bounds):
    print("%-8s %-22s %-40s %8s %8s" %
          ("workload", "metric", "median [q1, q3]", "spread", "target"))
    for (workload, traced), records in sorted(runs.items()):
        if traced:
            continue
        for name, (values, _, kind) in series(records).items():
            bound = bounds.get(name, bounds["op_median_ms"])[0]
            target = "%.4f" % (bound / 3) if kind == "e2e" else "-"
            print("%-8s %-22s %-40s %8.4f %8s" %
                  (workload, name, fmt(values.values()),
                   spread(list(values.values())), target))


def compare(parent_runs, change_runs, bounds):
    print("%-8s %-22s %-36s %-36s %8s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "worse", "verdict"))
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, traced = key
        if traced:
            continue
        ps, cs = series(parent_runs[key]), series(change_runs[key])
        for name in ps:
            if name not in cs:
                continue
            bound, lower = bounds.get(name, bounds["op_median_ms"])
            if name.endswith("_per_s"):
                lower = False
            v, worse = verdict(ps[name][0], cs[name][0], bound, lower)
            print("%-8s %-22s %-36s %-36s %+7.1f%%  %s" %
                  (workload, name, fmt(ps[name][0].values()),
                   fmt(cs[name][0].values()), 100 * worse, v))
    print("\nper-layer (traced runs): parent median -> change median")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, traced = key
        if not traced:
            continue
        names = parent_runs[key][0].get("per_layer", {})
        for name in names:
            p = [r["per_layer"][name]["value"] for r in parent_runs[key]]
            c = [r["per_layer"][name]["value"] for r in change_runs[key]]
            pm, cm = statistics.median(p), statistics.median(c)
            if pm == 0 and cm == 0:
                continue
            delta = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "new"
            print("%-8s %-38s %14.6g -> %-14.6g %s" %
                  (workload, name, pm, cm, delta))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = bench_spec()
    if len(argv) == 2:
        summarize(load(argv[1]), bounds)
    else:
        compare(load(argv[1]), load(argv[2]), bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
