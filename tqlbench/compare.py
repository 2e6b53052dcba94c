#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 tqlbench/compare.py BASE_DIR NEW_DIR
    python3 tqlbench/compare.py RUNS_DIR          # one set: spreads only

Each directory holds the run records the benchmark writes
(<workload>-seed<n>-trace0.json, as in .bench_out/). For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the change of the median, and one verdict against the metric's
bound:

  unresolved  the quartile spread of either side exceeds the bound, and
              not every run of one side beats every run of the other;
  worse       the median moved the wrong way by more than the bound;
  better      the median moved the right way by more than the bound;
  within      otherwise.

It also compares the share of failed ops, which must match exactly.
Exit code 1 when any pair is worse or the failed shares differ.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    change = (nmed - bmed) / bmed if bmed else 0.0
    worsening = change if lower else -change
    if max(bspread, nspread) > bound:
        if (max(new) < min(base)) if lower else (min(new) > max(base)):
            return change, "better"
        if (min(new) > max(base)) if lower else (max(new) < min(base)):
            return change, "worse"
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if -worsening > bound:
        return change, "better"
    return change, "within"


def failed_share(recs):
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 0.0


def main(argv):
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(d) for d in argv]
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        recs = [s.get(workload, []) for s in sets]
        if not all(recs):
            print("%s: no runs on %s" % (workload, "both sides" if len(sets) == 2 else "this side"))
            continue
        print("%s (%s runs)" % (workload, " vs ".join(str(len(r)) for r in recs)))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            cols = []
            values = [[r["metrics"][name]["value"] for r in side] for side in recs]
            for v in values:
                med, q1, q3, spread = summary(v)
                cols.append("%12.4g [%.4g, %.4g] spread %5.1f%%" % (med, q1, q3, 100 * spread))
            line = "  %-12s %-6s" % (name, metric["unit"]) + " | ".join(cols)
            if len(sets) == 2:
                change, v = verdict(metric, values[0], values[1])
                line += " | %+6.1f%% %s (bound %.0f%%)" % (100 * change, v, 100 * metric["bound"])
                bad = bad or v == "worse"
            else:
                spread = summary(values[0])[3]
                line += " | bound %.0f%%%s" % (100 * metric["bound"],
                                               "" if spread <= metric["bound"] else "  SPREAD ABOVE BOUND")
            print(line)
        shares = [failed_share(r) for r in recs]
        print("  failed share " + " | ".join("%.6f" % s for s in shares) +
              ("" if len(set(shares)) == 1 else "  DIFFERS"))
        bad = bad or len(set(shares)) != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
