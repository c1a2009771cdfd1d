#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric.

    python3 bench_e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark PATH]

Each directory holds the files `bench_e2e --json=PATH` wrote, for example
one set from a parent commit and one from a change, run in alternation on
the same seeds. For every workload and end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the change of the median
against the metric's bound, the change's win rate over the pairs (runs of
the same seed, in file-name order), and a verdict:

  improved    over at least ten pairs, the change wins at least 9 in 10
              (ties count for neither) and the medians differ by more than
              the parent's interquartile range;
  unresolved  the run-to-run spread is wider than the bound, and not every
              change run beats every parent run. The spread is the
              interquartile range of the pairs' relative changes, which
              leaves out the spread between seeds; without pairs, the
              wider side's own interquartile range over its median;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Two metrics are deterministic for a seed, so they are compared pair by
pair instead: f1 and failed_frac regress when any pair reads worse, and
are unresolved without pairs. Besides the end-to-end metrics of
BENCHMARK.json, which every workload reports and which never read 0, it
compares activeiter_s (offline_activeiter only, at rows_per_s's bound)
and failed_frac (0 on a healthy run).

Exits 1 when any metric regressed, 0 otherwise. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain
EXACT = {"f1", "failed_frac"}  # deterministic per seed


def extra_metrics(spec):
    """activeiter_s shares rows_per_s's bound: offline_activeiter's
    rows_per_s is 3|H| / activeiter_s with |H| fixed."""
    rows = next(m for m in spec["end_to_end"] if m["name"] == "rows_per_s")
    return [{"name": "activeiter_s", "better": "lower", "bound": rows["bound"]},
            {"name": "failed_frac", "better": "lower", "bound": 0.0}]


def load_runs(directory):
    """{workload: {seed: [metrics, ...]}} from every JSON file, by name."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if "workload" not in run or "metrics" not in run:
            continue
        metrics = {k: v["value"] for k, v in run["metrics"].items()}
        runs[run["workload"]][run["seed"]].append(metrics)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound, exact):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if exact:
        if not pairs:
            return "unresolved", wins
        if any(sign * (c - p) < 0 for p, c in pairs):
            return "regressed", wins
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (c_med - p_med) > p_q3 - p_q1):
        return "improved", wins
    if exact:
        return "unchanged", wins
    # Pairs share their inputs, so the spread of their relative changes is
    # the run-to-run noise without the spread between seeds.
    relative = [(c - p) / abs(p) for p, c in pairs if p]
    if len(relative) >= 2:
        r_q1, r_q3 = quartiles(relative)
        spread = r_q3 - r_q1
    else:
        spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                     (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)

    regressed = False
    header = ("%-20s %-14s %-32s %-32s %9s %7s  %s" %
              ("workload", "metric", "parent median [q1, q3]",
               "change median [q1, q3]", "change", "wins", "verdict"))
    print(header)
    for workload in spec["workloads"]:
        name = workload["name"]
        p_seeds, c_seeds = parent_runs.get(name, {}), change_runs.get(name, {})
        if not p_seeds or not c_seeds:
            print("%-20s (no runs on %s side)" %
                  (name, "parent" if not p_seeds else "change"))
            continue
        for metric in spec["end_to_end"] + extra_metrics(spec):
            key = metric["name"]
            parent = [r[key] for runs in p_seeds.values()
                      for r in runs if key in r]
            change = [r[key] for runs in c_seeds.values()
                      for r in runs if key in r]
            if not parent or not change:
                continue
            pairs = []
            for seed in sorted(set(p_seeds) & set(c_seeds)):
                for p, c in zip(p_seeds[seed], c_seeds[seed]):
                    if key in p and key in c:
                        pairs.append((p[key], c[key]))
            result, wins = verdict(parent, change, pairs, metric["better"],
                                   metric["bound"], key in EXACT)
            regressed |= result == "regressed"
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q1, p_q3 = quartiles(parent)
            c_q1, c_q3 = quartiles(change)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            rule = ("exact per pair" if key in EXACT
                    else "bound %g%%" % (100.0 * metric["bound"]))
            print("%-20s %-14s %-32s %-32s %+8.2f%% %3d/%-3d  %s (%s)" %
                  (name, key,
                   "%.5g [%.5g, %.5g]" % (p_med, p_q1, p_q3),
                   "%.5g [%.5g, %.5g]" % (c_med, c_q1, c_q3),
                   100.0 * delta, wins, len(pairs), result, rule))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
