#!/usr/bin/env python3
"""Warn-only perf-regression check for the committed BENCH_*.json baselines.

Diffs freshly recorded bench JSON against the copy committed at a git ref
(default HEAD) and writes a markdown delta table to the CI job summary.
Stdlib only, and it ALWAYS exits 0: CI runners are far too noisy to gate
merges on, so regressions surface as ::warning:: annotations plus the
table, never as a red job.

Direction is inferred from the metric name: *_ms / *_seconds / *_us /
*latency* / *overhead* / *stall* are better-lower, *speedup* /
*rows_per_sec* / *qps* are better-higher, anything else (counts,
per-stage event tallies) is reported without judgement. The tolerance is deliberately generous
(default 50%) — shared runners routinely swing that much.

Schema drift is expected as the records grow fields (e.g. new blocks in
BENCH_kernels.json): only the key intersection is diffed, baseline keys
missing from the fresh record are listed as a notice, and a baseline with
no overlap at all is reported as a schema change — never an error.

Usage (from the repo root):
  python3 tools/check_bench_regression.py \
      --fresh BENCH_kernels.json \
      --baseline-ref HEAD --summary "$GITHUB_STEP_SUMMARY"
"""

import argparse
import json
import subprocess
import sys

TOLERANCE = 0.50  # fractional change before a metric is flagged

LOWER_BETTER = ("_ms", "_seconds", "_us", "latency", "overhead", "stall")
HIGHER_BETTER = ("speedup", "rows_per_sec", "qps")


def flatten(node, prefix=""):
    """Dotted-key map of every numeric leaf (bools excluded)."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(flatten(value, f"{prefix}{i}."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = float(node)
    return out


def direction(metric):
    tail = metric.rsplit(".", 1)[-1]
    if any(tail.endswith(s) or s in tail for s in LOWER_BETTER):
        return "lower"
    if any(tail.endswith(s) or s in tail for s in HIGHER_BETTER):
        return "higher"
    return None


def baseline_json(ref, path):
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{path}"],
            capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None


def compare(path, ref, lines, warnings):
    base = baseline_json(ref, path)
    if base is None:
        lines.append(f"\n_{path}: no parseable baseline at `{ref}` — "
                     "skipped (new file?)_\n")
        return
    try:
        with open(path, encoding="utf-8") as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        lines.append(f"\n_{path}: fresh record unreadable ({err}) — skipped_\n")
        return

    base_flat, fresh_flat = flatten(base), flatten(fresh)
    shared = base_flat.keys() & fresh_flat.keys()
    lines.append(f"\n### {path} vs `{ref}`\n")
    if not shared:
        lines.append(f"_no metrics in common with the `{ref}` baseline — "
                     "record schema changed; nothing to diff (the fresh "
                     "record becomes the next baseline)_\n")
        return
    lines.append("| metric | baseline | fresh | change | |")
    lines.append("|---|---:|---:|---:|---|")
    for metric in sorted(shared):
        old, new = base_flat[metric], fresh_flat[metric]
        if old == 0.0:
            change, frac = "n/a", 0.0
        else:
            frac = (new - old) / abs(old)
            change = f"{frac:+.1%}"
        better = direction(metric)
        flag = ""
        regressed = better == "lower" and frac > TOLERANCE or \
            better == "higher" and frac < -TOLERANCE
        if regressed:
            flag = "⚠️"
            warnings.append(
                f"{path}: {metric} {change} vs {ref} "
                f"(baseline {old:g}, fresh {new:g})")
        lines.append(f"| `{metric}` | {old:g} | {new:g} | {change} | {flag} |")
    missing = sorted(base_flat.keys() - fresh_flat.keys())
    if missing:
        lines.append(f"\n_baseline metrics missing from the fresh record "
                     f"(renamed or retired — informational, not a failure): "
                     f"{', '.join(f'`{m}`' for m in missing)}_\n")
        print(f"notice: {path}: {len(missing)} baseline metric(s) absent "
              f"from the fresh record; diffed the {len(shared)} shared "
              "one(s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", action="append", default=[],
                        help="fresh bench JSON (repeatable)")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the committed baseline")
    parser.add_argument("--summary", default="/dev/stdout",
                        help="markdown output (e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()

    lines = ["## Bench deltas (warn-only)"]
    warnings = []
    for path in args.fresh or ["BENCH_kernels.json"]:
        compare(path, args.baseline_ref, lines, warnings)
    lines.append(f"\n_Flag threshold: ±{TOLERANCE:.0%} on directional "
                 "metrics; informational otherwise. Never fails the job._")

    with open(args.summary, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    for warning in warnings:
        print(f"::warning::perf regression? {warning}")
    print(f"bench regression check: {len(warnings)} metric(s) flagged "
          f"(warn-only, exit 0)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as err:  # noqa: BLE001 — warn-only by contract
        print(f"::warning::bench regression check crashed ({err}); "
              "treating as no-op")
        sys.exit(0)
