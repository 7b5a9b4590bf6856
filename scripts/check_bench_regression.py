#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench JSON (BENCH_exec.json or
BENCH_adaptive.json) to the committed baseline and fail on a >10%
regression at any point.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.10]

The ordered (sort / top-k) phase and the adaptive (static-vs-adaptive
stale-stats) phase are checked point by point, keyed by their
configuration. Every point is deterministic simulated seconds (lower is
better). A point present on only one
side fails loudly in either direction: silently dropping a measured
configuration is itself a regression, and a configuration the bench now
measures but the baseline doesn't is an unguarded point — the baseline must
be refreshed to cover it, or the gate would rubber-stamp it forever.
Improvements are reported but never fail the gate, so the committed
baseline only needs refreshing when the engine genuinely gets faster.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def keyed_points(doc):
    """(section, config-key) -> (value, unit, higher_is_better)."""
    points = {}
    for entry in doc.get("ordered", []):
        key = f"phase={entry['phase']} dop={entry['dop']}"
        points[("ordered", key)] = (entry["sim_s"], "sim sec", False)
    for entry in doc.get("adaptive", []):
        # Simulated seconds are deterministic, but the static arm's value
        # shifts whenever the cost model or the OO7 generator changes; the
        # point that must not regress is the adaptive arm (and the bench
        # itself hard-gates the 2x static/adaptive ratio).
        points[("adaptive", f"mode={entry['mode']}")] = (
            entry["sim_s"], "sim sec", False
        )
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated fractional slowdown per point")
    args = parser.parse_args()

    base = keyed_points(load(args.baseline))
    fresh = keyed_points(load(args.fresh))

    failures = []
    for key, (base_rate, unit, higher_better) in sorted(base.items()):
        section, config = key
        label = f"{section} {config}"
        if key not in fresh:
            failures.append(f"{label}: present in baseline, missing from "
                            "fresh results")
            continue
        fresh_rate = fresh[key][0]
        if base_rate <= 0:
            continue
        change = (fresh_rate - base_rate) / base_rate
        regressed = change < -args.threshold if higher_better \
            else change > args.threshold
        status = "ok"
        if regressed:
            status = "REGRESSION"
            failures.append(f"{label}: {base_rate} -> {fresh_rate} {unit} "
                            f"({change:+.1%}, limit {args.threshold:.0%})")
        print(f"{label}: {base_rate} -> {fresh_rate} {unit} "
              f"({change:+.1%}) {status}")

    for key in sorted(set(fresh) - set(base)):
        section, config = key
        failures.append(f"{section} {config}: present in fresh results, "
                        "missing from baseline (refresh the baseline to "
                        "cover the new configuration)")

    if failures:
        print(f"\n{len(failures)} bench regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {len(base)} points within -{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
