#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

CI publishes BENCH_*.json per push; this closes the loop by diffing the
current run against the artifact from the last successful main run:

    bench_compare.py baseline.json current.json \
        --threshold 0.15 \
        --counter hit_rate:higher --counter warm_ms:lower

Rules
-----
* Run the benchmarks with --benchmark_repetitions=N: every repetition's
  "iteration" row is kept per name and the median is compared, so one
  noisy repetition cannot fail (or pass) the gate alone. Aggregate rows
  (mean/median/stddev) are ignored.
* real_time is compared for every benchmark name present in both files
  (lower is better). A benchmark missing from either side is reported but
  never fails the run (benches come and go across PRs).
* --counter NAME:higher|lower tracks a user counter in the same way;
  counters absent from a benchmark are skipped.
* A tracked value regressing by more than --threshold (relative) fails
  with exit 1. Baseline values of 0 are skipped for relative comparison
  (a 0 -> x change has no meaningful ratio; it is reported as info).
* Shared CI runners are noisy: --threshold is deliberately generous, and
  the job should treat this as a tripwire, not a microbenchmark oracle.
  Each compared value prints the coefficient of variation (CV) of its
  repetitions on both sides; values whose current CV exceeds threshold/3
  are listed as "noisy". The spread never changes the exit status.

Exit status: 0 ok / nothing comparable, 1 regression, 2 usage or parse
error.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    benches = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name")
        # Skip aggregate rows (mean/median/stddev of repetitions); raw
        # iterations carry run_type "iteration" (or no run_type at all in
        # older formats). Repetitions share a name, so keep them all.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if name:
            benches.setdefault(name, []).append(bench)
    return benches


def summary(rows, key):
    """(median, CV) of `key` over the repetitions that carry it, where CV
    is stdev / |mean|; None where undefined (CV needs two values and a
    nonzero mean)."""
    values = []
    for row in rows:
        try:
            values.append(float(row[key]))
        except (KeyError, TypeError, ValueError):
            pass
    if not values:
        return None, None
    mean = statistics.mean(values)
    cv = (statistics.stdev(values) / abs(mean)
          if len(values) > 1 and mean else None)
    return statistics.median(values), cv


def parse_counter_spec(spec):
    name, sep, direction = spec.partition(":")
    if not sep or direction not in ("higher", "lower") or not name:
        print(f"bench_compare: bad --counter '{spec}' "
              "(want NAME:higher or NAME:lower)", file=sys.stderr)
        sys.exit(2)
    return name, direction


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails (default 0.15)")
    parser.add_argument("--counter", action="append", default=[],
                        metavar="NAME:higher|lower",
                        help="also track this user counter; repeatable")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    counters = [parse_counter_spec(spec) for spec in args.counter]

    regressions = []
    noisy = []
    noisy_cv = args.threshold / 3
    compared = 0

    def check(bench_name, metric, base_rows, cur_rows, better):
        nonlocal compared
        base_value, base_cv = summary(base_rows, metric)
        cur_value, cur_cv = summary(cur_rows, metric)
        if base_value is None or cur_value is None:
            return
        if base_value == 0:
            print(f"  info {bench_name} {metric}: baseline 0, "
                  f"now {cur_value:g} (not compared)")
            return
        compared += 1
        if better == "lower":
            change = (cur_value - base_value) / base_value
        else:
            change = (base_value - cur_value) / base_value
        marker = "ok  "
        if change > args.threshold:
            marker = "FAIL"
            regressions.append(
                f"{bench_name} {metric}: {base_value:g} -> {cur_value:g} "
                f"({change:+.1%} worse, threshold {args.threshold:.0%})")
        if cur_cv is not None and cur_cv > noisy_cv:
            noisy.append(f"{bench_name} {metric}: cv {cur_cv:.1%}")
        spread = " -> ".join("n/a" if c is None else f"{c:.1%}"
                             for c in (base_cv, cur_cv))
        print(f"  {marker} {bench_name} {metric}: "
              f"{base_value:g} -> {cur_value:g} ({change:+.1%} "
              f"{'worse' if change > 0 else 'better'}) cv {spread}")

    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            print(f"  new  {name} (no baseline)")
            continue
        if name not in current:
            print(f"  gone {name} (baseline only)")
            continue
        base, cur = baseline[name], current[name]
        check(name, "real_time", base, cur, "lower")
        for counter_name, direction in counters:
            check(name, counter_name, base, cur, direction)

    if noisy:
        print(f"\nbench_compare: {len(noisy)} noisy value(s), current cv "
              f"over {noisy_cv:.1%} (threshold/3):")
        for line in noisy:
            print(f"  {line}")

    if regressions:
        print(f"\nbench_compare: {len(regressions)} regression(s) over "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_compare: {compared} tracked values within "
          f"{args.threshold:.0%} of baseline")


if __name__ == "__main__":
    main()
