#!/usr/bin/env python3
"""Perf regression gate for bench_perf_micro.

Compares a google-benchmark JSON run against a committed reference and
fails (exit 1) when any guarded benchmark regresses by more than the
tolerance.  Throughput benchmarks (items_per_second) compare rates;
benchmarks without item counts compare real_time inversely.

The reference file is the list of guarded benchmarks: every entry in it
must be in the current run, and a benchmark in the current run with no
reference entry is reported with a warning (it ran but is not compared).

Usage:
  check_bench_regression.py REFERENCE.json CURRENT.json \
      [--filter REGEX] [--tolerance 0.30] [--normalize]

  --filter     compare only the benchmarks matching REGEX (default: all).
  --update     rewrite REFERENCE.json from CURRENT.json (keeps only the
               filtered benchmarks) instead of comparing.
  --normalize  divide every benchmark's current/reference ratio by the
               MEDIAN ratio of the run before comparing.  A uniformly
               slower machine then scores 1.0x everywhere, so the gate
               stays meaningful on CI runners of a different class than
               the reference recorder, and genuine improvements in a
               minority of benchmarks do not drag the others below the
               band (the median ignores them).  The cost is that a
               regression hitting MOST guarded benchmarks equally
               cancels out — run without --normalize on the reference
               machine to catch those.

A benchmark that reports the counter `deterministic` = 1 measures a
count that is the same on any machine (an attempt count reported as
manual time), not a speed: it is compared raw, at the same tolerance,
and left out of the --normalize median, so neither the runner's speed
nor speed-ups elsewhere in the run move its score.

The tolerance can also be set via the BENCH_TOLERANCE environment
variable.
"""

import argparse
import json
import os
import re
import statistics
import sys


def load_benchmarks(path, name_filter):
    with open(path) as handle:
        data = json.load(handle)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        if not name_filter.search(name):
            continue
        out[name] = bench
    return out


def deterministic(bench):
    """True when the benchmark's score does not depend on machine speed."""
    return float(bench.get("deterministic", 0)) == 1.0


def score(bench):
    """Higher is better: items/s when reported, else inverse real_time."""
    if "items_per_second" in bench:
        return float(bench["items_per_second"]), "items/s"
    return 1.0 / float(bench["real_time"]), "1/real_time"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reference")
    parser.add_argument("current")
    parser.add_argument("--filter", default="")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.30")),
        help="allowed fractional slowdown (default 0.30 = 30%%)",
    )
    parser.add_argument("--update", action="store_true")
    parser.add_argument("--normalize", action="store_true")
    args = parser.parse_args()

    name_filter = re.compile(args.filter)
    current = load_benchmarks(args.current, name_filter)
    if not current:
        print(f"error: no benchmarks matching /{args.filter}/ in "
              f"{args.current}", file=sys.stderr)
        return 1

    if args.update:
        with open(args.reference, "w") as handle:
            json.dump({"benchmarks": sorted(current.values(),
                                            key=lambda b: b["name"])},
                      handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(current)} benchmarks to {args.reference}")
        return 0

    reference = load_benchmarks(args.reference, name_filter)
    missing = sorted(set(reference) - set(current))
    failures = [f"{name}: missing from current run" for name in missing]
    shared = sorted(name for name in reference if name in current)

    ratios = {}
    scores = {}
    for name in shared:
        ref_score, ref_unit = score(reference[name])
        cur_score, cur_unit = score(current[name])
        if ref_unit != cur_unit:
            # Comparing items/s against 1/real_time would be nonsense
            # (and would wedge the gate permanently open or shut).
            failures.append(
                f"{name}: unit changed {ref_unit} -> {cur_unit}; refresh "
                f"the reference with --update")
            continue
        scores[name] = (ref_score, cur_score, ref_unit)
        ratios[name] = cur_score / ref_score

    # Median-of-ratios normalization: machine-speed differences shift
    # every ratio equally and cancel; improvements in a minority of
    # benchmarks do not drag the untouched majority below the band.
    # Deterministic counts take no part in it and are compared raw.
    timed = [ratio for name, ratio in ratios.items()
             if not deterministic(current[name])]
    scale = statistics.median(timed) if (args.normalize and timed) else 1.0

    print(f"{'benchmark':<40} {'reference':>14} {'current':>14} {'ratio':>8}")
    for name in shared:
        if name not in ratios:
            continue
        ref_score, cur_score, unit = scores[name]
        raw = deterministic(current[name])
        ratio = ratios[name] if raw else ratios[name] / scale
        flag = ""
        if ratio < 1.0 - args.tolerance:
            unit_label = (f"{unit} (vs run median)"
                          if args.normalize and not raw else unit)
            failures.append(
                f"{name}: {unit_label} fell to {ratio:.2f}x of reference "
                f"(allowed >= {1.0 - args.tolerance:.2f}x)")
            flag = "  <-- REGRESSION"
        print(f"{name:<40} {ref_score:>14.3g} {cur_score:>14.3g} "
              f"{ratio:>7.2f}x{flag}")
    for name in sorted(set(current) - set(reference)):
        print(f"warning: {name} has no reference entry; it ran but is not "
              f"compared", file=sys.stderr)

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nperf regression gate passed "
          f"(tolerance {args.tolerance:.0%}, {len(shared)} benchmarks"
          f"{', median-normalized' if args.normalize else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
