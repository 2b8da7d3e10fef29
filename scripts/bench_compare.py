#!/usr/bin/env python3
"""Compare two BENCH_scaling.json engine reports and fail on regression.

Usage: bench_compare.py BASELINE.json CURRENT.json [--max-regression 0.25]
                        [--allow-missing]

BENCH_scaling.json is the validation engine's JSON report with timing
(schema llvmmd-validation-report-v1, emitted by bench/scaling.cpp). The
guarded metric is end-to-end validation throughput: validated functions per
second of engine wall time. Exits 1 when the current throughput is more
than --max-regression below the baseline; a faster run never fails.

CI gates twice: against the committed seed baseline in bench/baselines/
and against the previous run's BENCH_scaling artifact (the trajectory).
A missing baseline fails (exit 1): a gate with nothing to compare against
has not gated anything. Only the trajectory step passes --allow-missing,
because the very first run of a fresh trajectory (or one whose previous
artifacts all expired) has no previous run; it then passes loudly.
"""

import argparse
import json
import os
import sys


def throughput(path):
    with open(path) as f:
        report = json.load(f)
    schema = report.get("schema", "")
    if not schema.startswith("llvmmd-validation-report"):
        sys.exit(f"error: {path}: unexpected schema {schema!r}")
    wall_us = report.get("wall_us", 0)
    validated = report.get("summary", {}).get("validated", 0)
    if wall_us <= 0 or validated <= 0:
        sys.exit(f"error: {path}: no timing data (wall_us={wall_us}, "
                 f"validated={validated}); was it emitted with timing?")
    return validated / (wall_us / 1e6), validated, wall_us


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="fractional throughput drop that fails (default .25)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="pass (loudly) when BASELINE does not exist; for the "
                         "first run of a trajectory only")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        throughput(args.current)  # still validate the current report
        if not args.allow_missing:
            print(f"FAIL: no baseline at {args.baseline}; a gate without a "
                  f"baseline gates nothing (pass --allow-missing only for "
                  f"the first run of a trajectory)")
            return 1
        # First run of a trajectory: nothing to regress against. Pass, but
        # say so explicitly — a silent exit is indistinguishable from a
        # gate that never ran.
        print(f"notice: no baseline at {args.baseline}; first run of this "
              f"trajectory — clean pass, no regression gate applied")
        print("OK (no baseline)")
        return 0

    base_tp, base_n, base_us = throughput(args.baseline)
    cur_tp, cur_n, cur_us = throughput(args.current)

    delta = (cur_tp - base_tp) / base_tp
    print(f"baseline: {base_n} validated in {base_us / 1000.0:.2f} ms "
          f"({base_tp:.1f} fn/s)")
    print(f"current:  {cur_n} validated in {cur_us / 1000.0:.2f} ms "
          f"({cur_tp:.1f} fn/s)")
    print(f"throughput delta: {delta:+.1%} "
          f"(gate: -{args.max_regression:.0%})")

    if base_n != cur_n:
        # Workload drift (different profile or validator coverage) makes the
        # ratio meaningless; flag it instead of comparing apples to oranges.
        print("warning: validated-function counts differ; "
              "treating as workload change, not a regression")
        return 0
    if delta < -args.max_regression:
        print(f"FAIL: throughput regressed more than "
              f"{args.max_regression:.0%}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
