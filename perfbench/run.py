#!/usr/bin/env python3
"""Benchmark of the llvm-md validator, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 0 --seconds 20 \
        --trace 0

Workloads: suite-cold, suite-warm, fleet-mixed (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics BENCHMARK.json
lists; with --trace 1 the per-layer ones, and a Chrome trace-event file
(loadable in Perfetto) is written under the build directory's traces/.

The script builds the llvmmd library, the stock validate_server worker and
the perfbench binary (perfbench/CMakeLists.txt, Release) in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
binary in a scratch directory it removes afterwards, relays the binary's
report, and prints the result as its last line of output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

It exits 1 when a check failed or a metric is missing or malformed (the
result then reads "correct": false), and when the build or the binary
failed (then no result is printed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("suite-cold", "suite-warm", "fleet-mixed")
# A perfbench run must finish well inside the 180 s a run may take.
PERFBENCH_TIMEOUT_S = 170


def expected_metrics(trace):
    """{name: unit} of the metrics a run must report, from BENCHMARK.json."""
    with open(SPEC) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, expected):
    """Problems with a perfbench result; empty when it is well-formed."""
    if not isinstance(result, dict):
        return ["the result is not a JSON object"]
    problems = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append("result keys are %s, expected %s"
                        % (sorted(result), sorted(keys)))
    if result.get("correct") is not True:
        problems.append("a correctness check failed")
    for key in ("attempted", "failed"):
        value = result.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("no operation was attempted")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name, unit in sorted(expected.items()):
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s is missing" % name)
        elif not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s is malformed" % name)
        elif (not isinstance(m["value"], (int, float))
              or isinstance(m["value"], bool)):
            problems.append("metric %s has no numeric value" % name)
        elif m["unit"] != unit:
            problems.append("metric %s has unit %s, expected %s"
                            % (name, m["unit"], unit))
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def stop_group(proc):
    """Kills the binary's process group (it and its fleet workers) and
    waits until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_perfbench(cmd, cwd, expected, timeout=PERFBENCH_TIMEOUT_S):
    """Runs the perfbench binary, relays its report, and returns
    (exit code, result line or None)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print("error: perfbench ran longer than %d s" % timeout,
              file=sys.stderr)
        return 1, None
    stop_group(proc)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        print("error: perfbench printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1, None
    for line in lines[:-1]:
        print(line)
    problems = check_result(result, expected)
    if proc.returncode != 0 and not problems:
        problems.append("perfbench exited with %d" % proc.returncode)
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    if problems and isinstance(result, dict):
        result["correct"] = False
    return (1 if problems else 0), json.dumps(result)


def target_dir():
    """Where builds and run scratch go: $CARGO_TARGET_DIR or .bench_build."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir):
    """Configures (once) and builds perfbench and the worker; returns the
    directory holding both binaries, or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "validate_server", "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries the report.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("error: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "bin")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        print("error: cannot read %s: %s" % (SPEC, e), file=sys.stderr)
        return 1

    target = target_dir()
    bin_dir = build(os.path.join(target, "perfbench"))
    if bin_dir is None:
        return 1

    work = os.path.join(target, "work", "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(target, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--worker", os.path.join(bin_dir, "validate_server"),
           "--trace-out", os.path.join(traces, "%s-seed%d.json"
                                       % (args.workload, args.seed))]
    try:
        code, line = run_perfbench(cmd, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if line is not None:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
