"""Self-tests of the benchmark: no check may pass without checking.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The result checks need no build. The perfbench binary's self-test (a planted
miscompile must fail the soundness check, a flipped verdict the digest
check) and the bare-directory test build perfbench first, as run.py does.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def good_result(trace=0):
    metrics = {name: {"value": 1.25, "unit": unit}
               for name, unit in run.expected_metrics(trace).items()}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": metrics}


def fake_perfbench(result, code=0):
    """A stand-in for the perfbench binary that prints \\p result."""
    text = json.dumps(result) if result is not None else "no result"
    return [sys.executable, "-c",
            "import sys; print('metric x 1 ms'); print(%r); sys.exit(%d)"
            % (text, code)]


class ResultChecks(unittest.TestCase):
    def test_well_formed_result_passes(self):
        self.assertEqual(run.check_result(good_result(0),
                                          run.expected_metrics(0)), [])
        self.assertEqual(run.check_result(good_result(1),
                                          run.expected_metrics(1)), [])

    def test_missing_metric_fails(self):
        r = good_result()
        del r["metrics"]["job_latency_p95_ms"]
        problems = run.check_result(r, run.expected_metrics(0))
        self.assertIn("metric job_latency_p95_ms is missing", problems)

    def test_wrong_unit_fails(self):
        r = good_result()
        r["metrics"]["pairs_per_s"]["unit"] = "1/s"
        self.assertTrue(run.check_result(r, run.expected_metrics(0)))

    def test_failed_check_fails(self):
        r = good_result()
        r["correct"] = False
        r["failed"] = 1
        self.assertIn("a correctness check failed",
                      run.check_result(r, run.expected_metrics(0)))

    def test_nothing_attempted_fails(self):
        r = good_result()
        r["attempted"] = 0
        self.assertIn("no operation was attempted",
                      run.check_result(r, run.expected_metrics(0)))

    def test_unlisted_metric_fails(self):
        r = good_result()
        r["metrics"]["made_up_ms"] = {"value": 1, "unit": "ms"}
        self.assertTrue(run.check_result(r, run.expected_metrics(0)))

    def test_required_metrics_are_listed(self):
        e2e = run.expected_metrics(0)
        for name in ("setup_s", "pairs_per_s", "jobs_per_s",
                     "job_latency_p50_ms", "job_latency_p95_ms",
                     "validation_rate", "peak_rss_mb"):
            self.assertIn(name, e2e)
        layers = run.expected_metrics(1)
        for name in ("ir.parse_ms", "opt.gvn.ms", "vg.build_ms",
                     "normalize.budget_exhausted", "validator.pair_p95_us",
                     "driver.pool_utilisation", "driver.store.hit_ratio",
                     "driver.report.emit_ms", "server.queue_wait_ms",
                     "fleet.checkpoints", "trace.overhead_ratio"):
            self.assertIn(name, layers)


class ExitCode(unittest.TestCase):
    def run_fake(self, result, code=0):
        return run.run_perfbench(fake_perfbench(result, code), BENCH,
                              run.expected_metrics(0), timeout=30)

    def test_passing_run_exits_zero(self):
        code, line = self.run_fake(good_result())
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(line)["correct"])

    def test_missing_metric_exits_nonzero(self):
        r = good_result()
        del r["metrics"]["setup_s"]
        code, line = self.run_fake(r)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(line)["correct"])

    def test_failed_check_exits_nonzero(self):
        r = good_result()
        r["correct"] = False
        code, _ = self.run_fake(r, code=1)
        self.assertEqual(code, 1)

    def test_nonzero_binary_exit_is_a_failure(self):
        code, line = self.run_fake(good_result(), code=1)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(line)["correct"])

    def test_no_result_prints_nothing(self):
        code, line = self.run_fake(None)
        self.assertEqual(code, 1)
        self.assertIsNone(line)


class BinarySelfTest(unittest.TestCase):
    def test_checks_catch_planted_failures(self):
        bin_dir = run.build(os.path.join(run.target_dir(), "perfbench"))
        self.assertIsNotNone(bin_dir, "perfbench did not build")
        work = os.path.join(run.target_dir(), "self-test")
        os.makedirs(work, exist_ok=True)
        p = subprocess.run([os.path.join(bin_dir, "perfbench"), "--self-test",
                            "--work", work],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("ok: soundness check flags a miscompile reported as "
                      "validated", p.stdout)
        self.assertNotIn("FAIL", p.stdout)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(run.target_dir(), "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "suite-cold", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
