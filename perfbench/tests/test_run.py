"""Tests of the benchmark harness.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The helper tests are instant. The smoke tests build the harness (like a
first benchmark run) and run every workload in --smoke mode, traced and
untraced, so each workload's checks and metric set are exercised.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))   # 1..100
        self.assertEqual(run.nearest_rank(values, 50), 50)
        self.assertEqual(run.nearest_rank(values, 90), 90)
        self.assertEqual(run.nearest_rank(values, 100), 100)
        self.assertEqual(run.nearest_rank(values, 0), 1)
        self.assertEqual(run.nearest_rank([7.5], 90), 7.5)
        self.assertEqual(run.nearest_rank([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)

    def test_highest_supported_percentile(self):
        hsp = run.highest_supported_percentile
        self.assertIsNone(hsp(0))
        self.assertIsNone(hsp(19))    # the median has only 9 above it
        self.assertEqual(hsp(20), 50.0)
        self.assertEqual(hsp(99), 75.0)
        self.assertEqual(hsp(100), 90.0)
        self.assertEqual(hsp(199), 90.0)
        self.assertEqual(hsp(200), 95.0)
        self.assertEqual(hsp(1000), 99.0)
        self.assertEqual(hsp(10000), 99.9)

    def test_warm_setup_drops_the_cold_one(self):
        self.assertEqual(run.warm_setup_s([9.0, 1.0, 3.0, 2.0]), 2.0)
        self.assertEqual(run.warm_setup_s([9.0, 1.0, 2.0]), 1.5)
        self.assertEqual(run.warm_setup_s([4.0]), 4.0)

    def test_supported_percentile_leaves_ten_beyond(self):
        for n in range(20, 3000, 7):
            p = run.highest_supported_percentile(n)
            values = list(range(n))
            above = sum(1 for v in values if v > run.nearest_rank(values, p))
            self.assertGreaterEqual(above, 10, n)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "op_ms_p50", "nn.conv.conv1.fw_ms",
                     "sim.piece.fc.wu_ms", "9lives", "a" * 64):
            self.assertEqual(run.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "x" * 65,
                     "café", "a\n", None):
            with self.assertRaises(run.BenchError):
                run.check_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "GMAC/s", "x"):
            self.assertEqual(run.check_unit(unit), unit)
        for unit in ("", "m s", "a" * 17, "ms;"):
            with self.assertRaises(run.BenchError):
                run.check_unit(unit)


class EmitterTest(unittest.TestCase):
    def test_round_trip(self):
        metrics = {"latency_ms": (1.2034000000000001, "ms"),
                   "setup_s": (0.81270000000000009, "s"),
                   "tiny": (1e-300, "count"),
                   "big": (123456789012345.67, "1/s")}
        line = run.emit_result(True, 1000, 0, metrics)
        self.assertNotIn("\n", line)
        correct, attempted, failed, back = run.parse_result(line)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (1000, 0))
        self.assertEqual(back, metrics)   # exact: every digit survives
        self.assertEqual(set(json.loads(line)),
                         {"correct", "attempted", "failed", "metrics"})

    def test_emitter_rejects_bad_names(self):
        with self.assertRaises(run.BenchError):
            run.emit_result(True, 1, 0, {"bad name": (1.0, "ms")})

    def test_parse_rejects_extra_keys(self):
        with self.assertRaises(run.BenchError):
            run.parse_result('{"correct": true, "attempted": 1, '
                             '"failed": 0, "metrics": {}, "x": 1}')


class SpecTest(unittest.TestCase):
    def test_benchmark_json(self):
        spec = run.load_spec(os.path.join(run.ROOT, "BENCHMARK.json"))
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))


def run_bench(workload, trace, extra_env=None):
    env = dict(os.environ)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, timeout=900)


class SmokeTest(unittest.TestCase):
    """Every workload, traced and untraced, in --smoke mode."""

    def check(self, workload, trace):
        spec = run.load_spec(os.path.join(run.ROOT, "BENCHMARK.json"))
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        correct, attempted, failed, metrics = run.parse_result(
            proc.stdout.strip().splitlines()[-1])
        self.assertTrue(correct)
        self.assertGreaterEqual(attempted, 1)
        self.assertEqual(failed, 0)
        group = "per_layer" if trace else "end_to_end"
        self.assertEqual(list(metrics), [m["name"] for m in spec[group]])
        if not trace:
            for name, (value, _) in metrics.items():
                self.assertGreater(value, 0.0, name)
        return metrics

    def test_train_sparse(self):
        self.check("train_sparse", 0)
        m = self.check("train_sparse", 1)
        self.assertGreater(m["nn.conv.conv2.bw_ms"][0], 0.0)
        self.assertAlmostEqual(m["sparse.weight_density"][0], 0.2, places=3)

    def test_train_dense(self):
        self.check("train_dense", 0)
        m = self.check("train_dense", 1)
        self.assertGreater(m["nn.batchnorm.fw_ms"][0], 0.0)
        self.assertEqual(m["sim.cycles"][0], 0.0)

    def test_cosim_sweep(self):
        self.check("cosim_sweep", 0)
        m = self.check("cosim_sweep", 1)
        self.assertGreater(m["sim.cycles"][0], 0.0)
        self.assertGreater(m["arch.speedup_vs_dense"][0], 0.0)

    def test_concurrent(self):
        self.check("concurrent", 0)
        m = self.check("concurrent", 1)
        self.assertGreater(m["serve.checkpoint_bytes"][0], 0.0)
        self.assertLess(m["scaleout.exchange_ratio"][0], 1.0)

    def test_refuses_environment_overrides(self):
        for var, value in (("PROCRUSTES_SIMD", "scalar"),
                           ("PROCRUSTES_NUM_THREADS", "2"),
                           ("PROCRUSTES_KERNEL_BACKEND", "naive"),
                           ("PROCRUSTES_STORAGE_PRECISION", "bf16")):
            proc = run_bench("train_dense", 0, {var: value})
            self.assertEqual(proc.returncode, 2, var)
            self.assertNotIn('"correct"', proc.stdout)
            self.assertIn(var, proc.stderr)


if __name__ == "__main__":
    unittest.main()
