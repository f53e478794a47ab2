"""Fast self-test of the benchmark (about 30 s):

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def bench(workload, seconds, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_each_workload_completes(self):
        for workload in ("survey", "query", "orbit"):
            with self.subTest(workload=workload):
                out = bench(workload, 1, 0)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertTrue(out["correct"])
                self.assertEqual(set(out["metrics"]), {
                    "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
                    "peak_rss_mb"})
                if workload != "orbit":
                    self.assertEqual(out["failed"], 0)  # error_rate 0

    def test_orbit_shows_known_defect(self):
        # the first orbit ops are sample_orbit on O_K(151), which raised
        # ZeroDivisionError at the reference commit
        out = bench("orbit", 1, 1)
        self.assertTrue(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertGreater(out["metrics"]["geodesic.sample_orbit.errors"]["value"], 0)

    def test_orbit_failures_repeat_across_seeds(self):
        # each run holds the same number of fields of each failure class
        runs = [bench("orbit", 3, 0, seed) for seed in (1, 2)]
        self.assertEqual([r["attempted"] for r in runs], [runs[0]["attempted"]] * 2)
        self.assertEqual([r["failed"] for r in runs], [runs[0]["failed"]] * 2)

    def test_traced_calls_repeat(self):
        runs = [bench("query", 0.2, 1), bench("query", 0.2, 1)]
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                 for r in runs]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["cli.main.calls"], 0)


class Bindings(unittest.TestCase):
    def test_tracer_restores_bindings(self):
        from run import import_workloads
        import_workloads()
        from tracer import Tracer

        def snapshot():
            names = {}
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "quadtwist" and not mod_name.startswith("quadtwist."):
                    continue
                for key, value in vars(mod).items():
                    names[(mod_name, key)] = id(value)
                    if isinstance(value, type) and value.__module__ == mod_name:
                        for attr, member in vars(value).items():
                            names[(mod_name, key, attr)] = id(member)
            return names

        import quadtwist
        original_mul = quadtwist.QuadElem.__mul__
        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(quadtwist.QuadElem.__mul__, original_mul)
            self.assertIs(quadtwist.QuadElem.__rmul__, quadtwist.QuadElem.__mul__)
            self.assertIs(quadtwist.twist.surd_compare, quadtwist.quadfield.surd_compare)
            x = quadtwist.QuadElem.of(5, 1, 1)
            x * x
            self.assertEqual(tracer.calls[tracer.targets.index("quadfield.QuadElem.__mul__")], 1)
        finally:
            tracer.uninstall()
        self.assertEqual(snapshot(), before)


if __name__ == "__main__":
    unittest.main()
