#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py

For every workload it checks that:
- an untraced run prints every end-to-end metric of BENCHMARK.json,
  each with a unit, and passes its checks;
- a traced run prints every per-layer metric the same way;
- --inject-failure makes the command exit non-zero with
  "correct": false.

It also checks that, in a directory holding only BENCHMARK.json and
perfbench/, the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
WORKLOADS = ("fig09-matrix", "ycsb-serve", "crash-explore")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, *args, env=None):
    return subprocess.run(RUN + list(args), cwd=root, capture_output=True,
                          text=True, timeout=600, env=env)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = last_json(proc)
        self.assertEqual(set(res),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(m["unit"], name)

    def test_metrics_printed_with_units(self):
        s = spec()
        e2e = [m["name"] for m in s["end_to_end"]]
        layer = [m["name"] for m in s["per_layer"]]
        for wl in WORKLOADS:
            for trace, names in (("0", e2e), ("1", layer)):
                with self.subTest(workload=wl, trace=trace):
                    proc = run(ROOT, "--workload", wl, "--seed", "7",
                               "--seconds", "1", "--trace", trace,
                               "--smoke")
                    self.check_result(proc, names)
                    units = {m["name"]: m["unit"] for m in
                             s["end_to_end" if trace == "0"
                               else "per_layer"]}
                    for name, m in last_json(proc)["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)

    def test_injected_failure_exits_nonzero(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                proc = run(ROOT, "--workload", wl, "--seed", "7",
                           "--seconds", "1", "--trace", "0", "--smoke",
                           "--inject-failure")
                self.assertNotEqual(proc.returncode, 0)
                res = last_json(proc)
                self.assertIs(res["correct"], False)
                self.assertGreater(res["failed"], 0)
                self.assertIn("FAILED CHECK", proc.stdout)

    def test_no_sources_no_result(self):
        base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        if not base.is_absolute():
            base = ROOT / base
        bare = base / "smoke-bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = run(bare, "--workload", "fig09-matrix", "--seed", "1",
                       "--seconds", "1", "--trace", "0", env=env)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"metrics"', line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
