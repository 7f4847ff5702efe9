"""Smoke tests for the benchmark: every workload at a tiny size.

Run from the root of a checkout with either of

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import COUNTED, TIMED, Tracer, _resolve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: str, section: str) -> None:
        done = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace, "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(any(line.split()[:1] == [name] for line in lines), f"{name} not printed")
        self.assertIn(["failed_frac", "0", "ratio"], [line.split() for line in lines])

    def test_every_workload_plain_and_traced(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"], trace=0):
                self.check_run(workload["name"], "0", "end_to_end")
            with self.subTest(workload=workload["name"], trace=1):
                self.check_run(workload["name"], "1", "per_layer")

    def test_workloads_match_the_spec(self) -> None:
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.SIZES))
        self.assertEqual(sorted(names), sorted(workloads.SMOKE_SIZES))
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            self.assertEqual(sorted(json.load(fh)), sorted(names))

    def test_fails_without_the_program(self) -> None:
        os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, ".out"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".out", "__pycache__"))
            done = bench("--workload", "tick-loop", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare)

    def test_tracer_restores_every_binding(self) -> None:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import run

        mods = run.import_fresh(os.path.join(ROOT, "src"))
        before = [_resolve(mods, module, path) for _, module, path in TIMED + COUNTED]
        originals = [owner.__dict__[attr] for owner, attr in before]
        tracer = Tracer(mods)
        tracer.install()
        self.assertIsNot(mods.harness.decide, originals[1])
        tracer.uninstall()
        self.assertEqual([owner.__dict__[attr] for owner, attr in before], originals)


if __name__ == "__main__":
    unittest.main()
