#!/usr/bin/env python3
"""Self-tests of the lwmpi benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root. Each test drives perfbench/run.py for about a
second per run (the first run builds) and checks the contract the benchmark
promises: every declared metric is emitted with a unit, a forced wrong
result fails the run, and the seed changes the inputs but not the metrics.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def digest(lines):
    return next(m.group(1) for l in lines if (m := re.match(r"inputs_digest=(\w+)", l)))


class Contract(unittest.TestCase):
    def check_metrics(self, result, section):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        rc, _, result = run("send_path", 1, 0)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.check_metrics(result, "end_to_end")
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_every_per_layer_metric_is_emitted_with_its_unit(self):
        rc, _, result = run("halo", 1, 1)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.check_metrics(result, "per_layer")

    def test_forced_wrong_result_exits_nonzero_in_every_group(self):
        rc, lines, result = run("replay", 1, 0, "--force-wrong")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        failures = "\n".join(l for l in lines if l.startswith("FAILED:"))
        for check in ("window bytes did not land", "ping-pong payload pattern",
                      "residual differs", "timeout(s)"):
            self.assertIn(check, failures)

    def test_seed_changes_inputs_but_not_the_metric_set(self):
        runs = [run("pingpong", s, 0) for s in (1, 2, 1)]
        for rc, _, _ in runs:
            self.assertEqual(rc, 0)
        (_, a, ra), (_, b, rb), (_, a2, _) = runs
        self.assertNotEqual(digest(a), digest(b))
        self.assertEqual(digest(a), digest(a2))
        self.assertEqual(set(ra["metrics"]), set(rb["metrics"]))


if __name__ == "__main__":
    unittest.main()
