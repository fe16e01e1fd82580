#!/usr/bin/env python3
"""Tests of the benchmark itself, on test-sized (--tiny) runs.

Run from the repository root (the first run builds the benchmark):

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

WORKLOADS = ("cold-sweep", "replay-sweep", "uncapped-fused")
FAULTS = {
    "cold-sweep": ("cold-fail", "cold-record"),
    "replay-sweep": ("replay-trace", "replay-config"),
    "uncapped-fused": ("uncapped-cap", "uncapped-lossy"),
}
LAYERS = {"video", "encoders", "trace", "uarch", "lab", "core"}


def bench(*args):
    """Run perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, proc.stdout.splitlines()


def tiny(workload, seed=1, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0", "--tiny", *extra)


def record_of(lines):
    for line in lines:
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise AssertionError("no record line")


class SpecListTest(unittest.TestCase):
    def specs(self, workload, seed, *extra):
        code, lines = bench("--workload", workload, "--seed", str(seed),
                            "--list-specs", *extra)
        self.assertEqual(code, 0)
        self.assertTrue(lines)
        return lines

    def test_spec_list_is_a_pure_function_of_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.specs(workload, 7),
                                 self.specs(workload, 7))
                self.assertNotEqual(self.specs(workload, 7),
                                    self.specs(workload, 8))


class RunTest(unittest.TestCase):
    def test_result_line_and_digest_are_stable_across_two_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code1, lines1 = tiny(workload, 5, "--trace", "0")
                code2, lines2 = tiny(workload, 5, "--trace", "0")
                self.assertEqual((code1, code2), (0, 0))
                result = json.loads(lines1[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(record_of(lines1)["digest"],
                                 record_of(lines2)["digest"])

    def test_each_injected_fault_is_caught(self):
        for workload, faults in FAULTS.items():
            for fault in faults:
                with self.subTest(fault=fault):
                    code, lines = tiny(workload, 1, "--trace", "0",
                                       "--fault", fault)
                    self.assertEqual(code, 1)
                    result = json.loads(lines[-1])
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)

    def test_trace_json_parses_and_self_times_are_non_negative(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                with tempfile.TemporaryDirectory(dir=".perfbench") as tmp:
                    out = os.path.join(tmp, "trace.json")
                    code, lines = tiny(workload, 2, "--trace", "1",
                                       "--trace-out", out)
                    self.assertEqual(code, 0)
                    with open(out) as f:
                        events = json.load(f)["traceEvents"]
                self.assertEqual({e["cat"] for e in events}, LAYERS)
                by_id = {e["args"]["id"]: e for e in events}
                child_time = {}
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)
                    parent = e["args"]["parent"]
                    if parent:
                        self.assertIn(parent, by_id)
                        child_time[parent] = child_time.get(parent, 0) + e["dur"]
                for span_id, e in by_id.items():
                    # Children nest inside their parent (ts rounding aside).
                    self.assertGreaterEqual(
                        e["dur"] - child_time.get(span_id, 0), -0.01)
                metrics = json.loads(lines[-1])["metrics"]
                for layer in LAYERS:
                    self.assertGreaterEqual(metrics[layer + ".self_s"]["value"], 0)


if __name__ == "__main__":
    os.makedirs(".perfbench", exist_ok=True)
    unittest.main()
