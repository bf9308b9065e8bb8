#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark program through run.py, then run small versions
of the workloads (--reads shrinks the read pool) and check the output
format, the determinism of the simulated PIM metrics, that a corrupted
result is counted as a failure, and that the benchmark fails cleanly
without the library sources. About two minutes on four cores.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def perfbench(*args):
    """Run the benchmark program; return (stdout lines, stderr, result)."""
    out = subprocess.run([run.BINARY, *args], capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"perfbench {args} exited {out.returncode}:\n"
                             f"{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, out.stderr, json.loads(lines[-1])


def digest(stderr):
    return re.search(r"digest ([0-9a-f]+)", stderr).group(1)


class OutputFormat(unittest.TestCase):
    def check(self, workload, trace, *extra):
        family = SPEC["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in family}
        lines, _, result = perfbench("--workload", workload, "--seed", "3",
                                     "--trace", str(trace), *extra)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {}
        for line in lines[:-1]:
            name, value, unit = line.split(" ")
            self.assertIn(name, units, f"unknown metric {name}")
            self.assertEqual(unit, units[name], name)
            self.assertNotIn(name, printed, f"{name} printed twice")
            printed[name] = float(value)
        self.assertEqual(set(printed), set(units))
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertEqual(metric["value"], printed[name], name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_and_mode(self):
        small = {"paper_mix": "1024", "exact_only": "2048",
                 "wire_paced": "512", "pim_sim": "48"}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace, "--reads", small[workload],
                               "--seconds", "1")


class PimSimDeterminism(unittest.TestCase):
    SIM = ("pim.sim_ns_per_read", "pim.sim_pj_per_read", "pim.model_chip_qps")

    def sim(self, seed):
        _, err, result = perfbench("--workload", "pim_sim", "--seed", str(seed),
                                   "--reads", "64", "--trace", "1")
        return digest(err), {k: result["metrics"][k]["value"] for k in self.SIM}

    def test_repeats_for_a_seed_and_changes_with_another(self):
        first, again, other = self.sim(5), self.sim(5), self.sim(6)
        self.assertEqual(first, again)
        self.assertNotEqual(first[0], other[0])
        for k in self.SIM:
            self.assertNotEqual(first[1][k], other[1][k], k)


class InjectedMismatch(unittest.TestCase):
    def test_counts_toward_failed(self):
        for workload, reads in (("paper_mix", "1024"), ("wire_paced", "512")):
            with self.subTest(workload=workload):
                _, _, result = perfbench(
                    "--workload", workload, "--seed", "3", "--reads", reads,
                    "--seconds", "1", "--trace", "0", "--inject-mismatch")
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])
                self.assertFalse(result["correct"])


class WithoutTheLibrary(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(run.ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()
