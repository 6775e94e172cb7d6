"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

They build the program (like run.py), then check that
- every workload runs in a short smoke mode, traced and untraced, and prints
  exactly the metrics BENCHMARK.json declares, with valid names and units;
- a corrupted report or response is counted as failed, never passed;
- the pinned golden tables still describe the canonical `slc batch` report;
- without the repository beside it, the benchmark fails without a result.
"""

import hashlib
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

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# sha256 of the canonical report `slc batch` writes (BENCH_batch.json)
CANONICAL_SHA256 = "0715a9c96b30306d1c1803da5f9740b2d5bdc901a31f4b031cc798c0bc5a31fd"

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def scratch(name):
    d = os.path.join(run.target_dir(), "perfbench-selftest", name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def smoke(self, workload, trace, *extra):
        return run.run_workload(self.binary, workload, 1, 1, trace, extra)[1]

    def test_smoke_prints_declared_metrics(self):
        declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.smoke(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in declared[trace]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in got:
                        self.assertRegex(name, NAME)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_declared_names_are_valid_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_corrupted_output_is_counted_failed(self):
        for w in ("matrix", "certify", "serve", "sharded"):
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    res = self.smoke(w, trace, "--corrupt")
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["failed"], 1)

    def test_golden_tables_match_canonical_report(self):
        d = scratch("pin")
        subprocess.run([self.binary, "pin", d], check=True)
        with open(os.path.join(d, "report.json"), "rb") as f:
            self.assertEqual(hashlib.sha256(f.read()).hexdigest(), CANONICAL_SHA256)
        for name in ("matrix.tsv", "certify.tsv"):
            with open(os.path.join(d, name)) as got, \
                    open(os.path.join(HERE, "golden", name)) as want:
                self.assertEqual(got.read(), want.read(), name)

    def test_fails_without_the_repository(self):
        d = scratch("alone")
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
