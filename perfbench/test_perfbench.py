#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size with all its
checks, the result-line contract, the traced run and its trace file, the
BENCH document through calib-benchdiff, and the refusal to run without the
program's sources.

    python3 perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=1, cwd=ROOT):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tool(name):
    subprocess.run(["cmake", "--build", str(BUILD), "--target", name],
                   check=True, capture_output=True)
    return str(BUILD / "calib" / name)


class Contract(unittest.TestCase):
    def check_line(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.check_line(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_other_seed_passes_every_check(self):
        proc = bench("offline-timeseries", seed=987654321)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result(proc)["correct"])

    def test_traced_run_and_trace_file(self):
        cali_query = tool("cali-query")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check_line(result(proc), SPEC["per_layer"])
                trace = ROOT / ".bench_build" / "work" / w / "trace.json"
                spans = json.loads(trace.read_text())
                for s in spans:
                    self.assertLessEqual({"name", "path", "cat", "tid", "ts", "dur"}, set(s))
                paths = {s["path"] for s in spans if s["cat"] == "bench"}
                self.assertIn("round", paths)
                # a span's path is its parent's path plus its name
                self.assertTrue(any(p.startswith("round/") for p in paths), paths)
                if w.startswith("offline"):
                    # the program's own phase spans share the timeline
                    self.assertIn("phase", {s["cat"] for s in spans})
                q = subprocess.run(
                    [cali_query, "-j", "-q",
                     "AGGREGATE count,sum(dur) GROUP BY path FORMAT csv", str(trace)],
                    capture_output=True, text=True)
                self.assertEqual(q.returncode, 0, q.stderr)
                self.assertIn("round", q.stdout)

    def test_bench_document_through_benchdiff(self):
        benchdiff = tool("calib-benchdiff")
        proc = bench("runtime-annotate")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        doc = ROOT / ".bench_build" / "work" / "runtime-annotate" / "BENCH_perfbench.json"
        meta = json.loads(doc.read_text())["meta"]
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            # stamped on every run, not when the build was configured
            self.assertEqual(meta["commit"], head.stdout.strip())
        else:
            self.assertIn("commit", meta)
        self.assertGreaterEqual(meta["hardware_concurrency"], 1)
        history = ROOT / ".bench_build" / "test-history.cali"
        history.unlink(missing_ok=True)
        app = subprocess.run([benchdiff, "append", str(history), str(doc)],
                             capture_output=True, text=True)
        self.assertEqual(app.returncode, 0, app.stderr)
        ls = subprocess.run([benchdiff, "list", str(history)], capture_output=True, text=True)
        self.assertEqual(ls.returncode, 0, ls.stderr)
        self.assertIn("perfbench.runtime-annotate", ls.stdout)
        self.assertIn("snapshots_per_s", ls.stdout)

    def test_fails_without_the_program_sources(self):
        alone = ROOT / ".bench_build" / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, alone / p)
        proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=alone, capture_output=True, text=True, timeout=180)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
