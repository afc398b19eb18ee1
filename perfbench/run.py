#!/usr/bin/env python3
"""Run one perfbench workload: build calib and the perfbench binary from source (once
per checkout), then run the binary and pass its result line through.

    python3 perfbench/run.py --workload offline-profile --seed 1 \
        --seconds 25 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json, the run length the
bounds there were measured at. The last line of standard output is the
binary's JSON result. Build products and every file a run writes go under
.bench_build/ at the root of the checkout. Exit status: the binary's (0 =
every check passed, 1 = a check failed); 2 when the build fails and 3 when
the run exceeds 170 s, both without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["offline-profile", "offline-timeseries", "daemon-live", "runtime-annotate"]
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure (first time) and build \a targets; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets)
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                return False
    return True


def commit():
    """The checkout's commit for the BENCH document's meta stamp, read on
    every run so a reused build directory never stamps an old one; "" outside
    a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: every check of the workload, in seconds")
    args = p.parse_args()

    if not build(["perfbench"]):
        return 2
    work = ROOT / ".bench_build" / "work" / args.workload
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work.relative_to(ROOT))]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    sha = commit()
    if sha:
        env["CALIB_GIT_SHA"] = sha
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
