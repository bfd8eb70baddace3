#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/, runs liod_perfbench for one workload, and prints its result as
the last line of standard output: one JSON object with the keys correct,
attempted, failed and metrics. The metric set must be exactly the one
BENCHMARK.json lists for the run kind, or the run fails. Build output and the
benchmark's report go to standard error. Traced runs also leave
.bench_build/<workload>.trace.json (Chrome trace events) and
.bench_build/<workload>.metrics.json (the MetricRegistry snapshot).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "liod_perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return BUILD / "liod_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(trace)
    if set(result["metrics"]) != want:
        raise ValueError(f"metric set differs from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ want)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    work = BUILD / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work), "--out", str(BUILD)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark failed with exit code {proc.returncode}")
        return 1
    try:
        check_result(lines[-1], args.trace)
    except ValueError as err:
        log(f"bad result line: {err}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
