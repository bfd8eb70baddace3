#!/usr/bin/env python3
"""Diff a fresh BENCH_smoke.json against a baseline artifact; fail on regression.

Usage:
    compare_bench.py --baseline bench/baselines/BENCH_smoke_baseline.json \
                     --candidate BENCH_smoke.json [--threshold 0.15]

Rows are matched by their identifying columns (label, index, workload, plus
whatever configuration axes the baseline row carries: dataset, disk, threads,
shards, durability, buffer_blocks, checkpoint_every, merge mode/threshold).
Each baseline row matches the one candidate row that agrees on every key
column the baseline row carries; a candidate row may carry more key columns
than its baseline row (a newer schema adds axes without orphaning the
baseline). For every baseline row exactly one candidate row must match, and:

  - counted writes (``writes_per_op``) must not grow by more than the
    threshold (plus a small absolute epsilon, so near-zero baselines do not
    trip on rounding),
  - modeled throughput (``tput_ops_s``) must not drop by more than the
    threshold.

Counted reads/writes are deterministic in this repo (simulated devices, fixed
seeds); modeled throughput folds in measured CPU, which the disk model's I/O
latency dominates -- the default 15% margin absorbs runner-to-runner CPU
variance without masking a real regression. A baseline row that matches no
candidate row fails too (silent coverage loss is a regression), and so does
one that matches several (the baseline cannot tell them apart); candidate
rows no baseline row matched are reported but do not fail, so adding rows
never requires touching this script.

The measured wall-clock columns (``wall_us``, ``wall_p50_us``,
``wall_p999_us``) and the ``device`` tag are deliberately NOT gated: on a
real device they reflect the CI runner's disk and page cache, which vary
run to run far beyond any useful threshold. Only the deterministic counted
I/O and the modeled throughput participate in the regression gate.

Exit status: 0 clean, 1 on any regression or malformed input. Regenerate the
baseline by running the perf-smoke commands from .github/workflows/ci.yml and
copying the resulting BENCH_smoke.json over the baseline file.
"""

import argparse
import json
import sys

KEY_COLUMNS = ("label", "index", "workload", "dataset", "disk", "device", "threads",
               "shards", "lock_mode", "durability", "buffer_blocks", "checkpoint_every",
               "merge_mode", "merge_threshold", "clients", "batch")
WRITES_EPSILON = 0.05  # writes/op; absolute slack for near-zero baselines


def fail(message: str) -> None:
    print(f"compare_bench: {message}", file=sys.stderr)
    sys.exit(1)


def load_rows(path: str) -> list:
    try:
        with open(path) as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    rows = document.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path} has no rows")
    keyed = []
    seen = set()
    for row in rows:
        key = tuple((c, str(row[c])) for c in KEY_COLUMNS if c in row)
        if key in seen:
            fail(f"{path}: duplicate row key {dict(key)}")
        seen.add(key)
        for metric in ("writes_per_op", "tput_ops_s"):
            if not isinstance(row.get(metric), (int, float)):
                fail(f"{path}: row {dict(key)} lacks numeric {metric}")
        keyed.append((key, row))
    return keyed


def matches(base_key: tuple, candidate_row: dict) -> bool:
    """True when the candidate agrees on every key column of the baseline."""
    return all(c in candidate_row and str(candidate_row[c]) == v for c, v in base_key)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression budget (default 0.15 = 15%%)")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    candidate = load_rows(args.candidate)

    failures = []
    compared = 0
    matched = set()
    for key, base in baseline:
        name = ", ".join(f"{c}={v}" for c, v in key)
        hits = [i for i, (_, row) in enumerate(candidate) if matches(key, row)]
        if not hits:
            failures.append(f"missing from candidate: {name}")
            continue
        if len(hits) > 1:
            failures.append(f"ambiguous: {len(hits)} candidate rows match {name}")
            continue
        matched.add(hits[0])
        new = candidate[hits[0]][1]
        compared += 1
        writes_limit = base["writes_per_op"] * (1 + args.threshold) + WRITES_EPSILON
        if new["writes_per_op"] > writes_limit:
            failures.append(
                f"counted writes regressed: {name}: {new['writes_per_op']:.3f} "
                f"writes/op vs baseline {base['writes_per_op']:.3f} "
                f"(limit {writes_limit:.3f})")
        tput_floor = base["tput_ops_s"] * (1 - args.threshold)
        if new["tput_ops_s"] < tput_floor:
            failures.append(
                f"modeled throughput regressed: {name}: {new['tput_ops_s']:.1f} ops/s "
                f"vs baseline {base['tput_ops_s']:.1f} (floor {tput_floor:.1f})")

    extra = [key for i, (key, _) in enumerate(candidate) if i not in matched]
    for key in extra:
        print("compare_bench: note: candidate-only row (not compared): "
              + ", ".join(f"{c}={v}" for c, v in key))

    if failures:
        for failure in failures:
            print(f"compare_bench: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"compare_bench: OK: {compared} row(s) within {args.threshold:.0%} of baseline"
          f" ({len(extra)} candidate-only row(s))")


if __name__ == "__main__":
    main()
