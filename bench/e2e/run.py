#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

One workload per process:

    python3 bench/e2e/run.py --workload plan --seed 3 --seconds 10 --trace 0

builds bench/e2e into build-e2e/ (first run only; later runs are a no-op
make), runs the workload, prints every metric with its unit and sample
count, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). The full result, including metrics that
only some workloads have, is in OUT/<workload>.json; a traced run also
writes its spans to OUT/<workload>.spans.jsonl.

    python3 bench/e2e/run.py --check

is the smoke test: a tiny preset of every workload, traced and untraced,
failing if a metric BENCHMARK.json names is missing or has another unit,
or if any operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "lmkg_e2e"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets make decide what is stale."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build failed: " + " ".join(step))
            return False
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, out_dir, extra=()):
    """Runs one workload; returns its result file's content or None."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={out_dir}", *extra]
    if trace:
        cmd.append("--trace")
    result_path = Path(out_dir) / f"{workload}.json"
    if result_path.exists():
        result_path.unlink()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    # Exit code 3 means some operation failed its check; the result file
    # still reports that, so only a missing file is fatal here.
    if done.returncode not in (0, 3) or not result_path.exists():
        log(f"run.py: {workload} exited with {done.returncode}")
        return None
    with open(result_path) as f:
        return json.load(f)


def contract_metrics(result, spec, trace):
    """BENCHMARK.json's metrics for this mode, checked for name and unit.

    Returns (metrics, problems)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got['unit']!r}, "
                            f"BENCHMARK.json says {entry['unit']!r}")
        else:
            metrics[entry["name"]] = {"value": got["value"],
                                      "unit": got["unit"]}
    return metrics, problems


def print_metrics(result, names):
    for name, m in sorted(result["metrics"].items()):
        mark = "" if name in names else "  (workload-specific)"
        print(f"{result['workload']:10s} {name:36s} {m['value']:16.6g} "
              f"{m['unit']:6s} n={m['samples']}{mark}")


def check():
    """Tiny preset of every workload, traced and untraced."""
    spec = load_spec()
    out_dir = BUILD / "check"
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result = run_workload(workload, 1, 2, trace, out_dir,
                                  ["--scale=0.01", "--setup_repeats=1"])
            label = f"{workload} trace={int(trace)}"
            if result is None:
                failures.append(f"{label}: no result")
                continue
            _, problems = contract_metrics(result, spec, trace)
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{result['failed']} of "
                                f"{result['attempted']} operations failed")
            failures += [f"{label}: {p}" for p in problems]
            log(f"check {label}: {'ok' if not problems else 'FAILED'}")
    for failure in failures:
        log("check: " + failure)
    print("check: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BUILD / "out"))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.check:
        return check()
    if not args.workload:
        parser.error("--workload is required (or --check)")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace == 1, args.out)
    if result is None:
        return 1
    metrics, problems = contract_metrics(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            log("run.py: " + p)
        return 1
    print_metrics(result, metrics)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
