#!/usr/bin/env python3
"""CI perf-regression gate for the benchmark result JSONs.

GATES maps a result's "bench" kind to its gated rows,
(metric, unit, rule, floor). A metric is a top-level or dotted JSON key.
Every row passes when ratio = current / reference >= floor:

  absolute  reference = the committed baseline's value, floor = 0.80
            (a -20% margin for shared-runner noise). The baseline is
            bench/baselines/{bench}_baseline[_{N}core].json, where N is
            the result's "hardware_threads" when it carries one: absolute
            throughput only compares within one machine class. A missing
            baseline file fails. A baseline whose "simd_isa" differs from
            the result's, or one marked "bootstrap": true (a machine class
            with no measured numbers yet), skips the absolute rows with a
            warning.
  at_least  reference = 1: the metric is itself a ratio of two numbers
            measured in one process, so hardware drift cancels out and
            the row runs on every machine, even when absolute rows skip.
  scaling   only in --scaling MULTI SINGLE mode, which compares two runs
            of one bench from the same job; SINGLE must be a 1-shard run
            and is the reference. Absolute and at_least rows do not run.

A result missing a gated metric fails. Exit codes: 0 every row passed,
1 a row failed, 2 unusable input (an unreadable or malformed JSON, or a
bench kind GATES does not know).

  check_bench_regression.py BENCH_planner.json
  check_bench_regression.py --scaling BENCH_serving_4shard.json \\
      BENCH_serving_1shard.json

Refreshing a baseline
---------------------
The committed baselines track the class of machine CI runs on. After a
deliberate perf change (or a runner upgrade) lands on main, download the
"bench-results" artifact of a green main run (Actions -> CI ->
gcc-Release -> artifacts), promote it and commit:

  python3 scripts/check_bench_regression.py --promote path/to/bench-results/
  git add bench/baselines/

--promote takes result files and/or directories of them (every *.json
inside) and copies each over its baseline path. When several runs map to
one baseline (CI uploads a 4-shard and a 1-shard serving run), the run
with the most shards wins: that is the configuration the absolute rows
measure. Replace a bootstrap baseline the same way as soon as its machine
class has a green run. Never refresh to paper over an unexplained drop:
the gate exists to make that conversation happen in review.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "bench" / "baselines"
MIN_VS_BASELINE = 0.80  # the -20% margin of every absolute row

GATES = {
    "batch_inference": [
        ("batch64_qps", "q/s", "absolute", MIN_VS_BASELINE),
    ],
    "serving": [
        ("closed_loop_16_qps", "q/s", "absolute", MIN_VS_BASELINE),
        ("closed_loop_16_uncached_qps", "q/s", "absolute", MIN_VS_BASELINE),
        # Feedback-off over feedback-on final median q-error after drift.
        ("feedback_loop.qerror_convergence_ratio", "x", "at_least", 1.5),
        # Multi-shard over 1-shard uncached qps, sized for a 4-vCPU runner.
        ("closed_loop_16_uncached_qps", "q/s", "scaling", 2.5),
    ],
    "planner": [
        ("plans_per_sec", "plans/s", "absolute", MIN_VS_BASELINE),
        # Memoized batched pricing over one blocking Estimate per sub-plan.
        ("batched_vs_naive_speedup", "x", "at_least", 5.0),
    ],
    "store": [
        ("mapped_cold_starts_per_sec", "starts/s", "absolute",
         MIN_VS_BASELINE),
        # Mapped cold start over a streamed Load of the largest registry.
        ("mmap_vs_streamed_speedup", "x", "at_least", 5.0),
    ],
}


def die(message: str):
    print(f"ERROR: {message}", file=sys.stderr)
    sys.exit(2)


def load(path) -> dict:
    """Reads a result or baseline JSON of a gated bench kind, or exits 2."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read {path}: {err}")
    if not isinstance(report, dict) or report.get("bench") not in GATES:
        kind = report.get("bench") if isinstance(report, dict) else None
        die(f"{path} has bench kind {kind!r}; expected one of {sorted(GATES)}")
    return report


def metric(report: dict, key: str):
    """The value at a top-level or dotted key, or None when absent."""
    value = report
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def baseline_path(report: dict) -> Path:
    cores = report.get("hardware_threads")
    suffix = f"_{cores}core" if isinstance(cores, int) and cores > 0 else ""
    return BASELINE_DIR / f"{report['bench']}_baseline{suffix}.json"


def rows_of(report: dict, rule: str) -> list:
    return [row for row in GATES[report["bench"]] if row[2] == rule]


def check(rows: list, current: dict, reference) -> bool:
    """Prints one line per row; True when every row holds."""
    ok = True
    for key, unit, rule, floor in rows:
        cur = metric(current, key)
        ref = 1.0 if rule == "at_least" else metric(reference, key)
        if cur is None or ref is None:
            side = "result" if cur is None else "reference"
            print(f"FAIL  {key} ({rule}): missing from the {side}",
                  file=sys.stderr)
            ok = False
            continue
        ratio = cur / ref if ref > 0 else 0.0
        passed = ratio >= floor
        shown_ref = "-" if rule == "at_least" else f"{ref:.6g}"
        print(f"{'ok  ' if passed else 'FAIL'}  {key:<40} {shown_ref:>12} "
              f"{cur:>12.6g} {ratio:>7.2f}  {unit:<8} "
              f"({rule}, need >= {floor:g})")
        ok = ok and passed
    return ok


def promote(paths: list) -> int:
    sources = []
    for path in map(Path, paths):
        sources += sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not sources:
        die(f"no result JSONs in {' '.join(paths)}")
    chosen = {}  # baseline path -> (shards, source); most shards wins
    for src in sources:
        report = load(src)
        dest, shards = baseline_path(report), metric(report, "shards") or 0
        if dest not in chosen or chosen[dest][0] < shards:
            chosen[dest] = (shards, src)
    for dest, (_, src) in sorted(chosen.items()):
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dest)
        print(f"baseline refreshed from {src} -> {dest}")
    print("review the diff, then: git add bench/baselines/")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", nargs="?", help="fresh benchmark JSON")
    parser.add_argument("--scaling", nargs=2, metavar=("MULTI", "SINGLE"),
                        help="apply the scaling rows: a multi-shard run "
                             "against a 1-shard run from the same job")
    parser.add_argument("--promote", nargs="+", metavar="PATH",
                        help="copy result JSONs (files or directories) "
                             "over their baselines and exit")
    args = parser.parse_args()
    if args.promote:
        return promote(args.promote)
    if not args.result and not args.scaling:
        parser.error("give a result JSON, --scaling or --promote")
    print(f"      {'metric':<40} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7}  unit")
    if args.scaling:
        multi, single = (load(path) for path in args.scaling)
        rows = rows_of(multi, "scaling")
        if not rows or single["bench"] != multi["bench"] \
                or single.get("shards") != 1:
            die("--scaling needs two runs of one bench that has scaling "
                "rows, the second with shards=1")
        return 0 if check(rows, multi, single) else 1
    result = load(args.result)
    ok = check(rows_of(result, "at_least"), result, None)
    path = baseline_path(result)
    if not path.exists():
        print(f"FAIL: no baseline for this machine class: {path} does not "
              f"exist. Bootstrap one from a representative run on this "
              f"class: --promote {args.result}", file=sys.stderr)
        return 1
    baseline = load(path)
    isa = (baseline.get("simd_isa"), result.get("simd_isa"))
    skip = (f"baseline simd_isa {isa[0]!r} != result {isa[1]!r}"
            if isa[0] != isa[1] else
            "bootstrap placeholder" if baseline.get("bootstrap") else None)
    if skip:
        print(f"WARNING: absolute rows skipped ({skip}). Refresh {path} "
              f"from a run on this machine class with --promote.")
    else:
        ok = check(rows_of(result, "absolute"), result, baseline) and ok
    if not ok:
        print("If a drop is intended, refresh the baseline (see the header "
              "of this script).", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
