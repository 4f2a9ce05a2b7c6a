#!/usr/bin/env python3
"""Replay test pinning the exit codes of check_bench_regression.py.

Builds synthetic results from the committed baselines and runs the gate
in-process on each case of CASES against a temporary copy of
bench/baselines/, so a case may corrupt a baseline without touching the
committed files. Exit 0 when every case gives its pinned exit code.

  python3 scripts/check_bench_regression_test.py
"""

import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench_regression as gate  # noqa: E402  (repo-local import)

COMMITTED = gate.BASELINE_DIR
UNCACHED = "closed_loop_16_uncached_qps"
CONVERGENCE = "feedback_loop.qerror_convergence_ratio"


def committed(name: str) -> dict:
    return json.loads((COMMITTED / f"{name}.json").read_text())


def with_value(report: dict, key: str, value) -> dict:
    """A copy of report with the dotted key set (None deletes it)."""
    out = copy.deepcopy(report)
    *parents, leaf = key.split(".")
    node = out
    for part in parents:
        node = node.setdefault(part, {})
    if value is None:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return out


def scaled(report: dict, key: str, factor: float) -> dict:
    return with_value(report, key, gate.metric(report, key) * factor)


BATCH = committed("batch_inference_baseline")
SERVING = with_value(committed("serving_baseline_1core"), CONVERGENCE, 3.3)
PLANNER = committed("planner_baseline_1core")
STORE = committed("store_baseline_1core")
ONE_SHARD = with_value(SERVING, "shards", 1)
FOUR_SHARDS = with_value(SERVING, "shards", 4)
TRUNCATED = b'{"bench": "planner", "plans_per_sec": 14'


def shard_scaling(factor: float) -> list:
    multi = with_value(FOUR_SHARDS, UNCACHED, SERVING[UNCACHED] * factor)
    return ["--scaling", multi, ONE_SHARD]


# (name, pinned exit code, argv, baseline overrides). An argv item that
# is a dict is written out as a JSON file and bytes as a raw file; the
# overrides replace files in the temporary baseline directory.
CASES = [
    (f"{name} x{factor}", code, [scaled(result, key, factor)], {})
    for name, result, key in [
        ("batch", BATCH, "batch64_qps"),
        ("serving cached", SERVING, "closed_loop_16_qps"),
        ("serving uncached", SERVING, UNCACHED),
        ("planner", PLANNER, "plans_per_sec"),
        ("store", STORE, "mapped_cold_starts_per_sec"),
    ]
    for factor, code in [(0.79, 1), (0.81, 0)]
] + [
    (f"{name} at {value}", code, [with_value(result, key, value)], {})
    for name, result, key, floor in [
        ("serving convergence", SERVING, CONVERGENCE, 1.5),
        ("planner speedup", PLANNER, "batched_vs_naive_speedup", 5.0),
        ("store speedup", STORE, "mmap_vs_streamed_speedup", 5.0),
    ]
    for value, code in [(floor - 0.01, 1), (floor + 0.01, 0)]
] + [
    ("scaling at 2.49x", 1, shard_scaling(2.49), {}),
    ("scaling at 2.51x", 0, shard_scaling(2.51), {}),
    ("isa mismatch skips absolute", 0,
     [with_value(scaled(PLANNER, "plans_per_sec", 0.5), "simd_isa", "x")],
     {}),
    ("isa mismatch keeps at_least", 1,
     [with_value(with_value(PLANNER, "simd_isa", "x"),
                 "batched_vs_naive_speedup", 4.99)], {}),
    ("bootstrap skips absolute", 0,
     [with_value(scaled(SERVING, UNCACHED, 0.5), "hardware_threads", 4)],
     {}),
    ("bootstrap keeps at_least", 1,
     [with_value(with_value(STORE, "hardware_threads", 4),
                 "mmap_vs_streamed_speedup", 4.99)], {}),
    ("no baseline for 3 cores", 1,
     [with_value(PLANNER, "hardware_threads", 3)], {}),
    ("serving without feedback_loop", 1,
     [with_value(SERVING, "feedback_loop", None)], {}),
    ("planner without plans_per_sec", 1,
     [with_value(PLANNER, "plans_per_sec", None)], {}),
    ("malformed result", 2, [TRUNCATED], {}),
    ("malformed baseline", 2, [PLANNER],
     {"planner_baseline_1core.json": TRUNCATED}),
    ("malformed promote input", 2, ["--promote", TRUNCATED], {}),
]


def run(module, argv: list, overrides: dict, tmp: Path):
    """Runs module.main() on argv against a fresh copy of the committed
    baselines; returns (exit code, captured output)."""
    baselines = tmp / "baselines"
    shutil.rmtree(baselines, ignore_errors=True)
    shutil.copytree(COMMITTED, baselines)
    for name, content in overrides.items():
        (baselines / name).write_bytes(content)
    module.BASELINE_DIR = baselines
    args = []
    for i, item in enumerate(argv):
        if isinstance(item, (dict, bytes)):
            path = tmp / f"arg{i}.json"
            path.write_bytes(item if isinstance(item, bytes)
                             else json.dumps(item).encode())
            item = str(path)
        args.append(item)
    sys.argv = ["check_bench_regression.py", *args]
    output = io.StringIO()
    with contextlib.redirect_stdout(output), \
            contextlib.redirect_stderr(output):
        try:
            code = module.main()
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else \
                int(exit_.code is not None)
    return code, output.getvalue()


def promote_keeps_most_shards(tmp: Path) -> bool:
    """--promote of a directory holding a 4-shard and a 1-shard serving
    run refreshes the baseline from the 4-shard one."""
    artifact = tmp / "artifact"
    artifact.mkdir()
    (artifact / "a_4shard.json").write_text(json.dumps(FOUR_SHARDS))
    (artifact / "b_1shard.json").write_text(json.dumps(ONE_SHARD))
    code, _ = run(gate, ["--promote", str(artifact)], {}, tmp)
    promoted = json.loads(
        (gate.BASELINE_DIR / "serving_baseline_1core.json").read_text())
    return code == 0 and promoted.get("shards") == 4


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, expected, argv, overrides in CASES:
            code, output = run(gate, argv, overrides, Path(tmp))
            ok = code == expected
            print(f"{'ok  ' if ok else 'FAIL'}  {name:<36} "
                  f"expected {expected} got {code}")
            if not ok:
                print(output)
            failures += not ok
        ok = promote_keeps_most_shards(Path(tmp))
        print(f"{'ok  ' if ok else 'FAIL'}  promote keeps the most shards")
        failures += not ok
    print(f"{len(CASES) + 1 - failures}/{len(CASES) + 1} cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
