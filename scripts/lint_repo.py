#!/usr/bin/env python3
"""Repo-specific lints that generic tooling cannot express.

Four checks, each pinning an invariant some other part of the repo
relies on but cannot enforce locally:

  threaded-labels   Every test suite whose source spawns threads (or
                    constructs a thread-spawning subsystem) must be in
                    LMKG_THREADED_TEST_SUITES in tests/CMakeLists.txt.
                    The TSan CI leg selects suites structurally with
                    `ctest -L threaded --no-tests=error`; an unlabeled
                    concurrent suite would be SILENTLY skipped there —
                    green CI with zero race coverage for that suite.

  mutex-wrappers    No raw std::mutex / std::scoped_lock /
                    std::lock_guard / std::unique_lock /
                    std::condition_variable outside src/util/mutex.h.
                    The Clang thread-safety analysis only sees lock
                    state through the annotated util::Mutex /
                    util::MutexLock / util::CondVar wrappers; a raw
                    std::mutex is invisible to it, so every field it
                    guards silently falls out of the -Wthread-safety
                    proof.

  zero-alloc-pins   No raw heap-allocation keywords (new / malloc /
                    calloc / realloc / strdup) in the hot-path files
                    whose steady state tests/alloc_test.cc pins
                    allocation-free. Those files may only allocate
                    through reusable containers (vector growth during
                    warm-up), never through raw calls the scratch-reuse
                    discipline cannot amortize.

  baseline-keys     Every metric an absolute row of
                    check_bench_regression.GATES gates must exist, as a
                    positive number, in each committed non-bootstrap
                    baseline of that bench kind under bench/baselines/.
                    It reads the gate's own table and key resolver, so it
                    cannot drift from the gate (a new gated key that
                    nobody added to the baselines fails here at lint
                    time, not when the perf leg first runs).

Run from anywhere: `python3 scripts/lint_repo.py`. Exit 0 when clean,
1 with one line per violation otherwise. Wired into both compilers'
CI build-and-test legs (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_bench_regression  # noqa: E402  (repo-local import)

# Constructing (or deriving from) any of these spawns OS threads, so a
# test suite whose post-comment-strip source mentions one belongs on the
# TSan leg. Extend this list when a new thread-spawning subsystem lands.
THREAD_MARKERS = (
    "std::thread",
    "std::jthread",
    "std::async",
    "ThreadPool",
    "EstimatorService",
    "ModelLifecycle",
)

# Raw-lock vocabulary that bypasses the annotated wrappers. mutex.h is
# the one place allowed to touch it (it IS the wrapper); the matching is
# word-bounded so e.g. util::MutexLock never trips "std::mutex".
RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"scoped_lock|lock_guard|unique_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b")
RAW_LOCK_ALLOWED = {Path("src/util/mutex.h")}

# Files on the alloc_test-pinned hot paths (fingerprinting, query
# canonicalization, batch encoding, DP planning, tensor kernels). Their
# warm-up MAY allocate via containers; raw heap calls are banned because
# the scratch-reuse pattern cannot reclaim them across batches.
ZERO_ALLOC_PINNED = [
    Path("src/query/fingerprint.cc"),
    Path("src/query/query.cc"),
    Path("src/encoding/query_encoder.cc"),
    Path("src/planner/planner.cc"),
    Path("src/nn/tensor.cc"),
]
RAW_ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"\bstrdup\s*\(|\bposix_memalign\s*\(")


def strip_comments_and_strings(source: str) -> str:
    """Blank out //, /* */ comments and string/char literals, keeping
    line structure so reported line numbers stay meaningful."""
    out = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (source[i] == "*" and
                                     source[i + 1] == "/"):
                if source[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and source[i] != quote:
                i += 2 if source[i] == "\\" else 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_cmake_list(cmake_text: str, name: str) -> list[str]:
    match = re.search(r"set\(" + re.escape(name) + r"\s+([^)]*)\)",
                      cmake_text)
    if not match:
        raise SystemExit(f"lint_repo: set({name} ...) not found in "
                         "tests/CMakeLists.txt")
    return [tok for tok in match.group(1).split()
            if not tok.startswith("#")]


def check_threaded_labels() -> list[str]:
    cmake_text = (REPO_ROOT / "tests" / "CMakeLists.txt").read_text()
    threaded = set(parse_cmake_list(cmake_text,
                                    "LMKG_THREADED_TEST_SUITES"))
    all_suites = []
    for tok in parse_cmake_list(cmake_text, "LMKG_TEST_SUITES"):
        if tok == "${LMKG_THREADED_TEST_SUITES}":
            all_suites.extend(sorted(threaded))
        else:
            all_suites.append(tok)
    errors = []
    for suite in all_suites:
        source_path = REPO_ROOT / "tests" / f"{suite}.cc"
        if not source_path.exists():
            errors.append(f"tests/CMakeLists.txt: suite '{suite}' has no "
                          f"tests/{suite}.cc")
            continue
        code = strip_comments_and_strings(source_path.read_text())
        hits = [m for m in THREAD_MARKERS if m in code]
        if hits and suite not in threaded:
            errors.append(
                f"tests/{suite}.cc: uses {', '.join(hits)} but is not in "
                "LMKG_THREADED_TEST_SUITES — the TSan leg "
                "(ctest -L threaded) would silently skip it")
    return errors


def check_mutex_wrappers() -> list[str]:
    errors = []
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(REPO_ROOT)
        if rel in RAW_LOCK_ALLOWED:
            continue
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            match = RAW_LOCK_RE.search(line)
            if match:
                errors.append(
                    f"{rel}:{lineno}: raw {match.group(0)} — use the "
                    "annotated util::Mutex/MutexLock/CondVar wrappers "
                    "(src/util/mutex.h) so -Wthread-safety can see the "
                    "lock")
    return errors


def check_zero_alloc_pins() -> list[str]:
    errors = []
    for rel in ZERO_ALLOC_PINNED:
        path = REPO_ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: listed in ZERO_ALLOC_PINNED but "
                          "missing — update scripts/lint_repo.py")
            continue
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), start=1):
            match = RAW_ALLOC_RE.search(line)
            if match:
                errors.append(
                    f"{rel}:{lineno}: raw '{match.group(0).strip()}' in "
                    "an alloc_test-pinned hot-path file — steady-state "
                    "serving must reuse scratch buffers, not call the "
                    "allocator")
    return errors


def check_baseline_keys() -> list[str]:
    errors = []
    baseline_dir = REPO_ROOT / "bench" / "baselines"
    baselines = sorted(baseline_dir.glob("*.json"))
    if not baselines:
        return [f"{baseline_dir}: no committed baselines found"]
    for path in baselines:
        rel = path.relative_to(REPO_ROOT)
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            errors.append(f"{rel}: invalid JSON ({err})")
            continue
        kind = report.get("bench")
        if kind not in check_bench_regression.GATES:
            errors.append(
                f"{rel}: \"bench\": {kind!r} matches no gate in "
                "check_bench_regression.GATES "
                f"(expected one of {sorted(check_bench_regression.GATES)})")
            continue
        if report.get("bootstrap"):
            # A bootstrap placeholder commits the machine class with NO
            # measured numbers; the gate warns-and-passes on it (see
            # check_bench_regression.py), so gated keys are not required
            # — only the note explaining how to refresh it is.
            if "note" not in report:
                errors.append(f"{rel}: bootstrap baseline without a "
                              "\"note\" refresh instruction")
            continue
        for key, *_ in check_bench_regression.rows_of(report, "absolute"):
            value = check_bench_regression.metric(report, key)
            if value is None or value <= 0:
                errors.append(f"{rel}: gated metric '{key}' is {value!r}, "
                              "expected a positive number")
    return errors


def main() -> int:
    checks = [
        ("threaded-labels", check_threaded_labels),
        ("mutex-wrappers", check_mutex_wrappers),
        ("zero-alloc-pins", check_zero_alloc_pins),
        ("baseline-keys", check_baseline_keys),
    ]
    failed = False
    for name, check in checks:
        errors = check()
        status = "FAIL" if errors else "ok"
        print(f"lint_repo: {name:>16} ... {status}")
        for error in errors:
            print(f"  {error}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
