#!/usr/bin/env python
"""One-command repository health check: tests + goldens + benchmarks + docs.

Runs, in order (see :func:`stage_plan`):

1. ``lint (ruff)`` -- ``ruff check`` over the tree with the pinned config in
   pyproject.toml.  Skipped (not failed) when ruff is not installed locally;
   the workflows install the pinned version so the stage always runs in CI.
2. ``tier-1 tests`` -- the full pytest suite (``PYTHONPATH=src python -m
   pytest -x -q``); ``--junitxml PATH`` passes a JUnit report path through to
   pytest, ``--fast`` skips the stage entirely.
3. ``tier-1 tests (pure-python kernel)`` -- the same suite pinned to
   ``REPRO_KERNEL=python``: the tree must work without the vectorized
   NumPy/SciPy tier (an optional extra).  Also skipped under ``--fast``.
4. ``engine tests (numpy kernel)`` -- ``python -m pytest tests/core
   tests/primitives tests/graphs tests/baselines -q`` pinned to
   ``REPRO_KERNEL=numpy``: the engine suite on the vectorized tier, which
   ``auto`` only selects from ``kernels.AUTO_MIN_VERTICES`` vertices on
   (every test graph is smaller).  The baselines are in it because the
   Elkin'05 surrogate runs the vectorized exploration and trace-back.  Runs
   under ``--fast`` too.
5. ``perfbench self-tests`` -- ``python -m pytest perfbench/tests -q``: the
   benchmark's own checks (statistics, the comparison gate, the
   workload-validity gate, the traced run).  The traced run wraps
   ``centralized_engine_exploration``, ``DistanceCache.vector`` and
   ``CSRGraph.from_graph`` by name, so renaming one of them fails here
   instead of silently breaking the benchmark.  Runs under ``--fast`` too.
6. ``golden counters`` -- ``scripts/bench_compare.py --skip-benchmarks``
   against the committed ``BENCH_seed.json``: the fixed distributed build and
   BFS-forest protocol must stay bit-identical.  ``--snapshot PATH`` keeps
   the produced snapshot (CI uploads it as an artifact).
7. ``phase micro-benchmarks (quick mode)`` -- the superclustering /
   interconnection phase drivers run once, assertions only.
8. ``capacity ladder (quick mode)`` -- ``repro capacity`` on a tiny budget
   and window: exercises the measured-capacity search and its CLI end to end
   on every push without paying real measurement time.
9. ``capacity ladder (quick mode, numpy kernel)`` -- the same quick ladder
   under ``repro --kernel numpy``: drives the vectorized kernels through the
   whole capacity CLI.
10. ``fault injection (quick mode)`` -- ``repro chaos`` over the
    chaos-primitives matrix with a wall-clock task timeout: every injected
    fault schedule must terminate in a typed outcome (the scenario checks
    enforce it) and the failure manifest must validate against its schema.
11. ``dynamic churn (quick mode)`` -- ``repro dynamic`` over the
    dynamic-churn matrix: every incremental-capable algorithm maintains its
    spanner through seeded churn traces and the scenario checks re-verify the
    declared guarantee after every single step.
12. ``store-corruption smoke`` -- ``repro chaos --store-smoke``: corrupt one
    cached task entry, then prove the store invalidates it, recomputes exactly
    that task on resume, and reproduces a byte-identical record.
13. ``serve smoke (quick mode)`` -- ``repro serve --check`` on a small seeded
    mixed load: the request broker must show cache hits and coalesced
    single-flight builds and lose no request (zero dropped / failed /
    rejected responses).
14. ``registry completeness`` -- ``scripts/registry_check.py``: every
    registered algorithm must have a measured CAPACITY.json entry, a row in
    EXPERIMENTS.md's Algorithm registry table, and membership in at least
    one scenario matrix.  Registration drift fails the build.
15. ``experiments-md drift`` -- the committed EXPERIMENTS.md must match the
    current algorithm/scenario registries.

Stages run sequentially and the first failure stops the run (later stages
are reported as skipped).  Exit status is non-zero if any stage fails.

Under GitHub Actions (``GITHUB_ACTIONS=true``) every stage is wrapped in a
``::group::`` block, failures emit ``::error`` annotations, and a per-stage
outcome table is appended to ``$GITHUB_STEP_SUMMARY``.  Locally::

    python scripts/ci_check.py            # all stages
    python scripts/ci_check.py --fast     # skip the pytest stage
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Budget/window of the quick-mode capacity stage: small enough that every
#: probe build finishes in well under a second.
QUICK_CAPACITY_BUDGET = "0.2"
QUICK_CAPACITY_MAX_N = "128"
QUICK_CAPACITY_START_N = "32"

#: Wall-clock limit of the quick-mode chaos stage's tasks: generous (the
#: whole matrix runs in well under a second) but finite, so a wedged fault
#: schedule quarantines instead of hanging CI.
QUICK_CHAOS_TASK_TIMEOUT = "120"

#: Wall-clock limit of the quick-mode dynamic stage's tasks: each task
#: replays one small churn trace with exhaustive per-step verification, so
#: the whole matrix finishes in seconds; the limit only catches hangs.
QUICK_DYNAMIC_TASK_TIMEOUT = "120"

#: Request count of the quick-mode serve smoke: enough traffic over the
#: 12-key Zipf catalogue that hits and coalesced builds are guaranteed, small
#: enough to finish in a couple of seconds.
QUICK_SERVE_REQUESTS = "200"

#: The engine suite (under ``tests/``) that the numpy-kernel stage runs.
ENGINE_TEST_DIRS = ("core", "primitives", "graphs", "baselines")


@dataclass
class StageResult:
    """Outcome of one stage: name, skip reason or exit status, wall-clock."""

    name: str
    status: str  # "ok" | "failed" | "skipped"
    returncode: Optional[int] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def _env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def in_github_actions() -> bool:
    """Whether we are running under GitHub Actions (enables annotations)."""
    return os.environ.get("GITHUB_ACTIONS") == "true"


def stage_plan(args: argparse.Namespace, snapshot_path: str) -> List[Tuple[str, Optional[List[str]]]]:
    """The ordered stage list as ``(name, command-or-None)`` pairs.

    ``None`` commands are reported as skipped (e.g. the pytest stage under
    ``--fast``).  Kept as one pure function of the arguments so the stage
    ordering and flag handling are unit-testable without running anything.
    """
    pytest_cmd: Optional[List[str]] = None
    pure_pytest_cmd: Optional[List[str]] = None
    if not args.fast:
        pytest_cmd = [sys.executable, "-m", "pytest", "-x", "-q"]
        if args.junitxml:
            pytest_cmd.append(f"--junitxml={args.junitxml}")
        # The same suite pinned to the pure-Python kernel: proves the tree
        # still works on a bare interpreter (numpy/scipy are an optional
        # extra) and that no code path silently depends on the vectorized
        # tier.  Leading KEY=VALUE tokens are env assignments (env(1)
        # semantics, applied by run_stage).
        pure_pytest_cmd = [
            "REPRO_KERNEL=python",
            sys.executable,
            "-m",
            "pytest",
            "-x",
            "-q",
        ]
    # Lint runs wherever ruff is installed (the workflows pin and install
    # it); locally it degrades to a skip instead of failing on a missing
    # optional tool.
    lint_cmd: Optional[List[str]] = None
    if shutil.which("ruff"):
        lint_cmd = ["ruff", "check", str(REPO_ROOT)]
    return [
        ("lint (ruff)", lint_cmd),
        ("tier-1 tests", pytest_cmd),
        ("tier-1 tests (pure-python kernel)", pure_pytest_cmd),
        (
            # The engine suite on the vectorized tier: its test graphs are
            # far below AUTO_MIN_VERTICES, so only the pin exercises it.
            "engine tests (numpy kernel)",
            [
                "REPRO_KERNEL=numpy",
                sys.executable,
                "-m",
                "pytest",
                *(str(REPO_ROOT / "tests" / part) for part in ENGINE_TEST_DIRS),
                "-q",
            ],
        ),
        (
            "perfbench self-tests",
            [sys.executable, "-m", "pytest", str(REPO_ROOT / "perfbench" / "tests"), "-q"],
        ),
        (
            "golden counters",
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_compare.py"),
                "--skip-benchmarks",
                "--output",
                snapshot_path,
                "--baseline",
                str(REPO_ROOT / "BENCH_seed.json"),
            ],
        ),
        (
            "phase micro-benchmarks (quick mode)",
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                str(REPO_ROOT / "benchmarks" / "bench_phases.py"),
                "--benchmark-disable",
            ],
        ),
        (
            "capacity ladder (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "capacity",
                "--budget",
                QUICK_CAPACITY_BUDGET,
                "--start-n",
                QUICK_CAPACITY_START_N,
                "--max-n",
                QUICK_CAPACITY_MAX_N,
            ],
        ),
        (
            # Same quick ladder forced onto the vectorized backend: exercises
            # the --kernel plumbing and the numpy kernels through the whole
            # capacity CLI on every push.
            "capacity ladder (quick mode, numpy kernel)",
            [
                sys.executable,
                "-m",
                "repro",
                "--kernel",
                "numpy",
                "capacity",
                "--budget",
                QUICK_CAPACITY_BUDGET,
                "--start-n",
                QUICK_CAPACITY_START_N,
                "--max-n",
                QUICK_CAPACITY_MAX_N,
            ],
        ),
        (
            "fault injection (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "chaos",
                "--scenario",
                "chaos-primitives",
                "--task-timeout",
                QUICK_CHAOS_TASK_TIMEOUT,
            ],
        ),
        (
            "dynamic churn (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "dynamic",
                "--scenario",
                "dynamic-churn",
                "--task-timeout",
                QUICK_DYNAMIC_TASK_TIMEOUT,
            ],
        ),
        (
            "store-corruption smoke",
            [
                sys.executable,
                "-m",
                "repro",
                "chaos",
                "--store-smoke",
            ],
        ),
        (
            "serve smoke (quick mode)",
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--requests",
                QUICK_SERVE_REQUESTS,
                "--concurrency",
                "8",
                "--workers",
                "2",
                "--check",
            ],
        ),
        (
            "registry completeness",
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "registry_check.py"),
            ],
        ),
        (
            "experiments-md drift",
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "generate_experiments_md.py"),
                "--check",
            ],
        ),
    ]


def run_stage(name: str, cmd: List[str]) -> StageResult:
    """Run one stage command, grouped and annotated under GitHub Actions.

    Leading ``KEY=VALUE`` tokens in ``cmd`` are environment assignments for
    the stage (env(1) semantics), so the stage plan stays a plain list of
    ``(name, argv)`` pairs.
    """
    github = in_github_actions()
    if github:
        print(f"::group::{name}", flush=True)
    print(f"==> {name}: {' '.join(cmd)}", flush=True)
    env = _env()
    command = list(cmd)
    while command and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", command[0]):
        key, _, value = command.pop(0).partition("=")
        env[key] = value
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=REPO_ROOT, env=env)
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0
    print(f"==> {name}: {'OK' if ok else f'FAILED (exit {proc.returncode})'}", flush=True)
    if github:
        print("::endgroup::", flush=True)
        if not ok:
            print(
                f"::error title=ci_check stage failed::stage {name!r} "
                f"exited with status {proc.returncode}",
                flush=True,
            )
    return StageResult(
        name=name,
        status="ok" if ok else "failed",
        returncode=proc.returncode,
        seconds=seconds,
    )


def render_step_summary(results: List[StageResult]) -> str:
    """The Markdown outcome table appended to ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "### ci_check stage outcomes",
        "",
        "| stage | outcome | exit | seconds |",
        "| --- | --- | --- | --- |",
    ]
    icons = {"ok": "✅ ok", "failed": "❌ failed", "skipped": "⏭️ skipped"}
    for result in results:
        exit_code = "-" if result.returncode is None else str(result.returncode)
        lines.append(
            f"| {result.name} | {icons[result.status]} | {exit_code} "
            f"| {result.seconds:.1f} |"
        )
    return "\n".join(lines) + "\n"


def write_step_summary(results: List[StageResult]) -> None:
    """Append the outcome table to the workflow step summary, if present."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    try:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_step_summary(results))
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="skip the pytest stage; only run the cheap check stages",
    )
    parser.add_argument(
        "--junitxml",
        type=str,
        default=None,
        help="JUnit XML report path passed through to the pytest stage",
    )
    parser.add_argument(
        "--snapshot",
        type=str,
        default=None,
        help="keep the golden-counter snapshot at this path (for CI artifacts)",
    )
    args = parser.parse_args(argv)

    if args.snapshot:
        snapshot = args.snapshot
        cleanup_snapshot = False
    else:
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
            snapshot = handle.name
        cleanup_snapshot = True

    results: List[StageResult] = []
    failed = False
    try:
        for name, cmd in stage_plan(args, snapshot):
            if cmd is None:
                results.append(StageResult(name=name, status="skipped"))
                print(f"==> {name}: skipped", flush=True)
                continue
            if failed:
                results.append(StageResult(name=name, status="skipped"))
                print(f"==> {name}: skipped (earlier stage failed)", flush=True)
                continue
            result = run_stage(name, cmd)
            results.append(result)
            failed = failed or not result.ok
    finally:
        if cleanup_snapshot:
            try:
                os.unlink(snapshot)
            except OSError:
                pass
        write_step_summary(results)

    print("==> all checks passed" if not failed else "==> CHECKS FAILED", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
