"""Tests for the golden-counter comparison script (``scripts/bench_compare.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT_PATH = REPO_ROOT / "scripts" / "bench_compare.py"

GOLDEN = {"bfs-forest": {"rounds_executed": 4, "messages_delivered": 702}}


@pytest.fixture()
def bench_compare(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_compare_under_test", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "golden_workloads", lambda: dict(GOLDEN))
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _baseline(tmp_path: Path, golden) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"benchmarks": {}, "golden": golden}))
    return path


def test_run_without_output_writes_no_file(bench_compare, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = _baseline(tmp_path, GOLDEN)
    status = bench_compare.main(["--skip-benchmarks", "--baseline", str(baseline)])
    assert status == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]


def test_output_writes_the_snapshot(bench_compare, tmp_path):
    out = tmp_path / "snapshot.json"
    baseline = _baseline(tmp_path, GOLDEN)
    bench_compare.main(["--skip-benchmarks", "--output", str(out), "--baseline", str(baseline)])
    assert json.loads(out.read_text())["golden"] == GOLDEN


def test_golden_drift_fails(bench_compare, tmp_path):
    drifted = {"bfs-forest": {"rounds_executed": 5, "messages_delivered": 702}}
    baseline = _baseline(tmp_path, drifted)
    assert bench_compare.main(["--skip-benchmarks", "--baseline", str(baseline)]) == 1


def test_baseline_defaults_to_committed_seed_snapshot(bench_compare, monkeypatch):
    seen = {}

    def fake_compare(snapshot, baseline):
        seen["golden"] = baseline["golden"]
        return 0

    monkeypatch.setattr(bench_compare, "compare", fake_compare)
    assert bench_compare.main(["--skip-benchmarks"]) == 0
    committed = json.loads((REPO_ROOT / "BENCH_seed.json").read_text())
    assert seen["golden"] == committed["golden"]
