"""Comparisons against the bounds: regressions fail, cross-backend pairs are flagged."""

import json

from perfbench.compare import compare, load_runs

SPEC = {"end_to_end": [{"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def write_result(directory, seed, backend, build_s):
    result = {
        "provenance": {"workload": "static-central", "kernel_backend": backend, "seed": seed},
        "metrics": {"build_s": {"value": build_s, "unit": "s"}},
    }
    path = directory / f"result-static-central-seed{seed}-trace0.json"
    path.write_text(json.dumps(result))


def test_a_slowdown_beyond_the_bound_is_a_regression(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed in range(3):
        write_result(base, seed, "numpy", 5.0)
        write_result(new, seed, "numpy", 6.5)
    assert compare(load_runs(base), load_runs(new), SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_a_cross_backend_slowdown_is_flagged_not_failed(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed in range(3):
        write_result(base, seed, "numpy", 5.0)
        write_result(new, seed, "python", 9.0)
    assert compare(load_runs(base), load_runs(new), SPEC) == 0
    out = capsys.readouterr().out
    assert "cross-backend" in out and "REGRESSION" not in out
