"""Tests for experiment records, workloads and the measurement runner."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentRecord,
    default_parameters,
    experiment_workloads,
    fit_power_law,
    measure_algorithm,
    measurement_row,
    save_records,
    scaling_graphs,
    scaling_sizes,
)
from repro.graphs import gnp_random_graph


class TestExperimentRecord:
    def test_checks_aggregate(self):
        record = ExperimentRecord(name="x", description="d", checks={"a": True, "b": True})
        assert record.all_checks_passed
        record.checks["c"] = False
        assert not record.all_checks_passed

    def test_empty_checks_count_as_passed(self):
        assert ExperimentRecord(name="x", description="d").all_checks_passed

    def test_render_contains_rows_and_checks(self):
        record = ExperimentRecord(
            name="demo",
            description="a demo",
            rows=[{"a": 1}, {"a": 2}],
            series={"s": [1.0, 2.0]},
            checks={"ok": True},
        )
        record.add_note("hello")
        text = record.render()
        assert "== demo ==" in text
        assert "ok=PASS" in text
        assert "note: hello" in text

    def test_render_groups_heterogeneous_rows(self):
        record = ExperimentRecord(
            name="demo", description="", rows=[{"a": 1}, {"b": 2}],
        )
        text = record.render()
        assert "a" in text and "b" in text

    def test_save_and_load_round_trip(self, tmp_path):
        record = ExperimentRecord(
            name="demo", description="d", rows=[{"a": 1}], series={"s": [1.0]}, checks={"ok": True}
        )
        path = tmp_path / "demo.json"
        record.save(path)
        loaded = ExperimentRecord.load(path)
        assert loaded.name == "demo"
        assert loaded.rows == [{"a": 1}]
        assert loaded.checks == {"ok": True}

    def test_save_records_directory(self, tmp_path):
        records = [ExperimentRecord(name=f"r{i}", description="") for i in range(3)]
        paths = save_records(records, tmp_path / "out")
        assert len(paths) == 3
        assert all(path.exists() for path in paths)

    def test_canonical_json_is_stable_and_sorted(self):
        record = ExperimentRecord(
            name="c", description="d", parameters={"b": 1, "a": 2}, checks={"ok": True}
        )
        text = record.to_canonical_json()
        assert text == record.to_canonical_json()
        assert text.index('"a"') < text.index('"b"')
        assert record.digest() == ExperimentRecord.from_dict(record.to_dict()).digest()

    def test_from_dict_round_trip(self):
        record = ExperimentRecord(
            name="r", description="d", rows=[{"a": 1}], series={"s": [1.0]},
            checks={"ok": False}, notes=["n"],
        )
        rebuilt = ExperimentRecord.from_dict(record.to_dict())
        assert rebuilt == record


class TestWorkloads:
    def test_default_parameters(self):
        params = default_parameters()
        assert params.kappa == 3
        assert params.num_phases >= 2

    def test_experiment_workloads_cover_families(self):
        workloads = experiment_workloads(scale=64)
        assert len(workloads) >= 8
        for name, graph in workloads.items():
            assert graph.num_vertices > 0, name

    def test_scaling_sizes_geometric(self):
        assert scaling_sizes(base=50, steps=3, factor=2) == [50, 100, 200]

    def test_scaling_graphs(self):
        graphs = scaling_graphs([20, 40], family="gnp")
        assert [size for size, _ in graphs] == [20, 40]
        assert graphs[1][1].num_vertices == 40


class TestRunner:
    def test_fit_power_law_exact(self):
        sizes = [10, 100, 1000]
        values = [5 * s ** 2 for s in sizes]
        assert fit_power_law(sizes, values) == pytest.approx(2.0)

    def test_fit_power_law_degenerate(self):
        assert fit_power_law([10], [100]) == 0.0
        assert fit_power_law([], []) == 0.0

    def test_measurement_row_strips_timing(self):
        graph = gnp_random_graph(30, 0.15, seed=3)
        measurement, _ = measure_algorithm(graph, "new-centralized", graph_name="g")
        row = measurement_row(measurement)
        assert "seconds" not in row
        assert "wall_seconds" not in row
        full = measurement.to_row()
        assert {k: v for k, v in full.items() if k != "seconds"} == row
