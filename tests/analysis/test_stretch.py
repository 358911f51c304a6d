"""Tests for the stretch-verification module."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PairStretch,
    best_additive_for_multiplicative,
    empirical_additive_term,
    evaluate_stretch,
    evaluate_stretch_sampled,
)
from repro.core import StretchGuarantee
from repro.graphs import Graph, bfs_tree_edges, cycle_graph, path_graph


def spanning_tree_of(graph):
    return graph.subgraph_from_edges(bfs_tree_edges(graph, 0))


class TestEvaluateStretch:
    def test_identical_graphs_have_stretch_one(self, grid_5x5):
        report = evaluate_stretch(grid_5x5, grid_5x5.copy())
        assert report.max_multiplicative == 1.0
        assert report.max_additive_surplus == 0.0
        assert report.satisfies_guarantee

    def test_cycle_minus_edge(self):
        graph = cycle_graph(10)
        spanner = graph.subgraph_from_edges([e for e in graph.edges() if e != (0, 9)])
        report = evaluate_stretch(graph, spanner)
        assert report.max_additive_surplus == 8
        assert report.max_multiplicative == 9.0

    def test_violations_detected_against_tight_guarantee(self):
        graph = cycle_graph(10)
        spanner = graph.subgraph_from_edges([e for e in graph.edges() if e != (0, 9)])
        guarantee = StretchGuarantee(multiplicative=1.0, additive=4.0)
        report = evaluate_stretch(graph, spanner, guarantee=guarantee)
        assert not report.satisfies_guarantee
        assert all(isinstance(v, PairStretch) for v in report.violations)

    def test_loose_guarantee_accepted(self):
        graph = cycle_graph(10)
        spanner = spanning_tree_of(graph)
        guarantee = StretchGuarantee(multiplicative=1.0, additive=10.0)
        assert evaluate_stretch(graph, spanner, guarantee=guarantee).satisfies_guarantee

    def test_disconnected_mismatch_detected(self):
        graph = path_graph(4)
        broken = Graph(4, [(0, 1), (2, 3)])
        report = evaluate_stretch(graph, broken)
        assert report.disconnected_mismatches > 0
        assert not report.satisfies_guarantee

    def test_explicit_pairs_only(self, grid_5x5):
        spanner = spanning_tree_of(grid_5x5)
        report = evaluate_stretch(grid_5x5, spanner, pairs=[(0, 24), (0, 1)])
        assert report.pairs_checked == 2

    def test_mismatched_vertex_sets_rejected(self):
        with pytest.raises(ValueError):
            evaluate_stretch(Graph(3), Graph(4))

    def test_surplus_by_distance_buckets(self, grid_5x5):
        spanner = spanning_tree_of(grid_5x5)
        report = evaluate_stretch(grid_5x5, spanner)
        assert set(report.surplus_by_distance.keys()) <= set(range(1, 20))
        assert all(surplus >= 0 for surplus in report.surplus_by_distance.values())

    def test_mean_statistics_bounded_by_max(self, small_random):
        spanner = spanning_tree_of(small_random) if small_random.num_edges else small_random.copy()
        report = evaluate_stretch(small_random, spanner)
        assert report.mean_multiplicative <= report.max_multiplicative + 1e-9
        assert report.mean_additive_surplus <= report.max_additive_surplus + 1e-9


class TestSampledAndFitting:
    def test_sampled_subset_of_full(self, medium_random):
        spanner = spanning_tree_of(medium_random)
        sampled = evaluate_stretch_sampled(medium_random, spanner, num_pairs=100, seed=1)
        full = evaluate_stretch(medium_random, spanner)
        assert sampled.pairs_checked <= 100
        assert sampled.max_additive_surplus <= full.max_additive_surplus + 1e-9

    def test_best_additive_for_multiplicative(self):
        pairs = [PairStretch(0, 1, 10, 16), PairStretch(0, 2, 2, 5)]
        assert best_additive_for_multiplicative(pairs, 1.0) == 6
        assert best_additive_for_multiplicative(pairs, 2.0) == 1.0
        assert best_additive_for_multiplicative(pairs, 10.0) == 0.0

    def test_empirical_additive_term(self):
        graph = cycle_graph(8)
        spanner = graph.subgraph_from_edges([e for e in graph.edges() if e != (0, 7)])
        assert empirical_additive_term(graph, spanner, multiplicative=1.0) == 6

    def test_report_to_dict(self, small_random):
        spanner = small_random.copy()
        report = evaluate_stretch(small_random, spanner)
        data = report.to_dict()
        assert data["pairs_checked"] == report.pairs_checked
        assert data["num_violations"] == 0
