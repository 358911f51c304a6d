"""Tests for the path trace-back protocols."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.graphs import bfs_distances
from repro.primitives import (
    run_bfs_forest,
    run_bounded_exploration,
    run_forest_path_markup,
    run_traceback,
)

from oracles import centralized_forest_markup, centralized_traceback


def spanner_from_edges(graph, edges):
    return graph.subgraph_from_edges(edges)


class TestExplorationTraceback:
    def setup_exploration(self, graph, centers, depth, cap):
        sim = Simulator(graph, strict_congestion=True)
        exploration = run_bounded_exploration(sim, centers, depth, cap)
        return sim, exploration

    def test_traced_edges_form_shortest_paths(self, grid_5x5):
        centers = [0, 24]
        sim, exploration = self.setup_exploration(grid_5x5, centers, depth=10, cap=3)
        requests = {0: [24]}
        result = run_traceback(sim, exploration, requests)
        spanner = spanner_from_edges(grid_5x5, result.edges)
        assert bfs_distances(spanner, 0).get(24) == bfs_distances(grid_5x5, 0)[24]

    def test_matches_centralized_traceback_lengths(self, grid_5x5):
        centers = [0, 12, 24]
        sim, exploration = self.setup_exploration(grid_5x5, centers, depth=10, cap=3)
        requests = {0: [12, 24], 12: [24]}
        distributed = run_traceback(sim, exploration, requests)
        centralized = centralized_traceback(exploration, requests)
        # Both produce shortest paths for every requested pair (the actual
        # edge sets may differ by tie-breaking).
        for edges in (distributed.edges, centralized):
            spanner = spanner_from_edges(grid_5x5, edges)
            for source, targets in requests.items():
                source_dist = bfs_distances(spanner, source)
                for target in targets:
                    assert source_dist.get(target) == bfs_distances(grid_5x5, source)[target]

    def test_unknown_targets_skipped(self, path_6):
        sim, exploration = self.setup_exploration(path_6, [0], depth=1, cap=2)
        result = run_traceback(sim, exploration, {5: [0]})
        assert result.edges == set()

    def test_many_requests_respect_congestion(self, community_graph):
        n = community_graph.num_vertices
        centers = list(range(n))
        sim, exploration = self.setup_exploration(community_graph, centers, depth=1, cap=4)
        requests = {
            v: [c for c in exploration.known[v] if c != v]
            for v in range(n)
            if v not in exploration.popular
        }
        result = run_traceback(sim, exploration, requests)
        assert sim.ledger.max_edge_congestion <= 1
        assert all(community_graph.has_edge(u, v) for u, v in result.edges)

    def test_self_requests_are_ignored(self, path_6):
        sim, exploration = self.setup_exploration(path_6, [2], depth=2, cap=2)
        result = run_traceback(sim, exploration, {2: [2]})
        assert result.edges == set()


class TestForestMarkup:
    def test_markup_adds_exactly_the_tree_paths(self, grid_5x5):
        sim = Simulator(grid_5x5, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=10)
        targets = [24, 20, 4]
        distributed = run_forest_path_markup(sim, forest, targets)
        centralized = centralized_forest_markup(forest, targets)
        assert distributed.edges == centralized

    def test_markup_paths_reach_roots(self, community_graph):
        sim = Simulator(community_graph, strict_congestion=True)
        sources = [0, 30]
        forest = run_bfs_forest(sim, sources, depth=6)
        targets = [v for v in forest.spanned_vertices() if v not in sources][:10]
        result = run_forest_path_markup(sim, forest, targets)
        spanner = spanner_from_edges(community_graph, result.edges)
        for target in targets:
            root = forest.root[target]
            assert bfs_distances(spanner, target).get(root) is not None

    def test_markup_unspanned_target_rejected(self, path_6):
        sim = Simulator(path_6, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=1)
        with pytest.raises(ValueError):
            run_forest_path_markup(sim, forest, [5])

    def test_markup_out_of_range_target_rejected(self, path_6):
        sim = Simulator(path_6, strict_congestion=True)
        forest = run_bfs_forest(sim, [0], depth=5)
        with pytest.raises(ValueError):
            run_forest_path_markup(sim, forest, [77])

    def test_markup_respects_bandwidth(self, grid_5x5):
        sim = Simulator(grid_5x5, strict_congestion=True)
        forest = run_bfs_forest(sim, [12], depth=10)
        result = run_forest_path_markup(sim, forest, list(range(25)))
        assert sim.ledger.max_edge_congestion <= 1
        # all 24 non-root vertices mark their parent edge exactly once
        assert len(result.edges) == 24
