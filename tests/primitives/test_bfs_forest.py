"""Tests for the distributed multi-source BFS forest."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.graphs import bfs_distances, multi_source_bfs, path_graph
from repro.primitives import forest_membership, run_bfs_forest


def simulator_for(graph):
    return Simulator(graph, strict_congestion=True)


class TestSingleSource:
    def test_forest_matches_bfs_distances(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        reference = bfs_distances(grid_5x5, 0)
        for v in range(25):
            assert forest.dist[v] == reference[v]
            assert forest.root[v] == 0

    def test_parents_are_edges_one_level_up(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        for v in range(1, 25):
            parent = forest.parent[v]
            assert grid_5x5.has_edge(v, parent)
            assert forest.dist[parent] == forest.dist[v] - 1

    def test_depth_limit_respected(self, path_6):
        sim = simulator_for(path_6)
        forest = run_bfs_forest(sim, [0], depth=2)
        assert forest.spanned_vertices() == [0, 1, 2]
        assert forest.dist[2] == 2
        assert not forest.spanned(3)

    def test_depth_zero_spans_only_sources(self, cycle_8):
        sim = simulator_for(cycle_8)
        forest = run_bfs_forest(sim, [3], depth=0)
        assert forest.spanned_vertices() == [3]

    def test_path_to_root(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=30)
        path = forest.tree_path_to_root(24)
        assert path[0] == 24 and path[-1] == 0
        assert len(path) == forest.dist[24] + 1

    def test_path_to_root_unspanned_raises(self, path_6):
        sim = simulator_for(path_6)
        forest = run_bfs_forest(sim, [0], depth=1)
        with pytest.raises(ValueError):
            forest.tree_path_to_root(5)


class TestMultiSource:
    def test_every_vertex_adopts_nearest_source(self):
        graph = path_graph(9)
        sim = simulator_for(graph)
        forest = run_bfs_forest(sim, [0, 8], depth=10)
        assert forest.root[:4] == [0, 0, 0, 0]
        assert forest.root[5:] == [8, 8, 8, 8]
        # the middle vertex ties; the smaller root wins deterministically
        assert forest.root[4] == 0

    def test_membership_grouping(self):
        graph = path_graph(9)
        sim = simulator_for(graph)
        forest = run_bfs_forest(sim, [0, 8], depth=10)
        members = forest_membership(forest)
        assert members[0] == [0, 1, 2, 3, 4]
        assert members[8] == [5, 6, 7, 8]

    def test_matches_centralized_multi_source(self, community_graph):
        sim = simulator_for(community_graph)
        sources = [0, 15, 33]
        forest = run_bfs_forest(sim, sources, depth=4)
        reference = multi_source_bfs(community_graph, sources, max_depth=4)
        for v in range(community_graph.num_vertices):
            assert forest.dist[v] == reference.dist[v]

    def test_no_congestion_violation(self, community_graph):
        sim = simulator_for(community_graph)
        forest = run_bfs_forest(sim, [0, 1, 2], depth=10)
        assert forest.run.max_edge_congestion <= 1

    def test_nominal_rounds_equal_depth(self, grid_5x5):
        sim = simulator_for(grid_5x5)
        forest = run_bfs_forest(sim, [0], depth=17)
        assert forest.nominal_rounds == 17
        assert sim.ledger.nominal_rounds == 17

    def test_invalid_source_rejected(self, path_6):
        sim = simulator_for(path_6)
        with pytest.raises(ValueError):
            run_bfs_forest(sim, [99], depth=2)

    def test_negative_depth_rejected(self, path_6):
        sim = simulator_for(path_6)
        with pytest.raises(ValueError):
            run_bfs_forest(sim, [0], depth=-1)
