"""Tests for the engine-agnostic superclustering / interconnection helpers."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.core import (
    deterministic_forest,
    forest_path_edges,
    interconnection_requests,
    spanned_center_roots,
)
from repro.core.interconnection import count_interconnection_paths
from repro.graphs import path_graph
from repro.primitives import run_bfs_forest

from oracles import Cluster, ClusterCollection, build_superclusters, centralized_bounded_exploration


class TestDeterministicForest:
    def test_matches_distributed_protocol(self, community_graph):
        sources = [0, 25, 40]
        depth = 5
        root_c, dist_c, parent_c = deterministic_forest(community_graph, sources, depth)
        sim = Simulator(community_graph)
        forest = run_bfs_forest(sim, sources, depth=depth)
        assert root_c == forest.root
        assert dist_c == forest.dist
        assert parent_c == forest.parent

    def test_depth_limits_reach(self, path_6):
        root, dist, parent = deterministic_forest(path_6, [0], 2)
        assert root[:3] == [0, 0, 0]
        assert root[3:] == [None, None, None]

    def test_tie_break_prefers_smaller_root(self):
        graph = path_graph(5)
        root, _dist, _parent = deterministic_forest(graph, [0, 4], 10)
        assert root[2] == 0

    @pytest.mark.parametrize("source", [-1, 5, 99])
    def test_out_of_range_source_rejected(self, source):
        # A negative source would otherwise wrap around list (and numpy)
        # indexing and grow a forest from vertex n - 1.
        with pytest.raises(ValueError, match=f"source {source} is out of range"):
            deterministic_forest(path_graph(5), [0, source], 2)


class TestForestPathEdges:
    def test_path_edges_to_root(self, grid_5x5):
        root, dist, parent = deterministic_forest(grid_5x5, [0], 20)
        edges = forest_path_edges(parent, [24])
        assert len(edges) == dist[24]
        assert all(grid_5x5.has_edge(u, v) for u, v in edges)

    def test_overlapping_paths_share_edges(self, path_6):
        _root, _dist, parent = deterministic_forest(path_6, [0], 10)
        edges = forest_path_edges(parent, [3, 5])
        assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}


class TestBuildSuperclusters:
    def test_split_into_next_and_unclustered(self):
        collection = ClusterCollection.singletons(5)
        center_root = {0: 0, 1: 0, 3: 3}
        next_collection, unclustered = build_superclusters(collection, center_root)
        assert sorted(c.center for c in next_collection) == [0, 3]
        assert next_collection.by_center(0).vertices == frozenset({0, 1})
        assert sorted(c.center for c in unclustered) == [2, 4]

    def test_spanned_center_roots_filters_unspanned(self):
        roots = [0, 0, None, 3, None]
        assert spanned_center_roots([0, 1, 2, 3, 4], roots) == {0: 0, 1: 0, 3: 3}

    def test_merged_vertex_sets_are_unions(self):
        collection = ClusterCollection(
            [Cluster(0, frozenset({0, 1})), Cluster(2, frozenset({2, 3})), Cluster(4, frozenset({4}))]
        )
        next_collection, unclustered = build_superclusters(collection, {0: 0, 2: 0})
        assert next_collection.by_center(0).vertices == frozenset({0, 1, 2, 3})
        assert [c.center for c in unclustered] == [4]


class TestInterconnectionRequests:
    def test_requests_exclude_self_and_cover_known(self, grid_5x5):
        exploration = centralized_bounded_exploration(grid_5x5, [0, 2, 12], depth=4, cap=10)
        requests = interconnection_requests([0], exploration.near_centers)
        assert 0 not in requests[0]
        assert set(requests[0]) == {2, 12}

    def test_path_count(self):
        assert count_interconnection_paths({0: [1, 2], 5: [6]}) == 3
