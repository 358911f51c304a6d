"""Tests for cluster / cluster-collection bookkeeping."""

from __future__ import annotations

import pytest

from oracles import Cluster, ClusterCollection, collections_partition_vertices
from repro.graphs import Graph, path_graph


class TestCluster:
    def test_singleton(self):
        cluster = Cluster.singleton(4)
        assert cluster.center == 4
        assert cluster.vertices == frozenset({4})
        assert cluster.size == 1
        assert 4 in cluster

    def test_center_must_belong(self):
        with pytest.raises(ValueError):
            Cluster(center=0, vertices=frozenset({1, 2}))

    def test_merge_unions_vertices(self):
        merged = Cluster.merge(1, [Cluster.singleton(1), Cluster.singleton(5), Cluster.singleton(7)])
        assert merged.center == 1
        assert merged.vertices == frozenset({1, 5, 7})

    def test_merge_center_must_be_member(self):
        with pytest.raises(ValueError):
            Cluster.merge(9, [Cluster.singleton(1), Cluster.singleton(2)])

    def test_radius_in_graph(self):
        graph = path_graph(5)
        cluster = Cluster(center=2, vertices=frozenset({0, 2, 4}))
        assert cluster.radius_in(graph) == 2

    def test_radius_unreachable_member_raises(self):
        graph = Graph(4, [(0, 1)])
        cluster = Cluster(center=0, vertices=frozenset({0, 3}))
        with pytest.raises(ValueError):
            cluster.radius_in(graph)


class TestClusterCollection:
    def test_singletons(self):
        collection = ClusterCollection.singletons(4)
        assert len(collection) == 4
        assert collection.centers() == [0, 1, 2, 3]
        assert collection.total_vertices() == 4

    def test_duplicate_centers_rejected(self):
        collection = ClusterCollection([Cluster.singleton(0)])
        with pytest.raises(ValueError):
            collection.add(Cluster(center=0, vertices=frozenset({0, 1})))

    def test_contains_and_lookup(self):
        collection = ClusterCollection.singletons(3)
        assert 2 in collection
        assert 5 not in collection
        assert collection.by_center(1).vertices == frozenset({1})

    def test_vertex_to_center(self):
        collection = ClusterCollection(
            [Cluster(0, frozenset({0, 1})), Cluster(3, frozenset({3}))]
        )
        assert collection.vertex_to_center() == {0: 0, 1: 0, 3: 3}

    def test_vertex_to_center_detects_overlap(self):
        collection = ClusterCollection(
            [Cluster(0, frozenset({0, 1})), Cluster(1, frozenset({1}))]
        )
        with pytest.raises(ValueError):
            collection.vertex_to_center()
        assert not collection.is_vertex_disjoint()

    def test_vertex_set(self):
        collection = ClusterCollection([Cluster(0, frozenset({0, 2})), Cluster(4, frozenset({4}))])
        assert collection.vertex_set() == {0, 2, 4}

    def test_max_radius_in(self):
        graph = path_graph(6)
        collection = ClusterCollection(
            [Cluster(0, frozenset({0, 1})), Cluster(4, frozenset({3, 4, 5}))]
        )
        assert collection.max_radius_in(graph) == 1
        assert ClusterCollection().max_radius_in(graph) == 0

    def test_summary(self):
        collection = ClusterCollection([Cluster(0, frozenset({0, 1, 2})), Cluster(5, frozenset({5}))])
        summary = collection.summary()
        assert summary == {"num_clusters": 2, "num_vertices": 4, "max_cluster_size": 3}

    def test_iteration_order_is_insertion_order(self):
        clusters = [Cluster.singleton(3), Cluster.singleton(1)]
        collection = ClusterCollection(clusters)
        assert [c.center for c in collection] == [3, 1]


class TestPartitionCheck:
    def test_partition_accepts_exact_cover(self):
        a = ClusterCollection([Cluster(0, frozenset({0, 1}))])
        b = ClusterCollection([Cluster(2, frozenset({2}))])
        assert collections_partition_vertices([a, b], 3)

    def test_partition_rejects_overlap(self):
        a = ClusterCollection([Cluster(0, frozenset({0, 1}))])
        b = ClusterCollection([Cluster(1, frozenset({1, 2}))])
        assert not collections_partition_vertices([a, b], 3)

    def test_partition_rejects_missing_vertex(self):
        a = ClusterCollection([Cluster(0, frozenset({0}))])
        assert not collections_partition_vertices([a], 2)
