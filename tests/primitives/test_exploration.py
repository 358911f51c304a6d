"""Tests for Algorithm 1 (bounded multi-source exploration / popular-cluster detection)."""

from __future__ import annotations

import pytest

from repro.congest import Simulator
from repro.graphs import (
    bfs_distances,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    star_graph,
)
from repro.primitives import run_bounded_exploration

from oracles import centralized_bounded_exploration


def run_both(graph, centers, depth, cap):
    """Run the distributed and the centralized variants."""
    sim = Simulator(graph, strict_congestion=True)
    distributed = run_bounded_exploration(sim, centers, depth, cap)
    centralized = centralized_bounded_exploration(graph, centers, depth, cap)
    return distributed, centralized


class TestPopularityDetection:
    def test_star_center_is_popular(self):
        graph = star_graph(6)
        distributed, centralized = run_both(graph, range(7), depth=1, cap=3)
        assert 0 in distributed.popular
        assert distributed.popular == centralized.popular
        # leaves see only the hub within distance 1
        assert all(leaf not in distributed.popular for leaf in range(1, 7))

    def test_popular_matches_true_neighbourhood_counts(self):
        graph = gnp_random_graph(50, 0.1, seed=3)
        centers = list(range(50))
        depth, cap = 2, 6
        distributed, _ = run_both(graph, centers, depth, cap)
        for center in centers:
            true_count = len(
                [v for v, d in bfs_distances(graph, center, max_depth=depth).items() if v != center]
            )
            assert (center in distributed.popular) == (true_count >= cap)

    def test_no_popular_when_cap_exceeds_graph(self):
        graph = cycle_graph(8)
        distributed, _ = run_both(graph, range(8), depth=2, cap=10)
        assert distributed.popular == set()

    def test_popular_sets_agree_between_engines(self, community_graph):
        distributed, centralized = run_both(
            community_graph, range(community_graph.num_vertices), depth=1, cap=4
        )
        assert distributed.popular == centralized.popular


class TestKnowledgeGuarantee:
    def test_non_popular_centers_know_everything_within_depth(self):
        """Theorem 2.1(2): non-popular centers learn all centers within delta, exactly."""
        graph = gnp_random_graph(40, 0.08, seed=5)
        centers = list(range(40))
        depth, cap = 3, 5
        distributed, _ = run_both(graph, centers, depth, cap)
        for center in centers:
            if center in distributed.popular:
                continue
            true_near = {
                v: d
                for v, d in bfs_distances(graph, center, max_depth=depth).items()
                if v in set(centers)
            }
            assert set(distributed.known[center].keys()) == set(true_near.keys())
            for other, entry in distributed.known[center].items():
                assert entry.distance == true_near[other]

    def test_recorded_distances_never_below_true_distance(self):
        graph = gnp_random_graph(40, 0.1, seed=9)
        centers = list(range(0, 40, 2))
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth=3, cap=4)
        for v in range(40):
            true_dist = bfs_distances(graph, v, max_depth=10)
            for center, entry in result.known[v].items():
                assert entry.distance >= true_dist[center]
                assert entry.distance <= 3

    def test_every_vertex_knows_at_least_min_cap_or_all(self):
        """Lemma A.1 on every vertex, not just centers."""
        graph = grid_graph(6, 6)
        centers = list(range(36))
        depth, cap = 2, 4
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth, cap)
        for v in range(36):
            true_count = len(bfs_distances(graph, v, max_depth=depth))
            assert len(result.known[v]) >= min(cap, true_count)

    def test_trace_path_follows_edges_and_has_recorded_length(self):
        graph = grid_graph(5, 5)
        centers = [0, 12, 24]
        sim = Simulator(graph)
        result = run_bounded_exploration(sim, centers, depth=5, cap=3)
        for v in range(25):
            for center, entry in result.known[v].items():
                path = result.trace_path(v, center)
                assert len(path) - 1 == entry.distance
                for a, b in zip(path, path[1:]):
                    assert graph.has_edge(a, b)

    def test_trace_path_unknown_center_raises(self, path_6):
        sim = Simulator(path_6)
        result = run_bounded_exploration(sim, [0], depth=1, cap=2)
        with pytest.raises(ValueError):
            result.trace_path(5, 0)


class TestSchedulingAndAccounting:
    def test_nominal_rounds_formula(self, grid_5x5):
        sim = Simulator(grid_5x5)
        result = run_bounded_exploration(sim, range(25), depth=4, cap=3)
        assert result.nominal_rounds == 1 + 3 * 4
        # The full schedule is charged to the ledger even if the network went
        # quiet early.
        assert sim.ledger.nominal_rounds == result.nominal_rounds

    def test_respects_congestion_budget(self, community_graph):
        sim = Simulator(community_graph, strict_congestion=True)
        run_bounded_exploration(sim, range(community_graph.num_vertices), depth=2, cap=5)
        assert sim.ledger.max_edge_congestion <= 1

    def test_centers_know_themselves_at_distance_zero(self):
        graph = cycle_graph(6)
        _, centralized = run_both(graph, [2, 4], depth=2, cap=2)
        assert centralized.known[2][2].distance == 0
        assert centralized.known[4][4].distance == 0

    def test_empty_center_set(self, path_6):
        sim = Simulator(path_6)
        result = run_bounded_exploration(sim, [], depth=2, cap=2)
        assert result.popular == set()
        assert all(not known for known in result.known)

    def test_invalid_parameters_rejected(self, path_6):
        sim = Simulator(path_6)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [0], depth=-1, cap=1)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [0], depth=1, cap=0)
        with pytest.raises(ValueError):
            run_bounded_exploration(sim, [77], depth=1, cap=1)

    def test_known_centers_accessor_sorted(self):
        graph = complete_graph(5)
        _, centralized = run_both(graph, range(5), depth=1, cap=10)
        assert centralized.known_centers(0) == [0, 1, 2, 3, 4]
        assert centralized.distance_to(0, 3) == 1
        assert centralized.distance_to(0, 99) is None
