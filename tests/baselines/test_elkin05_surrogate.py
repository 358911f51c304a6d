"""Tests for the Elkin'05-style sequential surrogate."""

from __future__ import annotations


from repro.analysis import evaluate_stretch
from repro.baselines import build_elkin05_surrogate_spanner
from repro.graphs import gnp_random_graph, planted_partition_graph, same_component_structure


def test_stretch_guarantee_holds(default_params):
    graph = gnp_random_graph(40, 0.12, seed=4)
    result = build_elkin05_surrogate_spanner(graph, default_params)
    stretch = evaluate_stretch(graph, result.spanner, guarantee=result.guarantee)
    assert stretch.satisfies_guarantee


def test_spanner_is_subgraph_and_connected(community_graph, default_params):
    result = build_elkin05_surrogate_spanner(community_graph, default_params)
    assert result.spanner.is_subgraph_of(community_graph)
    assert same_component_structure(community_graph, result.spanner)


def test_round_cost_grows_with_popular_count(default_params):
    """The surrogate charges |W_i| sequential scans -- more popular centers, more rounds."""
    sparse = gnp_random_graph(60, 0.03, seed=1)
    dense = gnp_random_graph(60, 0.4, seed=1)
    sparse_result = build_elkin05_surrogate_spanner(sparse, default_params)
    dense_result = build_elkin05_surrogate_spanner(dense, default_params)
    dense_popular = dense_result.details["phases"][0]["num_popular"]
    sparse_popular = sparse_result.details["phases"][0]["num_popular"]
    assert dense_popular > sparse_popular
    assert dense_result.nominal_rounds > 0


def test_sequential_selection_costs_more_than_ruling_set_on_dense_graphs(default_params):
    """The qualitative Table 1 gap: sequential scans pay ~|W_0| * delta rounds."""
    graph = gnp_random_graph(80, 0.3, seed=2)
    surrogate = build_elkin05_surrogate_spanner(graph, default_params)
    popular_phase0 = surrogate.details["phases"][0]["num_popular"]
    # Selection cost charged by the surrogate includes |W_0| * 2 * delta_0 rounds.
    assert popular_phase0 >= 0.5 * graph.num_vertices
    assert surrogate.nominal_rounds >= popular_phase0 * 2


def test_deterministic(default_params):
    graph = planted_partition_graph(4, 8, 0.6, 0.05, seed=9)
    a = build_elkin05_surrogate_spanner(graph, default_params)
    b = build_elkin05_surrogate_spanner(graph, default_params)
    assert a.spanner == b.spanner


def test_phase_stats_structure(community_graph, default_params):
    result = build_elkin05_surrogate_spanner(community_graph, default_params)
    phases = result.details["phases"]
    assert len(phases) == default_params.num_phases
    assert all("ruling_set_size" in phase for phase in phases)
