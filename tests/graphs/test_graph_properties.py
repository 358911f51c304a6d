"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    all_pairs_distances,
    bfs,
    bfs_distances,
    connected_components,
    gnp_random_graph,
    graph_from_dict,
    graph_to_dict,
    multi_source_bfs,
)

graph_strategy = st.builds(
    gnp_random_graph,
    num_vertices=st.integers(min_value=1, max_value=28),
    edge_probability=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=40, deadline=None)
@given(graph_strategy)
def test_serialization_round_trip(graph):
    assert graph_from_dict(graph_to_dict(graph)) == graph


@settings(max_examples=40, deadline=None)
@given(graph_strategy)
def test_bfs_distances_are_metric(graph):
    matrix = all_pairs_distances(graph)
    n = graph.num_vertices
    for u in range(n):
        assert matrix[u][u] == 0
        for v in range(n):
            assert matrix[u][v] == matrix[v][u]
    for u, v in graph.edges():
        assert matrix[u][v] == 1


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.integers(min_value=0, max_value=27))
def test_bfs_parents_are_edges(graph, source):
    source = source % graph.num_vertices
    result = bfs(graph, source)
    for v in range(graph.num_vertices):
        parent = result.parent[v]
        if parent is not None:
            assert graph.has_edge(v, parent)
            assert result.dist[v] == result.dist[parent] + 1


@settings(max_examples=40, deadline=None)
@given(graph_strategy)
def test_components_partition_vertices(graph):
    components = connected_components(graph)
    seen = [v for members in components for v in members]
    assert sorted(seen) == list(range(graph.num_vertices))


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.integers(min_value=1, max_value=5))
def test_multi_source_bfs_is_min_over_sources(graph, num_sources):
    sources = list(range(min(num_sources, graph.num_vertices)))
    combined = multi_source_bfs(graph, sources)
    separate = [bfs_distances(graph, s) for s in sources]
    for v in range(graph.num_vertices):
        best = min((d[v] for d in separate if v in d), default=None)
        assert combined.dist[v] == best


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.integers(min_value=0, max_value=6))
def test_depth_bounded_bfs_agrees_with_full_bfs(graph, depth):
    full = bfs_distances(graph, 0)
    bounded = bfs_distances(graph, 0, max_depth=depth)
    for v, d in bounded.items():
        assert full[v] == d
        assert d <= depth
    for v, d in full.items():
        if d <= depth:
            assert v in bounded
