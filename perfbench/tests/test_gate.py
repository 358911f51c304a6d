"""The workload-validity gate: a static build must sparsify and supercluster."""

import pytest

from perfbench.workloads import CheckFailed, StaticCentral, edge_digest, validity_gate


def test_gate_fires_on_degree_four_sparse_gnp():
    from repro import build
    from repro.graphs.generators import make_workload

    run = build("new-centralized", make_workload("sparse_gnp", 2000, seed=0))
    assert run.num_edges == run.graph.num_edges  # every input edge is kept
    with pytest.raises(CheckFailed, match=f"kept {run.num_edges}/{run.num_edges}"):
        validity_gate(run)


def test_gate_passes_on_the_density_scaled_family():
    from repro import build
    from repro.graphs.generators import sparse_gnp_random_graph

    n = 2000
    graph = sparse_gnp_random_graph(n, n ** (1 / 3) / (n - 1), seed=0)
    run = build("new-centralized", graph)
    validity_gate(run)
    assert run.num_edges < 0.9 * graph.num_edges


def test_static_central_input_selects_the_numpy_tier():
    from repro import kernels

    assert StaticCentral.size >= kernels.AUTO_MIN_VERTICES


def test_edge_digest_ignores_insertion_order():
    from repro.graphs.graph import Graph

    assert edge_digest(Graph(4, [(0, 1), (2, 3)])) == edge_digest(Graph(4, [(3, 2), (1, 0)]))
