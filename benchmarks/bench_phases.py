"""Phase-level micro-benchmarks: superclustering and interconnection in isolation.

The end-to-end engine benchmarks (``bench_congest_engine``, the table/figure
workloads) measure whole builds, which makes phase-level regressions easy to
miss inside the noise of the full pipeline.  These benchmarks drive the two
clustering phases (paper Sections 2.2-2.3) directly on the flat-array
:class:`~repro.core.cluster_table.ClusterTable`:

* the **superclustering** step: popular-center detection over a fixed
  exploration, the deterministic forest, forest-path collection and one
  batched ``ClusterTable.supercluster`` merge/retire sweep;
* the **interconnection** step: request construction plus the flat
  trace-back over the exploration's parent structure;
* the bare **cluster-table** operation mix (singletons -> supercluster ->
  snapshot -> retire) that every engine phase pays.

Each benchmark exports the protocol-relevant counters through
``benchmark.extra_info`` so ``scripts/bench_compare.py`` snapshots can flag
behaviour drift alongside wall-clock changes.
"""

from __future__ import annotations

import pytest

from repro.core.cluster_table import ClusterTable
from repro.core.interconnection import (
    count_interconnection_paths,
    interconnection_requests,
)
from repro.core.superclustering import (
    deterministic_forest,
    forest_path_edges,
    spanned_center_roots,
)
from repro.primitives.exploration import centralized_engine_exploration
from repro.primitives.ruling_set import centralized_ruling_set
from repro.primitives.traceback import centralized_traceback_flat
from repro.graphs import gnp_random_graph

#: Phase-0 shape on a moderate graph: every vertex is a singleton center.
N = 400
DEPTH = 1
CAP = 5


@pytest.fixture(scope="module")
def phase_graph():
    return gnp_random_graph(N, 0.02, seed=11)


@pytest.fixture(scope="module")
def phase_exploration(phase_graph):
    """The phase-0 exploration shared by both phase benchmarks."""
    return centralized_engine_exploration(
        phase_graph, range(N), depth=DEPTH, cap=CAP
    )


def test_superclustering_phase(benchmark, phase_graph, phase_exploration):
    """Ruling set + forest + batched ClusterTable merge, phase-0 shape."""
    popular = phase_exploration.popular

    def run():
        table = ClusterTable.singletons(N)
        centers = table.centers()
        rs = centralized_ruling_set(phase_graph, popular, q=2 * DEPTH + 1, c=2)
        root, _dist, parent = deterministic_forest(
            phase_graph, rs.ruling_set, depth=4 * DEPTH
        )
        center_root = spanned_center_roots(centers, root)
        edges = forest_path_edges(parent, sorted(center_root))
        unclustered = table.supercluster(center_root)
        return table, unclustered, edges, center_root

    table, unclustered, edges, center_root = benchmark(run)
    assert table.num_active + len(unclustered) <= N
    assert len(center_root) + len(unclustered) == N
    benchmark.extra_info["popular"] = len(popular)
    benchmark.extra_info["superclustered"] = len(center_root)
    benchmark.extra_info["unclustered"] = len(unclustered)
    benchmark.extra_info["forest_edges"] = len(edges)


def test_interconnection_phase(benchmark, phase_graph, phase_exploration):
    """Request construction + flat trace-back for every unclustered center."""
    exploration = phase_exploration
    unclustered_centers = sorted(
        set(range(N)) - exploration.popular
    )

    def run():
        requests = interconnection_requests(
            unclustered_centers, exploration.near_centers
        )
        edges = centralized_traceback_flat(exploration, requests)
        return requests, edges

    requests, edges = benchmark(run)
    assert edges
    benchmark.extra_info["paths"] = count_interconnection_paths(requests)
    benchmark.extra_info["edges"] = len(edges)


def test_cluster_table_operations(benchmark):
    """The bare table operation mix an engine phase pays (no graph work)."""

    def run():
        table = ClusterTable.singletons(N)
        p0 = table.snapshot()
        # Merge every run of 8 consecutive singletons under its first vertex
        # (roots always span themselves), retiring every 5th non-root
        # cluster -- a deterministic stand-in for a phase.
        center_root = {
            v: (v // 8) * 8
            for v in range(N)
            if v % 5 != 4 or v == (v // 8) * 8
        }
        unclustered = table.supercluster(center_root)
        p1 = table.snapshot()
        final = table.retire_all()
        return p0, p1, unclustered, final

    p0, p1, unclustered, final = benchmark(run)
    assert len(p0) == N
    assert p1.total_vertices() + unclustered.total_vertices() == N
    assert len(final) == len(p1)
    benchmark.extra_info["clusters_out"] = len(p1)
    benchmark.extra_info["retired"] = len(unclustered)
