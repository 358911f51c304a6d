"""The phase schedule of the construction, shared by both engines.

Every phase ``i`` of the paper (Section 2) runs the same four steps:
Algorithm 1 exploration, then -- in every phase but the concluding one and
only when ``W_i`` is non-empty -- the ruling set and the BFS-forest
superclustering, then the interconnection of the clusters left
unclustered.  :func:`run_phases` owns that loop, the flat-array
:class:`~repro.core.cluster_table.ClusterTable`, the edge certificate, the
cluster histories and the phase records; an engine only supplies the
communication steps (:class:`PhaseSteps`).

The nominal CONGEST rounds of a phase follow the paper's schedule:
``1 + deg_i * delta_i`` for the exploration, plus the ruling set's rounds and
``2 * superclustering_depth(i)`` (forest, then path mark-up) when the forest
runs, plus ``deg_i * delta_i`` for the interconnection trace-back.  These are
exactly the charges the simulated protocols book on their ledger.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

from ..congest.ledger import RoundLedger
from ..graphs.graph import Graph
from ..primitives.ruling_set import RulingSetResult
from .certificate import INTERCONNECTION_STEP, SUPERCLUSTERING_STEP, SpannerCertificate
from .cluster_table import ClusterTable, FlatClusters
from .interconnection import (
    count_interconnection_paths,
    flatten_requests,
    interconnection_requests,
)
from .parameters import SpannerParameters
from .result import PhaseRecord, SpannerResult

Edges = Set[Tuple[int, int]]


class PhaseSteps(Protocol):
    """The communication steps one engine runs inside :func:`run_phases`."""

    engine: str
    ledger: Optional[RoundLedger]

    def explore(self, i: int, centers: List[int], delta: int, degree: int):
        """Algorithm 1 from the centers ``S_i``.

        The loop reads the outcome's ``popular`` set ``W_i``, its
        ``nominal_rounds`` and its ``near_centers`` view (center -> the sorted
        other centers within ``delta_i``).
        """

    def ruling_set(self, i: int, popular: Set[int], q: int, c: int) -> RulingSetResult:
        """A ruling set ``RS_i`` of the popular centers ``W_i``."""

    def supercluster(
        self, i: int, ruling_set: Set[int], depth: int, centers: Iterable[int]
    ) -> Tuple[Dict[int, int], Edges]:
        """Grow the forest from ``RS_i``: (spanned center -> root, forest-path edges)."""

    def interconnect(
        self, i: int, exploration, requests: Dict[int, Sequence[int]]
    ) -> Edges:
        """Trace the requested center-to-center paths back into edges."""

    def simulated_rounds(self) -> int:
        """Rounds actually executed so far (0 without a simulator)."""


def run_phases(graph: Graph, parameters: SpannerParameters, steps: PhaseSteps) -> SpannerResult:
    """Run every phase of the construction with one engine's steps."""
    n = graph.num_vertices
    spanner = Graph(n)
    certificate = SpannerCertificate()
    table = ClusterTable.singletons(n)
    cluster_history: List[FlatClusters] = [table.snapshot()]
    unclustered_history: List[FlatClusters] = []
    phase_records: List[PhaseRecord] = []
    radius_bounds = parameters.radius_bounds()

    for i in parameters.phases():
        delta = parameters.delta(i)
        degree = parameters.degree_threshold(i, n)
        centers = table.centers()
        simulated_before = steps.simulated_rounds()

        exploration = steps.explore(i, centers, delta, degree)
        popular = exploration.popular
        nominal_rounds = exploration.nominal_rounds

        ruling_set: Set[int] = set()
        spanned_centers: List[int] = []
        superclustering_edges = 0
        forest_edge_count = 0
        if i < parameters.ell and popular:
            rs_result = steps.ruling_set(
                i, popular, parameters.ruling_set_q(i), parameters.domination_multiplier
            )
            ruling_set = rs_result.ruling_set
            depth = parameters.superclustering_depth(i)
            center_root, forest_edges = steps.supercluster(i, ruling_set, depth, centers)
            nominal_rounds += rs_result.nominal_rounds + 2 * depth
            spanned_centers = sorted(center_root)
            forest_edge_count = len(forest_edges)
            superclustering_edges = certificate.record(forest_edges, i, SUPERCLUSTERING_STEP)
            spanner.add_edges(forest_edges)
            unclustered = table.supercluster(center_root)
        else:
            # No popular cluster, or the concluding phase: everything retires.
            unclustered = table.retire_all()

        requests = interconnection_requests(unclustered.centers(), exploration.near_centers)
        traced_edges = steps.interconnect(i, exploration, requests)
        interconnection_edges = certificate.record(traced_edges, i, INTERCONNECTION_STEP)
        spanner.add_edges(traced_edges)
        nominal_rounds += degree * delta

        phase_records.append(
            PhaseRecord(
                index=i,
                stage=parameters.stage(i),
                delta=delta,
                degree_threshold=degree,
                num_clusters=len(centers),
                num_popular=len(popular),
                ruling_set_size=len(ruling_set),
                num_superclustered=len(spanned_centers),
                num_unclustered=len(unclustered),
                superclustering_edges=superclustering_edges,
                interconnection_edges=interconnection_edges,
                interconnection_paths=count_interconnection_paths(requests),
                radius_bound=radius_bounds[i],
                nominal_rounds=nominal_rounds,
                simulated_rounds=steps.simulated_rounds() - simulated_before,
                clusters_out=table.num_active,
                cluster_merges=len(spanned_centers),
                forest_edges=forest_edge_count,
                popular_centers=sorted(popular),
                ruling_set=sorted(ruling_set),
                superclustered_centers=spanned_centers,
                interconnection_pairs=flatten_requests(requests),
            )
        )
        unclustered_history.append(unclustered)
        if i < parameters.ell:
            cluster_history.append(table.snapshot())

    return SpannerResult(
        graph=graph,
        spanner=spanner,
        parameters=parameters,
        engine=steps.engine,
        phase_records=phase_records,
        cluster_history=cluster_history,
        unclustered_history=unclustered_history,
        certificate=certificate,
        ledger=steps.ledger,
    )
