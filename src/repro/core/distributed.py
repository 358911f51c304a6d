"""Distributed (CONGEST-simulated) engine for the deterministic construction.

Every communication step of the algorithm -- Algorithm 1's bounded
exploration, the digit-by-digit ruling set, the supercluster BFS forest, the
forest-path mark-up and the interconnection trace-back -- runs as a genuine
message-passing protocol on :class:`repro.congest.Simulator`, with per-edge
bandwidth auditing.  The phase orchestration (which protocol runs next, with
which parameters) requires no communication: it is a fixed schedule computable
from ``n`` and the parameters, which every vertex knows, and is the loop
shared with the centralized engine (:func:`repro.core.phases.run_phases`).

Cluster membership bookkeeping (which vertices belong to which supercluster)
is carried driver-side in a flat-array
:class:`~repro.core.cluster_table.ClusterTable`: the algorithm itself never
needs a non-center vertex to know its cluster -- only centers act in every
step, and every protocol message carries compact cluster (center) ids, never
vertex sets -- so maintaining the membership table centrally does not hide
any communication (see DESIGN.md, substitution 1).
"""

from __future__ import annotations

from typing import Optional

from ..congest.simulator import Simulator
from ..graphs.graph import Graph
from ..primitives.bfs_forest import run_bfs_forest
from ..primitives.exploration import run_bounded_exploration
from ..primitives.ruling_set import run_ruling_set
from ..primitives.traceback import run_forest_path_markup, run_traceback
from .parameters import SpannerParameters
from .phases import run_phases
from .result import SpannerResult
from .superclustering import spanned_center_roots


class DistributedSteps:
    """The phase steps as message-passing protocols on one simulator."""

    engine = "distributed"

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.ledger = simulator.ledger

    def explore(self, i, centers, delta, degree):
        return run_bounded_exploration(
            self.simulator, centers, depth=delta, cap=degree, label=f"phase{i}:explore"
        )

    def ruling_set(self, i, popular, q, c):
        return run_ruling_set(self.simulator, popular, q=q, c=c, label=f"phase{i}:ruling-set")

    def supercluster(self, i, ruling_set, depth, centers):
        forest = run_bfs_forest(
            self.simulator,
            ruling_set,
            depth=depth,
            label=f"phase{i}:forest",
            collect_node_results=False,
        )
        center_root = spanned_center_roots(centers, forest.root)
        markup = run_forest_path_markup(
            self.simulator, forest, sorted(center_root), label=f"phase{i}:markup"
        )
        return center_root, markup.edges

    def interconnect(self, i, exploration, requests):
        # The trace-back's nominal cost defaults to deg_i * delta_i.
        return run_traceback(
            self.simulator, exploration, requests, label=f"phase{i}:interconnect"
        ).edges

    def simulated_rounds(self) -> int:
        return self.ledger.simulated_rounds


def build_spanner_distributed(
    graph: Graph,
    parameters: SpannerParameters,
    simulator: Optional[Simulator] = None,
) -> SpannerResult:
    """Run the full deterministic construction on the CONGEST simulator.

    A pre-configured :class:`Simulator` may be supplied (e.g. with a tracer or
    relaxed congestion checking); by default a strict simulator with the
    standard O(1)-word bandwidth is created.
    """
    if simulator is None:
        simulator = Simulator(graph, strict_congestion=True)
    elif simulator.graph is not graph:
        raise ValueError("the simulator must be built over the same graph")
    return run_phases(graph, parameters, DistributedSteps(simulator))
