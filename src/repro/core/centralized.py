"""Centralized reference engine for the deterministic spanner construction.

This engine runs the shared phase loop (:func:`repro.core.phases.run_phases`)
with global knowledge instead of message passing: Algorithm 1 is an exact
flat-array exploration, the ruling set and the BFS forest are computed
directly with the distributed protocols' tie-breaking, and the trace-back
walks dense parent arrays.  It is therefore fast enough to run on graphs with
thousands of vertices and is used for cross-validating the distributed
engine, for property-based testing and for the larger benchmark sweeps.

Both engines agree on every popular set, ruling set, cluster collection,
interconnection pair and nominal round count; their spanners may differ by
trace-back tie-breaking: both trace shortest paths, but a simulated
via-pointer names the neighbour whose message arrived first, not necessarily
the BFS-tree parent the centralized trace-back walks.  The nominal rounds come
from the loop's one formula, which is what the simulated protocols charge to
their ledger.
"""

from __future__ import annotations

from ..graphs.graph import Graph
from ..primitives.exploration import centralized_engine_exploration
from ..primitives.ruling_set import centralized_ruling_set
from ..primitives.traceback import centralized_traceback_flat
from .parameters import SpannerParameters
from .phases import run_phases
from .result import SpannerResult
from .superclustering import (
    deterministic_forest,
    forest_path_edges,
    spanned_center_roots,
)


class CentralizedSteps:
    """The phase steps computed directly on ``graph``."""

    engine = "centralized"
    ledger = None

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def explore(self, i, centers, delta, degree):
        return centralized_engine_exploration(self.graph, centers, delta, degree)

    def ruling_set(self, i, popular, q, c):
        return centralized_ruling_set(self.graph, popular, q=q, c=c)

    def supercluster(self, i, ruling_set, depth, centers):
        root, _dist, parent = deterministic_forest(self.graph, ruling_set, depth)
        center_root = spanned_center_roots(centers, root)
        return center_root, forest_path_edges(parent, sorted(center_root))

    def interconnect(self, i, exploration, requests):
        return centralized_traceback_flat(exploration, requests)

    def simulated_rounds(self) -> int:
        return 0


def build_spanner_centralized(graph: Graph, parameters: SpannerParameters) -> SpannerResult:
    """Run the full deterministic construction with the centralized engine."""
    return run_phases(graph, parameters, CentralizedSteps(graph))
