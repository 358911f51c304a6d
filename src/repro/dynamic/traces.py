"""Churn traces: seeded, deterministic edge-churn workloads.

A :class:`ChurnTrace` describes an evolving graph the way ``BoundGraphIterator``
-style experiment harnesses do: an initial graph plus an iterator of
:class:`~repro.dynamic.deltas.GraphDelta` batches.  Every product of a trace
-- the initial graph, each delta, the final graph, the content fingerprint --
is a pure function of the trace's fields (seed included): iterating twice, or
in another process, yields byte-identical steps.  That purity is what lets
the dynamic scenarios run through the experiment pipeline's content-addressed
store and keep the ``--jobs 1`` == ``--jobs N`` determinism contract.

Four churn kinds over the existing workload families:

* ``growth`` -- insert-only: the base workload's edges arrive in a seeded
  random order; the trace starts from a prefix and adds the rest in batches.
  After the last step the graph *is* the base workload graph.
* ``uniform`` -- steady-state churn: each step removes a seeded sample of
  live edges and adds the same number of fresh random pairs.
* ``sliding-window`` -- the edge stream of the base workload with a fixed
  live window: each step admits the next batch and expires the oldest.
* ``hotspot`` -- churn concentrated on a small seeded vertex set: additions
  always touch the hot set and removals prefer edges that do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set

from ..graphs.generators import make_workload
from ..graphs.graph import Edge, Graph, normalize_edge
from .deltas import GraphDelta, apply_delta

#: The supported churn kinds, in documentation order.
TRACE_KINDS = ("growth", "uniform", "sliding-window", "hotspot")

#: Salt mixed into the trace seed for the edge-stream shuffle vs. the churn
#: sampling, so the two decisions draw from independent deterministic streams.
_SHUFFLE_SALT = 0x5EED
_CHURN_SALT = 0xC4A9


@dataclass(frozen=True)
class ChurnTrace:
    """One deterministic churn workload: initial graph + delta iterator.

    ``family``/``size``/``seed`` name the base workload graph exactly as the
    static scenarios do (:func:`~repro.graphs.generators.make_workload`);
    ``steps``/``batch_size`` shape the churn.  ``window_fraction`` is the
    live fraction of the edge stream for ``sliding-window`` traces;
    ``hotspot_fraction`` the hot-vertex fraction for ``hotspot`` traces.
    """

    kind: str
    family: str = "sparse_gnp"
    size: int = 64
    steps: int = 8
    batch_size: int = 4
    seed: int = 0
    window_fraction: float = 0.6
    hotspot_fraction: float = 0.125

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; choose from {TRACE_KINDS!r}"
            )
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")

    # ------------------------------------------------------------------
    # The deterministic base stream
    # ------------------------------------------------------------------
    def base_graph(self) -> Graph:
        """The static workload graph the trace is derived from."""
        return make_workload(self.family, self.size, seed=self.seed)

    def _edge_stream(self) -> List[Edge]:
        """The base graph's edges in a seeded random order (recomputed, pure)."""
        edges = sorted(self.base_graph().edge_set())
        random.Random(f"{self.seed}:{_SHUFFLE_SALT}:shuffle").shuffle(edges)
        return edges

    def _initial_count(self, stream_length: int) -> int:
        if self.kind == "growth":
            return max(1, stream_length - self.steps * self.batch_size)
        if self.kind == "sliding-window":
            return max(1, int(stream_length * self.window_fraction))
        return stream_length

    def _hot_vertices(self, num_vertices: int) -> List[int]:
        count = max(2, int(num_vertices * self.hotspot_fraction))
        rng = random.Random(f"{self.seed}:{_CHURN_SALT}:hotspot")
        return sorted(rng.sample(range(num_vertices), min(count, num_vertices)))

    # ------------------------------------------------------------------
    # The evolving-graph iterator
    # ------------------------------------------------------------------
    def initial_graph(self) -> Graph:
        """The graph before the first delta (a fresh object on every call)."""
        base = self.base_graph()
        stream = self._edge_stream()
        return Graph(base.num_vertices, stream[: self._initial_count(len(stream))])

    def deltas(self) -> Iterator[GraphDelta]:
        """A fresh deterministic iterator over the trace's ``steps`` deltas."""
        stream = self._edge_stream()
        initial = self._initial_count(len(stream))
        if self.kind == "growth":
            return self._growth_deltas(stream, initial)
        if self.kind == "sliding-window":
            return self._window_deltas(stream, initial)
        return self._churn_deltas(stream)

    def _growth_deltas(self, stream: List[Edge], initial: int) -> Iterator[GraphDelta]:
        for step in range(self.steps):
            start = initial + step * self.batch_size
            yield GraphDelta.make(add=stream[start : start + self.batch_size])

    def _window_deltas(self, stream: List[Edge], window: int) -> Iterator[GraphDelta]:
        for step in range(self.steps):
            admit = stream[window + step * self.batch_size : window + (step + 1) * self.batch_size]
            # Expire exactly as many of the oldest live edges as were admitted,
            # so the live window keeps its size until the stream runs dry.
            expire = stream[step * self.batch_size : step * self.batch_size + len(admit)]
            yield GraphDelta.make(add=admit, remove=expire)

    def _churn_deltas(self, stream: List[Edge]) -> Iterator[GraphDelta]:
        """Uniform / hotspot churn over an internally tracked live edge set."""
        n = self.base_graph().num_vertices
        live: Set[Edge] = set(stream)
        rng = random.Random(f"{self.seed}:{_CHURN_SALT}:{self.kind}")
        hot = self._hot_vertices(n) if self.kind == "hotspot" else None
        for _ in range(self.steps):
            removals = self._pick_removals(rng, live, hot)
            additions = self._pick_additions(rng, live, n, hot)
            yield GraphDelta.make(add=additions, remove=removals)
            live.difference_update(removals)
            live.update(additions)

    def _pick_removals(
        self, rng: random.Random, live: Set[Edge], hot
    ) -> List[Edge]:
        # Never drain the graph: keep at least one live edge.
        budget = min(self.batch_size, max(0, len(live) - 1))
        if budget == 0:
            return []
        pool = sorted(live)
        if hot is not None:
            hot_set = set(hot)
            hot_pool = [e for e in pool if e[0] in hot_set or e[1] in hot_set]
            if len(hot_pool) >= budget:
                pool = hot_pool
        return rng.sample(pool, budget)

    def _pick_additions(
        self, rng: random.Random, live: Set[Edge], n: int, hot
    ) -> List[Edge]:
        if n < 2:
            return []
        picked: List[Edge] = []
        picked_set: Set[Edge] = set()
        # Bounded rejection sampling keeps the draw terminating on dense
        # graphs; a short batch is fine (deltas may be lopsided).
        for _ in range(50 * self.batch_size):
            if len(picked) == self.batch_size:
                break
            u = rng.choice(hot) if hot is not None else rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            edge = normalize_edge(u, v)
            if edge in live or edge in picked_set:
                continue
            picked.append(edge)
            picked_set.add(edge)
        return picked

    # ------------------------------------------------------------------
    # Whole-trace conveniences
    # ------------------------------------------------------------------
    def final_graph(self) -> Graph:
        """The graph after every delta has been applied."""
        graph = self.initial_graph()
        for delta in self.deltas():
            apply_delta(graph, delta)
        return graph

    def describe(self) -> Dict[str, object]:
        """JSON-safe description of the trace's parameters."""
        return {
            "kind": self.kind,
            "family": self.family,
            "size": self.size,
            "steps": self.steps,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "window_fraction": self.window_fraction,
            "hotspot_fraction": self.hotspot_fraction,
        }

    def fingerprint(self) -> str:
        """Content fingerprint: parameters + initial graph + every delta."""
        from ..experiments.results import stable_digest

        initial = self.initial_graph()
        return stable_digest(
            [
                self.describe(),
                initial.num_vertices,
                sorted(initial.edge_set()),
                [delta.to_dict() for delta in self.deltas()],
            ]
        )


def make_trace(kind: str, **kwargs: object) -> ChurnTrace:
    """Convenience constructor mirroring ``make_workload``'s shape."""
    return ChurnTrace(kind=kind, **kwargs)  # type: ignore[arg-type]


def trace_from_params(params: Dict[str, object]) -> ChurnTrace:
    """Build the trace of one dynamic-scenario task from its parameter dict.

    Shared between the scenario tasks and the workload fingerprinting hook so
    the two can never disagree about which trace a grid point means.
    """
    return ChurnTrace(
        kind=str(params["kind"]),
        family=str(params["family"]),
        size=int(params["size"]),
        steps=int(params["steps"]),
        batch_size=int(params["batch_size"]),
        seed=int(params["workload_seed"]),
    )


__all__ = ["ChurnTrace", "TRACE_KINDS", "make_trace", "trace_from_params"]
