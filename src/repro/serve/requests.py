"""Typed requests of the serving tier.

Three request kinds cover the expensive artifacts worth serving warm:

* :class:`BuildRequest` -- build a spanner of a generated workload with any
  registered algorithm; the response payload is the canonical
  ``repro-run-result/v1`` dict of the build.
* :class:`StretchQuery` -- evaluate the stretch of a built spanner (the
  response payload is a canonical :class:`~repro.analysis.stretch.StretchReport`
  dict, byte-identical to direct :func:`~repro.analysis.evaluate_run_stretch`
  output for the same parameters).
* :class:`DistanceQuery` -- exact graph distances for a batch of vertex
  pairs, answered off the warm per-graph
  :class:`~repro.graphs.distances.DistanceCache`.

Requests are frozen (hashable) value objects.  Build and stretch requests are
content-addressed through :meth:`~repro.experiments.store.ResultStore.task_key`
under the scenario names below, which is what single-flight coalescing and the
persistent store layer key on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

#: Store scenario names the service files its payloads under.
BUILD_SCENARIO = "serve-build"
STRETCH_SCENARIO = "serve-stretch"
DISTANCE_SCENARIO = "serve-distance"

#: Code-relevant version baked into every serve content address; bump it to
#: invalidate previously stored serve payloads wholesale.
SERVE_VERSION = "2"

#: Workload families whose generator returns *exactly* ``size`` vertices.
#: Distance queries address vertices by id, so the load generator only draws
#: pairs for these families.
EXACT_SIZE_FAMILIES = ("gnp", "sparse_gnp", "gnm", "cycle", "path", "tree")

#: One warm workload graph: (family, size, generator seed).
GraphKey = Tuple[str, int, int]


def _frozen_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class BuildRequest:
    """Build a spanner of a generated workload with a registered algorithm."""

    algorithm: str = "new-centralized"
    family: str = "gnp"
    size: int = 64
    seed: int = 0
    #: Algorithm-specific parameter overrides, as sorted (key, value) pairs so
    #: the request stays hashable; use :meth:`create` to pass a dict.
    params: Tuple[Tuple[str, object], ...] = ()

    kind = "build"

    @classmethod
    def create(
        cls,
        algorithm: str,
        family: str = "gnp",
        size: int = 64,
        seed: int = 0,
        params: Optional[Mapping[str, object]] = None,
    ) -> "BuildRequest":
        return cls(algorithm, family, int(size), int(seed), _frozen_params(params))

    def graph_key(self) -> GraphKey:
        return (self.family, self.size, self.seed)

    def task_params(self) -> Dict[str, object]:
        """The JSON-safe parameter dict: both store-key input and worker-task input."""
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "algorithm_params": dict(self.params),
        }

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, **self.task_params()}


@dataclass(frozen=True)
class StretchQuery:
    """Evaluate the stretch of the spanner a :class:`BuildRequest` produces."""

    build: BuildRequest
    #: Sampled pairs to check; ``<= 0`` (or a small graph) checks all pairs,
    #: mirroring :func:`~repro.analysis.evaluate_run_stretch`.
    num_pairs: int = 200
    pair_seed: int = 0

    kind = "stretch-query"

    def graph_key(self) -> GraphKey:
        return self.build.graph_key()

    def task_params(self) -> Dict[str, object]:
        return {
            "build": self.build.task_params(),
            "num_pairs": self.num_pairs,
            "pair_seed": self.pair_seed,
        }

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, **self.task_params()}


@dataclass(frozen=True)
class DistanceQuery:
    """Exact host-graph distances for a batch of vertex pairs."""

    family: str
    size: int
    seed: int
    pairs: Tuple[Tuple[int, int], ...]

    kind = "distance-query"

    @classmethod
    def create(
        cls,
        family: str,
        size: int,
        seed: int,
        pairs: Iterable[Tuple[int, int]],
    ) -> "DistanceQuery":
        return cls(
            family,
            int(size),
            int(seed),
            tuple((int(u), int(v)) for u, v in pairs),
        )

    def graph_key(self) -> GraphKey:
        return (self.family, self.size, self.seed)

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "pairs": [[u, v] for u, v in self.pairs],
        }


ServeRequest = Union[BuildRequest, StretchQuery, DistanceQuery]
