"""Reference implementations the tests check the fast paths against.

None of this runs in a build.  Each oracle is the plain, readable form of a
step the package implements on flat arrays or as a simulated protocol:

* :class:`Cluster` / :class:`ClusterCollection` and
  :func:`build_superclusters` -- the frozenset cluster bookkeeping that
  :class:`~repro.core.cluster_table.ClusterTable` replaces;
* :func:`centralized_bounded_exploration` -- Algorithm 1 with exhaustive
  per-vertex knowledge, the reference for
  :func:`~repro.primitives.exploration.centralized_engine_exploration` and
  for the simulated :func:`~repro.primitives.exploration.run_bounded_exploration`;
* :func:`centralized_traceback` / :func:`centralized_forest_markup` -- the
  via-pointer and forest-path walks behind the trace-back protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph, normalize_edge
from repro.primitives.bfs_forest import ForestResult
from repro.primitives.exploration import ExplorationResult


@dataclass(frozen=True)
class Cluster:
    """A cluster: a center vertex plus the set of vertices it contains.

    The center always belongs to the cluster's vertex set.
    """

    center: int
    vertices: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.center not in self.vertices:
            raise ValueError(f"cluster center {self.center} must belong to its vertex set")

    @classmethod
    def singleton(cls, vertex: int) -> "Cluster":
        """The singleton cluster ``{v}`` centered at ``v``."""
        return cls(center=vertex, vertices=frozenset({vertex}))

    @classmethod
    def merge(cls, center: int, clusters: Iterable["Cluster"]) -> "Cluster":
        """Union of several clusters, re-centered at ``center``.

        This is the supercluster construction: the vertex set of the new
        cluster is the union of the constituent clusters' vertex sets.
        """
        vertices: Set[int] = set()
        for cluster in clusters:
            vertices.update(cluster.vertices)
        if center not in vertices:
            raise ValueError("the new center must belong to one of the merged clusters")
        return cls(center=center, vertices=frozenset(vertices))

    @property
    def size(self) -> int:
        """Number of vertices in the cluster."""
        return len(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertices

    def radius_in(self, graph: Graph) -> int:
        """Radius of the cluster measured in ``graph`` (typically the spanner ``H``).

        ``Rad(C) = max_{v in C} d(center, v)``; unreachable members yield an
        error because a correctly built spanner always connects a cluster.
        """
        dist = bfs_distances(graph, self.center)
        worst = 0
        for v in self.vertices:
            if v not in dist:
                raise ValueError(
                    f"vertex {v} of the cluster centered at {self.center} is unreachable"
                )
            worst = max(worst, dist[v])
        return worst


class ClusterCollection:
    """An ordered collection of vertex-disjoint clusters (one ``P_i`` or ``U_i``)."""

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._clusters: List[Cluster] = []
        self._by_center: Dict[int, Cluster] = {}
        for cluster in clusters:
            self.add(cluster)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, num_vertices: int) -> "ClusterCollection":
        """The phase-0 collection: every vertex is its own cluster."""
        collection = cls()
        clusters = collection._clusters
        by_center = collection._by_center
        for v in range(num_vertices):
            cluster = Cluster.singleton(v)
            clusters.append(cluster)
            by_center[v] = cluster
        return collection

    def add(self, cluster: Cluster) -> None:
        """Add a cluster; centers must be unique within a collection."""
        if cluster.center in self._by_center:
            raise ValueError(f"duplicate cluster center {cluster.center}")
        self._clusters.append(cluster)
        self._by_center[cluster.center] = cluster

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._clusters)

    def __iter__(self):
        return iter(self._clusters)

    def __contains__(self, center: int) -> bool:
        return center in self._by_center

    def clusters(self) -> List[Cluster]:
        """All clusters in insertion order."""
        return list(self._clusters)

    def centers(self) -> List[int]:
        """All cluster centers (the set ``S_i``), sorted."""
        return sorted(self._by_center.keys())

    def by_center(self, center: int) -> Cluster:
        """The cluster centered at ``center``."""
        return self._by_center[center]

    def vertex_set(self) -> Set[int]:
        """Union of all clusters' vertex sets (the set ``V P_i``)."""
        vertices: Set[int] = set()
        for cluster in self._clusters:
            vertices.update(cluster.vertices)
        return vertices

    def vertex_to_center(self) -> Dict[int, int]:
        """Map every clustered vertex to its cluster center.

        Raises ``ValueError`` if two clusters overlap, because collections
        produced by the algorithm are always vertex-disjoint.
        """
        mapping: Dict[int, int] = {}
        for cluster in self._clusters:
            for v in cluster.vertices:
                if v in mapping:
                    raise ValueError(f"vertex {v} belongs to two clusters")
                mapping[v] = cluster.center
        return mapping

    def total_vertices(self) -> int:
        """Total number of clustered vertices."""
        return sum(cluster.size for cluster in self._clusters)

    def is_vertex_disjoint(self) -> bool:
        """Whether no vertex belongs to two clusters."""
        try:
            self.vertex_to_center()
        except ValueError:
            return False
        return True

    def max_radius_in(self, graph: Graph) -> int:
        """``Rad(P_i)`` measured in ``graph`` (0 for an empty collection)."""
        worst = 0
        for cluster in self._clusters:
            worst = max(worst, cluster.radius_in(graph))
        return worst

    def summary(self) -> Dict[str, int]:
        """Compact statistics used by the phase records."""
        sizes = [cluster.size for cluster in self._clusters]
        return {
            "num_clusters": len(self._clusters),
            "num_vertices": sum(sizes),
            "max_cluster_size": max(sizes) if sizes else 0,
        }


def collections_partition_vertices(
    collections: Sequence[ClusterCollection], num_vertices: int
) -> bool:
    """Check Corollary 2.5: the given collections together partition ``0..n-1``.

    Used with the history of ``U_0, ..., U_ell`` produced by a run.
    """
    seen: Set[int] = set()
    for collection in collections:
        for cluster in collection:
            for v in cluster.vertices:
                if v in seen:
                    return False
                seen.add(v)
    return seen == set(range(num_vertices))


def build_superclusters(
    collection: ClusterCollection,
    center_root: Dict[int, int],
) -> Tuple[ClusterCollection, ClusterCollection]:
    """Split ``P_i`` into the new superclusters ``P_{i+1}`` and the leftovers ``U_i``.

    ``center_root`` maps every *spanned* cluster center to the root of its
    forest tree; the new supercluster centered at a root is the union of the
    vertex sets of all its spanned constituent clusters (the forest path
    itself is **not** part of the cluster -- it only enters the spanner).
    """
    clusters_by_root: Dict[int, List[Cluster]] = {}
    unclustered = ClusterCollection()
    for cluster in collection:
        root = center_root.get(cluster.center)
        if root is None:
            unclustered.add(cluster)
        else:
            clusters_by_root.setdefault(root, []).append(cluster)
    next_collection = ClusterCollection()
    for root in sorted(clusters_by_root.keys()):
        next_collection.add(Cluster.merge(root, clusters_by_root[root]))
    return next_collection, unclustered


def centralized_bounded_exploration(
    graph,
    centers: Iterable[int],
    depth: int,
    cap: int,
) -> ExplorationResult:
    """Centralized reference implementation of Algorithm 1.

    Produces the *exact* knowledge (no truncation at intermediate vertices):
    every vertex knows every center within ``depth`` of it, and popularity is
    decided against the true neighbourhood counts.  This matches the guarantee
    of Theorem 2.1 for the vertices the algorithm cares about (non-popular
    centers know everything; popular centers are exactly those with ``>= cap``
    near centers).

    Each center's sweep is a depth-bounded frontier walk over the CSR
    snapshot, so the work is proportional to the explored balls rather than
    ``|centers| * n``.  Visit order matches a sorted-neighbour BFS exactly,
    which keeps the recorded via-pointers (the BFS-tree parents pointing
    toward the center) bit-identical to the historical implementation.
    """
    n = graph.num_vertices
    center_list = sorted(set(centers))
    for center in center_list:
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range")
    known_dist: List[Dict[int, int]] = [dict() for _ in range(n)]
    known_via: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    rows = graph.csr().rows()
    for center in center_list:
        known_dist[center][center] = 0
        known_via[center][center] = None
        seen = {center}
        seen_add = seen.add
        frontier = [center]
        d = 0
        while frontier and d < depth:
            d += 1
            next_frontier: List[int] = []
            push = next_frontier.append
            for u in frontier:
                for v in rows[u]:
                    if v not in seen:
                        seen_add(v)
                        # ``u`` is the BFS-tree parent of ``v``, i.e. the
                        # direction a trace-back toward the center must walk.
                        known_dist[v][center] = d
                        known_via[v][center] = u
                        push(v)
            frontier = next_frontier
    popular = {
        center for center in center_list if len(known_dist[center]) - 1 >= cap
    }
    return ExplorationResult(
        known_dist=known_dist,
        known_via=known_via,
        popular=popular,
        centers=center_list,
        depth=depth,
        cap=cap,
        nominal_rounds=1 + cap * depth,
    )


def centralized_traceback(
    exploration: ExplorationResult,
    requests: Dict[int, Iterable[int]],
) -> Set[Tuple[int, int]]:
    """Centralized equivalent of :func:`~repro.primitives.traceback.run_traceback`."""
    edges: Set[Tuple[int, int]] = set()
    known_dist = exploration.known_dist
    for initiator, targets in requests.items():
        for target in targets:
            if target == initiator or target not in known_dist[initiator]:
                continue
            path = exploration.trace_path(initiator, target)
            for a, b in zip(path, path[1:]):
                edges.add(normalize_edge(a, b))
    return edges


def centralized_forest_markup(
    forest: ForestResult,
    targets: Iterable[int],
) -> Set[Tuple[int, int]]:
    """Centralized equivalent of :func:`~repro.primitives.traceback.run_forest_path_markup`."""
    edges: Set[Tuple[int, int]] = set()
    for target in targets:
        path = forest.tree_path_to_root(target)
        for a, b in zip(path, path[1:]):
            edges.add(normalize_edge(a, b))
    return edges
