"""Centralized breadth-first-search utilities.

These are the sequential counterparts of the distributed primitives in
:mod:`repro.primitives`; the centralized reference engine of the spanner
algorithm and all verification code are built on them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..kernels import require_numpy, use_numpy
from .csr import CSRGraph
from .graph import Graph


class BFSResult:
    """Result of a (multi-source) BFS: distances, parents and source labels.

    Attributes
    ----------
    dist:
        ``dist[v]`` is the distance from the closest source, or ``None`` if
        ``v`` was not reached (beyond ``max_depth`` or disconnected).
    parent:
        ``parent[v]`` is the BFS-tree parent of ``v`` (``None`` for sources and
        unreached vertices).
    source:
        ``source[v]`` is the source vertex whose BFS tree contains ``v``.
    """

    __slots__ = ("dist", "parent", "source")

    def __init__(
        self,
        dist: List[Optional[int]],
        parent: List[Optional[int]],
        source: List[Optional[int]],
    ) -> None:
        self.dist = dist
        self.parent = parent
        self.source = source

    def reached(self, v: int) -> bool:
        """Return whether vertex ``v`` was reached by the exploration."""
        return self.dist[v] is not None

    def path_to_source(self, v: int) -> List[int]:
        """Return the BFS-tree path from ``v`` up to its source (inclusive)."""
        if self.dist[v] is None:
            raise ValueError(f"vertex {v} was not reached by the BFS")
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def tree_edges(self) -> List[Tuple[int, int]]:
        """Return all BFS-tree edges (child, parent) pairs, canonicalized."""
        edges = []
        for v, p in enumerate(self.parent):
            if p is not None:
                edges.append((v, p) if v <= p else (p, v))
        return edges


def bfs(graph: Graph, source: int, max_depth: Optional[int] = None) -> BFSResult:
    """Single-source BFS, optionally truncated at ``max_depth``."""
    return multi_source_bfs(graph, [source], max_depth=max_depth)


def multi_source_bfs(
    graph: Graph,
    sources: Iterable[int],
    max_depth: Optional[int] = None,
) -> BFSResult:
    """Multi-source BFS from ``sources``, optionally truncated at ``max_depth``.

    Ties between sources are broken by BFS order: the first source to reach a
    vertex claims it; among same-round arrivals, the source listed first (and
    then the lower parent ID) wins, which keeps the procedure deterministic.

    The sweep runs over the graph's frozen CSR snapshot (sorted flat-array
    rows) with dense level-synchronous frontiers, which visits neighbours in
    exactly the same order as the historical ``sorted(neighbors(u))`` queue
    implementation while skipping the per-visit sort and set iteration.
    """
    n = graph.num_vertices
    dist: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    source_of: List[Optional[int]] = [None] * n

    frontier: List[int] = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"source {s} is out of range [0, {n})")
        if dist[s] is None:
            dist[s] = 0
            source_of[s] = s
            frontier.append(s)

    rows = graph.csr().rows()
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            su = source_of[u]
            for v in rows[u]:
                if dist[v] is None:
                    dist[v] = depth
                    parent[v] = u
                    source_of[v] = su
                    push(v)
        frontier = next_frontier

    return BFSResult(dist, parent, source_of)


def _flat_bfs_distances(
    graph: Graph, sources: Iterable[int], max_depth: Optional[int] = None
) -> Tuple[List[int], List[int]]:
    """Dense distance-only (multi-source) BFS kernel over the CSR snapshot.

    Returns ``(dist, order)`` where ``dist[v]`` is an ``int`` distance or
    ``-1`` for unreached vertices and ``order`` lists the reached vertices in
    visit order.  This skips all parent/source bookkeeping and is the kernel
    behind every distance-only query.
    """
    n = graph.num_vertices
    dist = [-1] * n
    frontier: List[int] = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"source {s} is out of range [0, {n})")
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    order = list(frontier)
    rows = graph.csr().rows()
    depth = 0
    extend = order.extend
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: List[int] = []
        push = next_frontier.append
        for u in frontier:
            for v in rows[u]:
                if dist[v] < 0:
                    dist[v] = depth
                    push(v)
        extend(next_frontier)
        frontier = next_frontier
    return dist, order


def compiled_bfs(csr: CSRGraph, source: int, max_depth: Optional[int] = None):
    """Compiled single-source BFS (``scipy.sparse.csgraph``), cut at ``max_depth``.

    Sweeps the CSR snapshot ``csr`` (a ``Graph.csr()`` handle, so a caller
    that holds it keeps sweeping the topology of that moment).  Returns
    ``(order, predecessors, bounds)``: ``order`` lists the reached
    vertices in visit order, level ``d`` is ``order[bounds[d]:bounds[d + 1]]``
    and ``predecessors[v]`` is ``v``'s BFS-tree parent (meaningful for the
    non-source vertices of ``order``).  csgraph's BFS keeps a FIFO queue and
    scans every CSR row in stored (sorted) order, so each parent is the
    *first toucher* -- exactly the parent the pure-Python sweeps pick -- and
    the parents' positions in ``order`` never decrease.  Every level boundary
    is therefore one ``searchsorted`` over those positions, and a depth
    cutoff is a prefix of ``order``.
    """
    # Imported here, not in ``kernels``: the first compiled sweep pays the
    # csgraph import, never backend selection or the numpy tier's setup.
    from scipy.sparse.csgraph import breadth_first_order

    np = require_numpy()
    n = csr.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} is out of range [0, {n})")
    order, predecessors = breadth_first_order(
        csr.scipy_csr(), source, directed=True, return_predecessors=True
    )
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(order.size)
    parent_position = position[predecessors[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size and (max_depth is None or len(bounds) <= max_depth + 1):
        bounds.append(1 + int(parent_position.searchsorted(bounds[-1])))
    return order[: bounds[-1]], predecessors, bounds


def frontier_forest(csr: CSRGraph, sources: Iterable[int], max_depth: Optional[int] = None):
    """Vectorized level-synchronous multi-source BFS forest over ``csr``.

    Returns ``(root, dist, parent)`` as ``numpy.int64`` arrays, ``-1`` where
    a vertex is unreached (and for the sources' parents).  Every level is
    expanded in ``(root, v)`` order -- level 0 is the sorted distinct
    sources -- scanning each row in stored (sorted) order, and the first
    toucher of an unreached vertex claims it.  This is the tie-breaking of
    :func:`repro.core.superclustering.deterministic_forest` (each vertex
    adopts the smallest ``(root, parent)`` one level up), so the two agree
    exactly.  One level is a few whole-array operations over the frontier's
    rows in ``csr.indptr_np``/``csr.adj_np``; ``numpy.minimum.at`` picks the
    first toucher of every vertex without sorting the touched rows.
    """
    np = require_numpy()
    n = csr.num_vertices
    indptr, adj = csr.indptr_np, csr.adj_np
    frontier = np.unique(np.fromiter(sources, dtype=np.int64))
    # Checked up front: numpy indexing would wrap a negative source around.
    if frontier.size and (frontier[0] < 0 or frontier[-1] >= n):
        bad = frontier[0] if frontier[0] < 0 else frontier[-1]
        raise ValueError(f"source {bad} is out of range [0, {n})")
    root = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    root[frontier] = frontier
    dist[frontier] = 0
    # ``dist >= 0`` as one byte per vertex: the per-touch membership gather.
    seen = np.zeros(n, dtype=bool)
    seen[frontier] = True
    # Per-vertex scratch for the first-toucher pick, reset after each level.
    unclaimed = np.iinfo(np.int64).max
    first = np.full(n, unclaimed, dtype=np.int64)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        depth += 1
        # The frontier's rows back to back, in frontier order (gathered
        # through their ``adj`` positions, built in place to keep the level's
        # temporaries few); ``slot`` is the index of each unreached touch in
        # that sequence.
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        touched = np.repeat(starts - ends + counts, counts)
        touched += np.arange(touched.size)
        touched = adj[touched]
        slot = np.flatnonzero(~seen[touched])
        touched = touched[slot]
        np.minimum.at(first, touched, slot)
        wins = first[touched] == slot
        first[touched] = unclaimed
        claimed = touched[wins]
        toucher = frontier[ends.searchsorted(slot[wins], side="right")]
        seen[claimed] = True
        parent[claimed] = toucher
        level_root = root[toucher]
        root[claimed] = level_root
        dist[claimed] = depth
        # Order the level by (root, v): one sort of the key root * n + v.
        level_root *= n
        level_root += claimed
        level_root.sort()
        frontier = level_root % n
    return root, dist, parent


def _np_hops(graph: Graph, source: int, max_depth: Optional[int] = None):
    """Dense ``numpy.int64`` hop counts from ``source`` (``-1`` if unreached)."""
    np = require_numpy()
    order, _, bounds = compiled_bfs(graph.csr(), source, max_depth=max_depth)
    hops = np.full(graph.num_vertices, -1, dtype=np.int64)
    hops[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return hops


def bfs_distances(
    graph: Graph, source: int, max_depth: Optional[int] = None
) -> Dict[int, int]:
    """Return ``{v: dist(source, v)}`` for all reached vertices (ascending ``v``)."""
    if use_numpy(graph.num_vertices):
        np = require_numpy()
        dist = _np_hops(graph, source, max_depth=max_depth)
        reached = np.flatnonzero(dist >= 0)
        return dict(zip(reached.tolist(), dist[reached].tolist()))
    dist, order = _flat_bfs_distances(graph, (source,), max_depth=max_depth)
    return {v: dist[v] for v in sorted(order)}


def bfs_layers(graph: Graph, source: int, max_depth: Optional[int] = None) -> List[List[int]]:
    """Return the BFS layers ``[L0, L1, ...]`` around ``source``."""
    dist = bfs_distances(graph, source, max_depth=max_depth)
    if not dist:
        return []
    deepest = max(dist.values())
    layers: List[List[int]] = [[] for _ in range(deepest + 1)]
    for v, d in dist.items():
        layers[d].append(v)
    for layer in layers:
        layer.sort()
    return layers


def ball(graph: Graph, center: int, radius: int) -> List[int]:
    """Return the sorted list of vertices at distance at most ``radius``."""
    return sorted(bfs_distances(graph, center, max_depth=radius).keys())


def vertices_within(
    graph: Graph, center: int, radius: int, targets: Iterable[int]
) -> List[int]:
    """Return the members of ``targets`` at distance at most ``radius`` of ``center``."""
    target_set = set(targets)
    dist = bfs_distances(graph, center, max_depth=radius)
    return sorted(v for v in dist if v in target_set)


def shortest_path(graph: Graph, u: int, v: int) -> Optional[List[int]]:
    """Return one shortest ``u``-``v`` path (as a vertex list) or ``None``."""
    result = bfs(graph, u)
    if result.dist[v] is None:
        return None
    path = result.path_to_source(v)
    path.reverse()
    return path


def bfs_tree_edges(graph: Graph, source: int, max_depth: Optional[int] = None) -> List[Tuple[int, int]]:
    """Return the edges of a BFS tree rooted at ``source``."""
    return bfs(graph, source, max_depth=max_depth).tree_edges()
