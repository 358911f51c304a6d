"""Frozen compressed-sparse-row (CSR) adjacency snapshots.

A :class:`CSRGraph` is an immutable flat-array view of a :class:`~repro.graphs.graph.Graph`
taken at a point in time: two ``array('q')`` buffers, ``indptr`` (length
``n + 1``) and ``adj`` (length ``2m``), with the neighbours of vertex ``v``
stored sorted in ``adj[indptr[v]:indptr[v + 1]]``.  Every hot path in the
reproduction -- BFS sweeps, the CONGEST simulator's per-node neighbour
tables, distance caches -- iterates this snapshot instead of the mutable
per-vertex ``set`` adjacency.

Snapshot contract: a ``CSRGraph`` never changes.  ``Graph.csr()`` returns a
cached snapshot and invalidates it on any mutation (``add_edge`` /
``remove_edge``), so holding on to a snapshot across mutations yields the
*old* topology by design; re-call ``csr()`` to observe the new one.

Vectorized kernel tier (PR 7): :attr:`CSRGraph.indptr_np` / :attr:`CSRGraph.adj_np`
expose the same two buffers as **zero-copy, read-only** NumPy views, and
:meth:`CSRGraph.scipy_csr` builds a cached ``scipy.sparse.csr_matrix`` from
them in the types ``scipy.sparse.csgraph`` works in (``int32`` indices,
``float64`` data -- a copy, not a view), the input of every compiled BFS.
Because the views and the matrix live on the snapshot, the existing
``Graph.version`` contract is exactly their invalidation rule: a mutation
drops the cached snapshot, and the next ``Graph.csr()`` call yields a fresh
one with fresh views, while views held from the old snapshot keep showing
the old topology.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import TYPE_CHECKING, Iterator, List, Tuple

from ..kernels import require_numpy, use_numpy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import Edge, Graph


class CSRGraph:
    """Immutable CSR adjacency snapshot of an undirected simple graph.

    Attributes
    ----------
    indptr:
        ``array('q')`` of length ``n + 1``; row ``v`` spans
        ``adj[indptr[v]:indptr[v + 1]]``.
    adj:
        ``array('q')`` of length ``2m`` holding all neighbour lists
        back-to-back, each row sorted ascending.
    """

    __slots__ = ("indptr", "adj", "_n", "_m", "_rows", "_np_views", "_scipy")

    def __init__(self, indptr: array, adj: array) -> None:
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(adj):
            raise ValueError("malformed CSR: indptr must start at 0 and end at len(adj)")
        self.indptr = indptr
        self.adj = adj
        self._n = len(indptr) - 1
        self._m = len(adj) // 2
        # Per-row tuples are the fastest pure-Python iteration surface; they
        # are materialized lazily because not every consumer needs them.
        self._rows: List[Tuple[int, ...]] = []
        # Lazy derived handles of the vectorized tier: zero-copy NumPy views
        # of the two buffers and the csgraph-native scipy.sparse matrix.
        self._np_views = None
        self._scipy = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Snapshot ``graph``'s current adjacency into flat arrays.

        On the vectorized tier the per-vertex sets are flattened in one
        ``numpy.fromiter`` pass and every row is sorted at once by one sort
        of the key ``row * n + col`` (``int32`` when ``n * n`` fits); the
        buffers are byte-identical to the pure-Python assembly's.
        """
        n = graph.num_vertices
        indptr = array("q", bytes(8 * (n + 1)))
        if use_numpy(n):
            return cls._from_graph_numpy(graph, indptr)
        adj = array("q")
        extend = adj.extend
        adjacency = graph._adj
        for v in range(n):
            extend(sorted(adjacency[v]))
            indptr[v + 1] = len(adj)
        return cls(indptr, adj)

    @classmethod
    def _from_graph_numpy(cls, graph: "Graph", indptr: array) -> "CSRGraph":
        np = require_numpy()
        n = graph.num_vertices
        adjacency = graph._adj
        indptr_np = np.frombuffer(indptr, dtype=np.int64)
        degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
        np.cumsum(degrees, out=indptr_np[1:])
        total = int(indptr_np[-1])
        key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        key = np.fromiter(chain.from_iterable(adjacency), dtype=key_type, count=total)
        key += np.repeat(np.arange(n, dtype=key_type) * n, degrees)
        key.sort()
        adj = array("q", [0]) * total  # no zero-bytes staging copy
        if total:
            np.remainder(key, n, out=np.frombuffer(adj, dtype=np.int64))
        return cls(indptr, adj)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of ``v`` as an immutable tuple."""
        return self.rows()[v]

    def rows(self) -> List[Tuple[int, ...]]:
        """All neighbour rows as a list of sorted tuples (built once, cached).

        This is the iteration surface the BFS kernels use: indexing a list of
        tuples is measurably faster in CPython than slicing the flat array on
        every visit, while the flat ``indptr``/``adj`` pair remains the
        canonical storage.
        """
        if not self._rows and self._n:
            indptr, adj = self.indptr, self.adj
            tup = tuple
            self._rows = [
                tup(adj[indptr[v] : indptr[v + 1]]) for v in range(self._n)
            ]
        return self._rows

    # ------------------------------------------------------------------
    # Vectorized tier: zero-copy NumPy views and the scipy CSR matrix
    # ------------------------------------------------------------------
    def _numpy_views(self):
        views = self._np_views
        if views is None:
            np = require_numpy()
            if len(self.adj):
                adj_np = np.frombuffer(self.adj, dtype=np.int64)
            else:
                adj_np = np.empty(0, dtype=np.int64)
            indptr_np = np.frombuffer(self.indptr, dtype=np.int64)
            # The views share the snapshot's memory; freeze them so no
            # vectorized kernel can mutate an "immutable" snapshot.
            indptr_np.flags.writeable = False
            adj_np.flags.writeable = False
            views = self._np_views = (indptr_np, adj_np)
        return views

    @property
    def indptr_np(self):
        """``indptr`` as a zero-copy, read-only ``numpy.int64`` view."""
        return self._numpy_views()[0]

    @property
    def adj_np(self):
        """``adj`` as a zero-copy, read-only ``numpy.int64`` view."""
        return self._numpy_views()[1]

    def scipy_csr(self):
        """The snapshot as a cached, csgraph-native ``scipy.sparse.csr_matrix``.

        The n x n matrix carries ``float64`` unit data and ``int32``
        ``indptr``/``indices`` copies of the snapshot's buffers (``int64``
        only when the graph is too large for ``int32``): the types
        ``scipy.sparse.csgraph`` works in, so a compiled BFS over it converts
        nothing per call.  It is built in O(m) on first use and then cached.
        Unlike :attr:`indptr_np`/:attr:`adj_np` it is *not* zero-copy.  Like
        every derived view it is invalidated through the ``Graph.version``
        contract: mutations drop the graph's cached snapshot, and the next
        ``Graph.csr()`` hands out a fresh snapshot with a fresh matrix, while
        a held handle keeps showing the topology at snapshot time.
        """
        matrix = self._scipy
        if matrix is None:
            from ..kernels import require_scipy_sparse

            np = require_numpy()
            sparse = require_scipy_sparse()
            indptr_np, adj_np = self._numpy_views()
            fits = max(self._n, len(self.adj)) <= np.iinfo(np.int32).max
            index_type = np.int32 if fits else np.int64
            # Assembled attribute-wise: rows are sorted and duplicate-free by
            # CSRGraph construction, so the validating constructor's checks
            # (and its copies) are redundant.
            matrix = sparse.csr_matrix((self._n, self._n), dtype=np.float64)
            matrix.data = np.ones(len(self.adj), dtype=np.float64)
            matrix.indices = adj_np.astype(index_type)
            matrix.indptr = indptr_np.astype(index_type)
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            self._scipy = matrix
        return matrix

    def edges(self) -> Iterator["Edge"]:
        """Iterate all undirected edges in canonical ``(min, max)`` form."""
        indptr, adj = self.indptr, self.adj
        for u in range(self._n):
            for i in range(indptr[u], indptr[u + 1]):
                v = adj[i]
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``u``'s sorted row."""
        indptr, adj = self.indptr, self.adj
        lo, hi = indptr[u], indptr[u + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            w = adj[mid]
            if w == v:
                return True
            if w < v:
                lo = mid + 1
            else:
                hi = mid
        return False

    def __repr__(self) -> str:
        return f"CSRGraph(n={self._n}, m={self._m})"
