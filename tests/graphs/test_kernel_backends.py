"""Backend-equivalence property tests for the vectorized kernel tier (PR 7).

The pure-Python and NumPy/SciPy kernels must produce **identical values** --
not merely statistically equivalent ones -- because golden protocol counters
and spanner digests are diffed bit-for-bit across snapshots.  These tests pin
that contract on random workloads: every public kernel entry point (BFS
distances, distance vectors/histograms, cluster-table bulk queries, stretch
reports, the centralized exploration/trace-back pair and its one-sweep-per-
component shortcut, the multi-source forest and ruling-set sweeps, CSR
assembly, and a whole engine build) is run under both backends and the
results compared with plain ``==``.

Also covered here: the :mod:`repro.kernels` selector rules, the zero-copy
NumPy/SciPy CSR views and their invalidation through the ``Graph.version``
contract, and the :class:`DistanceCache` backend-switch behaviour.
"""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.analysis.stretch import empirical_additive_term, evaluate_stretch
from repro.core import build_spanner
from repro.experiments import default_parameters
from repro.core.cluster_table import (
    FlatClusters,
    flat_collections_partition_vertices,
)
from repro.core.parameters import StretchGuarantee
from repro.core.superclustering import deterministic_forest
from repro.graphs import CSRGraph, Graph, gnp_random_graph, grid_graph, path_graph
from repro.graphs.bfs import bfs, bfs_distances
from repro.graphs.distances import distance_histogram, single_source_distances
from repro.primitives import exploration as exploration_module
from repro.primitives.exploration import centralized_engine_exploration
from repro.primitives.ruling_set import centralized_ruling_set
from repro.primitives.traceback import centralized_traceback_flat

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy/scipy not installed"
)

INF = float("inf")


@pytest.fixture()
def kernel(monkeypatch):
    """Switch kernel modes for one test; globals restored afterwards."""
    monkeypatch.setattr(kernels, "_requested", None)
    monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)

    def switch(mode):
        monkeypatch.setattr(kernels, "_requested", mode)

    return switch


def both_backends(kernel, fn):
    """Run ``fn`` under the pure-Python and the numpy kernel; return both."""
    kernel(kernels.KERNEL_PYTHON)
    python_result = fn()
    kernel(kernels.KERNEL_NUMPY)
    numpy_result = fn()
    return python_result, numpy_result


def workload(n, p, seed):
    return gnp_random_graph(n, p, seed=seed)


def voronoi_clusters(graph, centers):
    """Nearest-reachable-center partition (unreached vertices go singleton)."""
    dist = {c: bfs_distances(graph, c) for c in centers}
    vertex_center = {}
    for v in range(graph.num_vertices):
        best = min(
            ((dist[c].get(v, INF), c) for c in centers), key=lambda t: (t[0], t[1])
        )
        vertex_center[v] = best[1] if best[0] < INF else v
    return FlatClusters.from_center_map(graph.num_vertices, vertex_center)


# ----------------------------------------------------------------------
# BFS / distance kernels
# ----------------------------------------------------------------------
class TestBFSEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_depth", [None, 3, 0, 1])
    def test_bfs_distances_match(self, kernel, seed, max_depth):
        graph = workload(90, 0.03, seed)  # sparse enough to leave stragglers
        for source in (0, 7, 41):
            py, np_ = both_backends(
                kernel,
                lambda s=source: bfs_distances(graph, s, max_depth=max_depth),
            )
            assert py == np_
            assert all(type(d) is int for d in np_.values())

    @pytest.mark.parametrize("seed", [0, 3])
    def test_single_source_vectors_match(self, kernel, seed):
        graph = workload(70, 0.05, seed)
        for source in (0, 13, 69):
            py, np_ = both_backends(
                kernel, lambda s=source: list(single_source_distances(graph, s))
            )
            assert py == np_

    def test_distance_histogram_matches(self, kernel):
        graph = workload(60, 0.06, seed=4)
        py, np_ = both_backends(
            kernel, lambda: distance_histogram(graph, max_sources=20, seed=1)
        )
        assert py == np_


# ----------------------------------------------------------------------
# Cluster-table bulk queries
# ----------------------------------------------------------------------
class TestClusterEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bulk_queries_match(self, kernel, seed):
        graph = workload(80, 0.05, seed)
        snapshot = voronoi_clusters(graph, centers=[0, 11, 37, 62])

        def query():
            return {
                "vertex_to_center": snapshot.vertex_to_center(),
                "max_radius": snapshot.max_radius_in(graph),
                "radii": [h.radius_in(graph) for h in snapshot],
                "summary": snapshot.summary(),
                "partition": flat_collections_partition_vertices(
                    [snapshot], graph.num_vertices
                ),
            }

        py, np_ = both_backends(kernel, query)
        assert py == np_
        assert py["partition"] is True

    def test_unreachable_member_raises_the_same_error(self, kernel):
        # Two components: the cluster centered at 0 claims vertex 5 of the other.
        graph = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        snapshot = FlatClusters.from_center_map(
            8, {0: 0, 1: 0, 5: 0, 2: 2, 3: 2, 4: 4, 6: 4, 7: 7}
        )

        def errors():
            messages = []
            for query in (snapshot.max_radius_in, snapshot.by_center(0).radius_in):
                with pytest.raises(ValueError) as info:
                    query(graph)
                messages.append(str(info.value))
            return messages

        py, np_ = both_backends(kernel, errors)
        assert py == np_
        assert py[0] == "vertex 5 of the cluster centered at 0 is unreachable"

    def test_partition_check_rejects_overlap_on_both_backends(self, kernel):
        n = 40
        full = FlatClusters.from_center_map(n, {v: 0 for v in range(n)})
        extra = FlatClusters.from_center_map(n, {0: 0})
        py, np_ = both_backends(
            kernel, lambda: flat_collections_partition_vertices([full, extra], n)
        )
        assert py is False and np_ is False


# ----------------------------------------------------------------------
# Stretch evaluation
# ----------------------------------------------------------------------
class TestStretchEquivalence:
    @pytest.mark.parametrize("seed", [1, 6])
    def test_reports_match_exactly(self, kernel, seed):
        graph = workload(70, 0.07, seed)
        spanner = build_spanner(
            graph, parameters=default_parameters(), engine="centralized"
        ).spanner
        # A deliberately unsatisfiable guarantee so violations are exercised.
        guarantee = StretchGuarantee(multiplicative=1.0, additive=0.0)

        def run():
            fresh = evaluate_stretch(graph, spanner, guarantee=guarantee)
            return {
                "checked": fresh.pairs_checked,
                "max_mult": fresh.max_multiplicative,
                "max_add": fresh.max_additive_surplus,
                "mean_mult": fresh.mean_multiplicative,
                "mean_add": fresh.mean_additive_surplus,
                "violations": fresh.violations,
                "disconnected": fresh.disconnected_mismatches,
                "surplus": fresh.surplus_by_distance,
            }

        py, np_ = both_backends(kernel, run)
        assert py == np_

    def test_empirical_additive_term_matches(self, kernel):
        graph = workload(60, 0.08, seed=2)
        spanner = build_spanner(
            graph, parameters=default_parameters(), engine="centralized"
        ).spanner
        py, np_ = both_backends(
            kernel, lambda: empirical_additive_term(graph, spanner, 1.0)
        )
        assert py == np_


# ----------------------------------------------------------------------
# Centralized exploration + trace-back
# ----------------------------------------------------------------------
class TestExplorationEquivalence:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_exploration_and_traceback_match(self, kernel, depth):
        graph = workload(80, 0.06, seed=3)
        centers = [0, 9, 25, 44, 71]
        requests = {0: [25, 44], 9: [0], 44: [71]}

        def run():
            exploration = centralized_engine_exploration(
                graph, centers, depth=depth, cap=10
            )
            near = {c: list(v) for c, v in exploration.near_centers.items()}
            parents = {c: list(v) for c, v in exploration.parents.items()}
            reachable = {
                c: [t for t in targets if t in near[c]]
                for c, targets in requests.items()
            }
            edges = centralized_traceback_flat(exploration, reachable)
            return near, parents, sorted(edges)

        py, np_ = both_backends(kernel, run)
        assert py == np_
        # The trace-back edges feed JSON digests: no numpy scalars may leak.
        for edge in np_[2]:
            assert all(type(endpoint) is int for endpoint in edge)


    @staticmethod
    def explore(graph, centers, depth):
        exploration = centralized_engine_exploration(graph, centers, depth=depth, cap=3)
        return (
            {c: list(v) for c, v in exploration.near_centers.items()},
            {c: list(v) for c, v in exploration.parents.items()},
            exploration.popular,
        )

    @pytest.mark.parametrize("depth_kind", ["2", "3", "eccentricity", "beyond"])
    def test_parents_match_around_the_eccentricity(self, kernel, depth_kind):
        graph = workload(120, 0.03, seed=7)
        centers = [0, 9, 25, 44, 71, 118]
        eccentricity = max(bfs_distances(graph, centers[0]).values())
        depth = {
            "2": 2,
            "3": 3,
            "eccentricity": eccentricity,
            "beyond": eccentricity + 5,
        }[depth_kind]
        py, np_ = both_backends(kernel, lambda: self.explore(graph, centers, depth))
        assert py == np_
        # The first center's ball is cut exactly at (or past) its last level.
        if depth_kind in ("eccentricity", "beyond"):
            reached = {v for v, p in enumerate(np_[1][centers[0]]) if p >= 0}
            assert reached == set(bfs_distances(graph, centers[0]))

    def test_disconnected_graph_with_an_isolated_center(self, kernel):
        graph = Graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8)])
        centers = [0, 2, 4, 6, 8]  # vertex 4 is isolated
        py, np_ = both_backends(kernel, lambda: self.explore(graph, centers, 3))
        assert py == np_
        near, parents, _ = np_
        assert near[4] == [] and near[6] == [8]
        assert [p for p in parents[4] if p >= 0] == [4]

    def test_edgeless_graph(self, kernel):
        graph = Graph(10)
        py, np_ = both_backends(kernel, lambda: self.explore(graph, [1, 5, 9], 4))
        assert py == np_
        near, parents, popular = np_
        assert all(not near[c] for c in (1, 5, 9)) and not popular
        assert parents[5] == [5 if v == 5 else -1 for v in range(10)]


def eager_parents(graph, centers, depth):
    """Reference parent arrays: one sorted-neighbour BFS per center, cut at ``depth``."""
    arrays = {}
    for center in centers:
        parent = bfs(graph, center, max_depth=depth).parent
        arrays[center] = [
            center if v == center else (-1 if p is None else p)
            for v, p in enumerate(parent)
        ]
    return arrays


def near_reference(graph, centers, depth):
    near = {}
    for center in centers:
        ball = bfs_distances(graph, center, max_depth=depth)
        near[center] = [c for c in sorted(centers) if c != center and c in ball]
    return near


@pytest.fixture()
def sweeps(monkeypatch):
    """Count the BFS sweeps of ``centralized_engine_exploration`` on either backend."""
    counts = {"sweeps": 0}

    def counted(func):
        def wrapper(*args, **kwargs):
            counts["sweeps"] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in ("compiled_bfs", "_python_component", "_python_parents"):
        monkeypatch.setattr(
            exploration_module, name, counted(getattr(exploration_module, name))
        )
    return counts


class TestExplorationShortcut:
    """One sweep per component; per-center sweeps only where the test fails.

    On ``path_graph(20)`` the smallest center 0 has eccentricity 19, so a
    center ``c`` provably sees the whole path iff ``c + 19 <= depth``.
    """

    CENTERS = [0, 5, 10, 15, 19]

    @pytest.mark.parametrize(
        "depth,fallbacks",
        [(40, 0), (25, 3), (10, len(CENTERS))],
        ids=["all-pass", "some-fall-back", "none-pass"],
    )
    def test_near_centers_and_sweep_counts(self, kernel, sweeps, depth, fallbacks):
        graph = path_graph(20)

        def run():
            before = sweeps["sweeps"]
            exploration = centralized_engine_exploration(
                graph, self.CENTERS, depth=depth, cap=2
            )
            near = {c: list(v) for c, v in exploration.near_centers.items()}
            return near, exploration.popular, sweeps["sweeps"] - before

        py, np_ = both_backends(kernel, run)
        assert py == np_
        near, _, swept = np_
        assert near == near_reference(graph, self.CENTERS, depth)
        assert swept == 1 + fallbacks

    def test_components_with_centers_and_an_isolated_center(self, kernel, sweeps):
        # Components {0..5} (a path), {6..11} (a cycle) and the isolated 12.
        edges = [(v, v + 1) for v in range(5)]
        edges += [(v, v + 1) for v in range(6, 11)] + [(11, 6)]
        graph = Graph(14, edges)
        centers = [1, 4, 6, 9, 12]

        def run():
            before = sweeps["sweeps"]
            exploration = centralized_engine_exploration(graph, centers, depth=8, cap=1)
            near = {c: list(v) for c, v in exploration.near_centers.items()}
            lazy = sweeps["sweeps"] - before
            parents = {c: list(v) for c, v in exploration.parents.items()}
            return near, exploration.popular, lazy, parents

        py, np_ = both_backends(kernel, run)
        assert py == np_
        near, popular, lazy, parents = np_
        assert near == near_reference(graph, centers, 8)
        assert near[12] == [] and popular == {1, 4, 6, 9}
        assert lazy == 3  # one sweep per component, none per center
        assert parents == eager_parents(graph, centers, 8)

    @pytest.mark.parametrize("depth", [2, 3, 6])
    def test_lazy_parents_equal_the_eager_arrays(self, kernel, sweeps, depth):
        graph = workload(120, 0.03, seed=7)
        centers = [0, 9, 25, 44, 71, 118]

        def run():
            exploration = centralized_engine_exploration(graph, centers, depth=depth, cap=3)
            parents = exploration.parents
            assert list(parents) == centers and len(parents) == len(centers)
            assert 9 in parents and 10 not in parents
            with pytest.raises(KeyError):
                parents[10]
            before = sweeps["sweeps"]
            first = parents[9]
            assert parents[9] is first  # swept once, then cached
            assert sweeps["sweeps"] - before <= 1
            return {c: list(v) for c, v in dict(parents.items()).items()}

        py, np_ = both_backends(kernel, run)
        assert py == np_ == eager_parents(graph, centers, depth)

    def test_parents_describe_the_snapshot_taken_at_exploration_time(self, kernel):
        graph = path_graph(6)

        def run():
            exploration = centralized_engine_exploration(graph.copy(), [0, 5], depth=9, cap=1)
            return {c: list(v) for c, v in exploration.parents.items()}

        def run_mutated():
            copy = graph.copy()
            exploration = centralized_engine_exploration(copy, [0, 5], depth=9, cap=1)
            copy.add_edge(0, 5)
            return {c: list(v) for c, v in exploration.parents.items()}

        assert both_backends(kernel, run) == both_backends(kernel, run_mutated)


class TestMultiSourceSweeps:
    def test_forest_orders_each_level_by_root_then_vertex(self, kernel):
        # Level 1 is discovered as [3, 8, 10] (root 0) and [5] (root 1);
        # vertex 7 is touched by 10 (root 0) and 5 (root 1) and must pick
        # root 0.  Level 2 is discovered as [20, 15, 7] but expands as
        # [7, 15, 20], so 30 -- touched by 20 and 15 -- takes parent 15.
        edges = [(0, 10), (1, 5), (10, 7), (5, 7), (0, 3), (0, 8), (3, 20), (8, 15)]
        graph = Graph(31, edges + [(20, 30), (15, 30)])
        py, np_ = both_backends(kernel, lambda: deterministic_forest(graph, [1, 0], 5))
        assert py == np_
        root, dist, parent = np_
        assert (root[7], parent[7], dist[7]) == (0, 10, 2)
        assert (root[30], parent[30], dist[30]) == (0, 15, 3)
        assert root[29] is None and dist[29] is None and parent[0] is None

    @pytest.mark.parametrize("depth", [1, 2, 4, 30])
    def test_forest_ties_between_roots_match(self, kernel, depth):
        grid = grid_graph(7, 7)
        sources = [0, 6, 24, 42, 48, 17]
        py, np_ = both_backends(kernel, lambda: deterministic_forest(grid, sources, depth))
        assert py == np_
        assert all(type(x) is int for x in np_[0] if x is not None)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forest_on_a_disconnected_random_graph(self, kernel, seed):
        graph = workload(90, 0.03, seed)
        py, np_ = both_backends(kernel, lambda: deterministic_forest(graph, [3, 40, 77], 6))
        assert py == np_

    @pytest.mark.parametrize("seed,q,c", [(0, 1, 2), (1, 2, 2), (2, 3, 3), (3, 6, 2)])
    def test_ruling_set_matches(self, kernel, seed, q, c):
        graph = workload(80, 0.05, seed)
        candidates = list(range(0, 80, 3))

        def run():
            result = centralized_ruling_set(graph, candidates, q=q, c=c)
            return sorted(result.ruling_set), result.nominal_rounds

        py, np_ = both_backends(kernel, run)
        assert py == np_

    def test_bad_inputs_raise_the_same_errors(self, kernel):
        graph = path_graph(5)

        def errors():
            messages = []
            for call in (
                lambda: deterministic_forest(graph, [-1], 2),
                lambda: deterministic_forest(graph, [5], 2),
                lambda: centralized_ruling_set(graph, [7], q=2, c=2),
            ):
                with pytest.raises(ValueError) as info:
                    call()
                messages.append(str(info.value))
            return messages

        py, np_ = both_backends(kernel, errors)
        assert py == np_


class TestCSRAssembly:
    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0),
            Graph(6),
            Graph(9, [(1, 2), (2, 7), (7, 1), (4, 8)]),
            workload(70, 0.08, seed=2),
        ],
        ids=["n0", "edgeless", "isolated-vertices", "gnp"],
    )
    def test_buffers_are_byte_identical(self, kernel, graph):
        def run():
            csr = CSRGraph.from_graph(graph)
            return csr.indptr.typecode, csr.indptr.tobytes(), csr.adj.typecode, csr.adj.tobytes()

        py, np_ = both_backends(kernel, run)
        assert py == np_


class TestEngineEquivalence:
    def test_centralized_build_is_backend_independent(self, kernel):
        graph = workload(150, 0.04, seed=9)

        def run():
            result = build_spanner(
                graph, parameters=default_parameters(), engine="centralized"
            )
            return result.nominal_rounds, sorted(result.spanner.edge_set())

        py, np_ = both_backends(kernel, run)
        assert py == np_


# ----------------------------------------------------------------------
# CSR views and the Graph.version invalidation contract
# ----------------------------------------------------------------------
class TestCSRViews:
    def test_numpy_views_are_zero_copy_and_read_only(self):
        graph = workload(30, 0.2, seed=0)
        csr = graph.csr()
        indptr, adj = csr.indptr_np, csr.adj_np
        assert not indptr.flags.writeable and not adj.flags.writeable
        assert list(indptr) == list(csr.indptr)
        assert list(adj) == list(csr.adj)

    def test_scipy_handle_is_cached_per_snapshot(self):
        csr = workload(30, 0.2, seed=0).csr()
        assert csr.scipy_csr() is csr.scipy_csr()
        # csgraph-native types, so a compiled BFS converts nothing per call.
        matrix = csr.scipy_csr()
        assert matrix.data.dtype.name == "float64"
        assert matrix.indices.dtype.name == matrix.indptr.dtype.name == "int32"
        assert list(matrix.indptr) == list(csr.indptr)
        assert list(matrix.indices) == list(csr.adj)

    def test_graph_version_invalidates_the_scipy_view(self, kernel):
        kernel(kernels.KERNEL_NUMPY)
        graph = gnp_random_graph(20, 0.0, seed=0)
        graph.add_edges([(0, 1), (1, 2)])
        before = graph.csr()
        matrix = before.scipy_csr()
        assert matrix.nnz == 2 * graph.num_edges
        version = graph.version
        assert graph.add_edge(2, 3)
        assert graph.version > version
        after = graph.csr()
        assert after is not before
        fresh = after.scipy_csr()
        assert fresh is not matrix
        assert fresh.nnz == matrix.nnz + 2
        # The stale snapshot keeps its (frozen) pre-mutation view.
        assert matrix.nnz == 4


class TestDistanceCacheBackendSwitch:
    def test_vectors_are_invalidated_on_kernel_switch(self, kernel):
        graph = workload(25, 0.2, seed=1)
        cache = graph.distance_cache()
        kernel(kernels.KERNEL_PYTHON)
        python_vec = cache.vector(0)
        assert isinstance(python_vec, list)
        kernel(kernels.KERNEL_NUMPY)
        numpy_vec = cache.vector(0)
        assert not isinstance(numpy_vec, list)  # ndarray from the fresh sweep
        assert list(python_vec) == list(numpy_vec)
        # Memoized per backend: repeated reads return the same object.
        assert cache.vector(0) is numpy_vec


# ----------------------------------------------------------------------
# Selector rules
# ----------------------------------------------------------------------
class TestKernelSelector:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_kernel("fortran")

    def test_explicit_modes_override_size(self, kernel):
        kernel(kernels.KERNEL_PYTHON)
        assert kernels.active_backend(10**9) == "python"
        assert not kernels.use_numpy(10**9)
        kernel(kernels.KERNEL_NUMPY)
        assert kernels.active_backend(1) == "numpy"
        assert kernels.use_numpy(1)

    def test_auto_threshold(self, kernel):
        kernel(kernels.KERNEL_AUTO)
        assert kernels.active_backend(kernels.AUTO_MIN_VERTICES - 1) == "python"
        assert kernels.active_backend(kernels.AUTO_MIN_VERTICES) == "numpy"
        # The stamping resolution (num_vertices=None) is the large-n answer.
        assert kernels.active_backend() == "numpy"

    def test_env_var_resolution(self, kernel, monkeypatch):
        monkeypatch.setattr(kernels, "_requested", None)
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
        assert kernels.kernel_mode() == "python"
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "not-a-mode")
        assert kernels.kernel_mode() == kernels.KERNEL_AUTO

    def test_small_auto_workloads_never_import_numpy(self):
        # Backend selection (and a whole small-graph build, registry hints
        # included) must not pay the numpy+scipy import: selection uses a
        # find_spec probe, the real import happens at first vectorized use.
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "from repro.kernels import active_backend\n"
            "assert active_backend(100) == 'python'\n"
            "import repro\n"
            "from repro.graphs import gnp_random_graph\n"
            "result = repro.build('new-centralized', gnp_random_graph(40, 0.15, seed=1))\n"
            "assert result.spanner.num_edges > 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported on a small pure-Python workload'\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_csgraph_is_imported_at_the_first_compiled_bfs_only(self):
        # The csgraph import must not land in backend selection, in the numpy
        # tier's own imports, or in a python-backend build.
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "import repro\n"
            "from repro import kernels\n"
            "from repro.graphs import gnp_random_graph\n"
            "kernels.set_kernel('python')\n"
            "kernels.require_numpy()\n"
            "graph = gnp_random_graph(40, 0.15, seed=1)\n"
            "assert repro.build('new-centralized', graph).spanner.num_edges > 0\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules, 'csgraph imported early'\n"
            "kernels.set_kernel('numpy')\n"
            "repro.build('new-centralized', graph)\n"
            "assert 'scipy.sparse.csgraph' in sys.modules\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_set_kernel_mirrors_into_the_environment(self, kernel, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        import os

        kernels.set_kernel("numpy")
        try:
            assert os.environ[kernels.KERNEL_ENV_VAR] == "numpy"
            assert kernels.kernel_mode() == "numpy"
        finally:
            monkeypatch.setattr(kernels, "_requested", None)
