"""Kernel backend selection: pure-Python loops vs NumPy/SciPy vectorized sweeps.

The hot kernels of the reproduction -- BFS frontiers, cluster-table bulk
queries, the stretch evaluator -- exist in two implementations:

* the historical **pure-Python** loops over flat ``array('q')`` buffers (the
  only implementation until PR 7, and still the only one when NumPy is not
  installed); and
* a **vectorized** tier over zero-copy NumPy views of the same CSR buffers
  (``CSRGraph.indptr_np`` / ``adj_np``) whose single-source BFS sweeps run
  on ``scipy.sparse.csgraph``'s compiled BFS over the snapshot's cached
  ``CSRGraph.scipy_csr()`` matrix (``int32`` index copies, ``float64`` data),
  whose multi-source forests (:func:`repro.graphs.bfs.frontier_forest`) are
  whole-array passes over the views, and which assembles the CSR snapshot
  itself with one key sort; it is what pushes the capacity ladder to
  n >= 100k.

This module is the single switch deciding which one runs.  Selection rules:

* ``REPRO_KERNEL`` environment variable or :func:`set_kernel` picks the mode:
  ``python`` (always pure Python), ``numpy`` (always vectorized) or ``auto``
  (the default);
* ``auto`` selects the vectorized tier for graphs with at least
  :data:`AUTO_MIN_VERTICES` vertices and the pure-Python tier below -- small
  graphs (every golden workload, every tier-1 test default) therefore run the
  historical loops bit-for-bit;
* when NumPy/SciPy are missing (they are an *optional* extra:
  ``pip install .[fast]``), every mode silently resolves to ``python``.

Both backends produce **identical values** -- identical BFS distances,
partitions, stretch reports and spanners (the equivalence property tests in
``tests/graphs/test_kernel_backends.py`` pin this on random workloads) -- so
golden protocol counters never depend on the backend.  The switch only moves
wall-clock.

NumPy and SciPy are imported lazily on first use, never at import time, so
the pure-Python tier works on a bare interpreter.  ``scipy.sparse.csgraph``
is imported later still, by the first compiled BFS
(:func:`repro.graphs.bfs.compiled_bfs`), so neither backend selection nor
:func:`require_numpy` pays for it.
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised kernel modes (the ``--kernel`` CLI choices).
KERNEL_PYTHON = "python"
KERNEL_NUMPY = "numpy"
KERNEL_AUTO = "auto"
KERNEL_MODES = (KERNEL_PYTHON, KERNEL_NUMPY, KERNEL_AUTO)

#: Environment override consulted when :func:`set_kernel` was never called
#: (also how ``--kernel`` propagates into experiment worker processes).
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: ``auto`` threshold: graphs with at least this many vertices run the
#: vectorized tier.  The value dates from the level-by-level NumPy sweeps,
#: which reached parity with the CPython loops only around n=24k-32k.  The
#: compiled BFS moved the single-source crossover far lower.  Median time per
#: source of ``graphs.distances.single_source_distances`` on a warm snapshot
#: (imports and the one-time ``scipy_csr()`` build excluded; sparse_gnp,
#: one core of an Intel Xeon):
#:
#:     n      degree 4: python / compiled    degree n^(1/3): python / compiled
#:   2048      0.53 / 0.16 ms   (3.3x)        1.16 / 0.21 ms   (5.6x)
#:   8192      2.31 / 0.55 ms   (4.2x)        8.39 / 0.83 ms  (10.1x)
#:  16384      5.78 / 1.05 ms   (5.5x)        29.1 / 1.94 ms  (15.0x)
#:  32768      15.6 / 2.29 ms   (6.8x)        71.1 / 5.32 ms  (13.4x)
#:
#: Parity is now near n=128-256.  The threshold stays at 32768 for now:
#: lowering it would switch every workload between those sizes to the
#: vectorized tier (and its ~0.3 s numpy+scipy import), a change of its own.
AUTO_MIN_VERTICES = 32768

_requested: Optional[str] = None
_numpy_modules: Optional[tuple] = None
_numpy_failed = False
_numpy_installed: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the vectorized tier can run (NumPy *and* SciPy import)."""
    return _modules() is not None


def _installed() -> bool:
    """Cheap installability probe: ``find_spec`` only, no module execution.

    Backend *selection* must not pay the several-hundred-ms numpy+scipy
    import (it runs at algorithm-registry import time and on every small
    pure-Python workload); the real import happens in :func:`require_numpy`
    at first vectorized use.  A package that is installed but broken
    therefore surfaces as a ``require_numpy`` error instead of a silent
    pure-Python fallback.
    """
    global _numpy_installed
    if _numpy_modules is not None:
        return True
    if _numpy_failed:
        return False
    if _numpy_installed is None:
        import importlib.util

        try:
            _numpy_installed = (
                importlib.util.find_spec("numpy") is not None
                and importlib.util.find_spec("scipy") is not None
            )
        except (ImportError, ValueError):
            _numpy_installed = False
    return _numpy_installed


def _modules() -> Optional[tuple]:
    """Lazily import (numpy, scipy.sparse); ``None`` when either is missing."""
    global _numpy_modules, _numpy_failed
    if _numpy_modules is None and not _numpy_failed:
        try:
            import numpy
            import scipy.sparse
        except ImportError:
            _numpy_failed = True
        else:
            _numpy_modules = (numpy, scipy.sparse)
    return _numpy_modules


def require_numpy():
    """The ``numpy`` module (the vectorized kernels' single import point)."""
    modules = _modules()
    if modules is None:
        raise RuntimeError(
            "the vectorized kernel tier needs numpy+scipy "
            "(pip install 'repro-near-additive-spanners[fast]')"
        )
    return modules[0]


def require_scipy_sparse():
    """The ``scipy.sparse`` module (for the CSR matrix handle)."""
    modules = _modules()
    if modules is None:
        raise RuntimeError(
            "the scipy CSR handle needs numpy+scipy "
            "(pip install 'repro-near-additive-spanners[fast]')"
        )
    return modules[1]


def set_kernel(mode: str) -> None:
    """Select the kernel mode for this process and its worker children.

    The mode is mirrored into :data:`KERNEL_ENV_VAR` so experiment pipelines
    spawning ``ProcessPoolExecutor`` workers resolve the same backend (task
    results are backend-independent, but A/B wall-clock runs should not mix
    tiers mid-suite).
    """
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; choose from {KERNEL_MODES}")
    global _requested
    _requested = mode
    os.environ[KERNEL_ENV_VAR] = mode


def kernel_mode() -> str:
    """The requested mode: :func:`set_kernel` value, else env var, else auto."""
    if _requested is not None:
        return _requested
    env = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    return env if env in KERNEL_MODES else KERNEL_AUTO


def active_backend(num_vertices: Optional[int] = None) -> str:
    """Resolve the backend (``python`` or ``numpy``) for a workload size.

    ``num_vertices=None`` asks for the large-``n`` resolution (what ``auto``
    picks once past the threshold) -- the value capacity ladders and bench
    snapshots stamp.
    """
    mode = kernel_mode()
    if mode == KERNEL_PYTHON:
        return KERNEL_PYTHON
    if (
        mode == KERNEL_AUTO
        and num_vertices is not None
        and num_vertices < AUTO_MIN_VERTICES
    ):
        # Decided by size alone -- must not touch the import machinery.
        return KERNEL_PYTHON
    return KERNEL_NUMPY if _installed() else KERNEL_PYTHON


def use_numpy(num_vertices: int) -> bool:
    """Whether the vectorized tier handles a graph of ``num_vertices``."""
    return active_backend(num_vertices) == KERNEL_NUMPY
