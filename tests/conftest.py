"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.parameters import SpannerParameters
from repro.graphs import (
    Graph,
    clustered_path_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
)


@pytest.fixture
def empty_graph_5():
    """Five isolated vertices."""
    return Graph(5)


@pytest.fixture
def triangle():
    """The triangle K_3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_6():
    """A path on six vertices."""
    return path_graph(6)


@pytest.fixture
def cycle_8():
    """A cycle on eight vertices."""
    return cycle_graph(8)


@pytest.fixture
def grid_5x5():
    """A 5x5 grid."""
    return grid_graph(5, 5)


@pytest.fixture
def small_random():
    """A small, fixed random graph (likely disconnected into a few pieces)."""
    return gnp_random_graph(40, 0.08, seed=4)


@pytest.fixture
def medium_random():
    """A medium random graph used by the engine tests."""
    return gnp_random_graph(90, 0.06, seed=11)


@pytest.fixture
def community_graph():
    """A planted-community graph with many popular centers."""
    return planted_partition_graph(6, 10, p_intra=0.6, p_inter=0.03, seed=2)


@pytest.fixture
def long_cluster_graph():
    """Dense clusters along a path: large diameter plus dense local structure."""
    return clustered_path_graph(8, 8)


@pytest.fixture
def default_params():
    """The standard internal-epsilon parameter setting used across the tests."""
    return SpannerParameters.from_internal_epsilon(0.25, kappa=3, rho=1.0 / 3.0)


@pytest.fixture
def tight_params():
    """A second parameter setting with two phases only (kappa=2, rho=1/2)."""
    return SpannerParameters.from_internal_epsilon(0.5, kappa=2, rho=0.5)


GRAPH_FAMILY_FIXTURES = [
    "triangle",
    "path_6",
    "cycle_8",
    "grid_5x5",
    "small_random",
    "community_graph",
    "long_cluster_graph",
]


@pytest.fixture(params=GRAPH_FAMILY_FIXTURES)
def any_graph(request):
    """Parametrized fixture cycling over the main graph families."""
    return request.getfixturevalue(request.param)
