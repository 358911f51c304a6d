"""Tests for the deterministic digit-by-digit ruling set (Theorem 2.2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Simulator
from repro.graphs import complete_graph, gnp_random_graph, path_graph
from repro.primitives import (
    centralized_ruling_set,
    id_digits,
    run_ruling_set,
    verify_ruling_set,
)


class TestDigits:
    def test_id_digits_base10(self):
        assert id_digits(123, base=10, num_digits=3) == (1, 2, 3)

    def test_id_digits_pads_with_zeros(self):
        assert id_digits(7, base=10, num_digits=3) == (0, 0, 7)

    def test_id_digits_base2(self):
        assert id_digits(5, base=2, num_digits=4) == (0, 1, 0, 1)

    def test_small_base_clamped(self):
        assert id_digits(3, base=1, num_digits=2) == (1, 1)


class TestGuarantees:
    @pytest.mark.parametrize("q,c", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_properties_on_random_graph(self, q, c):
        graph = gnp_random_graph(45, 0.08, seed=q * 10 + c)
        candidates = list(range(0, 45, 2))
        result = centralized_ruling_set(graph, candidates, q=q, c=c)
        violations = verify_ruling_set(
            graph, candidates, result.ruling_set, result.separation, result.domination_radius
        )
        assert violations == []

    def test_nonempty_whenever_candidates_exist(self, cycle_8):
        result = centralized_ruling_set(cycle_8, [1, 4, 6], q=2, c=2)
        assert result.ruling_set
        assert result.ruling_set <= {1, 4, 6}

    def test_empty_candidates_give_empty_set(self, path_6):
        result = centralized_ruling_set(path_6, [], q=2, c=2)
        assert result.ruling_set == set()

    def test_far_apart_candidates_all_survive(self):
        graph = path_graph(30)
        candidates = [0, 10, 20, 29]
        result = centralized_ruling_set(graph, candidates, q=3, c=2)
        assert result.ruling_set == set(candidates)

    def test_clique_keeps_exactly_one(self):
        graph = complete_graph(12)
        result = centralized_ruling_set(graph, range(12), q=2, c=2)
        assert len(result.ruling_set) == 1

    def test_separation_exact_on_path(self):
        graph = path_graph(20)
        result = centralized_ruling_set(graph, range(20), q=4, c=2)
        members = sorted(result.ruling_set)
        for a, b in zip(members, members[1:]):
            assert b - a >= 5  # separation q+1


class TestDistributedMatchesCentralized:
    @pytest.mark.parametrize(
        "candidates,q,c,message",
        [
            ([1, 7], 2, 2, "candidate 7 out of range"),
            ([-1, 2], 2, 2, "candidate -1 out of range"),
            ([7], 0, 2, "candidate 7 out of range"),
            ([1], 0, 2, "q must be >= 1"),
            ([1], 2, 0, "c must be >= 1"),
        ],
    )
    def test_both_engines_reject_bad_input_alike(self, candidates, q, c, message):
        graph = path_graph(5)
        with pytest.raises(ValueError) as centralized:
            centralized_ruling_set(graph, candidates, q=q, c=c)
        with pytest.raises(ValueError) as distributed:
            run_ruling_set(Simulator(graph), candidates, q=q, c=c)
        assert str(centralized.value) == str(distributed.value) == message

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_output(self, seed):
        graph = gnp_random_graph(35, 0.1, seed=seed)
        candidates = list(range(0, 35, 3))
        sim = Simulator(graph, strict_congestion=True)
        distributed = run_ruling_set(sim, candidates, q=2, c=2)
        centralized = centralized_ruling_set(graph, candidates, q=2, c=2)
        assert distributed.ruling_set == centralized.ruling_set

    def test_distributed_guarantees(self, community_graph):
        candidates = list(range(0, community_graph.num_vertices, 2))
        sim = Simulator(community_graph, strict_congestion=True)
        result = run_ruling_set(sim, candidates, q=3, c=3)
        assert verify_ruling_set(
            community_graph, candidates, result.ruling_set, result.separation, result.domination_radius
        ) == []

    def test_nominal_rounds_schedule(self, grid_5x5):
        sim = Simulator(grid_5x5)
        result = run_ruling_set(sim, range(0, 25, 2), q=2, c=2)
        base = max(2, math.ceil(25 ** 0.5))
        assert result.nominal_rounds == 2 * base * 2
        assert sim.ledger.nominal_rounds == result.nominal_rounds

    def test_invalid_parameters_rejected(self, path_6):
        sim = Simulator(path_6)
        with pytest.raises(ValueError):
            run_ruling_set(sim, [0], q=0, c=1)
        with pytest.raises(ValueError):
            run_ruling_set(sim, [0], q=1, c=0)
        with pytest.raises(ValueError):
            run_ruling_set(sim, [42], q=1, c=1)


class TestVerifier:
    def test_verifier_flags_non_candidates(self, path_6):
        violations = verify_ruling_set(path_6, [0, 1], {5}, separation=2, domination_radius=2)
        assert any("non-candidates" in v for v in violations)

    def test_verifier_flags_separation_violation(self, path_6):
        violations = verify_ruling_set(path_6, [0, 1, 2], {0, 1}, separation=3, domination_radius=5)
        assert any("distance" in v for v in violations)

    def test_verifier_flags_missing_domination(self, path_6):
        violations = verify_ruling_set(path_6, [0, 5], {0}, separation=2, domination_radius=2)
        assert any("not dominated" in v for v in violations)

    def test_verifier_flags_empty_set_with_candidates(self, path_6):
        violations = verify_ruling_set(path_6, [0], set(), separation=2, domination_radius=2)
        assert violations


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=32),
    p=st.floats(min_value=0.05, max_value=0.4),
    q=st.integers(min_value=1, max_value=4),
    c=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_ruling_set_properties_hypothesis(n, p, q, c, seed):
    """Property-based check of Theorem 2.2 over random graphs and parameters."""
    graph = gnp_random_graph(n, p, seed=seed)
    candidates = [v for v in range(n) if v % 2 == seed % 2]
    result = centralized_ruling_set(graph, candidates, q=q, c=c)
    assert verify_ruling_set(
        graph, candidates, result.ruling_set, result.separation, result.domination_radius
    ) == []
