"""Tests for the auxiliary binary workloads (OneMax, MaxSat, UBQP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mappings import mapping_for
from repro.problems import (
    LeadingOnes,
    MaxSat,
    OneMax,
    UBQP,
    generate_random_ksat,
)
from repro.problems.base import as_solution, flip_bits


class TestSolutionHelpers:
    def test_as_solution_validates_length(self):
        with pytest.raises(ValueError):
            as_solution([0, 1, 0], n=4)

    def test_as_solution_validates_domain(self):
        with pytest.raises(ValueError):
            as_solution([0, 2, 0])

    def test_flip_bits_copies(self):
        x = np.array([0, 0, 1, 1], dtype=np.int8)
        y = flip_bits(x, (0, 3))
        assert np.array_equal(y, [1, 0, 1, 0])
        assert np.array_equal(x, [0, 0, 1, 1])


class TestOneMax:
    def test_extremes(self):
        p = OneMax(10)
        assert p.evaluate(np.ones(10, dtype=np.int8)) == 0
        assert p.evaluate(np.zeros(10, dtype=np.int8)) == 10
        assert p.is_solution(0) and not p.is_solution(1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            OneMax(0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_neighborhood_matches_bruteforce(self, k):
        p = OneMax(12)
        bits = p.random_solution(0)
        moves = mapping_for(12, k).all_moves()
        fast = p.evaluate_neighborhood(bits, moves)
        slow = np.array([p.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.array_equal(fast, slow)

    def test_batch_matches_scalar(self):
        p = OneMax(20)
        rng = np.random.default_rng(1)
        batch = np.stack([p.random_solution(rng) for _ in range(8)])
        assert np.array_equal(p.evaluate_batch(batch), [p.evaluate(r) for r in batch])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 1000))
    def test_value_equals_number_of_zeros(self, n, seed):
        p = OneMax(n)
        bits = p.random_solution(seed)
        assert p.evaluate(bits) == n - bits.sum()


class TestLeadingOnes:
    def test_known_values(self):
        p = LeadingOnes(6)
        assert p.evaluate([1, 1, 1, 1, 1, 1]) == 0
        assert p.evaluate([1, 1, 0, 1, 1, 1]) == 4
        assert p.evaluate([0, 1, 1, 1, 1, 1]) == 6

    def test_batch_matches_scalar(self):
        p = LeadingOnes(15)
        rng = np.random.default_rng(3)
        batch = np.stack([p.random_solution(rng) for _ in range(20)])
        assert np.array_equal(p.evaluate_batch(batch), [p.evaluate(r) for r in batch])


class TestMaxSat:
    def test_generator_shapes(self):
        variables, signs = generate_random_ksat(20, 50, 3, rng=0)
        assert variables.shape == (50, 3) and signs.shape == (50, 3)
        # literals within a clause are distinct variables
        assert all(len(set(row)) == 3 for row in variables)
        assert set(np.unique(signs)) <= {-1, 1}

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generate_random_ksat(2, 10, 3)
        with pytest.raises(ValueError):
            generate_random_ksat(10, 0, 3)

    def test_count_unsatisfied_small_formula(self):
        # (x0 or x1) and (not x0 or x2)
        variables = np.array([[0, 1], [0, 2]])
        signs = np.array([[1, 1], [-1, 1]], dtype=np.int8)
        p = MaxSat(3, variables, signs)
        assert p.evaluate([0, 0, 0]) == 1  # first clause unsatisfied
        assert p.evaluate([1, 0, 0]) == 1  # second clause unsatisfied
        assert p.evaluate([1, 0, 1]) == 0
        assert p.is_solution(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MaxSat(3, np.array([[0, 5]]), np.array([[1, 1]], dtype=np.int8))
        with pytest.raises(ValueError):
            MaxSat(3, np.array([[0, 1]]), np.array([[1, 0]], dtype=np.int8))
        with pytest.raises(ValueError):
            MaxSat(3, np.array([[0, 1]]), np.array([[1, 1], [1, 1]], dtype=np.int8))

    @pytest.mark.parametrize("k", [1, 2])
    def test_neighborhood_matches_bruteforce(self, k):
        p = MaxSat.random(15, 60, rng=4)
        bits = p.random_solution(0)
        moves = mapping_for(15, k).all_moves()
        fast = p.evaluate_neighborhood(bits, moves)
        slow = np.array([p.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.array_equal(fast, slow)

    def test_fitness_bounded_by_clause_count(self):
        p = MaxSat.random(12, 40, rng=9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = p.evaluate(p.random_solution(rng))
            assert 0 <= f <= 40


class TestUBQP:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            UBQP(np.ones((2, 3)))
        with pytest.raises(ValueError):
            UBQP(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_random_generator_validation(self):
        with pytest.raises(ValueError):
            UBQP.random(5, density=0.0)

    def test_quadratic_form_value(self):
        Q = np.array([[1.0, -2.0], [-2.0, 3.0]])
        p = UBQP(Q)
        assert p.evaluate([1, 1]) == pytest.approx(1 - 2 - 2 + 3)
        assert p.evaluate([1, 0]) == pytest.approx(1.0)
        assert p.evaluate([0, 0]) == pytest.approx(0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_incremental_matches_bruteforce(self, k):
        p = UBQP.random(14, rng=6)
        bits = p.random_solution(2)
        moves = mapping_for(14, k).all_moves()
        fast = p.evaluate_neighborhood(bits, moves)
        slow = np.array([p.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.allclose(fast, slow)

    def test_batch_matches_scalar(self):
        p = UBQP.random(10, rng=8)
        rng = np.random.default_rng(1)
        batch = np.stack([p.random_solution(rng) for _ in range(12)])
        assert np.allclose(p.evaluate_batch(batch), [p.evaluate(r) for r in batch])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_incremental_consistency(self, seed):
        p = UBQP.random(9, rng=seed)
        bits = p.random_solution(seed)
        moves = mapping_for(9, 2).all_moves()
        fast = p.evaluate_neighborhood(bits, moves)
        slow = np.array([p.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.allclose(fast, slow)
