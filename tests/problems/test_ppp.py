"""Tests for the Permuted Perceptron Problem objective and instance generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mappings import mapping_for
from repro.problems import (
    FIGURE8_INSTANCES,
    TABLE_INSTANCES,
    PermutedPerceptronProblem,
    PPPInstanceSpec,
    generate_ppp_instance,
    instance_seed,
    make_figure8_instance,
    make_table_instance,
)
from repro.problems.base import flip_bits


@pytest.fixture(scope="module")
def small_ppp():
    return PermutedPerceptronProblem.generate(15, 15, rng=42)


class TestInstanceGeneration:
    def test_shapes_and_domains(self):
        A, S, secret = generate_ppp_instance(20, 17, rng=0)
        assert A.shape == (20, 17)
        assert set(np.unique(A)) <= {-1, 1}
        assert S.shape == (20,)
        assert S.min() >= 0
        assert secret.shape == (17,)
        assert set(np.unique(secret)) <= {0, 1}

    def test_planted_secret_is_a_solution(self):
        for seed in range(5):
            problem = PermutedPerceptronProblem.generate(25, 21, rng=seed)
            assert problem.evaluate(problem.secret) == 0.0
            assert problem.is_solution(problem.evaluate(problem.secret))

    def test_products_of_secret_match_S(self):
        A, S, secret = generate_ppp_instance(30, 23, rng=3)
        V = 2 * secret.astype(np.int64) - 1
        assert np.array_equal(np.sort(A.astype(np.int64) @ V), np.sort(S))

    def test_odd_dimension_products_are_odd(self):
        # With n odd every +/-1 dot product has the parity of n.
        A, S, _ = generate_ppp_instance(31, 21, rng=1)
        assert np.all(S % 2 == 1)

    def test_generation_is_deterministic_in_seed(self):
        a = PermutedPerceptronProblem.generate(10, 9, rng=7)
        b = PermutedPerceptronProblem.generate(10, 9, rng=7)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.S, b.S)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            generate_ppp_instance(0, 5)
        with pytest.raises(ValueError):
            generate_ppp_instance(5, -1)


class TestConstructorValidation:
    def test_rejects_non_epsilon_matrix(self):
        with pytest.raises(ValueError):
            PermutedPerceptronProblem(np.zeros((3, 3)), np.ones(3))

    def test_rejects_mismatched_S(self):
        A = np.ones((3, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            PermutedPerceptronProblem(A, np.array([1, 1]))

    def test_rejects_negative_S(self):
        A = np.ones((3, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            PermutedPerceptronProblem(A, np.array([1, -1, 1]))

    def test_rejects_S_value_above_n(self):
        A = np.ones((3, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            PermutedPerceptronProblem(A, np.array([1, 4, 1]))

    def test_rejects_non_2d_matrix(self):
        with pytest.raises(ValueError):
            PermutedPerceptronProblem(np.ones(5), np.ones(5))


class TestObjective:
    def test_zero_only_for_matching_histogram(self, small_ppp):
        assert small_ppp.evaluate(small_ppp.secret) == 0.0
        # The all-ones and all-zeros vectors are (with overwhelming
        # probability for this seed) not solutions.
        assert small_ppp.evaluate(np.ones(small_ppp.n, dtype=np.int8)) > 0
        assert small_ppp.evaluate(np.zeros(small_ppp.n, dtype=np.int8)) > 0

    def test_fitness_is_nonnegative(self, small_ppp):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fitness = small_ppp.evaluate(small_ppp.random_solution(rng))
            assert fitness >= 0

    def test_matches_naive_reference(self, small_ppp):
        """Cross-check against a direct transcription of the paper's formula."""
        rng = np.random.default_rng(5)
        A = small_ppp.A.astype(np.int64)
        for _ in range(25):
            bits = small_ppp.random_solution(rng)
            V = 2 * bits.astype(np.int64) - 1
            Y = A @ V
            term1 = 30 * np.sum(np.abs(Y) - Y)
            h_candidate = np.array([(Y == v).sum() for v in range(1, small_ppp.n + 1)])
            term2 = np.abs(small_ppp.target_histogram - h_candidate).sum()
            assert small_ppp.evaluate(bits) == float(term1 + term2)

    def test_sign_term_weight(self):
        # A single constraint pushed negative by one unit costs 60 by itself.
        A = np.array([[1]], dtype=np.int8)
        problem = PermutedPerceptronProblem(A, np.array([1]))
        # bits=[1] -> V=+1 -> Y=1 -> fitness 0.
        # bits=[0] -> Y=-1 -> sign term 30*(|-1| - (-1)) = 60, histogram term
        # |H_1 - H'_1| = |1 - 0| = 1 (only bins 1..n are compared).
        assert problem.evaluate(np.array([1], dtype=np.int8)) == 0
        assert problem.evaluate(np.array([0], dtype=np.int8)) == 60 + 1

    def test_rejects_wrong_length_solution(self, small_ppp):
        with pytest.raises(ValueError):
            small_ppp.evaluate(np.zeros(small_ppp.n + 1, dtype=np.int8))

    def test_rejects_non_binary_solution(self, small_ppp):
        with pytest.raises(ValueError):
            small_ppp.evaluate(np.full(small_ppp.n, 2, dtype=np.int8))


class TestBatchAndNeighborhoodEvaluation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_neighborhood_matches_full_evaluation(self, small_ppp, k):
        mapping = mapping_for(small_ppp.n, k)
        moves = mapping.all_moves()
        rng = np.random.default_rng(11)
        bits = small_ppp.random_solution(rng)
        fast = small_ppp.evaluate_neighborhood(bits, moves)
        slow = np.array([small_ppp.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.array_equal(fast, slow)

    def test_neighborhood_chunking_is_transparent(self, small_ppp):
        mapping = mapping_for(small_ppp.n, 2)
        moves = mapping.all_moves()
        bits = small_ppp.random_solution(3)
        a = small_ppp._evaluate_neighborhood_batch_reference(
            bits[None, :], moves, element_budget=7 * small_ppp.m
        )
        b = small_ppp.evaluate_neighborhood(bits, moves)
        assert np.array_equal(a[0], b)

    def test_evaluate_batch_matches_scalar(self, small_ppp):
        rng = np.random.default_rng(2)
        batch = np.stack([small_ppp.random_solution(rng) for _ in range(16)])
        vec = small_ppp.evaluate_batch(batch)
        scalar = np.array([small_ppp.evaluate(row) for row in batch])
        assert np.array_equal(vec, scalar)

    def test_delta_evaluate_single_move(self, small_ppp):
        bits = small_ppp.random_solution(9)
        move = (1, 4, 7)
        assert small_ppp.delta_evaluate(bits, move) == small_ppp.evaluate(flip_bits(bits, move))

    def test_bad_move_array_shape(self, small_ppp):
        with pytest.raises(ValueError):
            small_ppp.evaluate_neighborhood(small_ppp.secret, np.zeros(4, dtype=np.int64))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_neighborhood_consistency(self, seed):
        rng = np.random.default_rng(seed)
        problem = PermutedPerceptronProblem.generate(9, 9, rng=seed)
        bits = problem.random_solution(rng)
        moves = mapping_for(9, 2).all_moves()
        fast = problem.evaluate_neighborhood(bits, moves)
        slow = np.array([problem.evaluate(flip_bits(bits, mv)) for mv in moves])
        assert np.array_equal(fast, slow)


class TestCostProfile:
    def test_cost_scales_with_k_and_m(self):
        problem = PermutedPerceptronProblem.generate(40, 31, rng=0)
        c1 = problem.cost_profile(1)
        c3 = problem.cost_profile(3)
        assert c3["flops"] > c1["flops"]
        assert c3["bytes"] > c1["bytes"]
        bigger = PermutedPerceptronProblem.generate(80, 31, rng=0)
        assert bigger.cost_profile(1)["flops"] > c1["flops"]


class TestInstanceRegistry:
    def test_table_instances_match_paper(self):
        assert [(s.m, s.n) for s in TABLE_INSTANCES] == [(73, 73), (81, 81), (101, 101), (101, 117)]

    def test_figure8_instances_match_paper(self):
        assert len(FIGURE8_INSTANCES) == 15
        assert (FIGURE8_INSTANCES[0].m, FIGURE8_INSTANCES[0].n) == (101, 117)
        assert (FIGURE8_INSTANCES[-1].m, FIGURE8_INSTANCES[-1].n) == (1501, 1517)

    def test_neighborhood_sizes_match_table_iteration_caps(self):
        # The paper's stopping criterion column pins these values.
        spec = PPPInstanceSpec(101, 101)
        assert spec.neighborhood_sizes[3] == 166650
        spec = PPPInstanceSpec(101, 117)
        assert spec.neighborhood_sizes[3] == 260130

    def test_make_table_instance_is_deterministic(self):
        a = make_table_instance(TABLE_INSTANCES[0], trial=1)
        b = make_table_instance((73, 73), trial=1)
        assert np.array_equal(a.A, b.A)
        c = make_table_instance((73, 73), trial=2)
        assert not np.array_equal(a.A, c.A)

    def test_make_figure8_instance(self):
        problem = make_figure8_instance(0)
        assert (problem.m, problem.n) == (101, 117)
        assert problem.evaluate(problem.secret) == 0

    def test_instance_seed_unique_per_dimension_and_trial(self):
        seeds = {
            instance_seed(m, n, t)
            for (m, n) in [(73, 73), (81, 81), (101, 101), (101, 117)]
            for t in range(10)
        }
        assert len(seeds) == 40

    def test_labels(self):
        assert TABLE_INSTANCES[0].label == "73 x 73"
