"""Tests for the solution-parallel ``evaluate_neighborhood_batch`` contract."""

import numpy as np
import pytest

from repro.neighborhoods import KHammingNeighborhood
from repro.problems import (
    LeadingOnes,
    MaxSat,
    OneMax,
    PermutedPerceptronProblem,
    UBQP,
)

N = 13


def all_problems():
    return [
        PermutedPerceptronProblem.generate(15, N, rng=0),
        OneMax(N),
        UBQP.random(N, rng=1),
        MaxSat.random(N, 30, rng=2),
        MaxSat.random(N, 20, k=2, rng=3),
        LeadingOnes(N),  # no override: exercises the generic fallback
    ]


def problem_id(problem):
    """The problem's name, with MaxSAT's clause width when it is not 3."""
    if isinstance(problem, MaxSat) and problem.k_literals != 3:
        return f"{problem.k_literals}sat"
    return problem.name


def solution_block(problem, count=6, seed=7):
    rng = np.random.default_rng(seed)
    return np.stack([problem.random_solution(rng) for _ in range(count)])


class TestBatchMatchesRowByRow:
    @pytest.mark.parametrize("problem", all_problems(), ids=problem_id)
    @pytest.mark.parametrize("order", [1, 2])
    def test_batch_equals_per_solution_rows(self, problem, order):
        neighborhood = KHammingNeighborhood(problem.n, order)
        moves = neighborhood.moves()
        solutions = solution_block(problem)
        batch = problem.evaluate_neighborhood_batch(solutions, moves)
        reference = np.stack(
            [problem.evaluate_neighborhood(row, moves) for row in solutions]
        )
        assert batch.shape == (solutions.shape[0], moves.shape[0])
        assert np.array_equal(batch, reference), problem.name

    @pytest.mark.parametrize("problem", all_problems(), ids=problem_id)
    def test_move_subsets(self, problem):
        neighborhood = KHammingNeighborhood(problem.n, 2)
        moves = neighborhood.moves()[::3]
        solutions = solution_block(problem, count=4)
        batch = problem.evaluate_neighborhood_batch(solutions, moves)
        reference = np.stack(
            [problem.evaluate_neighborhood(row, moves) for row in solutions]
        )
        assert np.array_equal(batch, reference)

    def test_chunked_paths_agree_with_unchunked(self):
        # Force tiny chunks through the PPP broadcast path and the
        # flipped-copies fallback; results must not depend on chunking.
        ppp = PermutedPerceptronProblem.generate(15, N, rng=0)
        nb = KHammingNeighborhood(N, 2)
        moves = nb.moves()
        solutions = solution_block(ppp)
        small = ppp.evaluate_neighborhood_batch(solutions, moves, element_budget=32)
        large = ppp.evaluate_neighborhood_batch(solutions, moves)
        assert np.array_equal(small, large)

        sat = MaxSat.random(N, 30, rng=2)
        sols = solution_block(sat)
        tiny = sat._evaluate_neighborhood_batch_by_flips(sols, moves, row_budget=5)
        assert np.array_equal(tiny, sat.evaluate_neighborhood_batch(sols, moves))


class TestValidation:
    def test_bad_solution_block_shape(self):
        problem = OneMax(N)
        moves = np.zeros((3, 1), dtype=np.int64)
        with pytest.raises(ValueError):
            problem.evaluate_neighborhood_batch(np.zeros((2, N + 1), dtype=np.int8), moves)
        with pytest.raises(ValueError):
            problem.evaluate_neighborhood_batch(np.zeros(N, dtype=np.int8), moves)

    def test_bad_move_shape(self):
        problem = OneMax(N)
        solutions = np.zeros((2, N), dtype=np.int8)
        with pytest.raises(ValueError):
            problem.evaluate_neighborhood_batch(solutions, np.zeros(3, dtype=np.int64))

    def test_empty_batch(self):
        problem = OneMax(N)
        empty = problem.evaluate_neighborhood_batch(
            np.empty((0, N), dtype=np.int8), np.empty((0, 1), dtype=np.int64)
        )
        assert empty.shape == (0, 0)
