"""Behavioural tests of the single searches: stopping, history, evaluations accounting."""

import numpy as np

from repro.core import CPUEvaluator
from repro.localsearch import HillClimbing, TabuSearch
from repro.neighborhoods import KHammingNeighborhood, OneHammingNeighborhood
from repro.problems import OneMax, PermutedPerceptronProblem


class TestStoppingIntegration:
    def test_target_fitness_precedence_over_iteration_cap(self):
        problem = OneMax(8)
        search = HillClimbing(
            CPUEvaluator(problem, OneHammingNeighborhood(8)), max_iterations=1000
        )
        result = search.run(initial_solution=np.zeros(8, dtype=np.int8), rng=0)
        assert result.stopping_reason == "target_reached"
        assert result.iterations == 8


class TestAccountingAndHistory:
    def test_history_length_matches_iterations(self):
        problem = PermutedPerceptronProblem.generate(15, 15, rng=2)
        neighborhood = KHammingNeighborhood(15, 2)
        search = TabuSearch(
            CPUEvaluator(problem, neighborhood),
            max_iterations=17,
            target_fitness=-1.0,
            track_history=True,
        )
        result = search.run(rng=0)
        assert len(result.history) == result.iterations == 17
        # History records the best-so-far, hence non-increasing.
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_history_disabled_by_default(self):
        problem = OneMax(10)
        result = HillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(10))).run(rng=0)
        assert result.history == []

    def test_evaluations_equal_iterations_times_neighborhood_size(self):
        problem = PermutedPerceptronProblem.generate(13, 13, rng=1)
        neighborhood = KHammingNeighborhood(13, 3)
        search = TabuSearch(
            CPUEvaluator(problem, neighborhood), max_iterations=9, target_fitness=-1.0
        )
        result = search.run(rng=0)
        # One extra neighborhood evaluation happens on the final (stopping)
        # check only if the loop breaks before evaluating; our loop evaluates
        # exactly once per completed iteration.
        assert result.evaluations == 9 * neighborhood.size

    def test_back_to_back_runs_do_not_leak_state(self):
        # The same TabuSearch object is reused by the harness across trials;
        # the tabu memory and the evaluator statistics must reset per run.
        problem = PermutedPerceptronProblem.generate(15, 15, rng=4)
        neighborhood = KHammingNeighborhood(15, 2)
        search = TabuSearch(
            CPUEvaluator(problem, neighborhood), max_iterations=10, target_fitness=-1.0
        )
        first = search.run(rng=9)
        second = search.run(rng=9)
        assert first.best_fitness == second.best_fitness
        assert first.iterations == second.iterations
        assert np.array_equal(first.best_solution, second.best_solution)
        assert first.evaluations == second.evaluations

    def test_wall_time_and_simulated_time_recorded(self):
        problem = OneMax(12)
        result = HillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(12))).run(rng=0)
        assert result.wall_time > 0
        assert result.simulated_time > 0
