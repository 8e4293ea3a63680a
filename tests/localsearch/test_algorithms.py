"""Tests for the local-search algorithms (hill climbing, tabu search, SA, ILS, VNS)."""

import numpy as np
import pytest

from repro.core import CPUEvaluator, GPUEvaluator, SequentialEvaluator
from repro.localsearch import (
    FirstImprovementHillClimbing,
    HillClimbing,
    IteratedLocalSearch,
    SimulatedAnnealing,
    TabuSearch,
    VariableNeighborhoodSearch,
)
from repro.neighborhoods import KHammingNeighborhood, OneHammingNeighborhood
from repro.problems import OneMax, PermutedPerceptronProblem, UBQP


@pytest.fixture(scope="module")
def small_ppp():
    return PermutedPerceptronProblem.generate(15, 15, rng=3)


class TestHillClimbing:
    def test_solves_onemax_with_1hamming(self):
        problem = OneMax(24)
        hc = HillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(24)))
        result = hc.run(rng=0)
        assert result.success
        assert result.best_fitness == 0
        assert result.stopping_reason == "target_reached"
        # OneMax needs exactly (number of zero bits) improving steps.
        assert result.iterations == int(result.initial_fitness)

    def test_descent_is_monotone(self):
        problem = UBQP.random(18, rng=1)
        hc = HillClimbing(
            CPUEvaluator(problem, OneHammingNeighborhood(18)),
            max_iterations=200,
            target_fitness=-np.inf,
            track_history=True,
        )
        result = hc.run(rng=2)
        assert result.stopping_reason in ("local_optimum", "max_iterations")
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_stops_at_local_optimum(self):
        problem = UBQP.random(12, rng=5)
        hc = HillClimbing(
            CPUEvaluator(problem, OneHammingNeighborhood(12)),
            max_iterations=10_000,
            target_fitness=-np.inf,
        )
        result = hc.run(rng=1)
        if result.stopping_reason == "local_optimum":
            # no 1-Hamming neighbor improves the final solution
            fitnesses = CPUEvaluator(problem, OneHammingNeighborhood(12)).evaluate(
                result.best_solution
            )
            assert fitnesses.min() >= result.best_fitness

    def test_initial_solution_is_respected(self):
        problem = OneMax(10)
        start = np.ones(10, dtype=np.int8)
        hc = HillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(10)))
        result = hc.run(initial_solution=start, rng=0)
        assert result.initial_fitness == 0
        assert result.iterations == 0
        assert result.success

    def test_first_improvement_also_solves_onemax(self):
        problem = OneMax(16)
        hc = FirstImprovementHillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(16)))
        result = hc.run(rng=4)
        assert result.success

    def test_max_iterations_respected(self):
        problem = OneMax(40)
        hc = HillClimbing(CPUEvaluator(problem, OneHammingNeighborhood(40)), max_iterations=3)
        result = hc.run(initial_solution=np.zeros(40, dtype=np.int8), rng=0)
        assert result.iterations == 3
        assert result.stopping_reason == "max_iterations"


class TestTabuSearch:
    def test_default_tenure_follows_paper_rule(self, small_ppp):
        neighborhood = KHammingNeighborhood(small_ppp.n, 2)
        ts = TabuSearch(CPUEvaluator(small_ppp, neighborhood), max_iterations=1)
        assert ts.tenure == neighborhood.size // 6

    def test_invalid_tenure_rejected(self, small_ppp):
        with pytest.raises(ValueError):
            TabuSearch(
                CPUEvaluator(small_ppp, OneHammingNeighborhood(small_ppp.n)),
                tenure=-2,
                max_iterations=1,
            )

    def test_moves_become_tabu_after_application(self):
        problem = OneMax(12)
        ts = TabuSearch(
            CPUEvaluator(problem, OneHammingNeighborhood(12)),
            tenure=5,
            max_iterations=4,
            target_fitness=-1.0,  # never reached: force 4 iterations
        )
        result = ts.run(initial_solution=np.zeros(12, dtype=np.int8), rng=0)
        assert result.iterations == 4
        # Four distinct moves must have been applied (each flip becomes tabu).
        applied = np.nonzero(ts.last_applied[0] > -(2**62))[0]
        assert len(applied) == 4

    def test_escapes_local_optima_unlike_hill_climbing(self):
        # On a rugged UBQP instance, tabu search with enough iterations must
        # reach a fitness at least as good as plain hill climbing.
        problem = UBQP.random(20, rng=9)
        neighborhood = OneHammingNeighborhood(20)
        hc_result = HillClimbing(
            CPUEvaluator(problem, neighborhood), max_iterations=500, target_fitness=-np.inf
        ).run(rng=11)
        ts_result = TabuSearch(
            CPUEvaluator(problem, neighborhood), tenure=7, max_iterations=500, target_fitness=-np.inf
        ).run(rng=11)
        assert ts_result.best_fitness <= hc_result.best_fitness

    def test_recovers_corrupted_secret_with_2hamming(self, small_ppp):
        # A 2-Hamming move preserves the parity of the Hamming distance to the
        # secret, so start from a solution at even distance: the secret with
        # four bits flipped.  The tabu search must recover a zero-fitness
        # solution from there.
        from repro.problems.base import flip_bits

        corrupted = flip_bits(small_ppp.secret, (0, 3, 7, 11))
        neighborhood = KHammingNeighborhood(small_ppp.n, 2)
        ts = TabuSearch(
            CPUEvaluator(small_ppp, neighborhood),
            tenure=10,
            max_iterations=300,
        )
        result = ts.run(initial_solution=corrupted, rng=7)
        assert result.success
        assert small_ppp.evaluate(result.best_solution) == 0

    def test_gpu_and_cpu_evaluators_yield_identical_trajectories(self, small_ppp):
        neighborhood = KHammingNeighborhood(small_ppp.n, 2)
        kwargs = dict(tenure=10, max_iterations=40, target_fitness=-1.0)
        cpu_result = TabuSearch(CPUEvaluator(small_ppp, neighborhood), **kwargs).run(rng=5)
        gpu_result = TabuSearch(GPUEvaluator(small_ppp, neighborhood), **kwargs).run(rng=5)
        assert cpu_result.best_fitness == gpu_result.best_fitness
        assert np.array_equal(cpu_result.best_solution, gpu_result.best_solution)
        assert cpu_result.iterations == gpu_result.iterations

    def test_aspiration_can_be_disabled(self, small_ppp):
        neighborhood = OneHammingNeighborhood(small_ppp.n)
        ts = TabuSearch(
            CPUEvaluator(small_ppp, neighborhood),
            tenure=3,
            aspiration=False,
            max_iterations=10,
            target_fitness=-1.0,
        )
        result = ts.run(rng=1)
        assert result.iterations == 10

    def test_all_tabu_fallback_keeps_search_alive(self):
        # Tiny neighborhood + huge tenure: quickly every move is tabu and the
        # search must still progress via the oldest-move fallback.
        problem = OneMax(4)
        ts = TabuSearch(
            CPUEvaluator(problem, OneHammingNeighborhood(4)),
            tenure=1000,
            aspiration=False,
            max_iterations=12,
            target_fitness=-1.0,
        )
        result = ts.run(initial_solution=np.zeros(4, dtype=np.int8), rng=0)
        assert result.iterations == 12

    def test_simulated_time_accumulates(self, small_ppp):
        neighborhood = KHammingNeighborhood(small_ppp.n, 2)
        ts = TabuSearch(GPUEvaluator(small_ppp, neighborhood), max_iterations=5, target_fitness=-1.0)
        result = ts.run(rng=0)
        assert result.simulated_time > 0
        assert result.evaluations == 5 * neighborhood.size


class TestLargerNeighborhoodsImproveQuality:
    def test_3hamming_beats_1hamming_on_small_ppp(self):
        """The paper's central qualitative claim, scaled down to a unit test.

        On the paper's instances the 3-Hamming tabu search finds more
        solutions and better average fitness than the 1-Hamming one (Tables I
        vs III).  On a small instance with a small iteration budget the same
        ordering must hold: the 3-Hamming search converges in far fewer
        iterations and at least matches the 1-Hamming quality.
        """
        problem = PermutedPerceptronProblem.generate(25, 25, rng=10)
        stats = {}
        for k in (1, 2, 3):
            neighborhood = KHammingNeighborhood(problem.n, k)
            ts = TabuSearch(
                CPUEvaluator(problem, neighborhood),
                max_iterations=30,
                tenure=max(1, neighborhood.size // 6),
            )
            results = [ts.run(rng=seed) for seed in range(6)]
            stats[k] = {
                "mean_fitness": np.mean([r.best_fitness for r in results]),
                "successes": sum(r.success for r in results),
            }
        # Number of successful tries grows with the neighborhood order
        # (the pattern of Tables I -> II -> III).
        assert stats[1]["successes"] <= stats[2]["successes"] <= stats[3]["successes"]
        assert stats[3]["successes"] > stats[1]["successes"]
        # And the large neighborhood also wins on average fitness.
        assert stats[3]["mean_fitness"] <= stats[1]["mean_fitness"]


class TestSimulatedAnnealing:
    def test_parameter_validation(self):
        problem = OneMax(10)
        with pytest.raises(ValueError):
            SimulatedAnnealing(problem, cooling=1.5)
        with pytest.raises(ValueError):
            SimulatedAnnealing(problem, initial_temperature=-1)
        with pytest.raises(ValueError):
            SimulatedAnnealing(problem, steps_per_temperature=0)

    def test_solves_onemax(self):
        problem = OneMax(20)
        sa = SimulatedAnnealing(problem, max_steps=20_000, initial_temperature=2.0)
        result = sa.run(rng=0)
        assert result.best_fitness <= 2  # near-optimal, usually 0

    def test_respects_max_steps(self):
        problem = OneMax(30)
        sa = SimulatedAnnealing(problem, max_steps=100, target_fitness=-1.0)
        result = sa.run(rng=1)
        assert result.iterations == 100


class TestIteratedAndVNS:
    def test_ils_improves_over_single_descent(self):
        problem = UBQP.random(24, rng=3)
        evaluator = CPUEvaluator(problem, OneHammingNeighborhood(24))
        single = HillClimbing(evaluator, max_iterations=500, target_fitness=-np.inf).run(rng=8)
        ils = IteratedLocalSearch(evaluator, restarts=8, perturbation_strength=4,
                                  target_fitness=-np.inf)
        multi = ils.run(rng=8)
        assert multi.best_fitness <= single.best_fitness

    def test_ils_parameter_validation(self):
        problem = OneMax(8)
        evaluator = CPUEvaluator(problem, OneHammingNeighborhood(8))
        with pytest.raises(ValueError):
            IteratedLocalSearch(evaluator, restarts=0)
        with pytest.raises(ValueError):
            IteratedLocalSearch(evaluator, perturbation_strength=0)

    def test_vns_explores_increasing_orders(self):
        problem = PermutedPerceptronProblem.generate(13, 13, rng=4)
        vns = VariableNeighborhoodSearch(problem, max_order=3, max_rounds=10)
        result = vns.run(rng=2)
        assert result.best_fitness <= result.initial_fitness
        assert len(vns.evaluators) == 3
        assert [ev.neighborhood.order for ev in vns.evaluators] == [1, 2, 3]

    def test_vns_parameter_validation(self):
        problem = OneMax(8)
        with pytest.raises(ValueError):
            VariableNeighborhoodSearch(problem, max_order=0)
        with pytest.raises(ValueError):
            VariableNeighborhoodSearch(problem, max_rounds=0)

    def test_vns_solves_onemax(self):
        problem = OneMax(15)
        vns = VariableNeighborhoodSearch(problem, max_order=2, max_rounds=5)
        result = vns.run(rng=0)
        assert result.success


class TestSequentialEvaluatorEquivalence:
    def test_sequential_and_vectorized_runs_match(self, small_ppp):
        neighborhood = OneHammingNeighborhood(small_ppp.n)
        kwargs = dict(tenure=4, max_iterations=15, target_fitness=-1.0)
        a = TabuSearch(SequentialEvaluator(small_ppp, neighborhood), **kwargs).run(rng=3)
        b = TabuSearch(CPUEvaluator(small_ppp, neighborhood), **kwargs).run(rng=3)
        assert a.best_fitness == b.best_fitness
        assert a.iterations == b.iterations
        assert np.array_equal(a.best_solution, b.best_solution)
