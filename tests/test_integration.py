"""End-to-end integration tests: the paper's claims, exercised across every layer.

These tests cross module boundaries on purpose (problem -> mapping ->
neighborhood -> kernel -> evaluator -> local search -> harness) and assert
the qualitative results the paper reports.
"""

import numpy as np
import pytest

from repro import (
    CPUEvaluator,
    GPUEvaluator,
    KHammingNeighborhood,
    MultiGPUEvaluator,
    PermutedPerceptronProblem,
    SequentialEvaluator,
    TabuSearch,
)
from repro.core import full_step_time
from repro.gpu import ExecutionMode, GTX_280, GTX_8800
from repro.harness import run_ppp_experiment
from repro.localsearch import HillClimbing, VariableNeighborhoodSearch
from repro.problems import MaxSat, UBQP


class TestCrossPlatformEquivalence:
    """All execution platforms must produce bit-identical search trajectories."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_four_platforms_same_trajectory(self, order):
        problem = PermutedPerceptronProblem.generate(17, 17, rng=1)
        neighborhood = KHammingNeighborhood(problem.n, order)
        evaluators = [
            SequentialEvaluator(problem, neighborhood),
            CPUEvaluator(problem, neighborhood),
            GPUEvaluator(problem, neighborhood),
            MultiGPUEvaluator(problem, neighborhood, devices=3),
        ]
        results = [
            TabuSearch(ev, max_iterations=12, target_fitness=-1.0).run(rng=4)
            for ev in evaluators
        ]
        reference = results[0]
        for result in results[1:]:
            assert result.best_fitness == reference.best_fitness
            assert result.iterations == reference.iterations
            assert np.array_equal(result.best_solution, reference.best_solution)

    def test_per_thread_interpreter_matches_vectorized_backend(self):
        problem = PermutedPerceptronProblem.generate(11, 11, rng=2)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        vec = TabuSearch(
            GPUEvaluator(problem, neighborhood, mode=ExecutionMode.VECTORIZED),
            max_iterations=6, target_fitness=-1.0,
        ).run(rng=0)
        thr = TabuSearch(
            GPUEvaluator(problem, neighborhood, mode=ExecutionMode.PER_THREAD),
            max_iterations=6, target_fitness=-1.0,
        ).run(rng=0)
        assert vec.best_fitness == thr.best_fitness
        assert np.array_equal(vec.best_solution, thr.best_solution)

    def test_float_sqrt_kernel_arithmetic_matches_exact(self):
        # The paper's single-precision kernel arithmetic must not change the search.
        problem = PermutedPerceptronProblem.generate(19, 19, rng=5)
        exact_nb = KHammingNeighborhood(problem.n, 3)
        float_nb = KHammingNeighborhood(problem.n, 3, float_sqrt=True)
        a = TabuSearch(CPUEvaluator(problem, exact_nb), max_iterations=8, target_fitness=-1.0).run(rng=1)
        b = TabuSearch(CPUEvaluator(problem, float_nb), max_iterations=8, target_fitness=-1.0).run(rng=1)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_solution, b.best_solution)


class TestPaperClaims:
    def test_planted_secret_always_recoverable_from_nearby_start(self):
        # Starting one 3-flip away from the secret, the 3-Hamming tabu search
        # must find fitness 0 in very few iterations on any instance.
        from repro.problems.base import flip_bits

        for seed in range(3):
            problem = PermutedPerceptronProblem.generate(31, 31, rng=seed)
            neighborhood = KHammingNeighborhood(31, 3)
            start = flip_bits(problem.secret, (1, 5, 9))
            result = TabuSearch(
                CPUEvaluator(problem, neighborhood), max_iterations=10
            ).run(initial_solution=start, rng=seed)
            assert result.success
            assert result.iterations <= 3

    @staticmethod
    def _speedup(problem, neighborhood):
        cpu = full_step_time(CPUEvaluator(problem, neighborhood))
        return cpu / full_step_time(GPUEvaluator(problem, neighborhood))

    def test_1hamming_gpu_slower_but_2_3_hamming_much_faster(self):
        problem = PermutedPerceptronProblem.generate(101, 117, rng=0)
        speedups = {k: self._speedup(problem, KHammingNeighborhood(117, k)) for k in (1, 2, 3)}
        assert speedups[1] < 1.0          # Table I: GPU loses
        assert 10 <= speedups[2] <= 30    # Table II band (x18.5 in the paper)
        assert 15 <= speedups[3] <= 40    # Table III band (x24.8 in the paper)
        assert speedups[3] > speedups[2] > speedups[1]

    def test_figure8_crossover_band(self):
        # The 1-Hamming GPU kernel starts paying off for instances a few
        # hundred bits wide (the paper: around 201x217).
        speedup_at = {}
        for m, n in [(101, 117), (201, 217), (401, 417)]:
            problem = PermutedPerceptronProblem.generate(m, n, rng=0)
            speedup_at[n] = self._speedup(problem, KHammingNeighborhood(n, 1))
        assert speedup_at[117] < 1.0
        assert speedup_at[217] > 1.0
        assert speedup_at[417] > speedup_at[217]

    def test_g80_generation_card_is_slower_than_gtx280(self):
        # The paper singles out the GTX 280's relaxed coalescing rules as the
        # reason for better global-memory performance than the G80 series.
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        neighborhood = KHammingNeighborhood(73, 2)
        gtx280 = full_step_time(GPUEvaluator(problem, neighborhood, device=GTX_280))
        g80 = full_step_time(GPUEvaluator(problem, neighborhood, device=GTX_8800))
        assert g80 > gtx280

    def test_multi_gpu_partitioning_reduces_iteration_time(self):
        # Section V perspective: partitioning the 3-Hamming neighborhood over
        # several devices shortens the (simulated) iteration.
        problem = PermutedPerceptronProblem.generate(41, 41, rng=0)
        neighborhood = KHammingNeighborhood(41, 3)
        solution = problem.random_solution(0)
        single = GPUEvaluator(problem, neighborhood)
        dual = MultiGPUEvaluator(problem, neighborhood, devices=2)
        quad = MultiGPUEvaluator(problem, neighborhood, devices=4)
        single.evaluate(solution)
        dual.evaluate(solution)
        quad.evaluate(solution)
        assert quad.stats.simulated_time < dual.stats.simulated_time < single.stats.simulated_time

    def test_harness_experiment_is_reproducible_end_to_end(self):
        row_a = run_ppp_experiment((27, 27), 3, trials=2, max_iterations=20)
        row_b = run_ppp_experiment((27, 27), 3, trials=2, max_iterations=20)
        assert row_a.as_dict() == row_b.as_dict()


class TestOtherWorkloadsEndToEnd:
    def test_tabu_search_on_maxsat_with_gpu_evaluator(self):
        problem = MaxSat.random(30, 120, rng=3)
        neighborhood = KHammingNeighborhood(30, 2)
        result = TabuSearch(GPUEvaluator(problem, neighborhood), max_iterations=60).run(rng=0)
        assert result.best_fitness <= result.initial_fitness
        assert result.evaluations == result.iterations * neighborhood.size

    def test_vns_with_gpu_evaluators_on_ubqp(self):
        problem = UBQP.random(26, rng=7)
        vns = VariableNeighborhoodSearch(
            problem,
            max_order=3,
            max_rounds=4,
            evaluator_factory=lambda p, nb: GPUEvaluator(p, nb),
            target_fitness=-np.inf,
        )
        result = vns.run(rng=1)
        assert result.best_fitness <= result.initial_fitness

    def test_hill_climbing_chain_matches_across_problems(self):
        # Smoke-level sanity across every auxiliary workload.
        from repro.problems import MaxSat, OneMax

        for problem in (OneMax(20), MaxSat.random(20, 60, rng=0), UBQP.random(20, rng=0)):
            nb = KHammingNeighborhood(20, 1)
            result = HillClimbing(
                CPUEvaluator(problem, nb), max_iterations=100, target_fitness=-np.inf
            ).run(rng=3)
            assert result.best_fitness <= result.initial_fitness
