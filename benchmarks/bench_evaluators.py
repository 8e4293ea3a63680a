"""Benchmarks and ablations of the neighborhood evaluators.

Wall-clock numbers here measure *this Python implementation* (how fast the
reproduction itself runs); the paper-comparable CPU/GPU seconds are the
modeled times attached as ``extra_info``.
"""

import numpy as np
import pytest

from repro.core import (
    CPUEvaluator,
    GPUEvaluator,
    MultiGPUEvaluator,
    SequentialEvaluator,
    full_step_time,
)
from repro.gpu import ExecutionMode
from repro.localsearch import TabuSearch
from repro.neighborhoods import KHammingNeighborhood, TwoHammingNeighborhood
from repro.problems import PermutedPerceptronProblem


@pytest.fixture(scope="module")
def ppp_73():
    """The smallest literature instance (73 x 73)."""
    return PermutedPerceptronProblem.generate(73, 73, rng=0)


@pytest.mark.benchmark(group="evaluators")
def test_cpu_evaluator_2hamming_73(benchmark, ppp_73):
    """Vectorized CPU evaluation of the full 2-Hamming neighborhood (2628 moves)."""
    neighborhood = TwoHammingNeighborhood(73)
    evaluator = CPUEvaluator(ppp_73, neighborhood)
    solution = ppp_73.random_solution(1)
    fitnesses = benchmark(evaluator.evaluate, solution)
    assert fitnesses.shape == (2628,)
    benchmark.extra_info["modeled_cpu_s_per_iteration"] = full_step_time(
        CPUEvaluator(ppp_73, neighborhood)
    )


@pytest.mark.benchmark(group="evaluators")
def test_gpu_evaluator_2hamming_73(benchmark, ppp_73):
    """Simulated-GPU evaluation of the full 2-Hamming neighborhood."""
    neighborhood = TwoHammingNeighborhood(73)
    evaluator = GPUEvaluator(ppp_73, neighborhood)
    solution = ppp_73.random_solution(1)
    fitnesses = benchmark(evaluator.evaluate, solution)
    assert fitnesses.shape == (2628,)
    gpu_step = full_step_time(GPUEvaluator(ppp_73, neighborhood))
    benchmark.extra_info["modeled_gpu_s_per_iteration"] = gpu_step
    benchmark.extra_info["modeled_acceleration"] = (
        full_step_time(CPUEvaluator(ppp_73, neighborhood)) / gpu_step
    )


@pytest.mark.benchmark(group="evaluators")
def test_gpu_evaluator_3hamming_73(benchmark, ppp_73):
    """Simulated-GPU evaluation of the full 3-Hamming neighborhood (62 196 moves)."""
    neighborhood = KHammingNeighborhood(73, 3)
    evaluator = GPUEvaluator(ppp_73, neighborhood)
    solution = ppp_73.random_solution(1)
    fitnesses = benchmark.pedantic(evaluator.evaluate, args=(solution,), rounds=3, iterations=1)
    assert fitnesses.shape == (62196,)
    benchmark.extra_info["modeled_acceleration"] = full_step_time(
        CPUEvaluator(ppp_73, neighborhood)
    ) / full_step_time(GPUEvaluator(ppp_73, neighborhood))


@pytest.mark.benchmark(group="evaluators-ablation")
def test_ablation_sequential_vs_vectorized(benchmark):
    """Ablation: literal per-neighbor Python loop vs the vectorized batch path."""
    problem = PermutedPerceptronProblem.generate(31, 31, rng=0)
    neighborhood = TwoHammingNeighborhood(31)
    evaluator = SequentialEvaluator(problem, neighborhood)
    solution = problem.random_solution(0)
    reference = CPUEvaluator(problem, neighborhood).evaluate(solution)
    fitnesses = benchmark.pedantic(evaluator.evaluate, args=(solution,), rounds=3, iterations=1)
    assert np.array_equal(fitnesses, reference)


@pytest.mark.benchmark(group="evaluators-ablation")
def test_ablation_per_thread_kernel_interpreter(benchmark):
    """Ablation: the faithful per-thread kernel interpreter (tiny instance)."""
    problem = PermutedPerceptronProblem.generate(15, 15, rng=0)
    neighborhood = TwoHammingNeighborhood(15)
    evaluator = GPUEvaluator(problem, neighborhood, mode=ExecutionMode.PER_THREAD)
    solution = problem.random_solution(0)
    fitnesses = benchmark.pedantic(evaluator.evaluate, args=(solution,), rounds=3, iterations=1)
    assert fitnesses.shape == (neighborhood.size,)


@pytest.mark.benchmark(group="evaluators-ablation")
def test_ablation_multi_gpu_partitioning(benchmark, ppp_73):
    """Ablation: the paper's multi-GPU perspective (4 simulated devices)."""
    neighborhood = KHammingNeighborhood(73, 3)
    single = GPUEvaluator(ppp_73, neighborhood)
    quad = MultiGPUEvaluator(ppp_73, neighborhood, devices=4)
    solution = ppp_73.random_solution(2)

    fitnesses = benchmark.pedantic(quad.evaluate, args=(solution,), rounds=3, iterations=1)
    assert fitnesses.shape == (neighborhood.size,)

    single.evaluate(solution)
    benchmark.extra_info["simulated_time_1_gpu"] = single.stats.simulated_time
    benchmark.extra_info["simulated_time_4_gpu_step"] = quad.stats.simulated_time / quad.stats.calls
    benchmark.extra_info["simulated_multi_gpu_speedup"] = (
        single.stats.simulated_time / (quad.stats.simulated_time / quad.stats.calls)
    )


@pytest.mark.benchmark(group="evaluators-ablation")
def test_ablation_block_size(benchmark, ppp_73):
    """Ablation: thread-block size of the neighborhood kernel (occupancy study)."""
    neighborhood = TwoHammingNeighborhood(73)
    solution = ppp_73.random_solution(3)

    def run_all_block_sizes():
        times = {}
        for block in (32, 64, 128, 256, 512):
            evaluator = GPUEvaluator(ppp_73, neighborhood, block_size=block)
            evaluator.evaluate(solution)
            times[block] = evaluator.stats.simulated_time
        return times

    times = benchmark.pedantic(run_all_block_sizes, rounds=1, iterations=1)
    benchmark.extra_info["simulated_time_by_block_size"] = times


@pytest.mark.benchmark(group="tabu-search")
def test_tabu_search_iteration_cost(benchmark, ppp_73):
    """End-to-end cost of a short tabu-search run (20 iterations, 2-Hamming)."""
    neighborhood = TwoHammingNeighborhood(73)

    def run():
        search = TabuSearch(
            CPUEvaluator(ppp_73, neighborhood), max_iterations=20, target_fitness=-1.0
        )
        return search.run(rng=0)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.iterations == 20
    benchmark.extra_info["best_fitness"] = result.best_fitness
