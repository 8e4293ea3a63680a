"""Tests for the evaluation kernels, evaluators and the fused selection reduction."""

import numpy as np
import pytest

from repro.core import (
    CPUEvaluator,
    GPUEvaluator,
    MultiGPUEvaluator,
    SequentialEvaluator,
    build_neighborhood_kernel,
    iteration_times,
    kernel_cost_profile,
    mapping_flops,
    run_times,
)
from repro.core.evaluators import _fused_reduce
from repro.gpu import ExecutionMode, GTX_280, grid_for
from repro.neighborhoods import (
    KHammingNeighborhood,
    OneHammingNeighborhood,
    ThreeHammingNeighborhood,
    TwoHammingNeighborhood,
)
from repro.problems import PermutedPerceptronProblem, UBQP
from repro.problems.base import flip_bits


@pytest.fixture(scope="module")
def ppp():
    return PermutedPerceptronProblem.generate(17, 15, rng=0)


def brute_force(problem, solution, neighborhood):
    moves = neighborhood.moves()
    return np.array([problem.evaluate(flip_bits(solution, mv)) for mv in moves])


class TestKernels:
    def test_kernel_cost_profile_grows_with_order(self, ppp):
        assert kernel_cost_profile(ppp, 3).flops > kernel_cost_profile(ppp, 1).flops
        assert mapping_flops(3) > mapping_flops(2) > mapping_flops(1)
        assert mapping_flops(5) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vectorized_and_per_thread_kernels_agree(self, ppp, k):
        neighborhood = KHammingNeighborhood(ppp.n, k)
        kernel = build_neighborhood_kernel(ppp, neighborhood)
        solution = ppp.random_solution(1)
        cfg = grid_for(neighborhood.size, 64)
        out_vec = np.zeros(neighborhood.size)
        out_thread = np.zeros(neighborhood.size)
        kernel.execute(cfg, (solution, out_vec), active_threads=neighborhood.size,
                       mode=ExecutionMode.VECTORIZED)
        kernel.execute(cfg, (solution, out_thread), active_threads=neighborhood.size,
                       mode=ExecutionMode.PER_THREAD)
        assert np.array_equal(out_vec, out_thread)
        assert np.array_equal(out_vec, brute_force(ppp, solution, neighborhood))


class TestEvaluatorsAgree:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_platforms_produce_identical_fitnesses(self, ppp, k):
        neighborhood = KHammingNeighborhood(ppp.n, k)
        solution = ppp.random_solution(3)
        expected = brute_force(ppp, solution, neighborhood)

        seq = SequentialEvaluator(ppp, neighborhood)
        cpu = CPUEvaluator(ppp, neighborhood)
        gpu = GPUEvaluator(ppp, neighborhood)
        multi = MultiGPUEvaluator(ppp, neighborhood, devices=3)

        for evaluator in (seq, cpu, gpu, multi):
            got = evaluator.evaluate(solution)
            assert np.array_equal(got, expected), evaluator.platform

    def test_subset_evaluation(self, ppp):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        solution = ppp.random_solution(5)
        idx = np.array([0, 3, 17, neighborhood.size - 1])
        expected = brute_force(ppp, solution, neighborhood)[idx]
        for evaluator in (
            CPUEvaluator(ppp, neighborhood),
            GPUEvaluator(ppp, neighborhood),
            SequentialEvaluator(ppp, neighborhood),
        ):
            assert np.array_equal(evaluator.evaluate(solution, idx), expected)

    def test_other_problem_types(self):
        problem = UBQP.random(12, rng=4)
        neighborhood = TwoHammingNeighborhood(12)
        solution = problem.random_solution(0)
        expected = brute_force(problem, solution, neighborhood)
        assert np.allclose(GPUEvaluator(problem, neighborhood).evaluate(solution), expected)
        assert np.allclose(CPUEvaluator(problem, neighborhood).evaluate(solution), expected)

    def test_mismatched_problem_and_neighborhood(self, ppp):
        with pytest.raises(ValueError):
            CPUEvaluator(ppp, OneHammingNeighborhood(ppp.n + 1))

    def test_out_of_range_indices(self, ppp):
        ev = CPUEvaluator(ppp, OneHammingNeighborhood(ppp.n))
        with pytest.raises(IndexError):
            ev.evaluate(ppp.random_solution(0), np.array([ppp.n]))


class TestEvaluatorStats:
    def test_stats_accumulate_and_reset(self, ppp):
        neighborhood = OneHammingNeighborhood(ppp.n)
        ev = CPUEvaluator(ppp, neighborhood)
        solution = ppp.random_solution(0)
        ev.evaluate(solution)
        ev.evaluate(solution)
        assert ev.stats.calls == 2
        assert ev.stats.evaluations == 2 * neighborhood.size
        assert ev.stats.simulated_time > 0
        ev.reset_stats()
        assert ev.stats.calls == 0 and ev.stats.simulated_time == 0.0

    def test_gpu_time_includes_launch_overhead(self, ppp):
        neighborhood = OneHammingNeighborhood(ppp.n)
        ev = GPUEvaluator(ppp, neighborhood)
        ev.evaluate(ppp.random_solution(0))
        assert ev.stats.simulated_time >= GTX_280.kernel_launch_overhead

    def test_gpu_simulated_time_matches_iteration_model(self, ppp):
        # The evaluator's accumulated simulated time should agree with the
        # analytic per-iteration estimate used by the harness.
        neighborhood = TwoHammingNeighborhood(ppp.n)
        ev = GPUEvaluator(ppp, neighborhood)
        ev.evaluate(ppp.random_solution(0))
        estimate = iteration_times(ppp, neighborhood).gpu_time
        assert ev.stats.simulated_time == pytest.approx(estimate, rel=0.05)

    def test_multigpu_elapsed_is_less_than_single_gpu(self, ppp):
        neighborhood = ThreeHammingNeighborhood(ppp.n)
        single = GPUEvaluator(ppp, neighborhood)
        quad = MultiGPUEvaluator(ppp, neighborhood, devices=4)
        solution = ppp.random_solution(0)
        single.evaluate(solution)
        quad.evaluate(solution)
        # Partitioning a large neighborhood over 4 devices must cut the
        # simulated elapsed time (though not by a full 4x: per-launch
        # overheads are replicated).
        assert quad.stats.simulated_time < single.stats.simulated_time
        assert quad.num_devices == 4


class TestIterationTimes:
    def test_small_1hamming_gpu_slower_than_cpu(self):
        # Paper Table I: for the literature instances the 1-Hamming GPU
        # version is *slower* than the CPU version.
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        t = iteration_times(problem, OneHammingNeighborhood(73))
        assert t.speedup < 1.0

    def test_2hamming_and_3hamming_speedups_in_paper_band(self):
        # Paper Tables II and III: accelerations of roughly x10-x26.
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        t2 = iteration_times(problem, TwoHammingNeighborhood(73))
        t3 = iteration_times(problem, ThreeHammingNeighborhood(73))
        assert 5 <= t2.speedup <= 40
        assert 10 <= t3.speedup <= 60
        assert t3.speedup > t2.speedup

    def test_gpu_time_components_positive(self):
        problem = PermutedPerceptronProblem.generate(31, 31, rng=0)
        t = iteration_times(problem, TwoHammingNeighborhood(31))
        assert t.gpu_kernel_time > 0
        assert t.gpu_transfer_time > 0
        assert t.gpu_overhead_time > 0
        assert t.gpu_time == pytest.approx(
            t.gpu_kernel_time + t.gpu_transfer_time + t.gpu_overhead_time
        )

    def test_run_times_scale_linearly(self):
        problem = PermutedPerceptronProblem.generate(31, 31, rng=0)
        nb = TwoHammingNeighborhood(31)
        one = run_times(problem, nb, 1)
        ten = run_times(problem, nb, 10)
        assert ten.cpu_time == pytest.approx(10 * one.cpu_time)
        assert ten.gpu_time == pytest.approx(10 * one.gpu_time)
        with pytest.raises(ValueError):
            run_times(problem, nb, -1)

    def test_multicore_cpu_ablation_reduces_cpu_time(self):
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        nb = TwoHammingNeighborhood(73)
        single = iteration_times(problem, nb, cpu_cores=1)
        multi = iteration_times(problem, nb, cpu_cores=8)
        assert multi.cpu_time < single.cpu_time


class TestSelection:
    """The fused reduction is the one selection implementation of every search."""

    def test_best_move(self):
        indices, fitness = _fused_reduce(np.array([[5.0, 2.0, 7.0, 2.0]]), "argmin")
        assert indices.tolist() == [1] and fitness.tolist() == [2.0]
        with pytest.raises(ValueError):
            _fused_reduce(np.empty((1, 0)), "argmin")

    def test_best_admissible_move_respects_tabu(self):
        fitnesses = np.array([[1.0, 2.0, 3.0]])
        admissible = np.array([[False, True, True]])
        indices, _ = _fused_reduce(fitnesses, "argmin", admissible=admissible)
        assert indices.tolist() == [1]

    def test_aspiration_overrides_tabu(self):
        fitnesses = np.array([[1.0, 2.0, 3.0]])
        admissible = np.array([[False, True, True]])
        indices, _ = _fused_reduce(
            fitnesses, "argmin", admissible=admissible, aspiration_fitness=np.array([1.5])
        )
        assert indices.tolist() == [0]

    def test_all_tabu_returns_none(self):
        fitnesses = np.array([[1.0, 2.0]])
        admissible = np.array([[False, False]])
        indices, fitness = _fused_reduce(fitnesses, "argmin", admissible=admissible)
        assert indices.tolist() == [-1] and fitness.tolist() == [np.inf]

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown reduce op"):
            _fused_reduce(np.array([[1.0]]), "median")
        with pytest.raises(ValueError, match="thresholds"):
            _fused_reduce(np.array([[1.0]]), "first-improvement")

    def test_first_improving_move(self):
        fitnesses = np.array([[5.0, 4.0, 1.0]])
        indices, fitness = _fused_reduce(
            fitnesses, "first-improvement", thresholds=np.array([4.5])
        )
        assert indices.tolist() == [1] and fitness.tolist() == [4.0]
        indices, _ = _fused_reduce(
            fitnesses, "first-improvement", thresholds=np.array([0.5])
        )
        assert indices.tolist() == [-1]
