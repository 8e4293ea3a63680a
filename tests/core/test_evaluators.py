"""Tests for the evaluation kernels, evaluators and the fused selection reduction."""

import numpy as np
import pytest

from repro.core import (
    CPUEvaluator,
    GPUEvaluator,
    MultiGPUEvaluator,
    SequentialEvaluator,
    full_step_time,
    kernel_cost_profile,
    mapping_flops,
)
from repro.core.evaluators import _fused_reduce
from repro.core.kernels import build_batch_neighborhood_kernel
from repro.gpu import ExecutionMode, GPUContext, GTX_280, GTX_8800, grid_for
from repro.localsearch import TabuSearch
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
        # The paper's single-solution kernel is the batch kernel at S = 1.
        neighborhood = KHammingNeighborhood(ppp.n, k)
        kernel = build_batch_neighborhood_kernel(ppp, neighborhood)
        solution = ppp.random_solution(1)
        cfg = grid_for(neighborhood.size, 64)
        out_vec = np.zeros(neighborhood.size)
        out_thread = np.zeros(neighborhood.size)
        kernel.execute(cfg, (solution[None, :], out_vec), active_threads=neighborhood.size,
                       mode=ExecutionMode.VECTORIZED)
        kernel.execute(cfg, (solution[None, :], out_thread), active_threads=neighborhood.size,
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

    def test_one_row_cpu_evaluation_scores_the_frozen_table(self, monkeypatch):
        # The gain engine serves only the frozen move table, so a one-row
        # CPU call must hand the problem that table, not a rebuilt copy.
        problem = PermutedPerceptronProblem.generate(17, 15, rng=0)
        neighborhood = TwoHammingNeighborhood(problem.n)
        seen = []

        def spy(method):
            def record(solutions, moves, *args, **kwargs):
                seen.append(moves)
                return method(solutions, moves, *args, **kwargs)
            return record

        for name in ("evaluate_neighborhood", "evaluate_neighborhood_batch"):
            monkeypatch.setattr(problem, name, spy(getattr(problem, name)))
        solution = problem.random_solution(3)
        got = CPUEvaluator(problem, neighborhood).evaluate(solution)
        assert np.array_equal(got, brute_force(problem, solution, neighborhood))
        assert seen and all(moves is neighborhood.move_table for moves in seen)

    def test_mismatched_problem_and_neighborhood(self, ppp):
        with pytest.raises(ValueError):
            CPUEvaluator(ppp, OneHammingNeighborhood(ppp.n + 1))

    def test_out_of_range_indices(self, ppp):
        ev = CPUEvaluator(ppp, OneHammingNeighborhood(ppp.n))
        with pytest.raises(IndexError):
            ev.evaluate(ppp.random_solution(0), np.array([ppp.n]))


class TestEvaluatorStats:
    def test_stats_accumulate(self, ppp):
        neighborhood = OneHammingNeighborhood(ppp.n)
        ev = CPUEvaluator(ppp, neighborhood)
        solution = ppp.random_solution(0)
        ev.evaluate(solution)
        ev.evaluate(solution)
        assert ev.stats.calls == 2
        assert ev.stats.evaluations == 2 * neighborhood.size
        assert ev.stats.simulated_time > 0

    def test_gpu_time_includes_launch_overhead(self, ppp):
        neighborhood = OneHammingNeighborhood(ppp.n)
        ev = GPUEvaluator(ppp, neighborhood)
        ev.evaluate(ppp.random_solution(0))
        assert ev.stats.simulated_time >= GTX_280.kernel_launch_overhead

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


class TestGPUEvaluatorIsOneDevicePool:
    def test_constructor_forwards_to_a_one_device_pool(self, ppp):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        ev = GPUEvaluator(
            ppp, neighborhood, device=GTX_8800, block_size=128,
            use_texture_memory=True, pinned=True,
        )
        assert isinstance(ev, MultiGPUEvaluator)
        assert ev.platform == "gpu" and ev.num_devices == 1
        assert ev.pool.contexts == [ev.context]
        assert ev.context.device is GTX_8800 and ev.context.pinned
        assert ev.block_size == 128
        assert ev.batch_kernel.cost == kernel_cost_profile(ppp, 2, use_texture=True)
        assert ev.last_persistent_record is None

    def test_runs_on_an_existing_context(self, ppp):
        context = GPUContext(GTX_280)
        neighborhood = OneHammingNeighborhood(ppp.n)
        first = GPUEvaluator(ppp, neighborhood, context=context)
        second = GPUEvaluator(ppp, neighborhood, context=context)
        assert first.context is second.context is context
        first.evaluate(ppp.random_solution(0))
        second.evaluate(ppp.random_solution(1))
        assert context.stats.kernel_launches == 2

    def test_context_and_topology_are_exclusive(self, ppp):
        with pytest.raises(ValueError, match="either an existing context or a topology"):
            GPUEvaluator(
                ppp, OneHammingNeighborhood(ppp.n),
                context=GPUContext(GTX_280), topology="shared",
            )

    @pytest.mark.parametrize("name", ["evaluate_resident", "apply_deltas"])
    def test_traced_entry_points_are_the_pool_methods(self, name):
        # The tracer wraps these names in GPUEvaluator's own namespace; an
        # alias (not a wrapper) opens exactly one span per call.
        assert vars(GPUEvaluator)[name] is vars(MultiGPUEvaluator)[name]


PLATFORMS = {
    "cpu-sequential": SequentialEvaluator,
    "cpu": CPUEvaluator,
    "gpu": GPUEvaluator,
    "multi-gpu": lambda problem, nb: MultiGPUEvaluator(problem, nb, devices=2),
}


class TestCheckpointPlatform:
    """A snapshot restores only into an evaluator of its own platform."""

    @staticmethod
    def _snapshot(ppp, platform):
        neighborhood = OneHammingNeighborhood(ppp.n)
        source = PLATFORMS[platform](ppp, neighborhood)
        source.evaluate(ppp.random_solution(0))
        return source.snapshot_state()

    @pytest.mark.parametrize(
        "source,target",
        [(s, t) for s in PLATFORMS for t in PLATFORMS if s != t],
    )
    def test_restore_rejects_another_platform(self, ppp, source, target):
        snap = self._snapshot(ppp, source)
        evaluator = PLATFORMS[target](ppp, OneHammingNeighborhood(ppp.n))
        with pytest.raises(ValueError, match=f"'{source}' evaluator.*is '{target}'"):
            evaluator.restore_state(snap)
        assert evaluator.stats.calls == 0
        assert evaluator.stats.simulated_time == 0.0

    @pytest.mark.parametrize("platform", list(PLATFORMS))
    def test_restore_accepts_its_own_platform(self, ppp, platform):
        snap = self._snapshot(ppp, platform)
        evaluator = PLATFORMS[platform](ppp, OneHammingNeighborhood(ppp.n))
        evaluator.restore_state(snap)
        assert evaluator.stats.calls == 1
        assert evaluator.stats.simulated_time == snap["stats"]["simulated_time"] > 0


def _speedup(problem, neighborhood):
    """CPU / GPU price of one ``full`` step (the paper's "Acceleration")."""
    cpu = full_step_time(CPUEvaluator(problem, neighborhood))
    return cpu / full_step_time(GPUEvaluator(problem, neighborhood))


class TestFullStepTime:
    def test_small_1hamming_gpu_slower_than_cpu(self):
        # Paper Table I: for the literature instances the 1-Hamming GPU
        # version is *slower* than the CPU version.
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        assert _speedup(problem, OneHammingNeighborhood(73)) < 1.0

    def test_2hamming_and_3hamming_speedups_in_paper_band(self):
        # Paper Tables II and III: accelerations of roughly x10-x26.
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        s2 = _speedup(problem, TwoHammingNeighborhood(73))
        s3 = _speedup(problem, ThreeHammingNeighborhood(73))
        assert 5 <= s2 <= 40
        assert 10 <= s3 <= 60
        assert s3 > s2

    def test_gpu_time_components_positive(self):
        problem = PermutedPerceptronProblem.generate(31, 31, rng=0)
        ev = GPUEvaluator(problem, TwoHammingNeighborhood(31))
        step = full_step_time(ev)
        stats = ev.context.stats
        assert stats.kernel_time > GTX_280.kernel_launch_overhead
        assert stats.transfer_time > 0
        # One device's clock adds its transfers and kernel one after another.
        assert step == stats.total_time == ev.stats.simulated_time

    def test_multicore_cpu_ablation_reduces_cpu_time(self):
        problem = PermutedPerceptronProblem.generate(73, 73, rng=0)
        nb = TwoHammingNeighborhood(73)
        single = full_step_time(CPUEvaluator(problem, nb, cores=1))
        multi = full_step_time(CPUEvaluator(problem, nb, cores=8))
        assert multi < single


class TestFullStepPriceIsStepInvariant:
    """One ``full`` step's price depends on neither the solution nor the step."""

    @pytest.fixture(scope="class")
    def problem(self):
        return PermutedPerceptronProblem.generate(31, 37, rng=0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("factory", [CPUEvaluator, GPUEvaluator])
    def test_every_solution_costs_the_same(self, problem, factory, order):
        neighborhood = KHammingNeighborhood(problem.n, order)
        prices = []
        for solution in (
            np.zeros(problem.n, dtype=np.int8),
            np.ones(problem.n, dtype=np.int8),
            problem.random_solution(3),
        ):
            ev = factory(problem, neighborhood)
            ev.evaluate(solution)
            prices.append(ev.stats.simulated_time)
        assert prices[0] > 0
        assert prices == [full_step_time(factory(problem, neighborhood))] * 3

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("factory", [CPUEvaluator, GPUEvaluator])
    def test_a_run_costs_its_steps_times_one_probe(self, problem, factory, order):
        neighborhood = KHammingNeighborhood(problem.n, order)
        result = TabuSearch(
            factory(problem, neighborhood), max_iterations=12, target_fitness=-1.0
        ).run(rng=5)
        assert result.iterations == 12
        assert result.simulated_time / result.iterations == pytest.approx(
            full_step_time(factory(problem, neighborhood)), rel=1e-12
        )


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
