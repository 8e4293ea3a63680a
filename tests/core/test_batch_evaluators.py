"""Tests for the batched ``evaluate_many`` path of every evaluator backend."""

import numpy as np
import pytest

from repro.core import (
    CPUEvaluator,
    GPUEvaluator,
    MultiGPUEvaluator,
    SequentialEvaluator,
)
from repro.core.kernels import build_batch_neighborhood_kernel
from repro.gpu import ExecutionMode, GPUContext, GTX_280, grid_for, normalize_work
from repro.neighborhoods import KHammingNeighborhood, TwoHammingNeighborhood
from repro.problems import PermutedPerceptronProblem


@pytest.fixture(scope="module")
def ppp():
    return PermutedPerceptronProblem.generate(17, 15, rng=0)


@pytest.fixture(scope="module")
def solutions(ppp):
    rng = np.random.default_rng(1)
    return np.stack([ppp.random_solution(rng) for _ in range(6)])


def reference_rows(ppp, neighborhood, solutions, indices=None):
    evaluator = CPUEvaluator(ppp, neighborhood)
    return np.stack([evaluator.evaluate(row, indices) for row in solutions])


class TestEvaluateManyAgrees:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_all_backends_match_the_scalar_path(self, ppp, solutions, order):
        neighborhood = KHammingNeighborhood(ppp.n, order)
        expected = reference_rows(ppp, neighborhood, solutions)
        backends = [
            SequentialEvaluator(ppp, neighborhood),
            CPUEvaluator(ppp, neighborhood),
            GPUEvaluator(ppp, neighborhood),
            MultiGPUEvaluator(ppp, neighborhood, devices=3),
        ]
        for evaluator in backends:
            got = evaluator.evaluate_many(solutions)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), evaluator.platform

    def test_subset_indices(self, ppp, solutions):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        indices = np.array([0, 2, 31, neighborhood.size - 1])
        expected = reference_rows(ppp, neighborhood, solutions)[:, indices]
        for evaluator in (
            CPUEvaluator(ppp, neighborhood),
            GPUEvaluator(ppp, neighborhood),
            MultiGPUEvaluator(ppp, neighborhood, devices=2),
            SequentialEvaluator(ppp, neighborhood),
        ):
            assert np.array_equal(evaluator.evaluate_many(solutions, indices), expected)

    def test_single_row_block_matches_evaluate(self, ppp, solutions):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        evaluator = CPUEvaluator(ppp, neighborhood)
        single = evaluator.evaluate(solutions[0])
        assert np.array_equal(evaluator.evaluate_many(solutions[:1])[0], single)
        # A 1-D input is promoted to a one-row block.
        assert np.array_equal(evaluator.evaluate_many(solutions[0])[0], single)

    def test_shrinking_replica_block(self, ppp, solutions):
        # The GPU backend reallocates its device-side solution buffer when
        # the number of in-flight replicas changes (replicas finish at
        # different times in a multi-start run).
        neighborhood = TwoHammingNeighborhood(ppp.n)
        evaluator = GPUEvaluator(ppp, neighborhood)
        full = evaluator.evaluate_many(solutions)
        shrunk = evaluator.evaluate_many(solutions[:2])
        assert np.array_equal(shrunk, full[:2])

    def test_stats_accounting(self, ppp, solutions):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        for evaluator in (
            CPUEvaluator(ppp, neighborhood),
            GPUEvaluator(ppp, neighborhood),
            MultiGPUEvaluator(ppp, neighborhood, devices=2),
        ):
            evaluator.evaluate_many(solutions)
            assert evaluator.stats.calls == 1
            assert evaluator.stats.evaluations == solutions.shape[0] * neighborhood.size
            assert evaluator.stats.simulated_time > 0

    def test_validation(self, ppp, solutions):
        evaluator = CPUEvaluator(ppp, TwoHammingNeighborhood(ppp.n))
        with pytest.raises(ValueError):
            evaluator.evaluate_many(np.zeros((2, ppp.n + 1), dtype=np.int8))
        with pytest.raises(ValueError):
            evaluator.evaluate_many(np.full((2, ppp.n), 2, dtype=np.int8))
        with pytest.raises(IndexError):
            evaluator.evaluate_many(solutions, np.array([evaluator.neighborhood.size]))
        empty = evaluator.evaluate_many(np.empty((0, ppp.n), dtype=np.int8))
        assert empty.shape == (0, evaluator.neighborhood.size)


class TestBatchedGPUSemantics:
    def test_single_launch_and_single_upload(self, ppp, solutions):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        context = GPUContext(GTX_280, keep_launch_records=True)
        evaluator = GPUEvaluator(ppp, neighborhood, context=context)
        evaluator.evaluate_many(solutions)
        # One solution-block upload, one S x M launch, one fitness download.
        assert context.stats.kernel_launches == 1
        record = context.stats.launch_records[-1]
        assert record.work_shape == (solutions.shape[0], neighborhood.size)
        assert record.batch_size == solutions.shape[0]
        assert record.active_threads == solutions.shape[0] * neighborhood.size
        assert context.stats.h2d_bytes == solutions.shape[0] * ppp.n * 4
        assert context.stats.d2h_bytes == solutions.shape[0] * neighborhood.size * 8

    def test_batched_launch_amortizes_overhead(self, ppp, solutions):
        # S separate scalar evaluations pay S launch overheads and S
        # transfer latencies; the batched path pays each once.
        neighborhood = TwoHammingNeighborhood(ppp.n)
        scalar = GPUEvaluator(ppp, neighborhood)
        for row in solutions:
            scalar.evaluate(row)
        batched = GPUEvaluator(ppp, neighborhood)
        batched.evaluate_many(solutions)
        assert batched.stats.simulated_time < scalar.stats.simulated_time

    def test_multigpu_splits_flat_space(self, ppp, solutions):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        multi = MultiGPUEvaluator(ppp, neighborhood, devices=4)
        expected = reference_rows(ppp, neighborhood, solutions)
        assert np.array_equal(multi.evaluate_many(solutions), expected)
        # Every device context did real work (the flat S x M space is much
        # larger than the device count).
        assert all(ctx.stats.kernel_launches >= 1 for ctx in multi.pool.contexts)

    def test_batch_kernel_per_thread_mode_agrees(self, ppp, solutions):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        kernel = build_batch_neighborhood_kernel(ppp, neighborhood)
        total = solutions.shape[0] * neighborhood.size
        config = grid_for(total, 32)
        out_vec = np.zeros(total)
        out_thread = np.zeros(total)
        kernel.execute(config, (solutions, out_vec), active_threads=total,
                       mode=ExecutionMode.VECTORIZED)
        kernel.execute(config, (solutions, out_thread), active_threads=total,
                       mode=ExecutionMode.PER_THREAD)
        assert np.array_equal(out_vec, out_thread)


    def test_multigpu_per_thread_mode_agrees(self, ppp, solutions):
        # The pool scores once on the host; each device's per-thread launch
        # lands its slice of the scores.
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        expected = reference_rows(ppp, neighborhood, solutions)
        multi = MultiGPUEvaluator(ppp, neighborhood, devices=2, mode=ExecutionMode.PER_THREAD)
        assert np.array_equal(multi.evaluate_many(solutions), expected)
        assert np.array_equal(multi.evaluate(solutions[0]), expected[0])


class TestWorkShapes:
    def test_normalize_work(self):
        assert normalize_work(7) == (7, (7,))
        assert normalize_work((3, 5)) == (15, (3, 5))
        with pytest.raises(ValueError):
            normalize_work((0, 5))
        with pytest.raises(ValueError):
            normalize_work(())

    def test_unbatched_launch_records_1d_shape(self, ppp):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        context = GPUContext(GTX_280, keep_launch_records=True)
        evaluator = GPUEvaluator(ppp, neighborhood, context=context)
        evaluator.evaluate(ppp.random_solution(0))
        record = context.stats.launch_records[-1]
        assert record.work_shape == (neighborhood.size,)
        assert record.batch_size == 1


class TestFullNeighborhoodFastPathRegression:
    def test_shuffled_full_permutation_respects_index_order(self, ppp):
        # Regression: a permutation of the full index range used to slip
        # through the fast-path check and come back in canonical order.
        neighborhood = TwoHammingNeighborhood(ppp.n)
        solution = ppp.random_solution(5)
        reference = CPUEvaluator(ppp, neighborhood).evaluate(solution)
        permutation = np.random.default_rng(3).permutation(neighborhood.size)
        # Pin the endpoints the old check looked at, so only contiguity
        # distinguishes the permutation from the canonical range.
        first = int(np.where(permutation == 0)[0][0])
        permutation[[0, first]] = permutation[[first, 0]]
        last = int(np.where(permutation == neighborhood.size - 1)[0][0])
        permutation[[-1, last]] = permutation[[last, -1]]
        assert permutation[0] == 0 and permutation[-1] == neighborhood.size - 1
        assert not np.array_equal(permutation, np.arange(neighborhood.size))
        evaluator = GPUEvaluator(ppp, neighborhood)
        assert np.array_equal(evaluator.evaluate(solution, permutation),
                              reference[permutation])

    def test_d2h_bytes_match_float64_fitness_buffer(self, ppp):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        evaluator = GPUEvaluator(ppp, neighborhood)
        evaluator.evaluate(ppp.random_solution(0))
        assert evaluator.context.stats.d2h_bytes == 8 * neighborhood.size
