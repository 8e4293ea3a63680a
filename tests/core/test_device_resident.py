"""Device-resident pipeline: delta transfers, fused reduction, buffer hygiene.

The transfer-accounting invariants here are the paper's core claim made
testable: once the solution block is device-resident, the per-iteration PCIe
traffic is ``O(S)`` — flipped-bit deltas up, per-replica ``(index, fitness)``
pairs down — instead of the ``O(S·n)`` uploads and ``O(S·M)`` downloads of
the naive loop.
"""

import numpy as np
import pytest

from repro.core import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator
from repro.gpu import FITNESS_BYTES, REDUCED_RESULT_BYTES, SOLUTION_ENTRY_BYTES
from repro.harness import format_experiment_table, run_ppp_experiment
from repro.localsearch import TRANSFER_MODES, MultiStartRunner, TabuSearch
from repro.localsearch.hill_climbing import (
    FirstImprovementHillClimbing,
    HillClimbing,
)
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import instance_seed, make_table_instance

SPEC = (15, 15)
ORDER = 2
REPLICAS = 6
MAX_ITERATIONS = 30


@pytest.fixture()
def problem():
    return make_table_instance(SPEC, trial=0)


@pytest.fixture()
def neighborhood(problem):
    return KHammingNeighborhood(problem.n, ORDER)


def _seeds(count=REPLICAS):
    return [instance_seed(SPEC[0], SPEC[1], trial) for trial in range(count)]


def _records(result):
    return [
        (r.best_fitness, r.iterations, r.stopping_reason, tuple(r.best_solution))
        for r in result
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", MultiStartRunner.ALGORITHMS)
    def test_multistart_modes_identical(self, problem, neighborhood, algorithm):
        reference = None
        for mode in TRANSFER_MODES:
            evaluator = GPUEvaluator(problem, neighborhood)
            runner = MultiStartRunner(
                evaluator,
                algorithm=algorithm,
                max_iterations=MAX_ITERATIONS,
                transfer_mode=mode,
            )
            records = _records(runner.run(seeds=_seeds()))
            evaluator.close()
            if reference is None:
                reference = records
            assert records == reference, f"{algorithm}/{mode} diverged from full"

    @pytest.mark.parametrize("algorithm", MultiStartRunner.ALGORITHMS)
    def test_multi_gpu_reduced_matches_single(self, problem, neighborhood, algorithm):
        single = GPUEvaluator(problem, neighborhood)
        runner = MultiStartRunner(
            single, algorithm=algorithm, max_iterations=MAX_ITERATIONS,
            transfer_mode="full",
        )
        reference = _records(runner.run(seeds=_seeds()))
        multi = MultiGPUEvaluator(problem, neighborhood, devices=3)
        runner = MultiStartRunner(
            multi, algorithm=algorithm, max_iterations=MAX_ITERATIONS,
            transfer_mode="reduced",
        )
        assert _records(runner.run(seeds=_seeds())) == reference
        multi.close()

    @pytest.mark.parametrize(
        "search_cls", [TabuSearch, HillClimbing, FirstImprovementHillClimbing]
    )
    def test_scalar_search_modes_identical(self, problem, neighborhood, search_cls):
        reference = None
        for mode in TRANSFER_MODES:
            evaluator = GPUEvaluator(problem, neighborhood)
            search = search_cls(
                evaluator, max_iterations=MAX_ITERATIONS, transfer_mode=mode
            )
            result = search.run(rng=1234)
            record = (
                result.best_fitness,
                result.iterations,
                result.stopping_reason,
                tuple(result.best_solution),
            )
            evaluator.close()
            if reference is None:
                reference = record
            assert record == reference, f"{search_cls.__name__}/{mode} diverged"


class TestTransferInvariants:
    def _resident_evaluator(self, problem, neighborhood, replicas=REPLICAS):
        evaluator = GPUEvaluator(problem, neighborhood)
        rng = np.random.default_rng(0)
        block = np.stack([problem.random_solution(rng) for _ in range(replicas)])
        evaluator.begin_search(block)
        return evaluator

    def test_reduced_d2h_is_16_bytes_per_replica(self, problem, neighborhood):
        evaluator = self._resident_evaluator(problem, neighborhood)
        stats = evaluator.context.stats
        before = stats.d2h_bytes
        evaluator.evaluate_resident(reduce="argmin")
        per_iteration = stats.d2h_bytes - before
        assert per_iteration == REDUCED_RESULT_BYTES * REPLICAS
        assert per_iteration <= 16 * REPLICAS
        # Orders of magnitude below the full download.
        assert per_iteration < FITNESS_BYTES * REPLICAS * neighborhood.size / 4

    def test_delta_h2d_is_o_of_s_not_s_times_n(self, problem, neighborhood):
        evaluator = self._resident_evaluator(problem, neighborhood)
        stats = evaluator.context.stats
        # One applied k-Hamming move per replica, then one evaluation.
        before = stats.h2d_bytes
        evaluator.apply_deltas(
            np.arange(REPLICAS), np.arange(REPLICAS) % problem.n
        )
        evaluator.evaluate_resident()
        per_iteration = stats.h2d_bytes - before
        # The delta packet: 8 bytes per flipped bit, nothing else.
        assert per_iteration == 8 * REPLICAS
        assert per_iteration < SOLUTION_ENTRY_BYTES * REPLICAS * problem.n

    def test_active_subset_adds_only_id_list(self, problem, neighborhood):
        evaluator = self._resident_evaluator(problem, neighborhood)
        stats = evaluator.context.stats
        active = np.array([0, 2, 4])
        before = stats.h2d_bytes
        evaluator.evaluate_resident(active)
        assert stats.h2d_bytes - before == SOLUTION_ENTRY_BYTES * active.size

    def test_begin_search_uploads_block_once(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        stats = evaluator.context.stats
        rng = np.random.default_rng(0)
        block = np.stack([problem.random_solution(rng) for _ in range(REPLICAS)])
        before = stats.h2d_bytes
        evaluator.begin_search(block)
        assert stats.h2d_bytes - before == (
            SOLUTION_ENTRY_BYTES * REPLICAS * problem.n
        )
        # Full-neighborhood evaluations afterwards upload nothing.
        before = stats.h2d_bytes
        evaluator.evaluate_resident()
        assert stats.h2d_bytes == before

    def test_reduced_run_timeline_is_valid_per_stream(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        runner = MultiStartRunner(
            evaluator, max_iterations=MAX_ITERATIONS, transfer_mode="reduced"
        )
        runner.run(seeds=_seeds())
        for stream in evaluator.context.timeline.streams.values():
            intervals = stream.intervals
            assert all(iv.end >= iv.start for iv in intervals)
            for earlier, later in zip(intervals, intervals[1:]):
                assert later.start >= earlier.end

    def test_tabu_mask_upload_can_hide_under_kernel(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        runner = MultiStartRunner(
            evaluator, max_iterations=MAX_ITERATIONS, transfer_mode="reduced"
        )
        runner.run(seeds=_seeds())
        assert evaluator.context.timeline.overlap_saved > 0.0


class TestSessionLifecycle:
    def test_resident_calls_require_begin(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        with pytest.raises(RuntimeError):
            evaluator.evaluate_resident()
        with pytest.raises(RuntimeError):
            evaluator.apply_deltas([0], [0])

    def test_begin_search_validates_block(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        with pytest.raises(ValueError):
            evaluator.begin_search(np.zeros((2, problem.n + 1), dtype=np.int8))
        with pytest.raises(ValueError):
            evaluator.begin_search(np.zeros((0, problem.n), dtype=np.int8))

    def test_apply_deltas_validates_indices(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        evaluator.begin_search(np.zeros((2, problem.n), dtype=np.int8))
        with pytest.raises(IndexError):
            evaluator.apply_deltas([5], [0])
        with pytest.raises(IndexError):
            evaluator.apply_deltas([0], [problem.n])
        with pytest.raises(ValueError):
            evaluator.apply_deltas([0, 1], [0])

    def test_end_search_frees_session_buffers(self, problem, neighborhood):
        evaluator = self._make_session(problem, neighborhood)
        owner = str(id(evaluator))
        assert any(
            owner in name.split(":")[1:]
            for name in evaluator.context.memory.allocations
        )
        evaluator.end_search()
        session_kinds = {"resident", "deltas", "reduction_packet", "reduced"}
        leftovers = [
            name
            for name in evaluator.context.memory.allocations
            if name.split(":")[0] in session_kinds
        ]
        assert leftovers == []

    def test_close_releases_every_evaluator_buffer(self, problem, neighborhood):
        context_holder = GPUEvaluator(problem, neighborhood)
        context = context_holder.context
        context_holder.close()
        baseline = context.memory.allocated_bytes
        # Many evaluators sharing one context must not leak device memory.
        for _ in range(5):
            evaluator = GPUEvaluator(problem, neighborhood, context=context)
            evaluator.evaluate(problem.random_solution(np.random.default_rng(1)))
            evaluator.begin_search(np.zeros((2, problem.n), dtype=np.int8))
            evaluator.evaluate_resident(reduce="argmin")
            evaluator.close()
            assert context.memory.allocated_bytes == baseline

    def test_closed_evaluator_rejects_further_use(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        solution = problem.random_solution(np.random.default_rng(3))
        evaluator.evaluate(solution)
        evaluator.close()
        # A closed evaluator's buffers escaped the device-memory model, so
        # every evaluation entry point must refuse to run.
        with pytest.raises(RuntimeError, match="closed"):
            evaluator.evaluate(solution)
        with pytest.raises(RuntimeError, match="closed"):
            evaluator.evaluate_many(solution[None, :])
        with pytest.raises(RuntimeError, match="closed"):
            evaluator.begin_search(solution[None, :])

    def test_context_manager_closes(self, problem, neighborhood):
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.evaluate(problem.random_solution(np.random.default_rng(2)))
        assert not any(
            str(id(evaluator)) in name.split(":")[1:]
            for name in evaluator.context.memory.allocations
        )

    def _make_session(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        evaluator.begin_search(np.zeros((2, problem.n), dtype=np.int8))
        evaluator.evaluate_resident(reduce="argmin")
        return evaluator


class TestModeValidation:
    def test_cpu_evaluator_rejects_resident_modes(self, problem, neighborhood):
        evaluator = CPUEvaluator(problem, neighborhood)
        with pytest.raises(ValueError, match="device-resident"):
            TabuSearch(evaluator, transfer_mode="delta")
        with pytest.raises(ValueError, match="device-resident"):
            MultiStartRunner(evaluator, transfer_mode="reduced")

    def test_unknown_mode_rejected(self, problem, neighborhood):
        evaluator = GPUEvaluator(problem, neighborhood)
        with pytest.raises(ValueError, match="transfer_mode"):
            TabuSearch(evaluator, transfer_mode="compressed")
        with pytest.raises(ValueError, match="transfer_mode"):
            MultiStartRunner(evaluator, transfer_mode="compressed")


class TestHarnessIntegration:
    def test_experiment_rows_identical_and_annotated(self):
        rows = {}
        for mode in TRANSFER_MODES:
            rows[mode] = run_ppp_experiment(
                SPEC,
                1,
                trials=4,
                max_iterations=20,
                evaluator_factory="gpu",
                transfer_mode=mode,
            )
        reference = [
            (t.fitness, t.iterations, t.success) for t in rows["full"].trials
        ]
        for mode, row in rows.items():
            assert [
                (t.fitness, t.iterations, t.success) for t in row.trials
            ] == reference
            assert row.transfer_mode == mode
            assert row.h2d_bytes > 0 and row.d2h_bytes > 0
            assert row.sim_elapsed_s > 0
        assert rows["reduced"].d2h_bytes < rows["full"].d2h_bytes
        assert rows["delta"].h2d_bytes < rows["full"].h2d_bytes
        table = format_experiment_table([rows["reduced"]])
        assert "Mode" in table and "reduced" in table
        assert "H2D" in table

    @pytest.fixture(scope="class")
    def protocol_rows(self):
        # The paper protocol at 73x73, 2-Hamming, 20 trials, cap 8: the
        # neighborhood is large enough (S*M past the reduction launch's
        # break-even) for the fused reduction to beat the full download.
        return {
            mode: run_ppp_experiment(
                (73, 73), 2, trials=20, max_iterations=8,
                evaluator_factory="gpu", transfer_mode=mode,
            )
            for mode in TRANSFER_MODES
        }

    def test_protocol_transfer_orderings(self, protocol_rows):
        rows = protocol_rows
        reference = [(t.fitness, t.iterations, t.success) for t in rows["full"].trials]
        for row in rows.values():
            assert [(t.fitness, t.iterations, t.success) for t in row.trials] == reference
        assert rows["reduced"].d2h_bytes < rows["full"].d2h_bytes
        assert rows["delta"].h2d_bytes < rows["full"].h2d_bytes
        assert rows["reduced"].sim_elapsed_s < rows["full"].sim_elapsed_s

    def test_protocol_persistent_launch_collapse(self, protocol_rows):
        reduced, persistent = protocol_rows["reduced"], protocol_rows["persistent"]
        # Tabu always moves, so the lockstep count is the longest trial's.
        lockstep_iterations = max(t.iterations for t in persistent.trials)
        assert persistent.kernel_launches == 1
        assert reduced.kernel_launches >= lockstep_iterations
        assert persistent.sim_elapsed_s < reduced.sim_elapsed_s
        assert persistent.h2d_bytes < reduced.h2d_bytes

    def test_transfer_columns_hidden_for_cpu_rows(self):
        row = run_ppp_experiment(SPEC, 1, trials=2, max_iterations=10)
        table = format_experiment_table([row])
        assert "H2D" not in table
