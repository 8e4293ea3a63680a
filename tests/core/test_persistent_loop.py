"""Invariants of the persistent-kernel iteration loop.

The persistent mode's whole point is captured by three seeded, randomized
invariants:

* **one launch per run** — the entire lockstep loop lives inside a single
  kernel launch (one per device on the multi-GPU backend), so the launch
  overhead is paid once, not once per iteration;
* **O(S) host->device bytes per iteration** — after the one-time block
  upload, the host's only upstream traffic is the per-replica early-stop
  flag (the deltas, the tabu stamps and the admissibility decisions all
  live on-device);
* **valid per-stream timelines** — every stream's intervals are monotone
  and non-overlapping, and the loop occupies exactly one long interval per
  stream it touches.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.gpu import (
    REDUCED_RESULT_BYTES,
    SOLUTION_ENTRY_BYTES,
    STOP_FLAG_BYTES,
    TABU_NEVER,
    COMPUTE_STREAM,
)
from repro.localsearch import MultiStartRunner, TabuSearch
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import instance_seed, make_table_instance


def _random_setup(seed: int):
    """Draw a random instance / neighborhood / replica-count configuration."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 18))
    order = int(rng.integers(1, 3))
    replicas = int(rng.integers(2, 8))
    max_iterations = int(rng.integers(5, 25))
    problem = make_table_instance((n, n), trial=0)
    neighborhood = KHammingNeighborhood(problem.n, order)
    seeds = [instance_seed(n, n, trial) for trial in range(replicas)]
    return problem, neighborhood, replicas, max_iterations, seeds


def _assert_valid_streams(timeline) -> None:
    for stream in timeline.streams.values():
        intervals = stream.intervals
        assert all(iv.end >= iv.start for iv in intervals)
        for earlier, later in zip(intervals, intervals[1:]):
            assert later.start >= earlier.end


@pytest.mark.parametrize("seed", range(5))
class TestPersistentRunInvariants:
    def test_single_launch_per_run(self, seed):
        problem, neighborhood, _, max_iterations, seeds = _random_setup(seed)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                max_iterations=max_iterations,
                transfer_mode="persistent",
            )
            result = runner.run(seeds=seeds)
            assert evaluator.context.stats.kernel_launches == 1
            record = evaluator.last_persistent_record
            assert record is not None
            assert record.iterations == result.iterations
            assert record.launch_overhead > 0.0
            # The amortized per-iteration overhead shrinks with the loop.
            assert record.amortized_overhead == pytest.approx(
                record.launch_overhead / result.iterations
            )

    def test_h2d_is_o_of_s_per_iteration(self, seed):
        problem, neighborhood, replicas, max_iterations, seeds = _random_setup(seed)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            stats = evaluator.context.stats
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                max_iterations=max_iterations,
                transfer_mode="persistent",
            )
            result = runner.run(seeds=seeds)
            # Exactly: the one-time (R, n) block upload plus one stop-flag
            # byte per replica slot per lockstep iteration.  Nothing else —
            # no deltas, no tabu stamps, no admissibility masks.
            upload = SOLUTION_ENTRY_BYTES * replicas * problem.n
            flags = STOP_FLAG_BYTES * replicas * result.iterations
            assert stats.h2d_bytes == upload + flags
            per_iteration = (stats.h2d_bytes - upload) / max(1, result.iterations)
            assert per_iteration <= STOP_FLAG_BYTES * replicas

    def test_d2h_is_result_ring_only(self, seed):
        problem, neighborhood, _, max_iterations, seeds = _random_setup(seed)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            stats = evaluator.context.stats
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                max_iterations=max_iterations,
                transfer_mode="persistent",
            )
            multi = runner.run(seeds=seeds)
            # Replica r is evaluated exactly once per iteration it performs
            # (tabu always moves), at 16 bytes per evaluation.
            expected = REDUCED_RESULT_BYTES * sum(r.iterations for r in multi)
            assert stats.d2h_bytes == expected
            assert evaluator.last_persistent_record.ring_bytes == expected

    def test_timeline_one_long_interval_per_stream(self, seed):
        problem, neighborhood, _, max_iterations, seeds = _random_setup(seed)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            timeline = evaluator.context.timeline
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                max_iterations=max_iterations,
                transfer_mode="persistent",
            )
            runner.run(seeds=seeds)
            _assert_valid_streams(timeline)
            # The whole run collapses to one interval on the compute stream
            # (the persistent launch) and at most one on each copy stream.
            compute = timeline.streams[COMPUTE_STREAM].intervals
            assert len(compute) == 1
            assert compute[0].kind == "kernel"
            assert compute[0].name.startswith("persistent[")
            for stream in timeline.streams.values():
                assert len(stream.intervals) <= 1

    def test_multi_gpu_one_launch_per_device(self, seed):
        problem, neighborhood, _, max_iterations, seeds = _random_setup(seed)
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
        runner = MultiStartRunner(
            evaluator,
            algorithm="tabu",
            max_iterations=max_iterations,
            transfer_mode="persistent",
        )
        runner.run(seeds=seeds)
        for context in evaluator.pool.contexts:
            if context.stats.kernel_launches:
                assert context.stats.kernel_launches == 1
            _assert_valid_streams(context.timeline)
        evaluator.close()


class TestPersistentSessionSemantics:
    def test_scalar_search_single_launch(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            search = TabuSearch(evaluator, max_iterations=15, transfer_mode="persistent")
            search.run(rng=123)
            assert evaluator.context.stats.kernel_launches == 1

    def test_back_to_back_runs_one_launch_each(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            search = TabuSearch(evaluator, max_iterations=10, transfer_mode="persistent")
            for run in range(1, 4):
                search.run(rng=run)
                assert evaluator.context.stats.kernel_launches == run

    def test_full_fitness_download_rejected_inside_loop(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.begin_search(
                np.zeros((2, problem.n), dtype=np.int8), persistent=True
            )
            with pytest.raises(ValueError, match="persistent loop"):
                evaluator.evaluate_resident()  # reduce=None

    def test_finished_loop_rejects_reuse(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.begin_search(
                np.zeros((2, problem.n), dtype=np.int8), persistent=True
            )
            evaluator.evaluate_resident(reduce="argmin")
            (slot,) = evaluator._slots
            loop = slot._loop
            evaluator.end_search()
            assert loop.closed
            with pytest.raises(RuntimeError, match="finished"):
                loop.iterate(2, (None,))

    def test_tabu_memory_requires_session(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            with pytest.raises(RuntimeError, match="begin_search"):
                evaluator.init_tabu_memory(3)

    def test_tabu_stamps_need_tabu_memory(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.begin_search(np.zeros((2, problem.n), dtype=np.int8))
            with pytest.raises(RuntimeError, match="init_tabu_memory"):
                evaluator.evaluate_resident(
                    reduce="argmin", tabu_iterations=np.zeros(2, dtype=np.int64)
                )

    def test_tabu_stamps_exclusive_with_mask(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.begin_search(np.zeros((2, problem.n), dtype=np.int8))
            evaluator.init_tabu_memory(3)
            with pytest.raises(ValueError, match="not both"):
                evaluator.evaluate_resident(
                    reduce="argmin",
                    tabu_iterations=np.zeros(2, dtype=np.int64),
                    admissible=np.ones((2, neighborhood.size), dtype=bool),
                )

    def test_device_tabu_memory_is_a_device_allocation(self):
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            before = evaluator.context.memory.allocated_bytes
            evaluator.begin_search(np.zeros((3, problem.n), dtype=np.int8))
            evaluator.init_tabu_memory(5)
            grown = evaluator.context.memory.allocated_bytes - before
            # The (R, M) int64 stamp block lives in the device-memory model.
            assert grown >= 3 * neighborhood.size * 8
            evaluator.end_search()
            assert evaluator.context.memory.allocated_bytes == before

    @pytest.mark.parametrize("access", ["read", "write", "reset"])
    @pytest.mark.parametrize("row", [-1, 4])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_tabu_rows_out_of_range_rejected(self, devices, row, access):
        # Negative rows must not wrap around to the last replica, and rows
        # past the session must not be dropped silently.
        problem = make_table_instance((12, 12), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        if devices == 1:
            evaluator = GPUEvaluator(problem, neighborhood)
        else:
            evaluator = MultiGPUEvaluator(problem, neighborhood, devices=devices)
        with evaluator:
            evaluator.begin_search(np.zeros((4, problem.n), dtype=np.int8))
            evaluator.init_tabu_memory(3)
            stamps = np.full((2, neighborhood.size), 7, dtype=np.int64)
            with pytest.raises(IndexError, match="out of range"):
                if access == "read":
                    evaluator.read_tabu_rows([0, row])
                elif access == "write":
                    evaluator.write_tabu_rows([0, row], stamps)
                else:
                    evaluator.write_tabu_rows([0, row])
            assert (evaluator.read_tabu_rows(range(4)) == TABU_NEVER).all()
            evaluator.write_tabu_rows([3, 0], stamps)
            assert np.array_equal(evaluator.read_tabu_rows([0, 3]), stamps)
