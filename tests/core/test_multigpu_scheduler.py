"""Seeded invariants of the concurrent multi-GPU scheduler path.

The refactored :class:`~repro.core.evaluators.MultiGPUEvaluator` issues
per-device work asynchronously on independent timelines, routes resident
delta packets over peer-to-peer links and can migrate replicas between
devices.  These tests pin down the structural guarantees:

* per-device stream timelines stay monotone and non-overlapping per stream;
* the cross-device makespan never exceeds the serialized per-device sum;
* P2P-routed delta bytes never appear in the H2D/D2H counters;
* every scheduling decision (weighted partitions, peer routing, pinned
  staging, migration) leaves the trajectories bit-identical to the
  single-GPU reference.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.gpu import GTX_280, GTX_8800, TESLA_C1060, HostMemoryKind
from repro.harness import format_experiment_table, run_ppp_experiment
from repro.localsearch import TRANSFER_MODES, MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import instance_seed, make_table_instance

SPEC = (21, 21)
ORDER = 2
REPLICAS = 7
MAX_ITERATIONS = 9


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


def _reference(problem, neighborhood, algorithm="tabu"):
    evaluator = GPUEvaluator(problem, neighborhood)
    runner = MultiStartRunner(
        evaluator, algorithm=algorithm, max_iterations=MAX_ITERATIONS,
        transfer_mode="full",
    )
    records = _records(runner.run(seeds=_seeds()))
    evaluator.close()
    return records


def _assert_valid_streams(timeline):
    for stream in timeline.streams.values():
        previous_end = 0.0
        for interval in stream.intervals:
            assert interval.start >= previous_end - 1e-12
            assert interval.end >= interval.start
            previous_end = interval.end


class TestCrossDeviceTimelines:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["delta", "reduced"])
    def test_streams_monotone_and_makespan_below_serialized_sum(self, seed, mode):
        rng = np.random.default_rng(seed)
        m = n = int(rng.integers(17, 29))
        problem = make_table_instance((m, n), trial=0)
        neighborhood = KHammingNeighborhood(n, int(rng.integers(1, 3)))
        replicas = int(rng.integers(4, 9))
        devices = int(rng.integers(2, 5))
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=devices)
        runner = MultiStartRunner(
            evaluator, algorithm="tabu",
            max_iterations=int(rng.integers(4, 12)), transfer_mode=mode,
        )
        runner.run(seeds=[instance_seed(m, n, t) for t in range(replicas)])
        for context in evaluator.pool.contexts:
            _assert_valid_streams(context.timeline)
        scheduler = evaluator.scheduler
        assert scheduler.makespan <= scheduler.serialized_sum + 1e-12
        # More than one device did real work, so true overlap must exist.
        busy = [ctx.timeline.busy_time for ctx in evaluator.pool.contexts]
        if sum(b > 0 for b in busy) > 1:
            assert scheduler.makespan < scheduler.serialized_sum
        evaluator.close()

    def test_full_mode_batch_path_also_overlaps(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(5)]
        )
        evaluator.evaluate_many(block)
        scheduler = evaluator.scheduler
        assert scheduler.makespan < scheduler.serialized_sum
        assert evaluator.stats.simulated_time == pytest.approx(scheduler.makespan)
        evaluator.close()


class TestPeerRoutedDeltas:
    def _run(self, problem, neighborhood, peer_routing):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=3, peer_routing=peer_routing
        )
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
            transfer_mode="delta",
        )
        records = _records(runner.run(seeds=_seeds()))
        contexts = evaluator.pool.contexts
        stats = {
            "records": records,
            "per_h2d": [c.stats.h2d_bytes for c in contexts],
            "per_d2h": [c.stats.d2h_bytes for c in contexts],
            "p2p": sum(c.stats.p2p_bytes for c in contexts),
            "h2d_count": sum(c.memory.transfer_count("h2d") for c in contexts),
            "host_busy": evaluator.scheduler.host_timeline.busy_time,
        }
        evaluator.close()
        return stats

    def test_p2p_bytes_never_in_h2d_d2h_counters(self, problem, neighborhood):
        routed = self._run(problem, neighborhood, True)
        host_routed = self._run(problem, neighborhood, False)
        assert routed["records"] == host_routed["records"]
        assert routed["p2p"] > 0
        assert host_routed["p2p"] == 0
        # Downloads are untouched by the routing choice.
        assert routed["per_d2h"] == host_routed["per_d2h"]
        # The forwarded delta slices reach the non-hub devices over the peer
        # link only: their h2d counters shrink to the session upload plus
        # the id-list packets — the delta pair bytes never show up there.
        for on, off in zip(routed["per_h2d"][1:], host_routed["per_h2d"][1:]):
            assert on < off
        # The host issues one combined packet instead of one per device.
        assert routed["h2d_count"] < host_routed["h2d_count"]
        assert routed["host_busy"] < host_routed["host_busy"]

    def test_single_device_pool_never_routes(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=1)
        assert not evaluator.peer_routing
        evaluator.close()

    def test_non_capable_pool_falls_back_to_host(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=[GTX_280, GTX_8800]
        )
        assert not evaluator.peer_routing
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
            transfer_mode="delta",
        )
        records = _records(runner.run(seeds=_seeds()))
        assert records == _reference(problem, neighborhood)
        assert sum(c.stats.p2p_bytes for c in evaluator.pool.contexts) == 0
        evaluator.close()


class TestEquivalence:
    @pytest.mark.parametrize("mode", TRANSFER_MODES)
    @pytest.mark.parametrize("pinned", [False, True])
    def test_all_modes_match_single_gpu(self, problem, neighborhood, mode, pinned):
        reference = _reference(problem, neighborhood)
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=3, pinned=pinned
        )
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
            transfer_mode=mode,
        )
        assert _records(runner.run(seeds=_seeds())) == reference
        evaluator.close()

    def test_heterogeneous_pool_weighted_partitions_match(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=[GTX_280, TESLA_C1060, GTX_8800]
        )
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
            transfer_mode="reduced",
        )
        records = _records(runner.run(seeds=_seeds()))
        assert records == _reference(problem, neighborhood)
        # The weighted partition hands the slower G80 the smallest share.
        parts = evaluator.pool.partitions(1000, evaluator._kernel_cost())
        sizes = [p.size for p in parts]
        assert sizes[2] == min(sizes)
        assert sum(sizes) == 1000
        evaluator.close()

    def test_pinned_pool_is_faster_and_stages_packets(self, problem, neighborhood):
        elapsed = {}
        for pinned in (False, True):
            evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2, pinned=pinned)
            runner = MultiStartRunner(
                evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
                transfer_mode="reduced",
            )
            runner.run(seeds=_seeds())
            elapsed[pinned] = sum(
                c.stats.transfer_time for c in evaluator.pool.contexts
            )
            if pinned:
                pools = [c.staging_pool for c in evaluator.pool.contexts]
                assert all(pool is not None for pool in pools)
                assert sum(pool.stagings for pool in pools) > 0
                kinds = [
                    c.memory.bytes_transferred(host_kind=HostMemoryKind.PAGEABLE)
                    for c in evaluator.pool.contexts
                ]
                assert sum(kinds) == 0
            evaluator.close()
        assert elapsed[True] < elapsed[False]


class TestReplicaMigration:
    def test_rebalance_preserves_trajectories(self, problem, neighborhood):
        reference = _reference(problem, neighborhood)
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
            transfer_mode="reduced", rebalance_every=2,
        )
        assert _records(runner.run(seeds=_seeds())) == reference
        for context in evaluator.pool.contexts:
            _assert_valid_streams(context.timeline)
        evaluator.close()

    def test_migration_moves_rows_over_peer_links(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(6)]
        )
        evaluator.begin_search(block)
        evaluator.init_tabu_memory(4)
        evaluator.evaluate_resident(
            reduce="argmin", tabu_iterations=np.zeros(6, dtype=np.int64)
        )
        before_p2p = sum(c.stats.p2p_bytes for c in evaluator.pool.contexts)
        # Pretend the first device's replicas all finished: the rebalance
        # must shift ownership toward the devices with remaining work.
        active = np.array([False, False, True, True, True, True])
        moved = evaluator.rebalance_resident(active=active)
        assert moved > 0
        after_p2p = sum(c.stats.p2p_bytes for c in evaluator.pool.contexts)
        assert after_p2p > before_p2p
        # The session stays fully functional after the migration.
        indices, fitnesses = evaluator.evaluate_resident(
            np.nonzero(active)[0],
            reduce="argmin",
            tabu_iterations=np.ones(4, dtype=np.int64),
        )
        assert indices.shape == (4,) and fitnesses.shape == (4,)
        evaluator.close()

    def test_migration_host_fallback_without_peer_links(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=[GTX_280, GTX_8800]
        )
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(4)]
        )
        evaluator.begin_search(block)
        before = [
            (c.stats.d2h_bytes, c.stats.h2d_bytes) for c in evaluator.pool.contexts
        ]
        moved = evaluator.rebalance_resident(
            active=np.array([False, True, True, True])
        )
        if moved:
            after = [
                (c.stats.d2h_bytes, c.stats.h2d_bytes) for c in evaluator.pool.contexts
            ]
            assert after != before
            assert sum(c.stats.p2p_bytes for c in evaluator.pool.contexts) == 0
        evaluator.close()

    def test_rebalance_rejected_during_persistent_launch(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(4)]
        )
        evaluator.begin_search(block, persistent=True)
        with pytest.raises(RuntimeError, match="persistent"):
            evaluator.rebalance_resident()
        evaluator.close()

    def test_rebalance_requires_session(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2)
        with pytest.raises(RuntimeError, match="begin_search"):
            evaluator.rebalance_resident()
        evaluator.close()

    def test_noop_when_already_balanced(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=2)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(4)]
        )
        evaluator.begin_search(block)
        assert evaluator.rebalance_resident() == 0
        evaluator.close()


class TestHarnessColumns:
    def test_experiment_row_reports_pool_accounting(self):
        row = run_ppp_experiment(
            (15, 15), 1, trials=3, max_iterations=8,
            evaluator_factory="multi-gpu",
            transfer_mode="reduced", devices=3, pinned=True,
        )
        assert row.num_devices == 3
        assert row.pinned
        assert row.p2p_bytes > 0
        assert row.transfer_time_s > 0
        assert row.sim_elapsed_s <= row.serialized_device_s
        assert row.cross_device_overlap_s > 0
        assert len(row.device_elapsed_s) == 3
        payload = row.as_dict()
        assert payload["num_devices"] == 3 and payload["pinned"] is True
        table = format_experiment_table([row])
        assert "Devices" in table and "P2P" in table and "Pinned" in table

    def test_protocol_pool_sizes_and_memory_kinds(self):
        # The paper protocol at 41x41, 2-Hamming, 12 trials, cap 10, reduced
        # mode, on 1/2/4 GPUs in both host-memory models.
        rows = {
            (devices, pinned): run_ppp_experiment(
                (41, 41), 2, trials=12, max_iterations=10,
                evaluator_factory="multi-gpu" if devices > 1 else "gpu",
                transfer_mode="reduced",
                devices=devices if devices > 1 else None,
                pinned=pinned,
            )
            for devices in (1, 2, 4)
            for pinned in (False, True)
        }
        records = lambda row: [(t.fitness, t.iterations, t.success) for t in row.trials]
        reference = records(rows[1, False])
        for (devices, pinned), row in rows.items():
            assert records(row) == reference, (devices, pinned)
            if devices > 1:
                # True concurrent issue, not a per-step max.
                assert row.sim_elapsed_s < row.serialized_device_s
                assert row.p2p_bytes > 0
            if pinned:
                assert row.transfer_time_s < rows[devices, False].transfer_time_s
        assert rows[4, False].sim_elapsed_s < rows[1, False].sim_elapsed_s

    def test_single_gpu_row_hides_device_columns(self):
        row = run_ppp_experiment(
            (15, 15), 1, trials=2, max_iterations=6,
            evaluator_factory="gpu",
        )
        assert row.num_devices == 1 and row.p2p_bytes == 0
        table = format_experiment_table([row])
        assert "Devices" not in table

    def test_pool_options_rejected_for_cpu_specs(self):
        with pytest.raises(ValueError, match="pinned"):
            run_ppp_experiment(
                (15, 15), 1, trials=1, max_iterations=2,
                evaluator_factory="cpu", pinned=True,
            )
        with pytest.raises(ValueError, match="device"):
            run_ppp_experiment(
                (15, 15), 1, trials=1, max_iterations=2,
                evaluator_factory="gpu", devices=2,
            )
