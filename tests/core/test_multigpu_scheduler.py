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
  single-GPU reference;
* no ``full`` step uploads before the previous step's downloads end.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.gpu import GTX_280, GTX_8800, TESLA_C1060
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


#: Pinned pools whose every host copy must stage: one and two GTX 280s, a
#: device failing and rejoining (its rows recovered from the host mirror,
#: then migrated back over a peer link), and a rebalancing pool without peer
#: links, whose migrations take the host round trip.
_PINNED_POOLS = {
    "1": {"devices": 1},
    "2": {"devices": 2},
    "fail1-join1": {"devices": 2, "fault_plan": "fail:1@2,join:1@4"},
    "fail0-join0": {"devices": 2, "fault_plan": "fail:0@2,join:0@4"},
    "gtx280+8800-rebalance": {"devices": [GTX_280, GTX_8800], "rebalance_every": 2},
}


def _assert_valid_streams(timeline):
    for stream in timeline.streams.values():
        previous_end = 0.0
        for interval in stream.intervals:
            assert interval.start >= previous_end - 1e-12
            assert interval.end >= interval.start
            previous_end = interval.end


def _serialized_sum(pool):
    """What the pool's recorded work would cost run one timeline after another."""
    return sum(ctx.timeline.busy_time for ctx in pool.contexts) + pool.host_timeline.busy_time


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
        pool = evaluator.pool
        assert pool.makespan <= _serialized_sum(pool) + 1e-12
        # More than one device did real work, so true overlap must exist.
        busy = [ctx.timeline.busy_time for ctx in pool.contexts]
        if sum(b > 0 for b in busy) > 1:
            assert pool.makespan < _serialized_sum(pool)
        evaluator.close()

    def test_full_mode_batch_path_also_overlaps(self, problem, neighborhood):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(s)) for s in range(5)]
        )
        evaluator.evaluate_many(block)
        pool = evaluator.pool
        assert pool.makespan < _serialized_sum(pool)
        assert evaluator.stats.simulated_time == pytest.approx(pool.makespan)
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
            "h2d_count": sum(
                interval.kind == "h2d" for c in contexts for interval in c.timeline.intervals()
            ),
            "host_busy": evaluator.pool.host_timeline.busy_time,
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
        parts = evaluator._partitions(1000)
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
            evaluator.close()
        assert elapsed[True] < elapsed[False]

    @pytest.mark.parametrize(
        "pool, mode",
        [
            pytest.param(pool, mode, id=f"{name}-{mode}")
            for name, pool in _PINNED_POOLS.items()
            for mode in ["full", "delta", "reduced", "persistent"]
            # Persistent launches pin replicas: no fault plan applies.
            if not (mode == "persistent" and "fault_plan" in pool)
        ],
    )
    def test_pinned_pool_stages_every_host_copy(self, problem, neighborhood, pool, mode):
        # A pinned pool has no pageable copy: every host byte a device
        # counts went through its staging pool, the persistent loop's ring
        # drains and control writes included, and so are the recovery
        # uploads of a failed device's rows and the host round trips of a
        # pool without peer links.
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=pool["devices"], pinned=True)
        runner = MultiStartRunner(
            evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS, transfer_mode=mode,
            rebalance_every=pool.get("rebalance_every"),
        )
        runner.run(seeds=_seeds(), fault_plan=pool.get("fault_plan"))
        for context in evaluator.pool.contexts:
            stats = context.stats
            assert stats.h2d_bytes > 0 and stats.d2h_bytes > 0
            assert context.staging_pool.staged_bytes == stats.h2d_bytes + stats.d2h_bytes
        evaluator.close()


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


class TestRestoreIntoAPricingPool:
    """A checkpoint restored into an evaluator that has priced steps already.

    Its scheduler and engine hold handles to the streams, channel loads and
    lanes the restore replaces; the continued run must still equal the
    uninterrupted one float for float.
    """

    @staticmethod
    def _signature(runner, result):
        pool = runner.evaluator.pool
        engine = pool.engine
        return {
            "records": _records(result),
            "simulated_time": runner.evaluator.stats.simulated_time,
            # What the run reports: its own time and every row's share of it.
            "result_time": result.simulated_time,
            "sim_share": runner.sim_share.tolist(),
            "stats": [ctx.stats.snapshot() for ctx in pool.contexts],
            "cursors": [
                {name: (stream.cursor, stream.busy_time) for name, stream in tl.streams.items()}
                for tl in [ctx.timeline for ctx in pool.contexts] + [pool.host_timeline]
            ],
            "engine": {
                key: (load.starts, load.ends, load.nbytes, load.transfers)
                for key, load in engine._loads.items()
            },
            "stall": (engine.total_stall, engine.stall_by_device),
        }

    @pytest.mark.parametrize("mode", ["delta", "reduced"])
    def test_continued_run_matches_the_uninterrupted_one(self, problem, neighborhood, mode):
        def runner(evaluator):
            return MultiStartRunner(
                evaluator, algorithm="tabu", max_iterations=MAX_ITERATIONS,
                transfer_mode=mode, rebalance_every=4, target_fitness=float("-inf"),
            )

        checkpoints = []
        whole = runner(MultiGPUEvaluator(problem, neighborhood, devices=3, topology="shared"))
        expected = self._signature(
            whole,
            whole.run(seeds=_seeds(), checkpoint_every=4, checkpoint_callback=checkpoints.append),
        )
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3, topology="shared")
        runner(evaluator).run(seeds=_seeds())
        resumed = runner(evaluator)
        assert self._signature(resumed, resumed.run(resume=checkpoints[0])) == expected


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


class TestResidentRowRouting:
    def _session(self, problem, neighborhood, devices=3):
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=devices)
        block = np.stack(
            [problem.random_solution(np.random.default_rng(seed)) for seed in _seeds()]
        )
        evaluator.begin_search(block)
        return evaluator, block

    @pytest.mark.parametrize("reduce", [None, "argmin"])
    def test_unordered_replica_ids_evaluate_like_ordered_ones(
        self, problem, neighborhood, reduce
    ):
        ids = np.array([6, 0, 3, 5, 1])
        order = np.argsort(ids)
        results = []
        for request in (ids, ids[order]):
            evaluator, _block = self._session(problem, neighborhood)
            results.append(evaluator.evaluate_resident(request, reduce=reduce))
            evaluator.close()
        if reduce is None:
            np.testing.assert_array_equal(results[0][order], results[1])
        else:
            for unordered, ordered in zip(*results):
                np.testing.assert_array_equal(unordered[order], ordered)

    def test_resident_fitnesses_match_a_fresh_evaluation(self, problem, neighborhood):
        evaluator, block = self._session(problem, neighborhood)
        evaluator.apply_deltas(np.array([4, 0, 4]), np.array([3, 7, 9]))
        for replica, bit in ((4, 3), (0, 7), (4, 9)):
            block[replica, bit] ^= 1
        expected = GPUEvaluator(problem, neighborhood).evaluate_many(block)
        np.testing.assert_array_equal(evaluator.evaluate_resident(), expected)
        evaluator.close()

    def test_out_of_range_deltas_are_rejected(self, problem, neighborhood):
        evaluator, _block = self._session(problem, neighborhood)
        with pytest.raises(IndexError, match="replica"):
            evaluator.apply_deltas(np.array([REPLICAS]), np.array([0]))
        with pytest.raises(IndexError, match="bit"):
            evaluator.apply_deltas(np.array([0]), np.array([problem.n]))
        with pytest.raises(ValueError, match="same length"):
            evaluator.apply_deltas(np.array([0, 1]), np.array([0]))
        evaluator.close()
        with pytest.raises(RuntimeError, match="begin_search"):
            evaluator.apply_deltas(np.array([0]), np.array([0]))

    def test_resident_launches_keep_their_records_when_asked(self, problem, neighborhood):
        evaluator, _block = self._session(problem, neighborhood)
        for context in evaluator.pool.contexts:
            context.keep_launch_records = True
        evaluator.evaluate_resident(reduce="argmin")
        evaluator.evaluate_resident(np.array([1, 5]))
        for context in evaluator.pool.contexts:
            records = context.stats.launch_records
            assert len(records) == context.stats.kernel_launches
            for record in records:
                rows, moves = record.work_shape
                assert moves == neighborhood.size
                assert record.active_threads == rows * moves
                assert record.time.total_time > 0.0
        evaluator.close()


class TestFullModeCausality:
    """The host selects moves from step i's scores before step i+1 uploads."""

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("topology", ["dedicated", "shared"])
    def test_no_upload_starts_before_the_previous_download_ends(
        self, problem, neighborhood, devices, topology
    ):
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=devices, topology=topology
        )
        contexts = evaluator.pool.contexts
        rng = np.random.default_rng(devices)

        def streams():
            return [
                stream for context in contexts for stream in context.timeline.streams.values()
            ]

        previous_download_end = None
        for rows in (5, 5, 4, 2, 1, 3):
            seen = {id(stream): len(stream.intervals) for stream in streams()}
            evaluator.evaluate_many(
                np.stack([problem.random_solution(rng) for _ in range(rows)])
            )
            new = [
                interval
                for stream in streams()
                for interval in stream.intervals[seen.get(id(stream), 0):]
            ]
            uploads = [interval.start for interval in new if interval.kind == "h2d"]
            assert uploads
            if previous_download_end is not None:
                assert min(uploads) >= previous_download_end
            previous_download_end = max(
                interval.end for interval in new if interval.kind == "d2h"
            )
        evaluator.close()


class TestPoolWideSelection:
    """A pool selects its whole block at once, as each device would its own rows.

    The reference is one ``GPUEvaluator`` per pool device, holding that
    device's replica range; the same rows are evaluated on each and the
    results are concatenated.  The heterogeneous pool splits the replicas
    unevenly (4, 2, 3 and 4 replicas); the requested rows skip the first
    replica and leave one device a single row.
    """

    DEVICES = [GTX_280, GTX_8800, TESLA_C1060, GTX_280]
    REPLICAS = 13
    ROWS = np.array([1, 2, 3, 4, 6, 7, 10, 12])
    #: Replicas with every move tabu, and one more that aspiration never frees.
    BLOCKED, UNASPIRED = [1, 7], 2

    def _block(self, problem):
        rng = np.random.default_rng(5)
        return rng.integers(0, 2, size=(self.REPLICAS, problem.n)).astype(np.int8)

    def _stamps(self, neighborhood):
        """Last-applied stamps: the blocked rows have every move tabu at iteration 20."""
        rng = np.random.default_rng(9)
        stamps = rng.integers(0, 20, size=(self.REPLICAS, neighborhood.size))
        for row in self.BLOCKED:
            stamps[row] = 18 + rng.integers(0, 2, size=neighborhood.size)
            stamps[row, rng.integers(0, neighborhood.size)] = 17
        return stamps

    def _evaluate(self, evaluator, rows, request, tenure, stamps):
        if tenure is not None:
            evaluator.init_tabu_memory(tenure)
            evaluator.write_tabu_rows(np.arange(stamps.shape[0]), stamps)
        result = evaluator.evaluate_resident(rows, **request)
        tabu = None if tenure is None else evaluator.read_tabu_rows(np.arange(stamps.shape[0]))
        return result, tabu

    def _request(self, kind, fitnesses, rows):
        if kind == "first-improvement":
            return {"reduce": "first-improvement",
                    "thresholds": np.median(fitnesses[rows], axis=1)}
        aspiration = np.quantile(fitnesses[rows], 0.05, axis=1)
        aspiration[np.searchsorted(rows, [*self.BLOCKED, self.UNASPIRED])] = -np.inf
        return {"reduce": "argmin", "aspiration_fitness": aspiration,
                "tabu_iterations": np.full(rows.size, 20)}

    @pytest.mark.parametrize(
        "kind, tenure", [("tabu", 3), ("tabu", 0), ("first-improvement", None)]
    )
    def test_pool_selection_equals_device_selection(self, problem, neighborhood, kind, tenure):
        block = self._block(problem)
        fitnesses = GPUEvaluator(problem, neighborhood).evaluate_many(block)
        stamps = self._stamps(neighborhood)
        request = self._request(kind, fitnesses, self.ROWS)
        tenure = tenure if kind == "tabu" else None

        pool = MultiGPUEvaluator(problem, neighborhood, devices=self.DEVICES)
        pool.begin_search(block)
        ranges = list(pool._replica_ranges)
        assert ranges == [(0, 4), (4, 6), (6, 9), (9, 13)]
        pooled, pooled_tabu = self._evaluate(pool, self.ROWS, request, tenure, stamps)
        pool.close()

        indices, best, tabu = [], [], []
        for lo, hi in ranges:
            device = GPUEvaluator(problem, neighborhood)
            device.begin_search(block[lo:hi])
            mine = (self.ROWS >= lo) & (self.ROWS < hi)
            local = {
                key: value if key == "reduce" else value[mine]
                for key, value in request.items()
            }
            (device_indices, device_best), device_tabu = self._evaluate(
                device, self.ROWS[mine] - lo, local, tenure, stamps[lo:hi]
            )
            device.close()
            indices.append(device_indices)
            best.append(device_best)
            tabu.append(device_tabu)
        np.testing.assert_array_equal(pooled[0], np.concatenate(indices))
        np.testing.assert_array_equal(pooled[1], np.concatenate(best))
        if tenure is not None:
            np.testing.assert_array_equal(pooled_tabu, np.concatenate(tabu))
            if tenure:
                # Every move of the blocked rows is tabu: they escape to their oldest move.
                escaped = pooled[0][np.searchsorted(self.ROWS, self.BLOCKED)]
                np.testing.assert_array_equal(escaped, stamps[self.BLOCKED].argmin(axis=1))
            assert (pooled_tabu[self.ROWS, pooled[0]] == 20).all()

    @pytest.mark.parametrize("name", ["aspiration_fitness", "thresholds", "tabu_iterations"])
    def test_per_row_arrays_must_match_the_rows(self, problem, neighborhood, name):
        pool = MultiGPUEvaluator(problem, neighborhood, devices=self.DEVICES)
        pool.begin_search(self._block(problem))
        pool.init_tabu_memory(3)
        rows = self.ROWS.size + 1
        part = {
            "aspiration_fitness": np.zeros(rows),
            "thresholds": np.zeros(rows),
            "tabu_iterations": np.full(rows, 20),
        }[name]
        reduce = "first-improvement" if name == "thresholds" else "argmin"
        with pytest.raises(ValueError, match=f"{name} must have one entry per replica"):
            pool.evaluate_resident(self.ROWS, reduce=reduce, **{name: part})
        pool.close()
        if name in ("aspiration_fitness", "thresholds"):
            # One GPU validates the thresholds its reduction packet carries too.
            device = GPUEvaluator(problem, neighborhood)
            device.begin_search(self._block(problem))
            for short in (part, part[:1]):
                with pytest.raises(ValueError, match=f"{name} must have one entry"):
                    device.evaluate_resident(self.ROWS, reduce=reduce, **{name: short})
            device.close()
