"""Checkpoint/restore and fault-tolerance guarantees of the lockstep runner.

The contract under test: a run that is checkpointed, killed (the runner and
evaluator objects discarded) and restored into a *fresh* runner finishes
bit-identically to an uninterrupted run — trajectories, per-replica records,
transfer byte counters and simulated makespans.  Fault injection (device
death, elastic join, flaky transfers) preserves the trajectories exactly
and changes timing/placement only.
"""

import numpy as np
import pytest

from repro.core.evaluators import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator
from repro.gpu import FaultPlan, partition_range
from repro.harness import run_ppp_experiment
from repro.harness.io import load_checkpoint, save_checkpoint
from repro.localsearch.multistart import CHECKPOINT_VERSION, MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import UBQP, PermutedPerceptronProblem

MODES = ("full", "delta", "reduced", "persistent")
SEEDS = [11, 12, 13, 14, 15, 16]


def make_runner(mode, *, devices=3, rebalance_every=7, active_devices=None):
    problem = UBQP.random(16, rng=3)
    neighborhood = KHammingNeighborhood(problem.n, 2)
    evaluator = MultiGPUEvaluator(
        problem, neighborhood, devices=devices, active_devices=active_devices
    )
    return MultiStartRunner(
        evaluator,
        max_iterations=30,
        transfer_mode=mode,
        rebalance_every=rebalance_every,
        target_fitness=float("-inf"),
    )


def run_signature(runner, result):
    """Everything the bit-identical guarantee covers, in comparable form."""
    contexts = list(runner.evaluator.pool.contexts)
    return {
        "best": [r.best_fitness for r in result],
        "iterations": [r.iterations for r in result],
        "reasons": [r.stopping_reason for r in result],
        "simulated_time": result.simulated_time,
        "h2d": sum(ctx.stats.h2d_bytes for ctx in contexts),
        "d2h": sum(ctx.stats.d2h_bytes for ctx in contexts),
        "p2p": sum(ctx.stats.p2p_bytes for ctx in contexts),
        "launches": sum(ctx.stats.kernel_launches for ctx in contexts),
        "makespan": max(ctx.timeline.elapsed for ctx in contexts),
    }


class TestCheckpointRestore:
    @pytest.mark.parametrize("mode", MODES)
    def test_killed_and_restored_run_is_bit_identical(self, mode, tmp_path):
        reference = make_runner(mode)
        ref_sig = run_signature(reference, reference.run(seeds=SEEDS))

        # Checkpoint mid-run, then "kill" the run: the runner and evaluator
        # objects are dropped and the checkpoint survives only as JSON.
        checkpoints = []
        interrupted = make_runner(mode)
        interrupted.run(
            seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append
        )
        assert checkpoints, "the run never reached a checkpoint boundary"
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoints[0])
        del interrupted

        restored = make_runner(mode)
        result = restored.run(resume=load_checkpoint(path))
        assert run_signature(restored, result) == ref_sig

    def test_checkpoint_with_host_eval_time_restores(self, tmp_path):
        # A device-stats entry this build does not write (the dropped host
        # wall-clock counter "host_eval_time") is ignored, and the restore
        # stays bit-identical.
        reference = make_runner("reduced")
        ref_sig = run_signature(reference, reference.run(seeds=SEEDS))
        checkpoints = []
        make_runner("reduced").run(
            seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append
        )

        def add_host_eval_time(node):
            if isinstance(node, dict):
                if "kernel_launches" in node and "reduction_time" in node:
                    node["host_eval_time"] = 0.125
                    return 1
                return sum(add_host_eval_time(value) for value in node.values())
            if isinstance(node, list):
                return sum(add_host_eval_time(value) for value in node)
            return 0

        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoints[0])
        legacy = load_checkpoint(path)
        assert add_host_eval_time(legacy) == 3
        assert legacy["version"] == CHECKPOINT_VERSION
        restored = make_runner("reduced")
        result = restored.run(resume=legacy)
        assert run_signature(restored, result) == ref_sig

    def test_checkpoint_is_versioned(self):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        bad = dict(checkpoints[0])
        bad["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint version"):
            make_runner("delta").run(resume=bad)

    def test_version_1_checkpoint_is_rejected(self):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        # The version-1 layout: a flat history stream, no per-row budgets.
        state = {
            key: value
            for key, value in checkpoints[0]["state"].items()
            if key not in ("histories", "budgets", "targets")
        }
        v1 = dict(checkpoints[0], version=1, state=dict(state, history_steps=[]))
        with pytest.raises(
            ValueError, match=r"version 1;.*writes version 4.*restart the run"
        ):
            make_runner("delta").run(resume=v1)

    def test_version_3_checkpoint_is_rejected(self):
        # Version 3 carried no start clock: a resume into an evaluator that
        # had already run reported its time from the pre-restore clock.
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        v3 = {key: value for key, value in checkpoints[0].items() if key != "start_clock"}
        with pytest.raises(ValueError, match=r"version 3;.*writes version 4"):
            make_runner("delta").run(resume=dict(v3, version=3))
        with pytest.raises(ValueError, match="start_clock must be a float"):
            make_runner("delta").run(resume=dict(v3, version=CHECKPOINT_VERSION))

    def test_version_2_single_gpu_checkpoint_is_rejected(self):
        # Version 2 snapshotted a single GPU without the pool's host timeline
        # and device slots; the runner's version check refuses it before the
        # evaluator looks for them.
        problem = PermutedPerceptronProblem.generate(17, 17, rng=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        checkpoints = []
        MultiStartRunner(GPUEvaluator(problem, neighborhood), max_iterations=12).run(
            seeds=SEEDS[:3], checkpoint_every=4, checkpoint_callback=checkpoints.append
        )
        evaluator_state = {
            key: value
            for key, value in checkpoints[0]["evaluator"].items()
            if key in ("platform", "stats", "engine")
        }
        v2 = dict(checkpoints[0], version=2, evaluator=evaluator_state)
        resumed = MultiStartRunner(GPUEvaluator(problem, neighborhood), max_iterations=12)
        with pytest.raises(
            ValueError, match=r"version 2;.*writes version 4.*restart the run"
        ):
            resumed.run(resume=v2)
        assert resumed.evaluator.stats.calls == 0

    @pytest.mark.parametrize(
        "factory,platform",
        [
            (CPUEvaluator, "cpu"),
            (lambda problem, nb: MultiGPUEvaluator(problem, nb, devices=2), "multi-gpu"),
        ],
        ids=["cpu", "multi-gpu"],
    )
    def test_checkpoint_resumes_only_on_its_platform(self, factory, platform):
        # A single-GPU checkpoint carries device state and a device clock
        # that no other platform can continue.
        problem = PermutedPerceptronProblem.generate(17, 17, rng=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)

        def runner(evaluator):
            return MultiStartRunner(evaluator, max_iterations=12)

        checkpoints = []
        runner(GPUEvaluator(problem, neighborhood)).run(
            seeds=SEEDS[:3], checkpoint_every=4, checkpoint_callback=checkpoints.append
        )
        other = runner(factory(problem, neighborhood))
        with pytest.raises(ValueError, match=f"'gpu' evaluator.*is '{platform}'"):
            other.run(resume=checkpoints[0])
        assert other.evaluator.stats.calls == 0

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        state = dict(checkpoints[0]["state"])
        state["current"] = state["current"][:-1]
        path = save_checkpoint(
            tmp_path / "truncated.json", dict(checkpoints[0], state=state)
        )
        restored = make_runner("delta")
        with pytest.raises(ValueError, match="'current'"):
            restored.run(resume=load_checkpoint(path))
        # Rejected before the evaluator session was touched.
        assert restored.evaluator.stats.simulated_time == 0.0

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("evaluator", None, "evaluator snapshot"),
            ("lockstep", -1, "lockstep"),
            ("config", {"replicas": "6"}, "replica count"),
            ("state", None, "row state must be a dict"),
        ],
    )
    def test_malformed_checkpoint_is_rejected(self, key, value, match):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        with pytest.raises(ValueError, match=match):
            make_runner("delta").run(resume=dict(checkpoints[0], **{key: value}))

    def test_checkpoint_config_mismatch_rejected(self):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        other = make_runner("reduced")
        with pytest.raises(ValueError, match="transfer_mode"):
            other.run(resume=checkpoints[0])

    def test_resume_excludes_population_arguments(self):
        runner = make_runner("delta")
        checkpoints = []
        runner.run(seeds=SEEDS, checkpoint_every=10, checkpoint_callback=checkpoints.append)
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_runner("delta").run(seeds=SEEDS, resume=checkpoints[0])

    def test_checkpoint_every_requires_callback(self):
        with pytest.raises(ValueError, match="checkpoint_callback"):
            make_runner("delta").run(seeds=SEEDS, checkpoint_every=5)
        with pytest.raises(ValueError, match="positive"):
            make_runner("delta").run(
                seeds=SEEDS, checkpoint_every=0, checkpoint_callback=lambda c: None
            )

    def test_single_gpu_checkpoint_restores_too(self):
        def make():
            problem = UBQP.random(14, rng=5)
            neighborhood = KHammingNeighborhood(problem.n, 2)
            return MultiStartRunner(
                GPUEvaluator(problem, neighborhood),
                max_iterations=25,
                transfer_mode="delta",
                target_fitness=float("-inf"),
            )

        reference = make()
        ref = reference.run(seeds=SEEDS)
        checkpoints = []
        make().run(seeds=SEEDS, checkpoint_every=8, checkpoint_callback=checkpoints.append)
        restored = make()
        result = restored.run(resume=checkpoints[0])
        assert [r.best_fitness for r in result] == [r.best_fitness for r in ref]
        assert result.simulated_time == ref.simulated_time
        assert (
            restored.evaluator.context.stats.h2d_bytes
            == reference.evaluator.context.stats.h2d_bytes
        )


class TestFaultRecovery:
    @pytest.mark.parametrize("mode", ("full", "delta", "reduced"))
    @pytest.mark.parametrize("at", (14, 6))  # rebalance boundary (7*2) vs mid-interval
    def test_device_death_preserves_trajectories(self, mode, at):
        reference = make_runner(mode)
        ref = reference.run(seeds=SEEDS)
        faulted = make_runner(mode)
        result = faulted.run(seeds=SEEDS, fault_plan=f"fail:1@{at}")
        assert [r.best_fitness for r in result] == [r.best_fitness for r in ref]
        assert [r.iterations for r in result] == [r.iterations for r in ref]
        assert faulted.evaluator.device_active == (True, False, True)

    def test_join_extends_the_fleet_mid_run(self):
        reference = make_runner("delta")
        ref = reference.run(seeds=SEEDS)
        elastic = make_runner("delta", active_devices=[0, 1])
        result = elastic.run(seeds=SEEDS, fault_plan="join:2@10")
        assert [r.best_fitness for r in result] == [r.best_fitness for r in ref]
        assert elastic.evaluator.device_active == (True, True, True)

    def test_flaky_transfers_are_timing_only(self):
        reference = make_runner("delta")
        ref = reference.run(seeds=SEEDS)
        faulted = make_runner("delta")
        result = faulted.run(seeds=SEEDS, fault_plan="flaky:2@3")
        assert [r.best_fitness for r in result] == [r.best_fitness for r in ref]
        assert faulted.evaluator.pool.engine.retried_transfers == 2
        assert result.simulated_time > ref.simulated_time

    @pytest.mark.parametrize("mode", ("delta", "reduced"))
    def test_restore_across_a_fault_boundary(self, mode, tmp_path):
        plan = "fail:1@10,join:1@20"
        reference = make_runner(mode)
        ref_sig = run_signature(reference, reference.run(seeds=SEEDS, fault_plan=plan))

        checkpoints = []
        make_runner(mode).run(
            seeds=SEEDS,
            fault_plan=plan,
            checkpoint_every=10,
            checkpoint_callback=checkpoints.append,
        )
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoints[0])
        restored = make_runner(mode)
        # The resumed run re-applies the fault due at the checkpointed
        # boundary, replaying exactly what the original did after saving.
        result = restored.run(resume=load_checkpoint(path), fault_plan=plan)
        assert run_signature(restored, result) == ref_sig

    def test_protocol_fleet_schedules(self, tmp_path):
        # The paper protocol at 41x41, 2-Hamming, 12 trials, cap 10, reduced
        # mode on 4 GPUs: a device death costs makespan, its rejoin wins
        # some back, and checkpointing is free in simulated time.
        def run(**kwargs):
            return run_ppp_experiment(
                (41, 41), 2, trials=12, max_iterations=10,
                evaluator_factory="multi-gpu", transfer_mode="reduced", devices=4,
                **kwargs,
            )

        snapshot = tmp_path / "checkpoint.json"
        rows = {
            "static": run(),
            "fail": run(fault_plan="fail:3@4"),
            "rejoin": run(fault_plan="fail:3@4,join:3@7"),
            "checkpointed": run(checkpoint_every=4, checkpoint_path=snapshot),
        }
        rows["restored"] = run(restore=snapshot)
        records = lambda row: [(t.fitness, t.iterations, t.success) for t in row.trials]
        for label, row in rows.items():
            assert records(row) == records(rows["static"]), label
        static = rows["static"].sim_elapsed_s
        assert rows["checkpointed"].sim_elapsed_s == static
        assert rows["fail"].sim_elapsed_s > static
        assert rows["rejoin"].sim_elapsed_s <= rows["fail"].sim_elapsed_s

    def test_fail_validation(self):
        runner = make_runner("delta")
        evaluator = runner.evaluator
        with pytest.raises(ValueError, match="out of range"):
            evaluator.fail_device(7)
        evaluator.fail_device(0)
        with pytest.raises(ValueError, match="already inactive"):
            evaluator.fail_device(0)
        evaluator.fail_device(1)
        with pytest.raises(RuntimeError, match="last active device"):
            evaluator.fail_device(2)
        with pytest.raises(ValueError, match="already active"):
            evaluator.join_device(2)

    def test_persistent_sessions_reject_device_failures(self):
        runner = make_runner("persistent", rebalance_every=None)
        evaluator = runner.evaluator
        problem = runner.problem
        block = np.stack([problem.random_solution(s) for s in range(4)])
        evaluator.begin_search(block, persistent=True)
        try:
            with pytest.raises(RuntimeError, match="persistent"):
                evaluator.fail_device(0)
            # The mask must be untouched by the refused failure.
            assert evaluator.device_active == (True, True, True)
        finally:
            evaluator.end_search()

    def test_fault_plan_object_accepted(self):
        runner = make_runner("delta")
        result = runner.run(seeds=SEEDS, fault_plan=FaultPlan.parse("flaky:1@2"))
        assert runner.evaluator.pool.engine.retried_transfers == 1
        assert len(result) == len(SEEDS)

    @pytest.mark.parametrize("kind", ("fail", "join"))
    def test_device_faults_need_a_multi_device_evaluator(self, kind):
        problem = UBQP.random(12, rng=4)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        runner = MultiStartRunner(
            GPUEvaluator(problem, neighborhood),
            max_iterations=10,
            target_fitness=float("-inf"),
        )
        with pytest.raises(ValueError, match="multi-device"):
            runner.run(seeds=SEEDS[:3], fault_plan=f"{kind}:0@2")
        assert runner.evaluator.stats.calls == 0


class TestFaultPlanValidation:
    """Fail/join events are checked against the fleet before the run: a bad
    plan raises before any work is priced, naming the event."""

    @pytest.mark.parametrize(
        "plan, match",
        [
            ("fail:99@1", "fail:99@1: device index out of range"),
            ("fail:99@50", "fail:99@50: device index out of range"),
            ("join:2@3", "join:2@3: device index out of range"),
            ("fail:1@2,fail:1@2", "fail:1@2: device 1 is already inactive"),
            ("join:0@2", "join:0@2: device 0 is already active"),
            ("fail:0@1,fail:1@3", "fail:1@3: cannot fail the last active device"),
        ],
    )
    def test_bad_targets_rejected_before_the_run(self, plan, match):
        runner = make_runner("delta", devices=2)
        with pytest.raises(ValueError, match=match):
            runner.run(seeds=SEEDS, fault_plan=plan)
        assert runner.evaluator.stats.calls == 0

    def test_persistent_mode_rejects_device_events(self):
        runner = make_runner("persistent", devices=2, rebalance_every=None)
        with pytest.raises(ValueError, match="fail:1@2: persistent"):
            runner.run(seeds=SEEDS, fault_plan="fail:1@2")
        assert runner.evaluator.stats.calls == 0

    def test_events_after_the_last_iteration_stay_legal(self):
        runner = make_runner("delta", devices=2)
        result = runner.run(seeds=SEEDS, fault_plan="fail:1@50,join:1@60")
        assert result.iterations == 30
        assert runner.evaluator.device_active == (True, True)

    def test_resumed_runs_check_against_the_checkpointed_fleet(self):
        checkpoints = []
        make_runner("delta", devices=2).run(
            seeds=SEEDS,
            fault_plan="fail:1@5",
            checkpoint_every=10,
            checkpoint_callback=checkpoints.append,
        )
        runner = make_runner("delta", devices=2)
        # Device 1 died before the checkpoint; failing it again is invalid.
        with pytest.raises(ValueError, match="fail:1@12: device 1 is already inactive"):
            runner.run(resume=checkpoints[0], fault_plan="fail:1@5,fail:1@12")
        assert runner.evaluator.stats.calls == 0


class TestElasticPartitions:
    def test_partial_fleet_from_construction(self):
        runner = make_runner("delta", active_devices=[1])
        result = runner.run(seeds=SEEDS)
        reference = make_runner("delta")
        ref = reference.run(seeds=SEEDS)
        assert [r.best_fitness for r in result] == [r.best_fitness for r in ref]
        # Inactive devices never receive work.
        contexts = runner.evaluator.pool.contexts
        assert contexts[0].stats.kernel_launches == 0
        assert contexts[2].stats.kernel_launches == 0
        assert contexts[1].stats.kernel_launches > 0

    def test_active_devices_validation(self):
        problem = UBQP.random(12, rng=4)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        with pytest.raises(ValueError, match="out of range"):
            MultiGPUEvaluator(problem, neighborhood, devices=2, active_devices=[5])
        with pytest.raises(ValueError, match="at least one"):
            MultiGPUEvaluator(problem, neighborhood, devices=2, active_devices=[])

    def test_full_fleet_partitioner_is_the_even_split(self):
        runner = make_runner("delta")
        evaluator = runner.evaluator
        assert evaluator._partitions(100) == partition_range(100, 3)
