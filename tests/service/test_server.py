"""Solve-server scheduling: admission, fairness, preemption, accounting."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import admission_oracle
import numpy as np
import pytest

import repro
from repro.core import CPUEvaluator, MultiGPUEvaluator
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import (
    JobSpec,
    SolveServer,
    calibrate_step_time,
    poisson_trace,
    saturating_rate,
)


@pytest.fixture(scope="module")
def instance():
    problem = PermutedPerceptronProblem.generate(21, 21, rng=7)
    return problem, KHammingNeighborhood(problem.n, 1)


@pytest.fixture
def evaluator(instance):
    problem, neighborhood = instance
    evaluator = CPUEvaluator(problem, neighborhood)
    yield evaluator
    evaluator.close()


def job(job_id, arrival=0.0, replicas=1, budget=10, **kwargs):
    return JobSpec(
        job_id=job_id, arrival=arrival, replicas=replicas, budget=budget, **kwargs
    )


class TestLifecycleAndAccounting:
    def test_trace_completes_with_full_accounting(self, evaluator):
        jobs = [
            job("a", replicas=2, budget=8),
            job("b", arrival=0.0, replicas=1, budget=4),
        ]
        server = SolveServer(evaluator, capacity=4)
        report = server.run_trace(jobs)
        assert [record.spec.job_id for record in report.records] == ["a", "b"]
        assert report.completed == 2
        assert report.steps > 0
        assert report.busy_time > 0.0
        assert 0.0 < report.mean_occupancy <= 1.0
        assert report.goodput > 0.0
        assert sum(record.gpu_seconds for record in report.records) == pytest.approx(
            report.busy_time
        )
        for record in report.records:
            assert record.status == "completed"
            assert len(record.results) == record.spec.replicas
            assert record.queue_wait == 0.0
            assert record.latency == record.finished - record.admitted
            assert record.gpu_seconds > 0.0
            assert 0 <= record.iterations <= record.spec.replicas * record.spec.budget

    def test_results_match_standalone_runner(self, instance, evaluator):
        spec = job("solo", replicas=2, budget=12, seed=5)
        report = SolveServer(evaluator, capacity=4).run_trace([spec])
        problem, neighborhood = instance
        solo_evaluator = CPUEvaluator(problem, neighborhood)
        try:
            solo = MultiStartRunner(solo_evaluator, max_iterations=12).run(
                seeds=spec.resolved_seeds()
            )
        finally:
            solo_evaluator.close()
        record = report.records[0]
        for actual, expected in zip(record.results, solo):
            assert actual.best_fitness == expected.best_fitness
            assert actual.iterations == expected.iterations
            assert np.array_equal(actual.best_solution, expected.best_solution)

    def test_target_reached_job_completes_immediately(self, evaluator):
        spec = job("easy", budget=50, target_fitness=float("inf"))
        report = SolveServer(evaluator, capacity=2).run_trace([spec])
        record = report.records[0]
        assert record.status == "completed"
        assert record.iterations == 0
        assert record.results[0].stopping_reason == "target_reached"

    def test_empty_trace(self, evaluator):
        report = SolveServer(evaluator, capacity=2).run_trace([])
        assert report.records == []
        assert report.makespan == 0.0
        assert report.goodput == 0.0
        assert math.isnan(report.p50_latency)

    def test_duplicate_job_ids_rejected(self, evaluator):
        server = SolveServer(evaluator, capacity=2)
        with pytest.raises(ValueError, match="duplicate"):
            server.run_trace([job("same"), job("same")])

    def test_summary_row_shape(self, evaluator):
        report = SolveServer(evaluator, capacity=2).run_trace([job("a", budget=3)])
        row = report.summary_row(label="pt", load=1.5)
        assert row["label"] == "pt"
        assert row["load"] == 1.5
        assert row["jobs"] == 1
        assert row["completed"] == 1
        assert row["goodput"] == report.goodput


class TestAdmissionControl:
    def test_oversized_job_rejected(self, evaluator):
        report = SolveServer(evaluator, capacity=2).run_trace(
            [job("big", replicas=5), job("ok", replicas=1, budget=3)]
        )
        by_id = {record.spec.job_id: record for record in report.records}
        assert by_id["big"].status == "rejected"
        assert by_id["big"].results == []
        assert by_id["ok"].status == "completed"
        assert report.rejected == 1

    def test_queue_overflow_rejected(self, evaluator):
        jobs = [job(f"j{i}", replicas=2, budget=10) for i in range(4)]
        report = SolveServer(evaluator, capacity=2, max_queue=2).run_trace(jobs)
        assert report.rejected == 2
        assert report.completed == 2

    def test_queued_job_expires_past_deadline(self, evaluator):
        jobs = [
            job("hog", replicas=2, budget=60),
            job("rushed", arrival=1e-6, replicas=2, budget=5, deadline=1e-6),
        ]
        report = SolveServer(evaluator, capacity=2).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        assert by_id["rushed"].status == "expired"
        assert by_id["rushed"].admitted is None
        assert not by_id["rushed"].deadline_met
        assert by_id["hog"].status == "completed"
        assert report.expired == 1
        # Goodput counts only deadline-met completions.
        assert report.goodput == pytest.approx(1 / report.makespan)

    def test_small_job_backfills_around_blocked_head(self, evaluator):
        jobs = [
            job("a", replicas=2, budget=40),
            job("b", replicas=2, budget=5),
            job("c", replicas=1, budget=5),
        ]
        report = SolveServer(evaluator, capacity=3, preemption=False).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        assert by_id["c"].queue_wait == 0.0
        assert by_id["b"].queue_wait > 0.0
        assert report.completed == 3


class TestPriorityAndFairness:
    def test_high_priority_preempts_and_victim_resumes(self, instance, evaluator):
        jobs = [
            job("low", replicas=2, budget=40, seed=3),
            job("high", arrival=1e-6, replicas=2, budget=10, priority=5),
        ]
        report = SolveServer(evaluator, capacity=2).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        low, high = by_id["low"], by_id["high"]
        assert low.preemptions == 1
        assert low.status == "completed"
        assert high.status == "completed"
        assert high.finished < low.finished
        assert report.preempted_jobs == 1
        # The preempted job's trajectory is still bit-identical to standalone.
        problem, neighborhood = instance
        solo_evaluator = CPUEvaluator(problem, neighborhood)
        try:
            solo = MultiStartRunner(solo_evaluator, max_iterations=40).run(
                seeds=by_id["low"].spec.resolved_seeds()
            )
        finally:
            solo_evaluator.close()
        for actual, expected in zip(low.results, solo):
            assert actual.best_fitness == expected.best_fitness
            assert actual.iterations == expected.iterations
            assert np.array_equal(actual.best_solution, expected.best_solution)

    def test_preemption_can_be_disabled(self, evaluator):
        jobs = [
            job("low", replicas=2, budget=40),
            job("high", arrival=1e-6, replicas=2, budget=10, priority=5),
        ]
        report = SolveServer(evaluator, capacity=2, preemption=False).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        assert by_id["low"].preemptions == 0
        assert by_id["high"].finished > by_id["low"].finished

    def test_equal_priority_never_preempts(self, evaluator):
        jobs = [
            job("first", replicas=2, budget=40),
            job("second", arrival=1e-6, replicas=2, budget=10),
        ]
        report = SolveServer(evaluator, capacity=2).run_trace(jobs)
        assert report.preempted_jobs == 0

    def test_fair_share_lets_waiting_tenant_in(self, evaluator):
        jobs = [
            job("x1", replicas=2, budget=30, tenant="x"),
            job("x2", replicas=2, budget=30, tenant="x"),
            job("y1", replicas=2, budget=5, tenant="y"),
        ]
        fair = SolveServer(evaluator, capacity=4, fair_share=0.5).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in fair.records}
        assert by_id["y1"].queue_wait == 0.0
        assert by_id["x2"].queue_wait > 0.0

        greedy = SolveServer(evaluator, capacity=4).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in greedy.records}
        assert by_id["x2"].queue_wait == 0.0
        assert by_id["y1"].queue_wait > 0.0


class TestFairShareWithPreemption:
    """The fair-share bar is judged before a queue head preempts anyone."""

    def test_barred_head_suspends_no_one(self, evaluator):
        jobs = [
            job("x1", replicas=2, budget=30, tenant="x", target_fitness=-math.inf),
            job("y1", replicas=2, budget=30, tenant="y", target_fitness=-math.inf),
            # x already holds its share; preempting y1 would leave y waiting.
            job("x2", arrival=1e-6, replicas=2, budget=5, tenant="x", priority=5),
        ]
        server = SolveServer(evaluator, capacity=4, fair_share=0.5)
        by_id = {record.spec.job_id: record for record in server.run_trace(jobs).records}
        assert by_id["y1"].preemptions == 0
        assert by_id["x2"].admitted >= by_id["x1"].finished
        assert all(record.status == "completed" for record in by_id.values())

    def test_head_may_preempt_its_own_tenant_at_its_share(self, evaluator):
        jobs = [
            job("x1", replicas=2, budget=30, tenant="x", target_fitness=-math.inf),
            job("y1", replicas=2, budget=30, tenant="y", target_fitness=-math.inf),
            job("x2", replicas=2, budget=5, tenant="x"),
            # y holds its share while x2 waits, but the victim is y's own
            # job: once it is suspended, y holds nothing.
            job("y2", arrival=1e-6, replicas=2, budget=5, tenant="y", priority=5),
        ]
        server = SolveServer(evaluator, capacity=4, fair_share=0.5)
        by_id = {record.spec.job_id: record for record in server.run_trace(jobs).records}
        assert by_id["y1"].preemptions == 1 and by_id["x1"].preemptions == 0
        assert by_id["y2"].admitted < by_id["x1"].finished
        assert all(record.status == "completed" for record in by_id.values())

    def test_overloaded_traces_finish(self):
        """Replays that once looped forever inside one admission round.

        At 2.5x load with ``fair_share=0.5`` and preemption on, a head
        suspended jobs, the bar then held it back, and the next pass took
        the victims back.  The replay runs in its own interpreter so a
        regression fails on the timeout instead of hanging the suite.
        """
        script = (
            "import json, admission_oracle as oracle\n"
            "cells = [('cpu', 1, 'continuous'), ('cpu', 2, 'continuous'),\n"
            "         ('cpu', 4, 'drain'), ('multi-gpu', 1, 'continuous')]\n"
            "print(json.dumps([oracle.run_cell(dict(evaluator=evaluator, trace=trace,\n"
            "    load=2.5, policy=policy, preemption=True, fair_share=0.5))\n"
            "    for evaluator, trace, policy in cells]))\n"
        )
        paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        try:
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=env, timeout=120, check=True,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("an overloaded fair-share replay did not finish within 120 s")
        outcomes = json.loads(done.stdout)
        for outcome in outcomes:
            assert sum(outcome["statuses"].values()) == admission_oracle.JOBS
            assert set(outcome["statuses"]) <= {"completed", "expired", "rejected"}
        assert all(outcomes[index]["preemptions"] > 0 for index in (0, 1, 3))


class TestAdmissionEvents:
    """Admission runs after an enqueue, a harvest or an expiry; these
    cases need the expiry to trigger it (no other event happens until the
    long jobs, which never reach their target, finish)."""

    def test_expiry_lifts_the_fair_share_bar_on_the_same_step(self, evaluator):
        jobs = [
            job("x1", replicas=2, budget=30, tenant="x", target_fitness=-math.inf),
            job("x2", replicas=1, budget=5, tenant="x"),
            # Does not fit beside x1; while it waits, x2 is over x's share.
            job("y1", replicas=3, budget=5, tenant="y", deadline=1e-6),
        ]
        server = SolveServer(evaluator, capacity=4, fair_share=0.5, preemption=False)
        by_id = {record.spec.job_id: record for record in server.run_trace(jobs).records}
        assert by_id["y1"].status == "expired"
        assert 1e-6 < by_id["x2"].admitted < by_id["x1"].finished
        assert by_id["x2"].status == by_id["x1"].status == "completed"

    def test_expiry_of_the_head_lets_the_next_job_preempt(self, evaluator):
        jobs = [
            job("low", replicas=2, budget=30, priority=0, target_fitness=-math.inf),
            job("peer", replicas=2, budget=30, priority=2, target_fitness=-math.inf),
            # Head: only "low" may be preempted for it, which is not enough.
            job("head", arrival=1e-6, replicas=4, budget=5, priority=2, deadline=1e-4),
            job("next", arrival=1e-6, replicas=2, budget=5, priority=1),
        ]
        report = SolveServer(evaluator, capacity=4).run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        assert by_id["head"].status == "expired"
        assert by_id["low"].preemptions == 1
        assert 1e-4 < by_id["next"].admitted < by_id["peer"].finished
        assert all(by_id[name].status == "completed" for name in ("low", "peer", "next"))


class TestDrainBaseline:
    def test_drain_admits_only_into_an_empty_batch(self, evaluator):
        jobs = [
            job("long", replicas=1, budget=30),
            job("short", arrival=1e-6, replicas=1, budget=5),
        ]
        report = SolveServer(evaluator, capacity=2, policy="drain").run_trace(jobs)
        by_id = {record.spec.job_id: record for record in report.records}
        assert report.policy == "drain"
        # "short" had a free slot the whole time but still waited for the drain.
        assert by_id["short"].admitted >= by_id["long"].finished

    def test_continuous_beats_drain_on_packing(self, instance):
        problem, neighborhood = instance
        jobs = [job("head", replicas=2, budget=30)] + [
            job(f"tail{i}", replicas=1, budget=5) for i in range(4)
        ]
        reports = {}
        for policy in ("continuous", "drain"):
            evaluator = CPUEvaluator(problem, neighborhood)
            try:
                server = SolveServer(evaluator, capacity=4, policy=policy)
                reports[policy] = server.run_trace(jobs)
            finally:
                evaluator.close()
        assert reports["continuous"].completed == reports["drain"].completed == 5
        assert reports["continuous"].makespan < reports["drain"].makespan
        assert (
            reports["continuous"].mean_occupancy > reports["drain"].mean_occupancy
        )


    def test_headline_continuous_vs_drain_on_four_gpus(self):
        # 80 Poisson jobs (1-8 replicas, 10-150 iterations) at 1.5x the
        # calibrated capacity of 4 GPUs x 16 slots, PPP 31x31, 1-Hamming,
        # reduced transfers: continuous packing sustains >= 1.5x the drain
        # goodput at no worse p99 latency with >= 80% occupancy.
        problem = PermutedPerceptronProblem.generate(31, 31, rng=7)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        capacity = 64

        def evaluator():
            return MultiGPUEvaluator(problem, neighborhood, devices=4)

        calibrator = evaluator()
        step_time = calibrate_step_time(
            calibrator, capacity=capacity, transfer_mode="reduced"
        )
        calibrator.close()
        mean_job_work = (1 + 8) / 2 * (10 + 150) / 2
        rate = saturating_rate(step_time, capacity, mean_job_work, load=1.5)
        jobs = poisson_trace(80, rate, rng=11, replicas=(1, 8), budget=(10, 150))
        rows = {}
        for policy in ("continuous", "drain"):
            pool = evaluator()
            server = SolveServer(
                pool, capacity=capacity, policy=policy, transfer_mode="reduced"
            )
            rows[policy] = server.run_trace(jobs).summary_row()
            pool.close()
        continuous, drain = rows["continuous"], rows["drain"]
        assert continuous["goodput"] >= 1.5 * drain["goodput"]
        assert continuous["p99"] <= drain["p99"]
        assert continuous["occupancy"] >= 0.80


class TestConfiguration:
    def test_validation(self, evaluator):
        with pytest.raises(ValueError, match="policy"):
            SolveServer(evaluator, capacity=2, policy="eager")
        with pytest.raises(ValueError, match="capacity"):
            SolveServer(evaluator, capacity=0)
        with pytest.raises(ValueError, match="max_queue"):
            SolveServer(evaluator, capacity=2, max_queue=0)
        with pytest.raises(ValueError, match="fair_share"):
            SolveServer(evaluator, capacity=2, fair_share=1.5)

    def test_env_defaults(self, evaluator, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_CAPACITY", "8")
        monkeypatch.setenv("REPRO_SERVICE_MAX_QUEUE", "9")
        server = SolveServer(evaluator)
        assert server.capacity == 8
        assert server.max_queue == 9

    @pytest.mark.parametrize("name", ["REPRO_SERVICE_CAPACITY", "REPRO_SERVICE_MAX_QUEUE"])
    def test_env_junk_is_rejected(self, evaluator, monkeypatch, name):
        monkeypatch.setenv(name, "not-a-number")
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolveServer(evaluator)


class TestCalibration:
    def test_calibrated_rate_round_trip(self, evaluator):
        step_time = calibrate_step_time(evaluator, capacity=4, steps=3)
        assert step_time > 0.0
        rate = saturating_rate(step_time, 4, 100.0, load=2.0)
        assert rate == pytest.approx(2.0 * 4 / (step_time * 100.0))

    def test_saturating_rate_validation(self):
        with pytest.raises(ValueError):
            saturating_rate(0.0, 4, 100.0)
        with pytest.raises(ValueError):
            saturating_rate(0.1, 0, 100.0)
        with pytest.raises(ValueError):
            saturating_rate(0.1, 4, 0.0)
