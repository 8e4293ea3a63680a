"""Solve-server scheduling: admission, fairness, preemption, accounting."""

import math

import numpy as np
import pytest

from repro.core import CPUEvaluator
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import (
    JobSpec,
    SolveServer,
    calibrate_step_time,
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
        assert report.gpu_seconds == pytest.approx(report.busy_time)
        for record in report.records:
            assert record.status == "completed"
            assert len(record.results) == record.spec.replicas
            assert record.queue_wait == 0.0
            assert record.latency == record.service_time
            assert record.gpu_seconds > 0.0
            assert 0 <= record.iterations <= record.spec.replicas * record.spec.budget
            assert record.best_fitness == min(
                result.best_fitness for result in record.results
            )

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
