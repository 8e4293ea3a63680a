"""Tests for the lockstep multi-start runner."""

import numpy as np
import pytest

from repro.core import CPUEvaluator, GPUEvaluator
from repro.localsearch import HillClimbing, MultiStartRunner, TabuSearch
from repro.localsearch.hill_climbing import FirstImprovementHillClimbing
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import OneMax, PermutedPerceptronProblem
from repro.problems.instances import instance_seed, make_table_instance

SEEDS = list(range(8))


@pytest.fixture(scope="module")
def ppp():
    return PermutedPerceptronProblem.generate(25, 25, rng=0)


def serial_results(search_cls, evaluator, seeds, **kwargs):
    search = search_cls(evaluator, **kwargs)
    return [search.run(rng=seed) for seed in seeds]


def assert_replica_matches(serial, batched):
    assert serial.best_fitness == batched.best_fitness
    assert serial.iterations == batched.iterations
    assert serial.evaluations == batched.evaluations
    assert serial.stopping_reason == batched.stopping_reason
    assert serial.success == batched.success
    assert serial.initial_fitness == batched.initial_fitness
    assert np.array_equal(serial.best_solution, batched.best_solution)


class TestLockstepParity:
    @pytest.mark.parametrize("order", [1, 2])
    def test_tabu_matches_serial_runs(self, ppp, order):
        neighborhood = KHammingNeighborhood(ppp.n, order)
        serial = serial_results(TabuSearch, CPUEvaluator(ppp, neighborhood), SEEDS,
                                max_iterations=40)
        runner = MultiStartRunner(CPUEvaluator(ppp, neighborhood), algorithm="tabu",
                                  max_iterations=40)
        batched = runner.run(seeds=SEEDS)
        assert len(batched) == len(SEEDS)
        for s, b in zip(serial, batched):
            assert_replica_matches(s, b)

    def test_tabu_on_gpu_backend(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        serial = serial_results(TabuSearch, CPUEvaluator(ppp, neighborhood), SEEDS,
                                max_iterations=30)
        runner = MultiStartRunner(GPUEvaluator(ppp, neighborhood), algorithm="tabu",
                                  max_iterations=30)
        for s, b in zip(serial, runner.run(seeds=SEEDS)):
            assert_replica_matches(s, b)

    def test_hill_climbing_matches_serial_runs(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        serial = serial_results(HillClimbing, CPUEvaluator(ppp, neighborhood), SEEDS,
                                max_iterations=500)
        runner = MultiStartRunner(CPUEvaluator(ppp, neighborhood),
                                  algorithm="hill-climbing", max_iterations=500)
        batched = runner.run(seeds=SEEDS)
        assert {r.stopping_reason for r in batched} >= {"local_optimum"}
        for s, b in zip(serial, batched):
            assert_replica_matches(s, b)

    def test_first_improvement_matches_serial_runs(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        serial = serial_results(FirstImprovementHillClimbing,
                                CPUEvaluator(ppp, neighborhood), SEEDS,
                                max_iterations=500)
        runner = MultiStartRunner(CPUEvaluator(ppp, neighborhood),
                                  algorithm="first-improvement", max_iterations=500)
        for s, b in zip(serial, runner.run(seeds=SEEDS)):
            assert_replica_matches(s, b)

    def test_history_tracking_matches(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        serial = serial_results(TabuSearch, CPUEvaluator(ppp, neighborhood), SEEDS[:4],
                                max_iterations=20, track_history=True)
        runner = MultiStartRunner(CPUEvaluator(ppp, neighborhood), algorithm="tabu",
                                  max_iterations=20, track_history=True)
        for s, b in zip(serial, runner.run(seeds=SEEDS[:4])):
            assert s.history == b.history


class TestRunnerBehaviour:
    def test_target_reached_replicas_stop_early(self):
        problem = OneMax(10)
        neighborhood = KHammingNeighborhood(10, 1)
        runner = MultiStartRunner(CPUEvaluator(problem, neighborhood), algorithm="tabu",
                                  max_iterations=100)
        result = runner.run(seeds=list(range(5)))
        assert all(r.stopping_reason == "target_reached" for r in result)
        assert all(r.success for r in result)
        assert result.num_successes == 5
        assert result.best_fitness == 0.0

    def test_explicit_initial_solutions(self):
        problem = OneMax(10)
        neighborhood = KHammingNeighborhood(10, 1)
        starts = np.zeros((3, 10), dtype=np.int8)  # worst point: all zeros
        runner = MultiStartRunner(CPUEvaluator(problem, neighborhood),
                                  algorithm="hill-climbing", max_iterations=100)
        result = runner.run(initial_solutions=starts)
        assert all(r.initial_fitness == 10.0 for r in result)
        assert all(r.best_fitness == 0.0 for r in result)

    def test_replicas_without_seeds(self):
        problem = OneMax(12)
        neighborhood = KHammingNeighborhood(12, 1)
        runner = MultiStartRunner(CPUEvaluator(problem, neighborhood),
                                  algorithm="hill-climbing", max_iterations=50)
        result = runner.run(4, rng=0)
        assert len(result) == 4

    def test_result_container(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        runner = MultiStartRunner(CPUEvaluator(ppp, neighborhood), max_iterations=10)
        result = runner.run(seeds=SEEDS[:3])
        assert len(list(iter(result))) == 3
        assert result[0].iterations <= 10
        assert result.best.best_fitness == result.best_fitness
        assert result.iterations <= 10
        assert result.wall_time > 0
        assert result.simulated_time > 0
        assert "replicas" in result.summary()

    def test_batched_evaluation_count_is_amortized(self, ppp):
        # The whole point: R replicas advance with one evaluator call per
        # lockstep iteration, not R calls.
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        evaluator = CPUEvaluator(ppp, neighborhood)
        runner = MultiStartRunner(evaluator, algorithm="tabu", max_iterations=15)
        result = runner.run(seeds=SEEDS)
        assert evaluator.stats.calls == result.iterations
        assert result.iterations <= 15

    def test_one_launch_per_iteration_beats_per_replica_launches(self):
        # The paper protocol on the 25x25 Table-1 instance (1-Hamming, 15
        # trials, cap 50): one S x M launch per lockstep iteration issues
        # fewer launches and spends less simulated transfer time than one
        # standalone search per trial on the same simulated GPU.
        problem = make_table_instance((25, 25), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        seeds = [instance_seed(25, 25, trial) for trial in range(15)]
        serial_ev = GPUEvaluator(problem, neighborhood)
        search = TabuSearch(serial_ev, max_iterations=50)
        serial = [search.run(rng=seed) for seed in seeds]
        batched_ev = GPUEvaluator(problem, neighborhood)
        batched = MultiStartRunner(batched_ev, algorithm="tabu", max_iterations=50)
        for s, b in zip(serial, batched.run(seeds=seeds)):
            assert_replica_matches(s, b)
        serial_stats, batched_stats = serial_ev.context.stats, batched_ev.context.stats
        assert batched_stats.kernel_launches < serial_stats.kernel_launches
        assert batched_stats.transfer_time < serial_stats.transfer_time

    def test_validation_errors(self, ppp):
        neighborhood = KHammingNeighborhood(ppp.n, 1)
        evaluator = CPUEvaluator(ppp, neighborhood)
        with pytest.raises(ValueError):
            MultiStartRunner(evaluator, algorithm="annealing")
        with pytest.raises(ValueError):
            MultiStartRunner(evaluator, tenure=-1)
        with pytest.raises(ValueError):
            MultiStartRunner(evaluator, max_iterations=-1)
        runner = MultiStartRunner(evaluator, max_iterations=5)
        with pytest.raises(ValueError):
            runner.run()  # no replicas, seeds or initial solutions
        with pytest.raises(ValueError):
            runner.run(0)
        with pytest.raises(ValueError):
            runner.run(3, seeds=[1, 2])
        with pytest.raises(ValueError):
            runner.run(initial_solutions=np.zeros((2, ppp.n + 1), dtype=np.int8))

    def test_empty_replica_group_rejected(self, ppp):
        runner = MultiStartRunner(
            CPUEvaluator(ppp, KHammingNeighborhood(ppp.n, 1)), max_iterations=5
        )
        with pytest.raises(ValueError, match="at least one replica"):
            runner.run(seeds=[])
        with pytest.raises(ValueError, match="at least one replica"):
            runner.run(initial_solutions=np.zeros((0, ppp.n), dtype=np.int8))
