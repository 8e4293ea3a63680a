"""Cross-mode equivalence matrix: every transfer mode, bit-identical.

The transfer modes (``full`` → ``delta`` → ``reduced`` → ``persistent``)
progressively move work and state onto the device — culminating in the
persistent launch that runs the whole iteration loop on-device with the tabu
memory device-resident.  None of that is allowed to change *what* the search
computes: for a given seed, every mode must follow bit-for-bit the same
best-fitness trajectory on every problem family and every neighborhood
order.  This matrix is the safety net under the persistent-kernel runtime.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator
from repro.localsearch import (
    TRANSFER_MODES,
    MultiStartRunner,
    TabuSearch,
    VariableNeighborhoodSearch,
)
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import MaxSat, OneMax, UBQP, generate_random_ksat
from repro.problems.instances import instance_seed, make_table_instance

#: One representative of every problem family, all over n = 12 bits so the
#: 1/2/3-Hamming neighborhoods (12 / 66 / 220 moves) stay test-sized.
N_BITS = 12


def _ubqp(n: int) -> UBQP:
    rng = np.random.default_rng(7)
    half = rng.normal(size=(n, n))
    return UBQP((half + half.T) / 2.0)


PROBLEM_FACTORIES = {
    "ppp": lambda: make_table_instance((N_BITS, N_BITS), trial=0),
    "onemax": lambda: OneMax(N_BITS),
    "maxsat": lambda: MaxSat(N_BITS, *generate_random_ksat(N_BITS, 30, k=3, rng=7)),
    "2sat": lambda: MaxSat(N_BITS, *generate_random_ksat(N_BITS, 20, k=2, rng=7)),
    "ubqp": lambda: _ubqp(N_BITS),
}

ORDERS = (1, 2, 3)
MAX_ITERATIONS = 12
REPLICAS = 4
SEED = 20260726


def _seeds(count: int = REPLICAS) -> list[int]:
    return [instance_seed(N_BITS, N_BITS, trial) for trial in range(count)]


def _scalar_record(result):
    return (
        tuple(result.history),
        result.best_fitness,
        result.iterations,
        result.stopping_reason,
        tuple(result.best_solution),
    )


def _multistart_records(multi):
    return [
        (tuple(r.history), r.best_fitness, r.iterations, r.stopping_reason,
         tuple(r.best_solution))
        for r in multi
    ]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("problem_name", sorted(PROBLEM_FACTORIES))
class TestCrossModeMatrix:
    """full / delta / reduced / persistent agree on every problem x order cell."""

    def test_scalar_tabu_trajectories_identical(self, problem_name, order):
        problem = PROBLEM_FACTORIES[problem_name]()
        neighborhood = KHammingNeighborhood(problem.n, order)
        reference = None
        for mode in TRANSFER_MODES:
            with GPUEvaluator(problem, neighborhood) as evaluator:
                search = TabuSearch(
                    evaluator,
                    max_iterations=MAX_ITERATIONS,
                    track_history=True,
                    transfer_mode=mode,
                )
                record = _scalar_record(search.run(rng=SEED))
            if reference is None:
                reference = record
            assert record == reference, f"{problem_name}/{order}-Hamming/{mode} diverged"

    def test_multistart_tabu_trajectories_identical(self, problem_name, order):
        problem = PROBLEM_FACTORIES[problem_name]()
        neighborhood = KHammingNeighborhood(problem.n, order)
        reference = None
        for mode in TRANSFER_MODES:
            with GPUEvaluator(problem, neighborhood) as evaluator:
                runner = MultiStartRunner(
                    evaluator,
                    algorithm="tabu",
                    max_iterations=MAX_ITERATIONS,
                    track_history=True,
                    transfer_mode=mode,
                )
                records = _multistart_records(runner.run(seeds=_seeds()))
            if reference is None:
                reference = records
            assert records == reference, f"{problem_name}/{order}-Hamming/{mode} diverged"


@pytest.mark.parametrize("algorithm", MultiStartRunner.ALGORITHMS)
def test_multistart_algorithms_all_modes_identical(algorithm):
    """Every vectorized selection rule survives every transfer mode."""
    problem = PROBLEM_FACTORIES["ppp"]()
    neighborhood = KHammingNeighborhood(problem.n, 2)
    reference = None
    for mode in TRANSFER_MODES:
        with GPUEvaluator(problem, neighborhood) as evaluator:
            runner = MultiStartRunner(
                evaluator,
                algorithm=algorithm,
                max_iterations=MAX_ITERATIONS,
                transfer_mode=mode,
            )
            records = _multistart_records(runner.run(seeds=_seeds()))
        if reference is None:
            reference = records
        assert records == reference, f"{algorithm}/{mode} diverged"


def test_tabu_zero_tenure_all_modes_identical():
    """tenure=0 (everything admissible) exercises the device-tabu edge case."""
    problem = PROBLEM_FACTORIES["ppp"]()
    neighborhood = KHammingNeighborhood(problem.n, 2)
    reference = None
    for mode in TRANSFER_MODES:
        with GPUEvaluator(problem, neighborhood) as evaluator:
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                tenure=0,
                max_iterations=MAX_ITERATIONS,
                transfer_mode=mode,
            )
            records = _multistart_records(runner.run(seeds=_seeds()))
        if reference is None:
            reference = records
        assert records == reference, f"tenure=0/{mode} diverged"


def test_tabu_saturated_tenure_exercises_device_escape():
    """A huge tenure forces the robust-tabu escape, now resolved on-device."""
    problem = PROBLEM_FACTORIES["ppp"]()
    neighborhood = KHammingNeighborhood(problem.n, 1)
    reference = None
    for mode in TRANSFER_MODES:
        with GPUEvaluator(problem, neighborhood) as evaluator:
            runner = MultiStartRunner(
                evaluator,
                algorithm="tabu",
                tenure=10 * neighborhood.size,
                aspiration=False,
                max_iterations=2 * neighborhood.size,
                transfer_mode=mode,
            )
            records = _multistart_records(runner.run(seeds=_seeds()))
        if reference is None:
            reference = records
        assert records == reference, f"saturated-tenure/{mode} diverged"


class TestRestartSearchTransferModes:
    """Repeated searches on one evaluator and VNS's inner descents honour
    transfer_mode."""

    def test_repeated_searches_on_one_evaluator_all_modes_identical(self):
        """A second search on the same evaluator restarts from the first
        one's best solution."""
        problem = PROBLEM_FACTORIES["ppp"]()
        neighborhood = KHammingNeighborhood(problem.n, 2)
        reference = None
        for mode in TRANSFER_MODES:
            with GPUEvaluator(problem, neighborhood) as evaluator:
                search = TabuSearch(
                    evaluator, max_iterations=MAX_ITERATIONS, transfer_mode=mode
                )
                first = search.run(rng=SEED)
                second = search.run(initial_solution=first.best_solution, rng=SEED + 1)
                record = [
                    (r.best_fitness, r.iterations, r.stopping_reason, tuple(r.best_solution))
                    for r in (first, second)
                ]
            if reference is None:
                reference = record
            assert record == reference, f"repeated tabu/{mode} diverged"

    def test_vns_all_modes_identical(self):
        problem = PROBLEM_FACTORIES["ppp"]()
        reference = None
        for mode in TRANSFER_MODES:
            evaluators = []

            def factory(prob, nb):
                evaluator = GPUEvaluator(prob, nb)
                evaluators.append(evaluator)
                return evaluator

            search = VariableNeighborhoodSearch(
                problem,
                max_order=2,
                evaluator_factory=factory,
                max_iterations_per_descent=MAX_ITERATIONS,
                max_rounds=3,
                transfer_mode=mode,
            )
            result = search.run(rng=SEED)
            record = (
                result.best_fitness,
                result.iterations,
                result.stopping_reason,
                tuple(result.best_solution),
            )
            for evaluator in evaluators:
                evaluator.close()
            if reference is None:
                reference = record
            assert record == reference, f"VNS/{mode} diverged"

    def test_vns_descents_actually_run_resident(self):
        """The inner descents really drive the device-resident pipeline."""
        problem = PROBLEM_FACTORIES["ppp"]()
        evaluators = []

        def factory(prob, nb):
            evaluator = GPUEvaluator(prob, nb)
            evaluators.append(evaluator)
            return evaluator

        search = VariableNeighborhoodSearch(
            problem,
            max_order=2,
            evaluator_factory=factory,
            max_iterations_per_descent=MAX_ITERATIONS,
            max_rounds=2,
            transfer_mode="persistent",
        )
        search.run(rng=SEED)
        # Persistent descents issue one launch per *descent* (never one per
        # iteration), so launches can never exceed the in-loop reductions.
        assert evaluators, "factory never called"
        ran_persistent = False
        for evaluator in evaluators:
            stats = evaluator.context.stats
            if stats.kernel_launches:
                assert stats.kernel_launches <= stats.reductions
                assert evaluator.last_persistent_record is not None
                ran_persistent = True
        assert ran_persistent, "no descent ever reached the device"
        for evaluator in evaluators:
            evaluator.close()

    @pytest.mark.parametrize("mode", ("delta", "reduced", "persistent"))
    def test_cpu_backends_reject_resident_modes(self, mode):
        problem = PROBLEM_FACTORIES["ppp"]()
        with pytest.raises(ValueError, match="device-resident"):
            VariableNeighborhoodSearch(problem, max_order=1, transfer_mode=mode)

    def test_unknown_mode_rejected(self):
        problem = PROBLEM_FACTORIES["ppp"]()
        with pytest.raises(ValueError, match="unknown transfer_mode"):
            VariableNeighborhoodSearch(problem, max_order=1, transfer_mode="telepathy")
