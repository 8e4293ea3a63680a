"""Variable neighborhood search.

VNS is listed in the paper's introduction among the common LS heuristics
the methodology applies to.  It is built *on top of* the neighborhood-wide
descent: it cycles through neighborhoods of increasing Hamming order, the
natural consumer of the 1/2/3-Hamming structures made affordable by the GPU
exploration.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.evaluators import CPUEvaluator
from ..neighborhoods import KHammingNeighborhood
from ..problems import BinaryProblem
from .hill_climbing import HillClimbing
from .multistart import check_transfer_mode
from .result import LSResult

__all__ = ["VariableNeighborhoodSearch"]


class VariableNeighborhoodSearch:
    """VNS over k-Hamming neighborhoods of increasing order.

    Descends in the 1-Hamming neighborhood; when a local optimum is reached,
    switches to the next larger neighborhood (2-Hamming, then 3-Hamming,
    ...); any improvement resets the schedule to the smallest neighborhood.
    """

    name = "variable-neighborhood-search"

    def __init__(
        self,
        problem: BinaryProblem,
        *,
        max_order: int = 3,
        evaluator_factory=None,
        max_iterations_per_descent: int = 1_000,
        max_rounds: int = 50,
        target_fitness: float = 0.0,
        transfer_mode: str = "full",
    ) -> None:
        if max_order < 1:
            raise ValueError("max_order must be at least 1")
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        self.problem = problem
        self.max_order = int(max_order)
        self.max_rounds = int(max_rounds)
        self.max_iterations_per_descent = int(max_iterations_per_descent)
        self.target_fitness = float(target_fitness)
        factory = evaluator_factory or (lambda prob, nb: CPUEvaluator(prob, nb))
        self.evaluators = [
            factory(problem, KHammingNeighborhood(problem.n, k))
            for k in range(1, self.max_order + 1)
        ]
        #: Transfer mode of every per-neighborhood descent (validated against
        #: each evaluator, since the factory chooses the backend).
        self.transfer_mode = transfer_mode
        for evaluator in self.evaluators:
            check_transfer_mode(transfer_mode, evaluator)

    def run(
        self,
        initial_solution: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> LSResult:
        rng = np.random.default_rng(rng)
        start_wall = time.perf_counter()
        current = (
            self.problem.random_solution(rng)
            if initial_solution is None
            else np.array(initial_solution, dtype=np.int8).copy()
        )
        current_fitness = float(self.problem.evaluate(current))
        initial_fitness = current_fitness
        best, best_fitness = current.copy(), current_fitness
        iterations = 0
        evaluations = 0
        simulated_time = 0.0
        stopping_reason = "max_rounds"

        for _ in range(self.max_rounds):
            if self.problem.is_solution(best_fitness) and best_fitness <= self.target_fitness:
                stopping_reason = "target_reached"
                break
            improved_this_round = False
            order_index = 0
            while order_index < len(self.evaluators):
                descent = HillClimbing(
                    self.evaluators[order_index],
                    max_iterations=self.max_iterations_per_descent,
                    target_fitness=self.target_fitness,
                    transfer_mode=self.transfer_mode,
                )
                result = descent.run(best, rng)
                iterations += result.iterations
                evaluations += result.evaluations
                simulated_time += result.simulated_time
                if result.best_fitness < best_fitness:
                    best, best_fitness = result.best_solution.copy(), result.best_fitness
                    improved_this_round = True
                    order_index = 0  # back to the smallest neighborhood
                else:
                    order_index += 1
            if not improved_this_round:
                stopping_reason = "no_improvement"
                break

        return LSResult(
            best_solution=best,
            best_fitness=best_fitness,
            iterations=iterations,
            evaluations=evaluations,
            success=self.problem.is_solution(best_fitness),
            stopping_reason=stopping_reason,
            simulated_time=simulated_time,
            wall_time=time.perf_counter() - start_wall,
            initial_fitness=initial_fitness,
        )
