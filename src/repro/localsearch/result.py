"""Result record of one local-search run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LSResult"]


@dataclass
class LSResult:
    """Everything a single local-search run produced.

    The experiment harness aggregates these into the rows of the reproduced
    tables (mean/std fitness, number of successful tries, average number of
    iterations, CPU/GPU model times).
    """

    #: Best solution found (0/1 vector).
    best_solution: np.ndarray
    #: Fitness of :attr:`best_solution` (lower is better).
    best_fitness: float
    #: Number of completed local-search iterations.
    iterations: int
    #: Total number of neighbor evaluations performed.
    evaluations: int
    #: Whether the problem's success criterion was reached (``fitness == 0`` for the PPP).
    success: bool
    #: Why the run stopped ("target_reached", "max_iterations", "local_optimum", ...).
    stopping_reason: str
    #: Simulated time accumulated by the evaluator that executed the run.
    simulated_time: float
    #: Wall-clock time of the Python run itself (useful for benchmarks only;
    #: this is *not* a paper-comparable number).
    wall_time: float
    #: Fitness of the initial solution.
    initial_fitness: float
    #: Best fitness after each iteration (present only when history tracking is on).
    history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.best_solution = np.asarray(self.best_solution, dtype=np.int8)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "SUCCESS" if self.success else "stopped"
        return (
            f"{status}: fitness {self.best_fitness:g} after {self.iterations} iterations "
            f"({self.evaluations} evaluations, {self.stopping_reason})"
        )
