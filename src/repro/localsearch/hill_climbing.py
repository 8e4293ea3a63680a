"""Hill climbing (steepest / first-improvement descent).

Both are one-row :class:`~repro.localsearch.multistart.MultiStartRunner`
runs; they stop at the first local optimum (no neighbor strictly better
than the current solution), at the target fitness or at the iteration cap.
"""

from __future__ import annotations

from ..core.evaluators import NeighborhoodEvaluator
from .multistart import _SingleSearch

__all__ = ["HillClimbing", "FirstImprovementHillClimbing"]


class _Descent(_SingleSearch):
    """A descent: the single search without tabu parameters."""

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
    ) -> None:
        super().__init__(
            evaluator,
            algorithm=self.name,
            max_iterations=max_iterations,
            target_fitness=target_fitness,
            track_history=track_history,
            transfer_mode=transfer_mode,
        )


class HillClimbing(_Descent):
    """Steepest-descent hill climbing: every iteration moves to the best neighbor."""

    name = "hill-climbing"


class FirstImprovementHillClimbing(_Descent):
    """First-improvement descent.

    The neighborhood is still evaluated in full (the parallel model of the
    paper evaluates all neighbors anyway); the *first* improving neighbor in
    flat-index order is selected, which reproduces the behaviour of the
    classic sequential first-improvement strategy.
    """

    name = "first-improvement"
