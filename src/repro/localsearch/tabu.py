"""Tabu search over a fully-evaluated neighborhood.

This is the algorithm the paper runs on every neighborhood (Section IV-B):
a Taillard-style *robust taboo search* adapted to binary problems.  The
short-term memory forbids recently applied moves for a fixed number of
iterations (the *tenure*); the paper sets the tabu list size to one sixth of
the neighborhood size.  An aspiration criterion overrides the tabu status of
a move that would improve on the best solution found so far.  When every
move is tabu and none aspirates, the oldest tabu move is applied (the
robust-tabu escape).
"""

from __future__ import annotations

from ..core.evaluators import NeighborhoodEvaluator
from .multistart import _SingleSearch

__all__ = ["TabuSearch"]


class TabuSearch(_SingleSearch):
    """Best-admissible-move tabu search with recency-based memory.

    A one-row :class:`~repro.localsearch.multistart.MultiStartRunner` run
    with the ``"tabu"`` rule.

    Parameters
    ----------
    evaluator:
        Neighborhood evaluator (binds problem + neighborhood + platform).
    tenure:
        Number of iterations a just-applied move stays tabu.  Defaults to
        ``neighborhood.size // 6`` as in the paper ("the tabu list size was
        arbitrary set to m/6 where m is the number of neighbors"), with a
        floor of 1.
    aspiration:
        Enable the classic aspiration criterion (a tabu move is admissible
        when it improves on the best fitness seen so far).
    max_iterations:
        Iteration cap; defaults to the paper's ``n(n-1)(n-2)/6``.
    target_fitness:
        The run stops once its best fitness is at or below this value.
    track_history:
        Record the best fitness after every iteration in the result.
    transfer_mode:
        One of :data:`~repro.localsearch.multistart.TRANSFER_MODES`; every
        mode follows the same trajectory.
    """

    name = "tabu-search"

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        tenure: int | None = None,
        aspiration: bool = True,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
    ) -> None:
        super().__init__(
            evaluator,
            algorithm="tabu",
            tenure=tenure,
            aspiration=aspiration,
            max_iterations=max_iterations,
            target_fitness=target_fitness,
            track_history=track_history,
            transfer_mode=transfer_mode,
        )
