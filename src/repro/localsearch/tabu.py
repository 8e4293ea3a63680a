"""Tabu search over a fully-evaluated neighborhood.

This is the algorithm the paper runs on every neighborhood (Section IV-B):
a Taillard-style *robust taboo search* adapted to binary problems.  The
short-term memory forbids recently applied moves for a fixed number of
iterations (the *tenure*); the paper sets the tabu list size to one sixth of
the neighborhood size.  An aspiration criterion overrides the tabu status of
a move that would improve on the best solution found so far.
"""

from __future__ import annotations

import numpy as np

from ..core.evaluators import NeighborhoodEvaluator
from ..core.selection import SelectedMove, best_admissible_move
from ..gpu.dtypes import TABU_NEVER
from .base import REDUCED_SELECTION_MODES, NeighborhoodLocalSearch
from .stopping import StoppingCriterion

__all__ = ["TabuSearch"]


class TabuSearch(NeighborhoodLocalSearch):
    """Best-admissible-move tabu search with recency-based memory.

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
    """

    name = "tabu-search"
    reduction = "argmin"

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        tenure: int | None = None,
        aspiration: bool = True,
        stopping: StoppingCriterion | None = None,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
    ) -> None:
        super().__init__(
            evaluator,
            stopping=stopping,
            max_iterations=max_iterations,
            target_fitness=target_fitness,
            track_history=track_history,
            transfer_mode=transfer_mode,
        )
        if tenure is None:
            tenure = max(1, self.neighborhood.size // 6)
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        self.tenure = int(tenure)
        self.aspiration = bool(aspiration)
        # last_applied[i] = iteration at which flat move i was last applied
        # (-inf semantics encoded as the sentinel shared with the
        # device-resident tabu memory).
        self._last_applied = np.full(self.neighborhood.size, TABU_NEVER, dtype=np.int64)
        # Whether the current run's tabu memory lives in device global
        # memory (set per run by prepare_resident_session).
        self._device_tabu = False

    # ------------------------------------------------------------------
    def on_start(self, initial_solution: np.ndarray, initial_fitness: float) -> None:
        self._last_applied.fill(TABU_NEVER)
        self._device_tabu = False

    def prepare_resident_session(self) -> None:
        """Move the tabu memory device-resident for this run's session.

        Only the modes whose selection happens in the fused reduction
        consume it ("delta" selects host-side); the per-iteration tabu
        packet then shrinks from the ``O(M/8)`` bit-packed admissibility
        mask to a single ``O(1)`` iteration stamp, and the robust-tabu
        escape resolves on-device instead of via an extra fitness fetch.
        The host-side ``_last_applied`` array keeps tracking the same
        values so ``tabu_mask`` stays answerable.
        """
        if self.transfer_mode in REDUCED_SELECTION_MODES and hasattr(
            self.evaluator, "init_tabu_memory"
        ):
            self.evaluator.init_tabu_memory(self.tenure)
            self._device_tabu = True

    def tabu_mask(self, iteration: int) -> np.ndarray:
        """Boolean mask of the moves currently forbidden by the tabu memory."""
        if self.tenure == 0:
            return np.zeros(self.neighborhood.size, dtype=bool)
        return (iteration - self._last_applied) <= self.tenure

    def select_move(
        self,
        fitnesses: np.ndarray,
        current_fitness: float,
        best_fitness: float,
        iteration: int,
        rng: np.random.Generator,
    ) -> SelectedMove | None:
        forbidden = self.tabu_mask(iteration)
        threshold = best_fitness if self.aspiration else None
        selected = best_admissible_move(fitnesses, forbidden, aspiration_threshold=threshold)
        if selected is None:
            # Every move is tabu and none passes aspiration: fall back to the
            # oldest tabu move (a standard robust-tabu escape) instead of
            # aborting the run.
            oldest = int(np.argmin(self._last_applied))
            selected = SelectedMove(index=oldest, fitness=float(fitnesses[oldest]))
        return selected

    def on_move_applied(self, selected: SelectedMove, iteration: int) -> None:
        self._last_applied[selected.index] = iteration

    # ------------------------------------------------------------------
    # Reduced transfer path: with the device-resident tabu memory only the
    # replica's iteration stamp goes up (the admissibility mask is derived
    # next to the fused argmin, which also applies aspiration and resolves
    # the robust-tabu escape on-device); without it the bit-packed mask is
    # uploaded with the delta packet.  Either way only the winning
    # (index, fitness) pair comes back.
    # ------------------------------------------------------------------
    def reduction_inputs(
        self, current_fitness: float, best_fitness: float, iteration: int
    ) -> dict:
        if self._device_tabu:
            inputs = {"tabu_iterations": np.array([iteration], dtype=np.int64)}
        else:
            inputs = {"admissible": ~self.tabu_mask(iteration)[None, :]}
        if self.aspiration:
            inputs["aspiration_fitness"] = np.array([best_fitness], dtype=np.float64)
        return inputs

    def select_from_reduced(
        self,
        index: int,
        fitness: float,
        current_fitness: float,
        best_fitness: float,
        iteration: int,
    ) -> SelectedMove | None:
        if index < 0:
            # Every move tabu, none aspirated, and the tabu memory is
            # host-side: robust-tabu escape to the oldest move.  Its fitness
            # is fetched individually (8 bytes) since the full array never
            # crossed PCIe.  (With the device-resident memory the escape
            # already happened on-device and index is never negative.)
            oldest = int(np.argmin(self._last_applied))
            fitness = float(self.evaluator.fetch_fitnesses([0], [oldest])[0])
            return SelectedMove(index=oldest, fitness=fitness)
        return SelectedMove(index=index, fitness=fitness)
