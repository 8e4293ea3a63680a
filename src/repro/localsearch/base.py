"""The general local-search model (paper Fig. 1) over a parallel evaluator.

At each iteration the *full* neighborhood of the current solution is
generated and evaluated (that is the step offloaded to the GPU), one
candidate is selected to replace the current solution and the process
repeats until a stopping criterion fires.  Concrete algorithms differ only
in the selection rule (and in per-iteration bookkeeping such as the tabu
list), which is what :meth:`NeighborhoodLocalSearch.select_move` captures.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from ..core.evaluators import NeighborhoodEvaluator
from ..core.selection import SelectedMove
from ..problems.base import flip_bits
from .result import LSResult
from .stopping import AnyOf, MaxIterations, SearchState, StoppingCriterion, TargetFitness

__all__ = [
    "NeighborhoodLocalSearch",
    "REDUCED_SELECTION_MODES",
    "TRANSFER_MODES",
    "check_transfer_mode",
]

#: How candidate data moves between host and (simulated) device each iteration:
#:
#: * ``"full"``    — upload the solution, download every fitness (the seed
#:   behaviour, and the only possibility on the CPU backends);
#: * ``"delta"``   — the solution block stays device-resident, only the
#:   flipped-bit ``(replica, bit)`` pairs go up; the fitness matrix still
#:   comes down for host-side selection;
#: * ``"reduced"`` — delta uploads plus the fused neighborhood+reduction
#:   launch: only the per-replica best ``(index, fitness)`` pair comes down;
#: * ``"persistent"`` — the whole iteration loop runs inside **one**
#:   persistent launch per run: delta scatter, evaluation, fused reduction
#:   and tabu update all happen on-device, the host only drains a
#:   16 B/replica result ring and writes an ``O(S)`` early-stop flag, and
#:   the kernel launch overhead is paid once instead of once per iteration.
TRANSFER_MODES = ("full", "delta", "reduced", "persistent")

#: The modes whose per-iteration selection happens inside the fused
#: on-device reduction (the host sees only ``(index, fitness)`` pairs).
REDUCED_SELECTION_MODES = ("reduced", "persistent")


def check_transfer_mode(transfer_mode: str, evaluator: NeighborhoodEvaluator) -> str:
    """Validate ``transfer_mode`` against the evaluator's capabilities.

    Shared by every search driver (the scalar searches, the lockstep
    multi-start runner and the restart-based ILS/VNS wrappers) so they all
    reject unknown modes and non-resident backends with the same error.
    """
    if transfer_mode not in TRANSFER_MODES:
        raise ValueError(
            f"unknown transfer_mode {transfer_mode!r}; expected one of {TRANSFER_MODES}"
        )
    if transfer_mode != "full" and not evaluator.supports_device_residency:
        raise ValueError(
            f"transfer_mode={transfer_mode!r} needs a device-resident evaluator "
            f"(got {type(evaluator).__name__}); use the GPU backends or \"full\""
        )
    return transfer_mode


class NeighborhoodLocalSearch(abc.ABC):
    """Iterative improvement over a fully-evaluated neighborhood.

    Parameters
    ----------
    evaluator:
        The platform-specific neighborhood evaluator (CPU, GPU, multi-GPU);
        it binds the problem and the neighborhood structure.
    stopping:
        Stopping criterion; defaults to the paper's rule
        (target fitness 0 or ``n(n-1)(n-2)/6`` iterations).
    max_iterations:
        Convenience shortcut: when given (and ``stopping`` is not), the run
        stops at ``max_iterations`` or when the target fitness is reached.
    track_history:
        Record the best fitness after every iteration in the result.
    transfer_mode:
        One of :data:`TRANSFER_MODES`.  The ``"delta"`` and ``"reduced"``
        modes need an evaluator with device-resident support (the GPU
        backends); ``"reduced"`` additionally needs the algorithm to define
        its fused reduction (:attr:`reduction` and
        :meth:`select_from_reduced`).  All modes follow bit-identical
        trajectories for the same seeds.
    """

    #: Display name used by the harness.
    name: str = "local-search"

    #: Fused reduction op used by ``transfer_mode="reduced"``; ``None`` means
    #: the algorithm needs the full fitness array (e.g. stochastic acceptance)
    #: and cannot run the reduced path.
    reduction: str | None = None

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        stopping: StoppingCriterion | None = None,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
    ) -> None:
        self.evaluator = evaluator
        self.problem = evaluator.problem
        self.neighborhood = evaluator.neighborhood
        if stopping is None:
            if max_iterations is None:
                n = self.problem.n
                max_iterations = n * (n - 1) * (n - 2) // 6
            stopping = AnyOf(TargetFitness(target_fitness), MaxIterations(max_iterations))
        self.stopping = stopping
        self.track_history = bool(track_history)
        check_transfer_mode(transfer_mode, evaluator)
        if transfer_mode in REDUCED_SELECTION_MODES and self.reduction is None:
            raise ValueError(
                f"{type(self).__name__} does not define a fused reduction; "
                "use transfer_mode=\"full\" or \"delta\""
            )
        self.transfer_mode = transfer_mode

    # ------------------------------------------------------------------
    # Hooks implemented by concrete algorithms
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def select_move(
        self,
        fitnesses: np.ndarray,
        current_fitness: float,
        best_fitness: float,
        iteration: int,
        rng: np.random.Generator,
    ) -> SelectedMove | None:
        """Choose the move to apply, or ``None`` to stop (local optimum)."""

    def on_start(self, initial_solution: np.ndarray, initial_fitness: float) -> None:
        """Reset per-run algorithm state (tabu lists, temperatures, ...)."""

    def on_move_applied(self, selected: SelectedMove, iteration: int) -> None:
        """Per-iteration bookkeeping after a move has been accepted."""

    def prepare_resident_session(self) -> None:
        """Configure the just-opened device-resident session.

        Called right after :meth:`~repro.core.evaluators.GPUEvaluator.begin_search`
        in the non-``full`` transfer modes; algorithms override it to move
        per-run memory device-resident (e.g. the tabu ``last_applied`` stamps).
        """

    # ------------------------------------------------------------------
    # Hooks of the reduced transfer path (algorithms that define
    # :attr:`reduction` must implement :meth:`select_from_reduced`).
    # ------------------------------------------------------------------
    def reduction_inputs(
        self, current_fitness: float, best_fitness: float, iteration: int
    ) -> dict:
        """Extra per-iteration inputs of the fused reduction (masks, thresholds)."""
        return {}

    def select_from_reduced(
        self,
        index: int,
        fitness: float,
        current_fitness: float,
        best_fitness: float,
        iteration: int,
    ) -> SelectedMove | None:
        """Turn the device-reduced ``(index, fitness)`` pair into a move."""
        raise NotImplementedError(
            f"{type(self).__name__} declares reduction={self.reduction!r} but does not "
            "implement select_from_reduced"
        )

    # ------------------------------------------------------------------
    # The general LS loop of the paper's Fig. 1
    # ------------------------------------------------------------------
    def run(
        self,
        initial_solution: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> LSResult:
        """Execute the search and return its :class:`~repro.localsearch.result.LSResult`."""
        rng = np.random.default_rng(rng)
        start_wall = time.perf_counter()
        start_sim = self.evaluator.stats.simulated_time
        start_evals = self.evaluator.stats.evaluations

        if initial_solution is None:
            current = self.problem.random_solution(rng)
        else:
            current = np.array(initial_solution, dtype=np.int8).copy()
        current_fitness = float(self.problem.evaluate(current))
        initial_fitness = current_fitness
        best = current.copy()
        best_fitness = current_fitness

        self.on_start(current, current_fitness)

        history: list[float] = []
        iteration = 0
        since_improvement = 0
        stopping_reason = "max_iterations"

        resident = self.transfer_mode != "full"
        if resident:
            # Device-resident pipeline: the solution crosses PCIe once, here.
            # The persistent mode additionally opens the run's one device
            # loop: every following iteration happens inside that launch.
            self.evaluator.begin_search(
                current[None, :], persistent=self.transfer_mode == "persistent"
            )
            self.prepare_resident_session()

        while True:
            state = SearchState(
                iteration=iteration,
                evaluations=self.evaluator.stats.evaluations - start_evals,
                best_fitness=best_fitness,
                iterations_since_improvement=since_improvement,
            )
            reason = self.stopping.should_stop(state)
            if reason is not None:
                stopping_reason = reason
                break

            # Generate + evaluate the whole neighborhood (the GPU step).
            if self.transfer_mode in REDUCED_SELECTION_MODES:
                # Fused neighborhood+reduction launch (inside the run's one
                # persistent launch under "persistent"): only the best
                # (index, fitness) pair comes back.
                indices, fits = self.evaluator.evaluate_resident(
                    reduce=self.reduction,
                    **self.reduction_inputs(current_fitness, best_fitness, iteration),
                )
                selected = self.select_from_reduced(
                    int(indices[0]), float(fits[0]), current_fitness, best_fitness, iteration
                )
            else:
                if resident:
                    fitnesses = self.evaluator.evaluate_resident()[0]
                else:
                    fitnesses = self.evaluator.evaluate(current)
                selected = self.select_move(
                    fitnesses, current_fitness, best_fitness, iteration, rng
                )
            if selected is None:
                stopping_reason = "local_optimum"
                break

            # Apply the selected move.
            move = self.neighborhood.mapping.from_flat(selected.index)
            move_bits = np.atleast_1d(np.asarray(move, dtype=np.int64))
            current = flip_bits(current, move_bits)
            if resident:
                self.evaluator.apply_deltas(np.zeros(move_bits.size, dtype=np.int64), move_bits)
            current_fitness = selected.fitness
            self.on_move_applied(selected, iteration)

            if current_fitness < best_fitness:
                best = current.copy()
                best_fitness = current_fitness
                since_improvement = 0
            else:
                since_improvement += 1

            iteration += 1
            if self.track_history:
                history.append(best_fitness)

        if resident:
            self.evaluator.end_search()

        return LSResult(
            best_solution=best,
            best_fitness=best_fitness,
            iterations=iteration,
            evaluations=self.evaluator.stats.evaluations - start_evals,
            success=self.problem.is_solution(best_fitness),
            stopping_reason=stopping_reason,
            simulated_time=self.evaluator.stats.simulated_time - start_sim,
            wall_time=time.perf_counter() - start_wall,
            initial_fitness=initial_fitness,
            history=history,
        )
