"""Shared fixtures: the plain reference search the search drivers are checked against."""

import numpy as np
import pytest

from repro.localsearch import LSResult
from repro.neighborhoods import KHammingNeighborhood


def _reference_search(make_problem, order, rule, seed, *, max_iterations,
                      target_fitness=0.0, tenure=None, aspiration=True, final=None):
    """One search from ``problem.random_solution(default_rng(seed))`` as a
    literal loop: score the whole neighborhood, pick one move by ``rule``
    (``"tabu"``, ``"hill-climbing"`` or ``"first-improvement"``), apply it.
    A ``final`` list receives the solution the search ends on."""
    problem = make_problem()
    moves = KHammingNeighborhood(problem.n, order).mapping.all_moves()
    tenure = max(1, len(moves) // 6) if tenure is None else tenure
    last_applied = np.full(len(moves), -(2**62))
    current = problem.random_solution(np.random.default_rng(seed))
    fitness = best_fitness = initial = float(problem.evaluate(current))
    best, history, evaluations, reason = current.copy(), [], 0, "max_iterations"
    for iteration in range(max_iterations + 1):
        if best_fitness <= target_fitness:
            reason = "target_reached"
            break
        if iteration == max_iterations:
            break
        fits = np.asarray(problem.evaluate_neighborhood(current, moves), dtype=np.float64)
        evaluations += len(moves)
        if rule == "tabu":
            admissible = iteration - last_applied > tenure
            if aspiration:
                admissible |= fits < best_fitness
            # Every move tabu and none aspirating: apply the oldest one.
            index = (np.where(admissible, fits, np.inf).argmin() if admissible.any()
                     else last_applied.argmin())
            last_applied[index] = iteration
        elif rule == "hill-climbing":
            index = fits.argmin()
        else:
            better = np.flatnonzero(fits < fitness)
            index = better[0] if better.size else 0
        if rule != "tabu" and fits[index] >= fitness:
            reason = "local_optimum"
            break
        current[moves[index]] ^= 1
        fitness = float(fits[index])
        if fitness < best_fitness:
            best, best_fitness = current.copy(), fitness
        history.append(best_fitness)
    if final is not None:
        final.append(current.copy())
    return LSResult(best, best_fitness, len(history), evaluations,
                    problem.is_solution(best_fitness), reason, 0.0, 0.0, initial, history)


@pytest.fixture
def reference_search(monkeypatch):
    """:func:`_reference_search`, building and scoring its problem on
    ``REPRO_EVAL_PATH=reference``."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_EVAL_PATH", "reference")
            return _reference_search(*args, **kwargs)

    return run
