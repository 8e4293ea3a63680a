"""Every scoring entry point rejects bit positions outside ``[0, n)``.

A negative position must not wrap around to the end of the solution, and
a position past the end must not be read as some other bit: the scalar,
batched and single-move entry points all raise ``IndexError``.  Repeated
bits within a move stay allowed.
"""

import numpy as np
import pytest

from repro.problems import (
    LeadingOnes,
    MaxSat,
    NKLandscape,
    OneMax,
    UBQP,
    generate_random_ksat,
)
from repro.problems.instances import make_table_instance

N = 12
FACTORIES = {
    "ppp": lambda: make_table_instance((N, N), trial=0),
    "ubqp": lambda: UBQP.random(N, rng=1),
    "maxsat": lambda: MaxSat(N, *generate_random_ksat(N, 40, k=3, rng=2)),
    "nk": lambda: NKLandscape(N, 3, rng=4),
    "onemax": lambda: OneMax(N),
    "leadingones": lambda: LeadingOnes(N),
}


def score(problem, entry, solution, moves):
    if entry == "scalar":
        return problem.evaluate_neighborhood(solution, moves)
    if entry == "scalar-frozen":
        moves = np.array(moves, dtype=np.int64)
        moves.setflags(write=False)
        return problem.evaluate_neighborhood(solution, moves)
    if entry == "batch":
        return problem.evaluate_neighborhood_batch(solution[None, :], moves)
    assert entry == "delta"
    return [problem.delta_evaluate(solution, move) for move in moves]


ENTRIES = ["scalar", "scalar-frozen", "batch", "delta"]


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("moves", [[[-1]], [[1, 2], [0, -3]], [[N]]])
def test_out_of_range_bits_raise(name, entry, moves):
    problem = FACTORIES[name]()
    solution = problem.random_solution(5)
    with pytest.raises(IndexError):
        score(problem, entry, solution, moves)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("entry", ENTRIES)
def test_in_range_and_repeated_bits_score(name, entry):
    problem = FACTORIES[name]()
    solution = problem.random_solution(5)
    got = np.ravel(score(problem, entry, solution, [[0, N - 1], [3, 3]]))
    assert got.shape == (2,)
    flipped = solution.copy()
    flipped[[0, N - 1]] ^= 1
    assert got[0] == problem.evaluate(flipped)
