"""OneMax / LeadingOnes — trivial binary workloads used for tests and examples.

These are not part of the paper's evaluation but give tiny, fully
understood landscapes on which every component of the library (mappings,
evaluators, local search algorithms, GPU simulator) can be exercised and
checked for exact expected behaviour.
"""

from __future__ import annotations

import numpy as np

from .base import BinaryProblem, as_solution

__all__ = ["OneMax", "LeadingOnes"]


class OneMax(BinaryProblem):
    """Minimize the number of zero bits (the classic OneMax, as a minimization)."""

    name = "onemax"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = int(n)

    def evaluate(self, solution: np.ndarray) -> float:
        solution = as_solution(solution, self.n)
        return float(self.n - int(solution.sum()))

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        return (self.n - solutions.sum(axis=1)).astype(np.float64)

    def evaluate_neighborhood(self, solution, moves, *, chunk: int = 1 << 20) -> np.ndarray:
        solution = as_solution(solution, self.n)
        moves = self._check_moves(moves)
        base = self.n - int(solution.sum())
        # Each flipped 0 decreases the cost by one; each flipped 1 increases it.
        delta = (1 - 2 * solution.astype(np.int64))[moves].sum(axis=1)
        return (base - delta).astype(np.float64)

    def evaluate_neighborhood_batch(self, solutions, moves, *, out=None) -> np.ndarray:
        solutions, moves = self._check_batch_args(solutions, moves)
        base = self.n - solutions.sum(axis=1, dtype=np.int64)  # (S,)
        d = 1 - 2 * solutions.astype(np.int64)  # (S, n)
        delta = d[:, moves].sum(axis=2)  # (S, M)
        res = base[:, None] - delta
        if out is None:
            return res.astype(np.float64)
        np.copyto(out, res, casting="unsafe")
        return out

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        return {"flops": 2.0 * k, "bytes": 8.0 * k}


class LeadingOnes(BinaryProblem):
    """Minimize ``n`` minus the length of the leading run of ones."""

    name = "leadingones"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = int(n)

    def evaluate(self, solution: np.ndarray) -> float:
        solution = as_solution(solution, self.n)
        zeros = np.nonzero(solution == 0)[0]
        leading = int(zeros[0]) if zeros.size else self.n
        return float(self.n - leading)

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        has_zero = (solutions == 0).any(axis=1)
        first_zero = np.argmax(solutions == 0, axis=1)
        leading = np.where(has_zero, first_zero, self.n)
        return (self.n - leading).astype(np.float64)
