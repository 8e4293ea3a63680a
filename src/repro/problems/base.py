"""Binary optimization problem interface.

The paper restricts itself to *binary problems*: a candidate solution is a
vector of ``n`` binary values and neighborhoods are defined through the
Hamming distance.  :class:`BinaryProblem` is the contract every workload in
this repository implements; it deliberately exposes a *batch* evaluation
entry point (``evaluate_neighborhood``) because that is the unit of work the
GPU kernels — and their vectorized CPU equivalents — operate on.

Solutions are represented as NumPy ``int8`` arrays of zeros and ones.  A
*move* is a tuple/array of bit positions to flip, and a batch of moves is an
``(num_moves, k)`` integer array (the output of
:meth:`repro.mappings.MoveMapping.from_flat_batch`).
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BinaryProblem", "as_solution", "flip_bits"]

#: Default chunk size (number of neighbors materialised at once) used by the
#: generic neighborhood evaluator to bound peak memory.
DEFAULT_CHUNK = 16_384


def as_solution(bits: Iterable[int] | np.ndarray, n: int | None = None) -> np.ndarray:
    """Coerce ``bits`` to a canonical solution vector (1-D ``int8`` of 0/1)."""
    arr = np.asarray(bits, dtype=np.int8).ravel()
    if n is not None and arr.size != n:
        raise ValueError(f"expected a solution of length {n}, got {arr.size}")
    # One reduction: int8 values outside {0, 1} read as unsigned exceed 1.
    if arr.size and arr.view(np.uint8).max() > 1:
        raise ValueError("solution vector must contain only 0/1 values")
    return arr


def flip_bits(solution: np.ndarray, move: Sequence[int]) -> np.ndarray:
    """Return a copy of ``solution`` with the bits listed in ``move`` flipped."""
    out = solution.copy()
    idx = np.asarray(move, dtype=np.int64)
    out[idx] ^= 1
    return out


class BinaryProblem(abc.ABC):
    """A minimization problem over fixed-length binary strings.

    Attributes
    ----------
    n:
        Length of the solution vector.
    name:
        Human-readable problem name used by the experiment harness.
    """

    #: Set by concrete subclasses.
    n: int
    name: str = "binary-problem"

    #: Incremental gain-cache engine (:mod:`repro.problems.incremental`),
    #: attached by the lockstep runner for the duration of one run.
    _gain_engine = None

    # ------------------------------------------------------------------
    # Required interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def evaluate(self, solution: np.ndarray) -> float:
        """Full (from scratch) evaluation of one solution; lower is better."""

    # ------------------------------------------------------------------
    # Batch interface with generic fallbacks
    # ------------------------------------------------------------------
    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        """Evaluate a ``(batch, n)`` array of solutions.

        The generic fallback loops over :meth:`evaluate`; workloads with a
        natural vectorized form override it.
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        return np.array([self.evaluate(row) for row in solutions], dtype=np.float64)

    def evaluate_neighborhood(
        self,
        solution: np.ndarray,
        moves: np.ndarray,
        *,
        chunk: int = DEFAULT_CHUNK,
    ) -> np.ndarray:
        """Fitness of every neighbor reached from ``solution`` by ``moves``.

        ``moves`` is an ``(num_moves, k)`` integer array of bit positions to
        flip.  The generic implementation materialises flipped copies in
        chunks and calls :meth:`evaluate_batch`; problems providing
        incremental (delta) evaluation override this (or
        :meth:`evaluate_neighborhood_batch`) with a much cheaper computation —
        this is the code path that corresponds to the paper's per-thread
        ``compute_fitness`` kernels.  Bit positions outside ``[0, n)`` raise
        :class:`IndexError`.
        """
        solution = as_solution(solution, self.n)
        moves = self._check_moves(moves)
        if not moves.flags.writeable:
            # A frozen table (the evaluators' full move tables) goes to the
            # batch scorer, whose preprocessing is cached by table identity;
            # a writable one is flipped directly, which is cheaper than
            # rebuilding a move table for every small per-call array.
            return self.evaluate_neighborhood_batch(solution[None, :], moves)[0]
        num_moves = moves.shape[0]
        out = np.empty(num_moves, dtype=np.float64)
        for start in range(0, num_moves, chunk):
            stop = min(start + chunk, num_moves)
            block = moves[start:stop]
            flipped = np.repeat(solution[None, :], block.shape[0], axis=0)
            rows = np.arange(block.shape[0])[:, None]
            flipped[rows, block] ^= 1
            out[start:stop] = self.evaluate_batch(flipped)
        return out

    def delta_evaluate(self, solution: np.ndarray, move: Sequence[int]) -> float:
        """Fitness of the single neighbor reached by ``move`` (scalar path)."""
        return float(
            self.evaluate_neighborhood(solution, np.asarray(move, dtype=np.int64)[None, :])[0]
        )

    # ------------------------------------------------------------------
    # Solution-parallel batch interface
    # ------------------------------------------------------------------
    def _check_batch_args(
        self, solutions: np.ndarray, moves: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate and coerce an ``(S, n)`` solution block and ``(M, k)`` moves."""
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected an (S, {self.n}) solution block, got {solutions.shape}")
        return solutions, self._check_moves(moves)

    def _check_moves(self, moves: np.ndarray) -> np.ndarray:
        """Coerce an ``(M, k)`` move array; reject bit positions outside ``[0, n)``.

        Negative positions would otherwise wrap around to the end of the
        solution.  Repeated bits within a move stay allowed.
        """
        moves = np.asarray(moves, dtype=np.int64)
        if moves.ndim != 2:
            raise ValueError(f"expected an (num_moves, k) move array, got {moves.shape}")
        # One reduction checks both ends: negatives wrap to huge unsigned values.
        if moves.size and moves.view(np.uint64).max() >= self.n:
            raise IndexError(f"move bit positions must lie in [0, {self.n})")
        return moves

    def evaluate_neighborhood_batch(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fitness of every neighbor of every solution: an ``(S, M)`` matrix.

        ``solutions`` is an ``(S, n)`` block of candidate solutions (one
        independent search replica per row) and ``moves`` an ``(M, k)`` array
        of bit positions to flip; entry ``[s, j]`` of the result is the
        fitness of ``solutions[s]`` with ``moves[j]`` applied.  This is the
        unit of work of the solution-parallel execution engine: one batched
        GPU launch evaluates all ``S x M`` (replica, neighbor) pairs.
        ``out``, when given, must be an ``(S, M)`` float64 array and is
        written in place.

        The generic fallback scores flipped copies through
        :meth:`_evaluate_neighborhood_batch_by_flips`; workloads with a
        broadcastable delta evaluation override it with a cheaper
        computation.
        """
        return self._evaluate_neighborhood_batch_by_flips(solutions, moves, out=out)

    def _dispatch_gain_engine(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        """Serve this batch from the attached incremental gain cache, if any.

        Returns ``None`` when no engine is attached or the engine declines
        (no expected-row declaration, unbound/foreign move table, oversized
        scratch) — the caller then recomputes, which is bit-identical.  The
        problems with a gain state (PPP, MaxSAT) consult this hook right
        after argument validation.
        """
        engine = self._gain_engine
        if engine is None:
            return None
        return engine.try_evaluate(solutions, moves, out)

    def __getstate__(self) -> dict:
        """Pickle without process-local state (gain engine, lazy scorers).

        A pickled or copied problem must not carry the attached gain engine
        along, and lazily built fast scorers hold identity-keyed caches whose
        keys are meaningless in another process — they are rebuilt on first
        use.
        """
        state = dict(self.__dict__)
        state.pop("_gain_engine", None)
        if state.get("_fast_scorer") is not None:
            state["_fast_scorer"] = None
        return state

    def _evaluate_neighborhood_batch_by_flips(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        *,
        row_budget: int = DEFAULT_CHUNK,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized batch fallback for problems without incremental evaluation.

        Materialises the flipped ``(S * chunk, n)`` neighbor blocks (chunking
        the move axis so at most ``row_budget`` rows exist at once) and scores
        them with :meth:`evaluate_batch` — no Python loop over the replicas.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        num_solutions, _ = solutions.shape
        num_moves = moves.shape[0]
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        if num_solutions == 0 or num_moves == 0:
            return out
        chunk = max(1, row_budget // num_solutions)
        for start in range(0, num_moves, chunk):
            block = moves[start : start + chunk]
            c = block.shape[0]
            flipped = np.repeat(solutions[:, None, :], c, axis=1)  # (S, c, n)
            flipped[:, np.arange(c)[:, None], block] ^= 1
            scores = self.evaluate_batch(flipped.reshape(num_solutions * c, self.n))
            out[:, start : start + c] = scores.reshape(num_solutions, c)
        return out

    # ------------------------------------------------------------------
    # Helpers shared by all workloads
    # ------------------------------------------------------------------
    def random_solution(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw a uniform random solution vector."""
        rng = np.random.default_rng(rng)
        return rng.integers(0, 2, size=self.n, dtype=np.int8)

    def is_solution(self, fitness: float) -> bool:
        """Whether a fitness value certifies a *successful* solution.

        The PPP (and the other satisfiability-flavoured workloads) use
        ``fitness == 0``; purely continuous landscapes return ``False`` so
        that the harness counts no "successful tries" for them.
        """
        return fitness == 0

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        """Approximate per-neighbor evaluation cost, used by the GPU/CPU timing model.

        Parameters
        ----------
        k:
            Hamming distance of the moves being evaluated (incremental
            evaluation cost usually grows with the number of flipped bits).

        Returns a dictionary with ``flops`` (arithmetic operations) and
        ``bytes`` (global-memory traffic) per evaluated neighbor.  The
        default assumes a full re-evaluation touching the whole solution
        vector once.
        """
        del k  # the generic full re-evaluation does not depend on it
        return {"flops": float(4 * self.n), "bytes": float(8 * self.n)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self.n})"
