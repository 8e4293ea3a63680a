"""Unconstrained Binary Quadratic Programming (UBQP / QUBO).

A classic binary optimization substrate: minimize ``x^T Q x`` for a symmetric
matrix ``Q``.  Many of the "binary problems" the paper's methodology targets
(graph partitioning, max-cut, set packing, ...) reduce to UBQP, which makes
it a natural second workload for the large-neighborhood examples.  The class
implements exact incremental evaluation for 1- and 2-Hamming moves and a
vectorized generic path for larger moves; for k<=2 move tables a precomputed
row/column-gain scorer (:class:`_UBQPFastScorer`) replaces the chunked
incremental loop with one GEMM plus gathers.
"""

from __future__ import annotations

import numpy as np

from .base import BinaryProblem, as_solution
from .fastpath import (
    BoundedCache,
    MoveTableCache,
    fast_path_enabled,
    validated_pair_columns,
)

__all__ = ["UBQP"]


class _UBQPFastMoveTable:
    """Preprocessed view of one validated ``(M, k<=2)`` move array."""

    __slots__ = ("moves", "num_moves", "k", "cols_i", "cols_j", "pair_2q")

    def __init__(
        self,
        moves: np.ndarray,
        cols_i: np.ndarray,
        cols_j: np.ndarray | None,
        Q: np.ndarray,
    ) -> None:
        self.moves = moves
        self.num_moves, self.k = map(int, moves.shape)
        self.cols_i = cols_i
        self.cols_j = cols_j
        #: Cross-term coefficients ``2 * Q[i, j]``, gathered once per table.
        self.pair_2q = 2.0 * Q[cols_i, cols_j] if cols_j is not None else None


class _UBQPFastScorer:
    """Precomputed-gain delta evaluator for k<=2 flips.

    Flipping bit ``p`` (direction ``d_p = 1 - 2 x_p``) changes ``x^T Q x``
    by the *gain* ``g_p = Q_pp + 2 d_p (Q x)_p``; a 2-bit flip adds the cross
    term ``2 d_i d_j Q_ij``.  The whole ``(S, n)`` gain matrix therefore
    comes out of a single GEMM::

        QX = X @ Q;  G = diag(Q) + 2 * (1 - 2X) * QX;  base = (X * QX).sum(1)
        f(x ^ i)      = base + G_i
        f(x ^ {i, j}) = base + G_i + G_j + 2 d_i d_j Q_ij

    against which the reference path's chunked per-move recomputation is
    pure overhead.  Exactness guard: when ``Q`` is integer-valued and the
    largest possible intermediate (``n^2 * max|Q|`` plus the move deltas)
    stays below 2^53, every partial sum in both paths is an exact float64
    integer, so the algebraic reordering is bit-identical to the reference
    evaluation.  Repeated indices are representable (the reference treats a
    double flip with the same original-state formula), so they are allowed.
    """

    #: Fall back to the reference path when one call's float64 scratch
    #: (gain/direction matrices plus the gathered outputs) would exceed this.
    WORKSPACE_LIMIT = 256 * 1024 * 1024

    def __init__(self, problem: "UBQP") -> None:
        Q = problem.Q
        n = problem.n
        self.n = n
        self.Q = Q
        self.diag = np.ascontiguousarray(np.diag(Q))
        qmax = float(np.abs(Q).max()) if Q.size else 0.0
        integer_q = bool(np.all(Q == np.rint(Q)))
        # Largest exact-integer intermediate: |base| <= n^2 qmax, the gains
        # and cross terms add at most ~6 n qmax on top.
        self.exact = integer_q and (n * n + 8 * n + 8) * max(qmax, 1.0) < 2.0**53
        self._tables = MoveTableCache(self._build_table, maxsize=8)
        self._workspaces = BoundedCache(12)

    def _build_table(self, moves: np.ndarray) -> _UBQPFastMoveTable | None:
        cols = validated_pair_columns(moves, self.n, allow_duplicates=True)
        if cols is None:
            return None
        return _UBQPFastMoveTable(moves, cols[0], cols[1], self.Q)

    def move_table(self, moves: np.ndarray) -> _UBQPFastMoveTable | None:
        """Validated, preprocessed view of ``moves`` (``None`` if the fast
        path cannot score them — k > 2, out-of-range bits, empty tables)."""
        return self._tables.lookup(moves)

    def workspace_bytes(self, num_solutions: int, num_moves: int) -> int:
        """Float64 footprint of one call's scratch matrices and gathers."""
        return 8 * num_solutions * (4 * self.n + 3 * num_moves)

    def _workspace(self, tag: str, *shape: int) -> np.ndarray:
        key = (tag, shape)
        buf = self._workspaces.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._workspaces.put(key, buf)
        return buf

    def evaluate(
        self,
        solutions: np.ndarray,
        table: _UBQPFastMoveTable,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score every (replica, move) pair: the ``(S, M)`` fitness matrix."""
        num_solutions = solutions.shape[0]
        num_moves = table.num_moves
        n = self.n
        X = self._workspace("x", num_solutions, n)
        np.copyto(X, solutions, casting="unsafe")
        QX = self._workspace("qx", num_solutions, n)
        np.matmul(X, self.Q, out=QX)
        base = (X * QX).sum(axis=1)  # (S,) == x^T Q x
        D = self._workspace("d", num_solutions, n)
        np.multiply(X, -2.0, out=D)
        D += 1.0  # flip directions 1 - 2x
        G = self._workspace("g", num_solutions, n)
        np.multiply(D, QX, out=G)
        G *= 2.0
        G += self.diag[None, :]  # per-bit gains
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        np.take(G, table.cols_i, axis=1, out=out)
        if table.cols_j is not None:
            gj = self._workspace("gj", num_solutions, num_moves)
            np.take(G, table.cols_j, axis=1, out=gj)
            out += gj
            cross = self._workspace("cross", num_solutions, num_moves)
            np.take(D, table.cols_i, axis=1, out=cross)
            cross *= np.take(D, table.cols_j, axis=1, out=gj)
            cross *= table.pair_2q[None, :]
            out += cross
        out += base[:, None]
        return out


class UBQP(BinaryProblem):
    """Minimize the quadratic form ``x^T Q x`` over binary vectors ``x``."""

    name = "ubqp"

    def __init__(self, Q: np.ndarray) -> None:
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be a square matrix, got shape {Q.shape}")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        self.n = int(Q.shape[0])
        self.Q = Q
        # Precomputed-gain delta evaluator: built lazily on first use,
        # disabled by REPRO_EVAL_PATH=reference or when Q fails the
        # integer-exactness guard (the fast path reorders float arithmetic,
        # which is only bit-identical when every intermediate is an exact
        # integer).
        self._fast_scorer: _UBQPFastScorer | None = None
        self._fast_enabled = fast_path_enabled()

    def _fast(self) -> _UBQPFastScorer | None:
        if not self._fast_enabled:
            return None
        if self._fast_scorer is None:
            scorer = _UBQPFastScorer(self)
            if not scorer.exact:
                self._fast_enabled = False
                return None
            self._fast_scorer = scorer
        return self._fast_scorer

    @classmethod
    def random(
        cls,
        n: int,
        density: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ) -> "UBQP":
        """Random symmetric instance with integer weights in [-100, 100]."""
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        rng = np.random.default_rng(rng)
        upper = rng.integers(-100, 101, size=(n, n)).astype(np.float64)
        mask = rng.random((n, n)) < density
        upper = np.triu(upper * mask)
        Q = upper + np.triu(upper, 1).T
        return cls(Q)

    # ------------------------------------------------------------------
    def evaluate(self, solution: np.ndarray) -> float:
        x = as_solution(solution, self.n).astype(np.float64)
        return float(x @ self.Q @ x)

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        X = np.asarray(solutions, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {X.shape}")
        return np.einsum("bi,ij,bj->b", X, self.Q, X)

    def evaluate_neighborhood(self, solution, moves) -> np.ndarray:
        """Incremental evaluation of k-bit flips.

        For a flip of bit ``p`` (``x_p -> 1 - x_p``, i.e. ``d_p = 1 - 2 x_p``)
        the change of ``x^T Q x`` is ``d_p * (Q_pp * d_p + 2 * (Q x)_p)``
        corrected, for multi-bit moves, by the cross terms
        ``2 * d_p d_q Q_pq`` for every flipped pair ``p < q``.

        Delegates to :meth:`evaluate_neighborhood_batch` with a single-row
        block: floating-point accumulation order then matches the batched
        kernels exactly, which is what keeps the ``full`` transfer mode
        bit-identical to the device-resident ones on real-valued ``Q``.
        """
        x = as_solution(solution, self.n)
        return self.evaluate_neighborhood_batch(x[None, :], moves)[0]

    def evaluate_neighborhood_batch(
        self,
        solutions,
        moves,
        *,
        element_budget: int = 4_194_304,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Incremental k-flip evaluation broadcast over the solution axis.

        Dispatches to the precomputed-gain scorer (see
        :class:`_UBQPFastScorer`) whenever the move table qualifies — k in
        {1, 2}, in-range indices, workspace within budget — and to the
        chunked reference evaluation otherwise.  On integer-valued ``Q`` the
        two paths are bit-identical; ``REPRO_EVAL_PATH=reference`` forces the
        reference path.  ``out``, when given, must be a ``(S, M)`` float64
        array and is written in place.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        num_solutions = solutions.shape[0]
        num_moves = moves.shape[0]
        scorer = self._fast()
        if scorer is not None and num_solutions and num_moves:
            if scorer.workspace_bytes(num_solutions, num_moves) <= scorer.WORKSPACE_LIMIT:
                table = scorer.move_table(moves)
                if table is not None:
                    return scorer.evaluate(solutions, table, out=out)
        return self._evaluate_neighborhood_batch_reference(
            solutions, moves, element_budget=element_budget, out=out
        )

    def _evaluate_neighborhood_batch_reference(
        self,
        solutions,
        moves,
        *,
        element_budget: int = 4_194_304,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Chunked broadcast evaluation — the ground truth for every move table.

        The per-replica quantities of :meth:`evaluate_neighborhood` (``Q x``,
        the flip directions and the base fitness) are computed for the whole
        ``(S, n)`` block at once; the single-bit and pairwise cross terms then
        broadcast over a leading replica axis.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        X = solutions.astype(np.float64)  # (S, n)
        num_solutions = X.shape[0]
        num_moves, k = moves.shape
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        if num_solutions == 0 or num_moves == 0:
            return out
        base = np.einsum("si,ij,sj->s", X, self.Q, X)  # (S,)
        QX = X @ self.Q  # (S, n)
        D = 1.0 - 2.0 * X  # (S, n)
        diag = np.diag(self.Q)
        chunk = max(1, element_budget // max(1, num_solutions * max(1, k)))
        for start in range(0, num_moves, chunk):
            block = moves[start : start + chunk]  # (c, k)
            c = block.shape[0]
            dm = D[:, block]  # (S, c, k)
            delta = (dm * (diag[block][None, :, :] * dm + 2.0 * QX[:, block])).sum(axis=2)
            for a in range(k):
                for b in range(a + 1, k):
                    delta += (
                        2.0 * dm[:, :, a] * dm[:, :, b] * self.Q[block[:, a], block[:, b]][None, :]
                    )
            out[:, start : start + c] = base[:, None] + delta
        return out

    def is_solution(self, fitness: float) -> bool:
        return False  # no natural "success" certificate for UBQP

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        flops = 4.0 * k + 2.0 * k * (k - 1)
        mem_bytes = 8.0 * (2 * k + k * (k - 1) / 2)
        return {"flops": flops, "bytes": mem_bytes}
