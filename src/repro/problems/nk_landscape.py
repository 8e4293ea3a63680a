"""Kauffman NK landscapes — tunably rugged binary fitness landscapes.

NK landscapes let the examples and ablation benchmarks control epistasis
(ruggedness) explicitly, which is useful to illustrate the paper's claim
that larger neighborhoods help most on difficult landscapes.  For k<=2 move
tables a subfunction-mask delta scorer (:class:`_NKFastScorer`) re-gathers
only the contribution tables a flip actually touches instead of re-indexing
every locus of every flipped copy.
"""

from __future__ import annotations

import numpy as np

from .base import BinaryProblem, as_solution
from .fastpath import MoveTableCache, fast_path_enabled, validated_pair_columns

__all__ = ["NKLandscape"]


class _NKFastMoveTable:
    """Preprocessed view of one validated ``(M, k<=2)`` move array.

    Carries the flattened (move, affected locus) entries with their summed
    index-delta weights, sorted by move so chunks of the move axis map to
    contiguous entry ranges.
    """

    __slots__ = ("moves", "num_moves", "cols_i", "cols_j", "ent_move", "ent_locus", "w_i", "w_j")

    def __init__(
        self,
        moves: np.ndarray,
        cols_i: np.ndarray,
        cols_j: np.ndarray | None,
        ent_move: np.ndarray,
        ent_locus: np.ndarray,
        w_i: np.ndarray,
        w_j: np.ndarray | None,
    ) -> None:
        self.moves = moves
        self.num_moves = int(moves.shape[0])
        self.cols_i = cols_i
        self.cols_j = cols_j
        self.ent_move = ent_move
        self.ent_locus = ent_locus
        self.w_i = w_i
        self.w_j = w_j


class _NKFastScorer:
    """Subfunction-mask delta evaluator for k<=2 flips.

    Flipping bit ``v`` only perturbs the loci whose epistatic mask contains
    ``v``; within each such locus the table index moves by exactly
    ``d_v * 2^pos`` where ``pos`` is ``v``'s bit position in the mask and
    ``d_v = 1 - 2 x_v`` the flip direction.  The scorer precomputes, per
    variable, the (locus, weight) incidence and, per move table, the merged
    (move, locus) -> (weight_i, weight_j) entry list.  One call then gathers
    the base contributions once, re-gathers only the perturbed entries, and
    scatters them into a ``(S, chunk, n)`` contribution cube whose
    ``mean(axis=2)`` has the same contiguous pairwise-summation layout as the
    reference path — making the result bit-identical, not just close: both
    paths reduce the exact same float64 contribution values in the exact
    same order.  Moves repeating an index are rejected per table (the
    reference buffers the flip, a double flip is a no-op).
    """

    #: Fall back to the reference path when one call's per-entry gathers
    #: would exceed this many bytes (the contribution cube is separately
    #: bounded by the chunked move axis).
    WORKSPACE_LIMIT = 256 * 1024 * 1024

    #: Element budget of the ``(S, chunk, n)`` float64 contribution cube.
    CUBE_ELEMENTS = 4_194_304

    def __init__(self, problem: "NKLandscape") -> None:
        self.n = problem.n
        self.tables = problem.tables
        self._loci = problem._loci
        self._weights = problem._weights
        # Per-variable incidence: which loci each variable enters, and with
        # which index weight.  Rows are padded with (locus 0, weight 0) —
        # weight-0 entries re-gather the base contribution, a no-op.
        flat_var = self._loci.ravel()
        flat_locus = np.repeat(np.arange(self.n, dtype=np.int64), self._loci.shape[1])
        flat_weight = np.tile(self._weights, self.n)
        counts = np.bincount(flat_var, minlength=self.n)
        self.max_aff = int(counts.max()) if counts.size else 0
        aff_locus = np.zeros((self.n, self.max_aff), dtype=np.int64)
        aff_weight = np.zeros((self.n, self.max_aff), dtype=np.int64)
        order = np.argsort(flat_var, kind="stable")
        sv = flat_var[order]
        starts = np.zeros(self.n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        slot = np.arange(sv.size, dtype=np.int64) - starts[sv]
        aff_locus[sv, slot] = flat_locus[order]
        aff_weight[sv, slot] = flat_weight[order]
        self.aff_locus = aff_locus
        self.aff_weight = aff_weight
        self._tables_cache = MoveTableCache(self._build_table, maxsize=8)

    def _build_table(self, moves: np.ndarray) -> _NKFastMoveTable | None:
        cols = validated_pair_columns(moves, self.n, allow_duplicates=False)
        if cols is None:
            return None
        cols_i, cols_j = cols
        num_moves = moves.shape[0]
        move_ids = np.repeat(
            np.arange(num_moves, dtype=np.int64) * self.n, self.max_aff
        ).reshape(num_moves, self.max_aff)
        keys_i = (move_ids + self.aff_locus[cols_i]).ravel()
        wi = self.aff_weight[cols_i].ravel()
        if cols_j is None:
            uniq, inv = np.unique(keys_i, return_inverse=True)
            w_i = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(w_i, inv, wi)
            w_j = None
        else:
            keys_j = (move_ids + self.aff_locus[cols_j]).ravel()
            wj = self.aff_weight[cols_j].ravel()
            uniq, inv = np.unique(np.concatenate([keys_i, keys_j]), return_inverse=True)
            w_i = np.zeros(uniq.size, dtype=np.int64)
            w_j = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(w_i, inv[: keys_i.size], wi)
            np.add.at(w_j, inv[keys_i.size :], wj)
        ent_move = uniq // self.n
        ent_locus = uniq % self.n
        return _NKFastMoveTable(moves, cols_i, cols_j, ent_move, ent_locus, w_i, w_j)

    def move_table(self, moves: np.ndarray) -> _NKFastMoveTable | None:
        """Validated, preprocessed view of ``moves`` (``None`` if the fast
        path cannot score them — k > 2, duplicate or out-of-range bits)."""
        return self._tables_cache.lookup(moves)

    def workspace_bytes(self, num_solutions: int, table: _NKFastMoveTable) -> int:
        """Footprint of the per-entry index/value gathers for one call."""
        return 16 * num_solutions * (table.ent_move.size + 2 * self.n)

    def evaluate(
        self,
        solutions: np.ndarray,
        table: _NKFastMoveTable,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score every (replica, move) pair: the ``(S, M)`` fitness matrix."""
        num_solutions = solutions.shape[0]
        num_moves = table.num_moves
        n = self.n
        states = solutions[:, self._loci]  # (S, n, K+1)
        idx0 = states.astype(np.int64) @ self._weights  # (S, n)
        contrib0 = self.tables[np.arange(n)[None, :], idx0]  # (S, n)
        d = (1 - 2 * solutions).astype(np.int64)  # flip directions
        idx_new = idx0[:, table.ent_locus]
        idx_new += d[:, table.cols_i[table.ent_move]] * table.w_i
        if table.cols_j is not None:
            idx_new += d[:, table.cols_j[table.ent_move]] * table.w_j
        vals = self.tables[table.ent_locus, idx_new]  # (S, E)
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        chunk = max(1, self.CUBE_ELEMENTS // max(1, num_solutions * n))
        cube = np.empty((num_solutions, min(chunk, num_moves), n), dtype=np.float64)
        for start in range(0, num_moves, chunk):
            stop = min(start + chunk, num_moves)
            c = stop - start
            block = cube[:, :c]
            block[:] = contrib0[:, None, :]
            el = np.searchsorted(table.ent_move, start, side="left")
            eh = np.searchsorted(table.ent_move, stop, side="left")
            block[:, table.ent_move[el:eh] - start, table.ent_locus[el:eh]] = vals[:, el:eh]
            out[:, start:stop] = 1.0 - block.mean(axis=2)
        return out


class NKLandscape(BinaryProblem):
    """Minimization form of the NK landscape (cost = 1 - average contribution).

    Each bit ``i`` interacts with ``K`` other bits; its contribution is a
    random table lookup over the ``2^(K+1)`` joint states.  The global
    fitness is the mean contribution, here reported as ``1 - mean`` so that
    lower is better and 0 is the (usually unreachable) ideal.
    """

    name = "nk"

    def __init__(
        self,
        n: int,
        k: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not 0 <= k < n:
            raise ValueError(f"K must satisfy 0 <= K < n, got {k}")
        self.n = int(n)
        self.k_interactions = int(k)
        rng = np.random.default_rng(rng)
        # neighbors[i] = the K other loci entering bit i's contribution
        self.neighbors = np.empty((n, k), dtype=np.int64)
        choices = np.arange(n)
        for i in range(n):
            others = np.delete(choices, i)
            self.neighbors[i] = rng.choice(others, size=k, replace=False)
        # contribution tables, one row per locus, 2^(K+1) entries each
        self.tables = rng.random((n, 2 ** (k + 1)))
        # Precompute the full epistatic index matrix: locus i depends on
        # [i, neighbors[i]...] with bit i the most significant position.
        self._loci = np.concatenate([np.arange(n)[:, None], self.neighbors], axis=1)
        self._weights = (2 ** np.arange(k, -1, -1)).astype(np.int64)
        # Subfunction-mask delta evaluator: built lazily on first use,
        # disabled by REPRO_EVAL_PATH=reference.  Always exact — it gathers
        # the same table entries and reduces them in the same layout as the
        # reference.
        self._fast_scorer: _NKFastScorer | None = None
        self._fast_enabled = fast_path_enabled()

    def _fast(self) -> _NKFastScorer | None:
        if not self._fast_enabled:
            return None
        if self._fast_scorer is None:
            self._fast_scorer = _NKFastScorer(self)
        return self._fast_scorer

    # ------------------------------------------------------------------
    def _contributions(self, solutions: np.ndarray) -> np.ndarray:
        """Per-locus contributions for a ``(batch, n)`` array of solutions."""
        states = solutions[:, self._loci]  # (batch, n, k+1)
        idx = states.astype(np.int64) @ self._weights  # (batch, n)
        return self.tables[np.arange(self.n)[None, :], idx]

    def evaluate(self, solution: np.ndarray) -> float:
        solution = as_solution(solution, self.n)
        contrib = self._contributions(solution[None, :])[0]
        return float(1.0 - contrib.mean())

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        contrib = self._contributions(solutions)
        return 1.0 - contrib.mean(axis=1)

    def evaluate_neighborhood_batch(self, solutions, moves, *, out=None) -> np.ndarray:
        """Vectorized (replica, move) scoring with delta fast path.

        Dispatches to the subfunction-mask scorer (:class:`_NKFastScorer`)
        for qualifying k<=2 move tables — bit-identical to, and cheaper
        than, the flip-and-regather reference path used for everything else.
        ``REPRO_EVAL_PATH=reference`` forces the reference path.  ``out``,
        when given, must be a ``(S, M)`` float64 array and is written in
        place.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        num_solutions = solutions.shape[0]
        scorer = self._fast()
        if scorer is not None and num_solutions and moves.shape[0]:
            table = scorer.move_table(moves)
            if table is not None:
                if scorer.workspace_bytes(num_solutions, table) <= scorer.WORKSPACE_LIMIT:
                    return scorer.evaluate(solutions, table, out=out)
        return self._evaluate_neighborhood_batch_reference(solutions, moves, out=out)

    def _evaluate_neighborhood_batch_reference(self, solutions, moves, *, out=None) -> np.ndarray:
        """Flip-and-regather ground truth for every move table.

        Vectorized over the solution axis: every replica's flipped copies go
        through one `_contributions` table sweep.  The row budget bounds the
        (rows, n, K+1) epistatic state tensor.
        """
        budget = max(64, 2_097_152 // max(1, self.n * (self.k_interactions + 1)))
        return self._evaluate_neighborhood_batch_by_flips(
            solutions, moves, row_budget=budget, out=out
        )

    def is_solution(self, fitness: float) -> bool:
        return False

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        # Full re-evaluation touches every locus table once.
        flops = 3.0 * self.n * (self.k_interactions + 1)
        mem_bytes = 8.0 * self.n * (self.k_interactions + 1)
        return {"flops": flops, "bytes": mem_bytes}
