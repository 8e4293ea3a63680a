"""Random Max-k-SAT as an additional binary workload.

The paper's methodology is independent of the objective function: any binary
problem can plug its ``compute_fitness`` into the neighborhood kernels.
Max-SAT is the canonical such problem and is used by the examples to show
the library on a non-cryptographic workload.  For k<=2 move tables a
clause-incidence delta scorer (:class:`_MaxSatFastScorer`) replaces the
flip-and-recount reference path with per-variable break/make counts plus a
shared-clause pair correction.
"""

from __future__ import annotations

import numpy as np

from .base import BinaryProblem, as_solution
from .fastpath import MoveTableCache, fast_path_enabled, validated_pair_columns

__all__ = ["MaxSat", "generate_random_ksat"]


def generate_random_ksat(
    num_vars: int,
    num_clauses: int,
    k: int = 3,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a uniform random k-SAT formula.

    Returns ``(variables, signs)``: two ``(num_clauses, k)`` arrays where
    ``variables[c, l]`` is the variable index of literal ``l`` of clause
    ``c`` and ``signs[c, l]`` is +1 for a positive literal, -1 for a negated
    one.  Variables within a clause are distinct.
    """
    if num_vars < k:
        raise ValueError(f"need at least k={k} variables, got {num_vars}")
    if num_clauses <= 0:
        raise ValueError(f"num_clauses must be positive, got {num_clauses}")
    rng = np.random.default_rng(rng)
    variables = np.empty((num_clauses, k), dtype=np.int64)
    for c in range(num_clauses):
        variables[c] = rng.choice(num_vars, size=k, replace=False)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_clauses, k))
    return variables, signs


class _MaxSatFastMoveTable:
    """Preprocessed view of one validated ``(M, k<=2)`` move array.

    For 2-bit moves the table also carries the flattened *shared-clause*
    entries: every (move, clause) pair where the clause contains both flipped
    variables, in move order, with ``np.add.reduceat`` segment offsets.
    """

    __slots__ = (
        "moves",
        "num_moves",
        "cols_i",
        "cols_j",
        "ent_clause",
        "ent_var_u",
        "ent_var_v",
        "ent_pos_u",
        "ent_pos_v",
        "red_idx",
        "nz_moves",
        "num_entries",
    )

    def __init__(self, moves: np.ndarray, cols_i: np.ndarray, cols_j: np.ndarray | None) -> None:
        self.moves = moves
        self.num_moves = int(moves.shape[0])
        self.cols_i = cols_i
        self.cols_j = cols_j
        self.num_entries = 0
        self.ent_clause = None
        self.ent_var_u = None
        self.ent_var_v = None
        self.ent_pos_u = None
        self.ent_pos_v = None
        self.red_idx = None
        self.nz_moves = None


class _MaxSatFastScorer:
    """Clause-incidence delta evaluator for k<=2 flips.

    Per replica, one pass over the formula yields the true-literal count
    ``t_c`` of every clause and the base fitness ``sum(t_c == 0)``.  Flipping
    variable ``v`` then breaks exactly the clauses where ``v``'s literal is
    currently the only true one (``t_c == 1``) and repairs exactly the
    currently-unsatisfied clauses where it appears (``t_c == 0``)::

        delta1[v] = #(lit true & t == 1) - #(lit false & t == 0)

    computed for all variables at once through a padded per-variable clause
    incidence table.  A 2-bit flip adds ``delta1[u] + delta1[v]`` plus an
    inclusion-exclusion correction over the clauses containing *both*
    variables (precomputed per move table from a globally sorted var-pair
    index).  Every quantity is a small integer, so the result is bit-for-bit
    the flip-and-recount reference evaluation.

    Exactness requires distinct variables within each clause (a repeated
    variable breaks the +-1 literal-count model); instances violating that
    disable the fast path entirely.  Moves repeating an index are rejected
    per table (the reference buffers the flip, a double flip is a no-op).
    """

    #: Fall back to the reference path when one call's scratch tensors (the
    #: literal table, the incidence gathers and the pair-correction entries)
    #: would exceed this.
    WORKSPACE_LIMIT = 256 * 1024 * 1024

    def __init__(self, problem: "MaxSat") -> None:
        self.n = problem.n
        self.num_clauses = problem.num_clauses
        self.k_literals = problem.k_literals
        self.variables = problem.variables
        self.pos = (problem.signs == 1).astype(np.int8)  # 1 = positive literal
        kl = self.k_literals
        if kl >= 2 and self.num_clauses:
            srt = np.sort(self.variables, axis=1)
            self.exact = not bool((srt[:, 1:] == srt[:, :-1]).any())
        else:
            self.exact = True
        if self.exact:
            self._build_incidence()
            self._build_pair_index()
        self._tables = MoveTableCache(self._build_table, maxsize=8)

    # -- static preprocessing -------------------------------------------
    def _build_incidence(self) -> None:
        """Padded per-variable (clause, polarity) incidence ``(n, L)`` table.

        Pad entries point at a sentinel clause (index ``num_clauses``, whose
        true-literal count is forced to -1) with polarity 2 (never equal to a
        0/1 assignment), so they contribute to neither the break nor the make
        count.
        """
        flat_vars = self.variables.ravel()
        flat_pos = self.pos.ravel()
        flat_clause = np.repeat(np.arange(self.num_clauses, dtype=np.int64), self.k_literals)
        counts = np.bincount(flat_vars, minlength=self.n) if flat_vars.size else np.zeros(
            self.n, dtype=np.int64
        )
        self.max_occ = int(counts.max()) if counts.size else 0
        occ_clause = np.full((self.n, self.max_occ), self.num_clauses, dtype=np.int64)
        occ_pos = np.full((self.n, self.max_occ), 2, dtype=np.int8)
        if flat_vars.size:
            order = np.argsort(flat_vars, kind="stable")
            sv = flat_vars[order]
            starts = np.zeros(self.n, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            slot = np.arange(sv.size, dtype=np.int64) - starts[sv]
            occ_clause[sv, slot] = flat_clause[order]
            occ_pos[sv, slot] = flat_pos[order]
        self.occ_clause = occ_clause
        self.occ_pos = occ_pos

    def _build_pair_index(self) -> None:
        """Sorted global index of (variable pair) -> shared clause entries."""
        kl = self.k_literals
        iu, il = np.triu_indices(kl, 1)
        if iu.size == 0 or self.num_clauses == 0:
            self._pair_keys = np.empty(0, dtype=np.int64)
            self._pair_clause = np.empty(0, dtype=np.int64)
            self._pair_var_u = np.empty(0, dtype=np.int64)
            self._pair_var_v = np.empty(0, dtype=np.int64)
            self._pair_pos_u = np.empty(0, dtype=np.int8)
            self._pair_pos_v = np.empty(0, dtype=np.int8)
            return
        U = self.variables[:, iu].ravel()
        V = self.variables[:, il].ravel()
        PU = self.pos[:, iu].ravel()
        PV = self.pos[:, il].ravel()
        CL = np.repeat(np.arange(self.num_clauses, dtype=np.int64), iu.size)
        swap = U > V
        u = np.where(swap, V, U)
        v = np.where(swap, U, V)
        pu = np.where(swap, PV, PU)
        pv = np.where(swap, PU, PV)
        key = u * self.n + v
        order = np.argsort(key, kind="stable")
        self._pair_keys = key[order]
        self._pair_clause = CL[order]
        self._pair_var_u = u[order]
        self._pair_var_v = v[order]
        self._pair_pos_u = pu[order].astype(np.int8)
        self._pair_pos_v = pv[order].astype(np.int8)

    # -- per-move-table preprocessing -----------------------------------
    def _build_table(self, moves: np.ndarray) -> _MaxSatFastMoveTable | None:
        cols = validated_pair_columns(moves, self.n, allow_duplicates=False)
        if cols is None:
            return None
        cols_i, cols_j = cols
        table = _MaxSatFastMoveTable(moves, cols_i, cols_j)
        if cols_j is None or self._pair_keys.size == 0:
            return table
        mu = np.minimum(cols_i, cols_j)
        mv = np.maximum(cols_i, cols_j)
        mkey = mu * self.n + mv
        lo = np.searchsorted(self._pair_keys, mkey, side="left")
        hi = np.searchsorted(self._pair_keys, mkey, side="right")
        counts = hi - lo
        total = int(counts.sum())
        table.num_entries = total
        if total == 0:
            return table
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        ids = np.arange(total, dtype=np.int64) + np.repeat(lo - offsets[:-1], counts)
        table.ent_clause = self._pair_clause[ids]
        table.ent_var_u = self._pair_var_u[ids]
        table.ent_var_v = self._pair_var_v[ids]
        table.ent_pos_u = self._pair_pos_u[ids]
        table.ent_pos_v = self._pair_pos_v[ids]
        nz = counts > 0
        table.red_idx = offsets[:-1][nz]
        table.nz_moves = np.flatnonzero(nz)
        return table

    def move_table(self, moves: np.ndarray) -> _MaxSatFastMoveTable | None:
        """Validated, preprocessed view of ``moves`` (``None`` if the fast
        path cannot score them — k > 2, duplicate or out-of-range bits)."""
        return self._tables.lookup(moves)

    def workspace_bytes(self, num_solutions: int, num_moves: int) -> int:
        """Scratch footprint of one call (literal, incidence, entry tensors)."""
        per_row = (
            5 * self.num_clauses * self.k_literals  # literal table + counts
            + 6 * self.n * max(1, self.max_occ)  # incidence gathers
            + 8 * num_moves  # output block
        )
        return num_solutions * per_row

    def clause_counts(self, solutions: np.ndarray) -> np.ndarray:
        """True-literal count of every clause: ``(S, clauses + 1)`` int32.

        The last column is a sentinel (-1) that the padded incidence entries
        point at.
        """
        lit_true = solutions[:, self.variables] == self.pos[None, :, :]
        t_pad = np.full((solutions.shape[0], self.num_clauses + 1), -1, dtype=np.int32)
        lit_true.sum(axis=2, dtype=np.int32, out=t_pad[:, : self.num_clauses])
        return t_pad

    def assemble(
        self, solutions: np.ndarray, t_pad: np.ndarray, table: _MaxSatFastMoveTable
    ) -> np.ndarray:
        """Unsatisfied clauses after every (replica, move): ``(S, M)`` int64.

        ``t_pad`` is :meth:`clause_counts` of ``solutions``.  A move's count
        is the base count plus each flipped variable's break (its literal is
        a clause's only true one) minus make (the clause is unsatisfied),
        with inclusion-exclusion over the clauses holding both variables of
        a pair.
        """
        t = t_pad[:, : self.num_clauses]
        base = (t == 0).sum(axis=1, dtype=np.int64)  # (S,) unsatisfied clauses
        tc = t_pad[:, self.occ_clause]  # (S, n, L)
        lit_occ = solutions[:, :, None] == self.occ_pos[None, :, :]
        delta1 = (lit_occ & (tc == 1)).sum(axis=2, dtype=np.int64)
        delta1 -= (~lit_occ & (tc == 0)).sum(axis=2, dtype=np.int64)
        res = base[:, None] + delta1[:, table.cols_i]
        if table.cols_j is not None:
            res += delta1[:, table.cols_j]
            if table.num_entries:
                t_e = t[:, table.ent_clause].astype(np.int64)  # (S, E)
                du = np.where(solutions[:, table.ent_var_u] == table.ent_pos_u, -1, 1)
                dv = np.where(solutions[:, table.ent_var_v] == table.ent_pos_v, -1, 1)
                corr = (t_e + du + dv == 0).astype(np.int64)
                corr -= t_e + du == 0
                corr -= t_e + dv == 0
                corr += t_e == 0
                seg = np.add.reduceat(corr, table.red_idx, axis=1)
                res[:, table.nz_moves] += seg
        return res

    def evaluate(
        self,
        solutions: np.ndarray,
        table: _MaxSatFastMoveTable,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score every (replica, move) pair: the ``(S, M)`` fitness matrix."""
        res = self.assemble(solutions, self.clause_counts(solutions), table)
        if out is None:
            return res.astype(np.float64)
        np.copyto(out, res, casting="unsafe")
        return out


class MaxSat(BinaryProblem):
    """Minimize the number of unsatisfied clauses of a CNF formula."""

    name = "maxsat"

    def __init__(self, num_vars: int, variables: np.ndarray, signs: np.ndarray) -> None:
        variables = np.asarray(variables, dtype=np.int64)
        signs = np.asarray(signs, dtype=np.int8)
        if variables.shape != signs.shape or variables.ndim != 2:
            raise ValueError("variables and signs must be (num_clauses, k) arrays of equal shape")
        if variables.size and (variables.min() < 0 or variables.max() >= num_vars):
            raise ValueError("clause variable index out of range")
        if signs.size and not np.all(np.isin(signs, (-1, 1))):
            raise ValueError("signs must be +/-1")
        self.n = int(num_vars)
        self.variables = variables
        self.signs = signs
        self.num_clauses, self.k_literals = map(int, variables.shape)
        # Clause-incidence delta evaluator: built lazily on first use,
        # disabled by REPRO_EVAL_PATH=reference or when a clause repeats a
        # variable (which breaks the +-1 literal-count model the scorer
        # relies on).
        self._fast_scorer: _MaxSatFastScorer | None = None
        self._fast_enabled = fast_path_enabled()

    def _fast(self) -> _MaxSatFastScorer | None:
        if not self._fast_enabled:
            return None
        if self._fast_scorer is None:
            scorer = _MaxSatFastScorer(self)
            if not scorer.exact:
                self._fast_enabled = False
                return None
            self._fast_scorer = scorer
        return self._fast_scorer

    @classmethod
    def random(
        cls,
        num_vars: int,
        num_clauses: int,
        k: int = 3,
        rng: np.random.Generator | int | None = None,
    ) -> "MaxSat":
        variables, signs = generate_random_ksat(num_vars, num_clauses, k, rng)
        return cls(num_vars, variables, signs)

    # ------------------------------------------------------------------
    def _unsatisfied(self, solutions: np.ndarray) -> np.ndarray:
        """Count unsatisfied clauses for a ``(batch, n)`` array of assignments."""
        # literal value: x if sign=+1 else (1-x)
        lit_vars = solutions[:, self.variables]  # (batch, clauses, k)
        lit_true = np.where(self.signs[None, :, :] == 1, lit_vars, 1 - lit_vars)
        clause_sat = lit_true.any(axis=2)
        return (~clause_sat).sum(axis=1)

    def evaluate(self, solution: np.ndarray) -> float:
        solution = as_solution(solution, self.n)
        return float(self._unsatisfied(solution[None, :])[0])

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        return self._unsatisfied(solutions).astype(np.float64)

    def evaluate_neighborhood_batch(self, solutions, moves, *, out=None) -> np.ndarray:
        """Vectorized (replica, move) scoring with delta fast path.

        Dispatches to the clause-incidence scorer (:class:`_MaxSatFastScorer`)
        for qualifying k<=2 move tables — bit-identical to, and much cheaper
        than, the flip-and-recount reference path used for everything else.
        ``REPRO_EVAL_PATH=reference`` forces the reference path.  ``out``,
        when given, must be a ``(S, M)`` float64 array and is written in
        place.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        incremental = self._dispatch_gain_engine(solutions, moves, out)
        if incremental is not None:
            return incremental
        num_solutions = solutions.shape[0]
        num_moves = moves.shape[0]
        scorer = self._fast()
        if scorer is not None and num_solutions and num_moves:
            if scorer.workspace_bytes(num_solutions, num_moves) <= scorer.WORKSPACE_LIMIT:
                table = scorer.move_table(moves)
                if table is not None:
                    return scorer.evaluate(solutions, table, out=out)
        return self._evaluate_neighborhood_batch_reference(solutions, moves, out=out)

    def _evaluate_neighborhood_batch_reference(self, solutions, moves, *, out=None) -> np.ndarray:
        """Flip-and-recount ground truth for every move table.

        Vectorized over the solution axis: flipped assignment blocks for all
        replicas are scored through the clause tables at once.  The row
        budget bounds the (rows, clauses, k) literal tensor.
        """
        budget = max(64, 2_097_152 // max(1, self.num_clauses * self.k_literals))
        return self._evaluate_neighborhood_batch_by_flips(
            solutions, moves, row_budget=budget, out=out
        )

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        # Full re-evaluation over all clauses per neighbor (no incremental
        # structure maintained here).
        flops = 3.0 * self.num_clauses * self.k_literals
        mem_bytes = 8.0 * self.num_clauses * self.k_literals
        return {"flops": flops, "bytes": mem_bytes}
