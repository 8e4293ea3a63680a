"""Incremental gain-cache engine: O(affected) neighborhood maintenance.

The lockstep hot loop re-evaluates the entire ``(S, M)`` move neighborhood
every iteration, even though each replica commits exactly one k<=2-bit move
per step.  This module maintains *persistent per-replica gain state* —
the quantities the fast scorers derive from scratch every call — and
updates only the entries *coupled* to the flipped bits after each accepted
move, the standard incremental-evaluation discipline from the tabu-search
literature.  Two problems keep a gain state, the two where it beats the
fast scorer's recompute: PPP 2-Hamming (compressed products and sign
pairs) and MaxSAT (clause true-literal counts).  Every other problem, and
every single-replica search, recomputes through its fast scorer.

Exactness is non-negotiable and follows the same argument as the fast
scorers in :mod:`repro.problems.fastpath`: every maintained quantity is an
exact integer, so the incremental update and the from-scratch recompute
produce the *same float bits*, and the materialized fitness matrix is
bit-identical to the recompute path.  The engine is self-healing: it keeps
a mirror of the solutions it believes each replica holds, verifies the
mirror against the actual inputs on every call, and silently re-derives
any row that diverged (restarts, tenant attaches, checkpoint restores,
replica migration).  Anything outside the compiled model — unknown move
tables, k > 2, writable move arrays, disabled fast paths — declines to the
existing scorer/reference chain.

The engine runs only on the default ``REPRO_EVAL_PATH=incremental``, and
only under :class:`~repro.localsearch.multistart.MultiStartRunner`;
``REPRO_INCREMENTAL_CHECK=N`` re-verifies every N-th materialization against
the recompute path (debug re-sync assert).
"""

from __future__ import annotations

import os

import numpy as np

from .fastpath import BoundedCache, eval_path

try:  # pragma: no cover - exercised implicitly on scipy-equipped hosts
    from scipy.linalg.blas import sgemm as _sgemm
except Exception:  # pragma: no cover - scipy-less fallback
    _sgemm = None

__all__ = [
    "GainEngine",
    "attach_gain_engine",
    "create_gain_engine",
    "detach_gain_engine",
    "incremental_enabled",
]

_CHECK_ENV = "REPRO_INCREMENTAL_CHECK"

#: Like the fast scorers: fall back to the recompute path when one call's
#: float32 scratch would exceed this.
WORKSPACE_LIMIT = 256 * 1024 * 1024


def incremental_enabled() -> bool:
    """Whether the incremental gain-cache engine is enabled (default: yes)."""
    return eval_path() == "incremental"


def check_period() -> int:
    """Debug re-sync period: every N-th engine eval is verified against the
    recompute path (0 = off, the default)."""
    raw = os.environ.get(_CHECK_ENV, "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{_CHECK_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# Per-problem gain states
# ---------------------------------------------------------------------------
class _GainStateBase:
    """Common row-array management for the per-problem gain states.

    Subclasses list their per-replica arrays in ``_row_arrays``; rows are
    (re)derived via :meth:`init_rows` and advanced via :meth:`commit`.  All
    arrays are indexed by replica id.
    """

    _row_arrays: tuple[str, ...] = ()

    def grow(self, rows: int) -> None:
        for name in self._row_arrays:
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    @property
    def rows(self) -> int:
        return getattr(self, self._row_arrays[0]).shape[0]


def _merged_ppp_tables(scorer):
    """Scorer-level merged k=2 tables (move-table independent).

    Rows 0 (sign weight) and 1 (outside-occupied) of the scorer's table
    stack enter the fitness without an absolute value, so they fold into a
    single row — one less row in every GEMM and elementwise pass.  Cached by
    scorer identity in the fastpath cache registry.
    """
    entry = _PPP_SCORER_CACHE.get(id(scorer))
    if entry is not None and entry[0] is scorer:
        return entry[1]
    occ0 = 2
    pq = np.ascontiguousarray(
        np.vstack([scorer.pair_quad[0] + scorer.pair_quad[1], scorer.pair_quad[occ0:]])
    )
    pl = np.ascontiguousarray(
        np.vstack([scorer.pair_lin[0] + scorer.pair_lin[1], scorer.pair_lin[occ0:]])
    )
    vt = np.vstack(
        [scorer.value_tables[0] + scorer.value_tables[1], scorer.value_tables[occ0:]]
    )
    bsum_t = np.ascontiguousarray((4.0 * vt + pq).T)  # (Z, R') base = cnt @ bsum_t
    base_off = np.zeros(pq.shape[0], dtype=np.float32)
    base_off[1:] = -4.0 * scorer.target_occ
    a_f32 = np.ascontiguousarray(scorer.At8.T, dtype=np.float32)  # (m, n)
    tables = (pq, pl, bsum_t, base_off, a_f32)
    _PPP_SCORER_CACHE.put(id(scorer), (scorer, tables))
    return tables


def _ppp_coupling(scorer, table):
    """Move-table coupling indices for the factored PPP materialization.

    ``AA[t, mv] = A[t, i] * A[t, j]`` is the bilinear pair-product table the
    quadratic GEMM contracts against; ``P`` scatters the per-bit linear
    gains (plus the base row) onto the move axis with a second GEMM; and
    ``touch[p]`` lists the moves whose sign pair flips when bit ``p`` flips
    (padded with the sentinel column ``M``).  Cached by (scorer, move-table)
    identity in the fastpath cache registry.
    """
    key = (id(scorer), id(table.moves))
    entry = _PPP_COUPLING_CACHE.get(key)
    if entry is not None and entry[0] is scorer and entry[1] is table.moves:
        return entry[2]
    cols_i, cols_j = table.cols_i, table.cols_j
    num_moves = cols_i.shape[0]
    n = scorer.n
    at8 = scorer.At8
    aa = np.ascontiguousarray((at8[cols_i] * at8[cols_j]).T, dtype=np.float32)  # (m, M)
    p_mat = np.zeros((n + 1, num_moves), dtype=np.float32)
    mv = np.arange(num_moves)
    p_mat[cols_i, mv] += 1.0
    p_mat[cols_j, mv] += 1.0
    p_mat[n] = 1.0
    p_t = np.ascontiguousarray(p_mat.T)  # (M, n+1); p_t.T is the F-order operand
    # Padded per-bit move incidence (rows of unequal degree pad to M, the
    # sentinel column of the maintained sign-pair matrix).
    counts = np.bincount(cols_i, minlength=n) + np.bincount(cols_j, minlength=n)
    maxdeg = int(counts.max()) if counts.size else 0
    touch = np.full((n, maxdeg), num_moves, dtype=np.int64)
    order = np.argsort(np.concatenate([cols_i, cols_j]), kind="stable")
    flat_bits = np.concatenate([cols_i, cols_j])[order]
    flat_moves = np.concatenate([mv, mv])[order]
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    slot = np.arange(flat_bits.size, dtype=np.int64) - starts[flat_bits]
    touch[flat_bits, slot] = flat_moves
    coupling = (aa, p_mat, p_t, touch)
    _PPP_COUPLING_CACHE.put(key, (scorer, table.moves, coupling))
    return coupling


class _PPPGainState(_GainStateBase):
    """Factored move-pair evaluation from maintained PPP sign state.

    Maintains, per replica: the ±1 solution signs ``V``, the compressed
    products ``z = (A V + n) / 2``, the move sign pairs ``VV = V_i V_j`` (as
    float32 ±1, sentinel-padded) and the ``z``-value histogram ``cnt``.  A
    commit of move ``(a, b)`` updates ``z`` along rows of ``A^T`` and negates
    the touched sign pairs — O(m + deg) per replica.  Materialization is two
    skinny GEMMs plus one elementwise pass::

        G = (quad[z] @ AA) * VV + [lin[z] @ A | base] @ [P; 1]

    with the absolute value applied to the occupied-bin rows, exactly the
    scorer's bilinear algebra re-associated — every intermediate is an exact
    integer below 2^24 in float32, so the result is bit-identical.
    """

    _row_arrays = ("V", "z", "VVf", "cnt")

    def __init__(self, problem, scorer, table, rows: int) -> None:
        self.problem = problem
        self.scorer = scorer
        self.table = table
        n, m = scorer.n, scorer.m
        self.n, self.m = n, m
        self.num_moves = table.num_moves
        self.pq, self.pl, self.bsum_t, self.base_off, self.a_f32 = _merged_ppp_tables(scorer)
        self.aa, self.p_mat, self.p_t, self.touch = _ppp_coupling(scorer, table)
        self.rp = self.pq.shape[0]
        self.zdim = self.bsum_t.shape[0]
        rows = max(rows, 1)
        self.V = np.zeros((rows, n), dtype=np.int8)
        self.z = np.zeros((rows, m), dtype=np.int32)
        self.VVf = np.zeros((rows, self.num_moves + 1), dtype=np.float32)
        self.cnt = np.zeros((rows, self.zdim), dtype=np.float32)
        self._workspaces = BoundedCache(4)

    @staticmethod
    def build(problem, moves: np.ndarray, rows: int):
        scorer = problem._fast()
        if scorer is None:
            return None
        table = scorer.move_table(moves)
        if table is None or table.k != 2:
            return None
        return _PPPGainState(problem, scorer, table, rows)

    def can_materialize(self, count: int) -> bool:
        return 4 * (self.rp + 1) * count * (self.num_moves + self.n + 2) <= WORKSPACE_LIMIT

    def init_rows(self, rows: np.ndarray, solutions: np.ndarray) -> None:
        V = (2 * solutions.astype(np.int8) - 1).astype(np.int8)
        prod = V.astype(np.int32) @ self.scorer.At8.astype(np.int32)  # (c, m)
        z = ((prod + self.n) >> 1).astype(np.int32)
        cols_i, cols_j = self.table.cols_i, self.table.cols_j
        self.V[rows] = V
        self.z[rows] = z
        self.VVf[rows, : self.num_moves] = (V[:, cols_i] * V[:, cols_j]).astype(np.float32)
        self.VVf[rows, self.num_moves] = 1.0
        c = rows.shape[0]
        flat = (np.arange(c)[:, None] * self.zdim + z).ravel()
        self.cnt[rows] = (
            np.bincount(flat, minlength=c * self.zdim).reshape(c, self.zdim).astype(np.float32)
        )

    def commit(self, rows: np.ndarray, bits: np.ndarray) -> bool:
        if bits.shape[1] != 2:
            return False
        a, b = bits[:, 0], bits[:, 1]
        at8 = self.scorer.At8
        va = self.V[rows, a].astype(np.int32)
        vb = self.V[rows, b].astype(np.int32)
        dz = at8[a] * va[:, None] + at8[b] * vb[:, None]  # (c, m) in {-2, 0, 2}
        z = self.z
        changed = np.nonzero(dz)
        z_old = z[rows[changed[0]], changed[1]]
        z[rows] -= dz
        z_new = z[rows[changed[0]], changed[1]]
        # histogram maintenance via one flat bincount over (local row, z) keys
        c = rows.shape[0]
        row_keys = changed[0] * self.zdim
        flat = np.concatenate([row_keys + z_old, row_keys + z_new])
        w = np.empty(flat.shape[0], dtype=np.float64)
        half = z_old.shape[0]
        w[:half] = -1.0
        w[half:] = 1.0
        upd = np.bincount(flat, weights=w, minlength=c * self.zdim)
        self.cnt[rows] += upd.reshape(c, self.zdim).astype(np.float32)
        self.V[rows, a] *= -1
        self.V[rows, b] *= -1
        rows_col = rows[:, None]
        ta = self.touch[a]
        self.VVf[rows_col, ta] = -self.VVf[rows_col, ta]
        tb = self.touch[b]
        self.VVf[rows_col, tb] = -self.VVf[rows_col, tb]
        return True

    def _workspace(self, count: int):
        buf = self._workspaces.get(count)
        if buf is None:
            rp, num_moves, n = self.rp, self.num_moves, self.n
            buf = (
                np.empty((rp * count, num_moves), dtype=np.float32),
                np.empty((rp * count, n + 1), dtype=np.float32),
                np.empty((count, num_moves), dtype=np.float32),
            )
            self._workspaces.put(count, buf)
        return buf

    def materialize(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        scorer = self.scorer
        rp, m, n, num_moves = self.rp, self.m, self.n, self.num_moves
        count = rows.shape[0]
        z = self.z[rows]
        q = self.pq[:, z]  # (R', c, m) contiguous gather
        lin = self.pl[:, z]
        base = np.matmul(self.cnt[rows], self.bsum_t)  # (c, R')
        base += self.base_off
        G, hb, total = self._workspace(count)
        np.matmul(q.reshape(rp * count, m), self.aa, out=G)
        G3 = G.reshape(rp, count, num_moves)
        G3 *= self.VVf[rows, : num_moves]
        np.matmul(lin.reshape(rp * count, m), self.a_f32, out=hb[:, :n])
        hb3 = hb.reshape(rp, count, n + 1)
        hb3[:, :, :n] *= self.V[rows]
        hb3[:, :, n] = base.T
        if _sgemm is not None:
            # G += hb @ P fused into the GEMM: C-order G viewed as F-order
            # G.T, accumulated in place with beta=1.
            _sgemm(1.0, self.p_t.T, hb.T, beta=1.0, c=G.T, overwrite_c=1, trans_a=1)
        else:
            G += np.matmul(hb, self.p_mat)
        occ = G3[1:]
        np.abs(occ, out=occ)
        np.add.reduce(G3, axis=0, out=total)
        np.multiply(total, 0.25, out=out, casting="unsafe")
        out += scorer.const_term
        return out


class _MaxSatGainState(_GainStateBase):
    """Maintained clause true-literal counts for MaxSAT.

    A flip of variable ``v`` adjusts ``t`` only on the clauses of ``v``'s
    incidence list — O(occurrences) per flipped bit instead of the full
    ``(S, clauses, k)`` literal-table rebuild.  Materialization replays the
    scorer's break/make assembly verbatim; all quantities are small
    integers, so the result is bit-identical.
    """

    _row_arrays = ("X8", "t_pad")

    def __init__(self, problem, scorer, table, rows: int) -> None:
        self.problem = problem
        self.scorer = scorer
        self.table = table
        self.n = scorer.n
        self.num_moves = table.num_moves
        rows = max(rows, 1)
        self.X8 = np.zeros((rows, self.n), dtype=np.int8)
        self.t_pad = np.zeros((rows, scorer.num_clauses + 1), dtype=np.int32)

    @staticmethod
    def build(problem, moves: np.ndarray, rows: int):
        scorer = problem._fast()
        if scorer is None:
            return None
        table = scorer.move_table(moves)
        if table is None:
            return None
        return _MaxSatGainState(problem, scorer, table, rows)

    def can_materialize(self, count: int) -> bool:
        return self.scorer.workspace_bytes(count, self.num_moves) <= WORKSPACE_LIMIT

    def init_rows(self, rows: np.ndarray, solutions: np.ndarray) -> None:
        scorer = self.scorer
        self.X8[rows] = solutions
        lit_true = solutions[:, scorer.variables] == scorer.pos[None, :, :]
        t_rows = np.full(
            (rows.shape[0], scorer.num_clauses + 1), -1, dtype=np.int32
        )
        lit_true.sum(axis=2, dtype=np.int32, out=t_rows[:, : scorer.num_clauses])
        self.t_pad[rows] = t_rows

    def commit(self, rows: np.ndarray, bits: np.ndarray) -> bool:
        scorer = self.scorer
        X8, t_pad = self.X8, self.t_pad
        nc = scorer.num_clauses
        rows_col = rows[:, None]
        for t in range(bits.shape[1]):
            v = bits[:, t]
            # Clauses containing v: the literal toggles truth, so t moves by
            # +1 where it was false and -1 where it was true.
            lit_old = X8[rows_col, v[:, None]] == scorer.occ_pos[v]  # (c, L)
            delta = np.where(lit_old, -1, 1).astype(np.int32)
            t_pad[rows_col, scorer.occ_clause[v]] += delta
            X8[rows, v] ^= 1
        t_pad[rows, nc] = -1  # pad entries scatter here; re-pin the sentinel
        return True

    def materialize(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        scorer, table = self.scorer, self.table
        solutions = self.X8[rows]
        t_pad = self.t_pad[rows]
        t = t_pad[:, : scorer.num_clauses]
        base = (t == 0).sum(axis=1, dtype=np.int64)
        tc = t_pad[:, scorer.occ_clause]  # (c, n, L)
        lit_occ = solutions[:, :, None] == scorer.occ_pos[None, :, :]
        delta1 = (lit_occ & (tc == 1)).sum(axis=2, dtype=np.int64)
        delta1 -= (~lit_occ & (tc == 0)).sum(axis=2, dtype=np.int64)
        res = base[:, None] + delta1[:, table.cols_i]
        if table.cols_j is not None:
            res += delta1[:, table.cols_j]
            if table.num_entries:
                t_e = t[:, table.ent_clause].astype(np.int64)
                du = np.where(solutions[:, table.ent_var_u] == table.ent_pos_u, -1, 1)
                dv = np.where(solutions[:, table.ent_var_v] == table.ent_pos_v, -1, 1)
                corr = (t_e + du + dv == 0).astype(np.int64)
                corr -= t_e + du == 0
                corr -= t_e + dv == 0
                corr += t_e == 0
                seg = np.add.reduceat(corr, table.red_idx, axis=1)
                res[:, table.nz_moves] += seg
        np.copyto(out, res, casting="unsafe")
        return out


#: Coupling/table caches, registered with the fastpath cache registry so
#: ``clear_fast_caches`` empties them alongside the scorer caches.
_PPP_SCORER_CACHE = BoundedCache(8)
_PPP_COUPLING_CACHE = BoundedCache(8)

_STATE_BUILDERS = {
    "ppp": _PPPGainState.build,
    "maxsat": _MaxSatGainState.build,
}


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class GainEngine:
    """Self-healing incremental neighborhood evaluator for one search run.

    The engine binds the first frozen (read-only) move table it sees, keeps
    a mirror of the solution block it believes each replica holds, and
    maintains the per-problem gain state through :meth:`commit` calls from
    the lockstep runner.  :meth:`try_evaluate` — consulted by the PPP and
    MaxSAT ``evaluate_neighborhood_batch`` — verifies the mirror against the
    actual inputs and silently re-derives any diverged row, which makes every
    invalidation path (restarts, slot reuse, restore) correct by
    construction.  Replica ids are global, so migration between devices
    (rebalance, fail/join) changes no row.  Anything outside the compiled
    model declines to the scorer/reference chain, which is bit-identical.

    Gain state is *derived* data: a fresh engine re-initializes from the
    solutions at the first evaluation, so checkpoints never persist it and
    restores need no version bump.
    """

    def __init__(self, problem, rows_hint: int = 0) -> None:
        self.problem = problem
        self._builder = _STATE_BUILDERS.get(getattr(problem, "name", None))
        self._state = None
        self._moves = None
        self._dead = self._builder is None or not incremental_enabled()
        self._rows_hint = max(int(rows_hint), 1)
        self.mirror = np.zeros((self._rows_hint, getattr(problem, "n", 1)), dtype=np.int8)
        self.valid = np.zeros(self._rows_hint, dtype=bool)
        self._expected: np.ndarray | None = None
        self._check_every = check_period()
        self.stats = {
            "evals": 0,
            "declined": 0,
            "reinit_rows": 0,
            "commits": 0,
            "checks": 0,
        }

    # -- row bookkeeping -------------------------------------------------
    def _ensure_rows(self, rows: int) -> None:
        if rows <= self.mirror.shape[0]:
            return
        new_mirror = np.zeros((rows, self.mirror.shape[1]), dtype=np.int8)
        new_mirror[: self.mirror.shape[0]] = self.mirror
        self.mirror = new_mirror
        new_valid = np.zeros(rows, dtype=bool)
        new_valid[: self.valid.shape[0]] = self.valid
        self.valid = new_valid
        if self._state is not None:
            self._state.grow(rows)

    # -- search-loop interface -------------------------------------------
    def expect(self, rows: np.ndarray) -> None:
        """Declare the replica ids of the next evaluation's rows."""
        self._expected = np.asarray(rows, dtype=np.int64)

    def commit(self, rows: np.ndarray, bits: np.ndarray) -> None:
        """Advance the gain state: ``bits[c]`` were flipped on ``rows[c]``."""
        rows = np.asarray(rows, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if rows.size == 0:
            return
        self.stats["commits"] += 1
        if self._state is None:
            return
        self._ensure_rows(int(rows.max()) + 1)
        mask = self.valid[rows]
        if not mask.any():
            return
        sub_rows = rows[mask] if not mask.all() else rows
        sub_bits = bits[mask] if not mask.all() else bits
        if bits.shape[1] >= 2:
            srt = np.sort(sub_bits, axis=1)
            dup = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            if dup.any():
                # Repeated bits are outside the state model; re-derive later.
                self.valid[sub_rows[dup]] = False
                keep = ~dup
                if not keep.any():
                    return
                sub_rows = sub_rows[keep]
                sub_bits = sub_bits[keep]
        if self._state.commit(sub_rows, sub_bits):
            self.mirror[sub_rows[:, None], sub_bits] ^= 1
        else:
            self.valid[sub_rows] = False

    # -- evaluation --------------------------------------------------------
    def try_evaluate(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        """Serve one batched neighborhood evaluation, or decline (``None``)."""
        rows = self._expected
        self._expected = None
        if self._dead:
            return None
        if rows is None or rows.shape[0] != solutions.shape[0]:
            self.stats["declined"] += 1
            return None
        if self._state is None:
            if moves.flags.writeable:
                self.stats["declined"] += 1
                return None
            state = self._builder(self.problem, moves, max(self._rows_hint, int(rows.max()) + 1))
            if state is None:
                self._dead = True
                return None
            self._state = state
            self._moves = moves
            if state.rows < self.mirror.shape[0]:
                state.grow(self.mirror.shape[0])
        if moves is not self._moves:
            self.stats["declined"] += 1
            return None
        if not self._state.can_materialize(rows.shape[0]):
            self.stats["declined"] += 1
            return None
        self._ensure_rows(int(rows.max()) + 1)
        stale = ~self.valid[rows]
        stale |= (self.mirror[rows] != solutions).any(axis=1)
        if stale.any():
            stale_rows = rows[stale]
            stale_sols = np.ascontiguousarray(solutions[stale])
            self.mirror[stale_rows] = stale_sols
            self._state.init_rows(stale_rows, stale_sols)
            self.valid[stale_rows] = True
            self.stats["reinit_rows"] += int(stale.sum())
        if out is None:
            out = np.empty((solutions.shape[0], moves.shape[0]), dtype=np.float64)
        self._state.materialize(rows, out)
        self.stats["evals"] += 1
        if self._check_every and self.stats["evals"] % self._check_every == 0:
            self._debug_check(solutions, moves, out)
        return out

    def _debug_check(self, solutions, moves, got) -> None:
        """Periodic re-sync assert: recompute without the engine, compare."""
        prob = self.problem
        engine = getattr(prob, "_gain_engine", None)
        prob._gain_engine = None
        try:
            want = prob.evaluate_neighborhood_batch(solutions, moves)
        finally:
            prob._gain_engine = engine
        self.stats["checks"] += 1
        if not np.array_equal(want, got):
            raise AssertionError(
                "incremental gain-cache diverged from the recompute path "
                f"(problem={prob.name}, rows={solutions.shape[0]})"
            )


# ---------------------------------------------------------------------------
# Attachment helpers
# ---------------------------------------------------------------------------
def create_gain_engine(problem, rows_hint: int = 0) -> GainEngine | None:
    """A fresh engine for ``problem``, or ``None`` when unsupported/disabled."""
    if not incremental_enabled():
        return None
    if _STATE_BUILDERS.get(getattr(problem, "name", None)) is None:
        return None
    return GainEngine(problem, rows_hint)


def attach_gain_engine(problem, engine: GainEngine | None):
    """Attach ``engine`` to ``problem``; returns the previous attachment.

    The lockstep runner attaches its engine for the duration of one run and
    restores the previous attachment via :func:`detach_gain_engine`.
    """
    prev = getattr(problem, "_gain_engine", None)
    problem._gain_engine = engine
    return prev


def detach_gain_engine(problem, prev=None) -> None:
    """Restore the previous engine attachment (or clear it)."""
    problem._gain_engine = prev
