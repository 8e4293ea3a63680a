"""The Permuted Perceptron Problem (PPP).

The PPP is the cryptographic identification scheme of Pointcheval (EUROCRYPT
1995) that the paper uses to validate its GPU neighborhood exploration.  An
*epsilon-matrix* ``A`` (entries in {-1, +1}) of size ``m x n`` and a multiset
``S`` of non-negative integers of size ``m`` are public; the secret is an
epsilon-vector ``V`` of size ``n`` such that the multiset of the entries of
``A V`` equals ``S``.

Following Knudsen & Meier (EUROCRYPT 1999) — the reference the paper quotes —
candidate solutions ``V'`` are scored with::

    f(V') = 30 * sum_i (|(A V')_i| - (A V')_i)  +  sum_i |H_i - H'_i|

where ``H`` is the value histogram of the secret product ``A V`` (derived
from ``S``) and ``H'`` the histogram of ``A V'``.  ``f(V') == 0`` certifies a
successful attack.  This is a pure minimization problem over binary strings,
with the {0,1} encoding mapped to the {-1,+1} epsilon encoding by
``V = 2 b - 1``.
"""

from __future__ import annotations

import numpy as np

from .base import BinaryProblem, as_solution
from .fastpath import BoundedCache, MoveTableCache, fast_path_enabled

__all__ = ["PermutedPerceptronProblem", "generate_ppp_instance"]

#: Weight of the sign-violation term in the Knudsen–Meier objective.
SIGN_PENALTY_WEIGHT = 30

#: Most moves one chunk of the reference evaluation covers.
REFERENCE_CHUNK = 8_192


class _FastMoveTable:
    """Preprocessed view of one validated ``(M, k)`` move array.

    Built once per distinct move table (the kernels pass the same read-only
    array every launch) and reused across iterations; holds a strong
    reference to the array so its ``id`` stays valid as a cache key.
    """

    __slots__ = ("moves", "num_moves", "k", "cols_i", "cols_j", "pair_index", "occ_index")

    def __init__(self, moves: np.ndarray) -> None:
        self.moves = moves
        self.num_moves, self.k = map(int, moves.shape)
        self.cols_i = np.ascontiguousarray(moves[:, 0])
        self.cols_j = np.ascontiguousarray(moves[:, 1]) if self.k == 2 else None
        #: Flat gather indexes into the per-replica ``(n, n)`` bilinear cube
        #: and the ``(K, n, n)`` occupied-bin stack (filled in by the scorer,
        #: which knows ``n`` and ``K``).
        self.pair_index = None
        self.occ_index = None


class _PPPFastScorer:
    """Precompiled pairwise delta evaluator for the Knudsen–Meier objective.

    The reference evaluation materialises every neighbor's product vector
    and histograms it — ``O(S·M·m)`` memory traffic per lockstep iteration.
    This scorer exploits two structural facts instead:

    * **Parity compression** — a product ``y`` of ``n`` ±1 terms satisfies
      ``y ≡ n (mod 2)``, so ``z = (y + n) / 2 ∈ [0, n]`` indexes a dense
      value table without loss.
    * **Bilinearity in the sign matrix** — with ``C[s, p, r] = A[r, p]·V_p``,
      a k≤2 move changes row ``r``'s compressed product from ``z`` to
      ``z - (C_i + C_j)``.  Any per-row value table ``f(z)`` therefore sums
      over the neighborhood as a *bilinear form* in the columns of ``C``:
      ``Σ_r f(z_r') = base + (C^T diag(u) C)[i,j] + g_i + g_j`` — one tiny
      batched GEMM prices **all** ``M`` moves at once.

    The objective decomposes into exactly such tables: the sign penalty
    ``Σ_r wsign(z_r)``, the count of rows landing outside the target
    histogram's occupied bins, and one occupancy counter per occupied target
    bin ``b`` (their counts feed ``|cnt_b - T_b|``).  The target histogram of
    a planted instance occupies only ~10 distinct bins, so the whole score is
    a ``(K+2)``-row stacked GEMM plus gathers — ~15x less host wall-clock
    than the reference path, bit-identical by integer exactness (every
    intermediate is an integer below 2^24, exact in float32).

    Shifted tables are clipped at the ``z`` range ends; that filler is exact,
    not approximate: ``z-2`` underflows only when fewer than two positive
    columns exist (no ``(+,+)`` pair can select the filler), and symmetrically
    for overflow.
    """

    #: Workspace ceiling: fall back to the reference path when the stacked
    #: GEMM operands would exceed this many bytes.
    WORKSPACE_LIMIT = 256 * 1024 * 1024

    def __init__(self, problem: "PermutedPerceptronProblem") -> None:
        n, m = problem.n, problem.m
        self.n, self.m = n, m
        num_bins = n + 1
        zs = np.arange(num_bins, dtype=np.int64)
        wsign = 2 * SIGN_PENALTY_WEIGHT * np.maximum(n - 2 * zs, 0)
        #: Smallest compressed bin holding a histogram value ``v >= 1``.
        z_first = (n + 2) // 2
        target_z = np.zeros(num_bins, dtype=np.int64)
        for v in range(1, n + 1):
            if (v + n) % 2 == 0:
                target_z[(v + n) // 2] = problem.target_histogram[v - 1]
        #: Target mass on wrong-parity values: those bins are unreachable, so
        #: their |0 - T| contribution is a constant.
        self.const_term = int(problem.target_histogram.sum() - target_z.sum())
        occupied = np.nonzero(target_z[z_first:])[0] + z_first
        self.num_occupied = len(occupied)
        # Stacked per-row value tables: sign weight, outside-occupied
        # indicator, then one occupancy indicator per occupied target bin.
        tables = [wsign.astype(np.float64)]
        outside = ((zs >= z_first) & (target_z == 0)).astype(np.float64)
        tables.append(outside)
        for zb in occupied:
            tables.append((zs == zb).astype(np.float64))
        # All table entries are small integers, exact in float32; staying in
        # float32 keeps the per-call (S, R, n, m) expansion single-precision.
        self.value_tables = np.array(tables, dtype=np.float32)  # (R, num_bins)
        self.num_tables = self.value_tables.shape[0]
        down2 = self.value_tables[:, np.maximum(zs - 2, 0)]  # z' = z-2  (ci+cj = +2)
        up2 = self.value_tables[:, np.minimum(zs + 2, n)]    # z' = z+2  (ci+cj = -2)
        dp, dm = down2 - self.value_tables, up2 - self.value_tables
        self.pair_quad = dp + dm   # coefficient of ci*cj      (scaled x4)
        self.pair_lin = dp - dm    # coefficient of (ci + cj)  (scaled x4)
        down1 = self.value_tables[:, np.maximum(zs - 1, 0)]  # z' = z-1  (ci = +1)
        up1 = self.value_tables[:, np.minimum(zs + 1, n)]    # z' = z+1  (ci = -1)
        self.single_base = down1 + up1   # constant term            (scaled x2)
        self.single_lin = down1 - up1    # coefficient of ci        (scaled x2)
        self.target_occ = target_z[occupied].astype(np.float32)
        self.At8 = np.ascontiguousarray(problem.A.T)  # (n, m) int8
        self._tables = MoveTableCache(self._build_table, maxsize=8)
        self._workspaces = BoundedCache(12)
        # Exactness guard: every float32 intermediate must be an integer
        # below 2^24.  The largest is the folded sign row of the bilinear
        # cube, bounded by 4·(m·wsign_max + m·|dp+dm|_max).
        bound = 4 * (m * int(wsign.max(initial=0)) + m * 16 * SIGN_PENALTY_WEIGHT)
        self.exact = bound < 2**24

    # ------------------------------------------------------------------
    def move_table(self, moves: np.ndarray) -> _FastMoveTable | None:
        """Validated, preprocessed view of ``moves`` (or ``None`` if the
        fast path cannot score them).

        Read-only arrays — the kernels' cached move tables — are cached by
        identity (a bounded LRU map, see :class:`~.fastpath.MoveTableCache`);
        writable arrays are validated fresh each call, since the caller may
        mutate them between calls.
        """
        return self._tables.lookup(moves)

    def _build_table(self, moves: np.ndarray) -> _FastMoveTable | None:
        if moves.ndim != 2 or moves.shape[1] not in (1, 2) or moves.shape[0] == 0:
            return None
        if moves.min() < 0 or moves.max() >= self.n:
            return None
        if moves.shape[1] == 2 and (moves[:, 0] == moves[:, 1]).any():
            # A repeated index is a double flip: the compressed product can
            # leave [0, n], which the bilinear tables do not represent.
            return None
        table = _FastMoveTable(moves)
        if table.k == 2:
            table.pair_index = table.cols_i * self.n + table.cols_j
            table.occ_index = (
                np.arange(self.num_occupied, dtype=np.int64)[:, None] * (self.n * self.n)
                + table.pair_index[None, :]
            ).ravel()
        return table

    def workspace_bytes(self, num_solutions: int, num_moves: int) -> int:
        """Float32 footprint of one call's stacked operands."""
        n, m, r = self.n, self.m, self.num_tables
        per_replica = r * n * m + r * n * n + self.num_occupied * num_moves
        return 4 * num_solutions * per_replica

    def _workspace(self, *shape: int) -> np.ndarray:
        """Reused float32 scratch buffer for the given shape (hot-loop calls
        repeat the same shapes every lockstep iteration; the shape-keyed LRU
        cache bounds the retained scratch memory)."""
        buf = self._workspaces.get(shape)
        if buf is None:
            buf = np.empty(shape, dtype=np.float32)
            self._workspaces.put(shape, buf)
        return buf

    def evaluate(
        self,
        solutions: np.ndarray,
        table: _FastMoveTable,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score every (replica, move) pair: the ``(S, M)`` fitness matrix."""
        n, m, r = self.n, self.m, self.num_tables
        num_solutions = solutions.shape[0]
        num_moves = table.num_moves
        signs = (2 * solutions - 1).astype(np.int8)          # (S, n) in ±1
        C = self.At8[None, :, :] * signs[:, :, None]         # (S, n, m) int8
        products = C.sum(axis=1, dtype=np.int32)             # (S, m) = A V
        z = (products + n) >> 1                              # compressed bins
        Cf = self._workspace(num_solutions, n, m)
        np.multiply(C, 1.0, out=Cf, casting="unsafe")
        Ct = np.swapaxes(Cf, 1, 2)                           # (S, m, n)
        occ0 = 2  # first occupied-bin row of the table stack
        if table.k == 1:
            base = self.single_base[:, z].transpose(1, 0, 2).sum(axis=2)  # (S, R)
            lin = self.single_lin[:, z].transpose(1, 0, 2)                # (S, R, m)
            base[:, occ0:] -= 2.0 * self.target_occ
            cube = np.matmul(np.ascontiguousarray(lin), Ct)               # (S, R, n)
            cube += base[:, :, None]
            vals = cube[:, :, table.cols_i]                               # (S, R, M)
            occ = vals[:, occ0:]
            np.abs(occ, out=occ)
            total = vals[:, 0] + vals[:, 1] + occ.sum(axis=1)
            scale = 0.5
        else:
            quad = self.pair_quad[:, z].transpose(1, 0, 2)               # (S, R, m)
            lin = self.pair_lin[:, z].transpose(1, 0, 2)
            f0 = self.value_tables[:, z].transpose(1, 0, 2)
            base = 4.0 * f0.sum(axis=2) + quad.sum(axis=2)               # (S, R)
            base[:, occ0:] -= 4.0 * self.target_occ
            stacked = self._workspace(num_solutions, r, n, m)
            np.multiply(quad[:, :, None, :], Cf[:, None, :, :], out=stacked)
            cube = self._workspace(num_solutions, r, n, n)
            np.matmul(
                stacked.reshape(num_solutions, r * n, m),
                Ct,
                out=cube.reshape(num_solutions, r * n, n),
            )
            g = np.matmul(np.ascontiguousarray(lin), Ct)                 # (S, R, n)
            cube += g[:, :, :, None]
            cube += g[:, :, None, :]
            cube += base[:, :, None, None]
            flat_occ = cube[:, occ0:].reshape(num_solutions, -1)
            gathered = self._workspace(num_solutions, self.num_occupied * num_moves)
            np.take(flat_occ, table.occ_index, axis=1, out=gathered)
            np.abs(gathered, out=gathered)
            hist = gathered.reshape(num_solutions, self.num_occupied, num_moves).sum(axis=1)
            flat_so = cube[:, :occ0].reshape(num_solutions, occ0 * n * n)
            sign4 = np.take(flat_so, table.pair_index, axis=1)
            out4 = np.take(flat_so, n * n + table.pair_index, axis=1)
            total = sign4 + out4 + hist
            scale = 0.25
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        np.multiply(total, scale, out=out, casting="unsafe")
        out += self.const_term
        return out


def generate_ppp_instance(
    m: int,
    n: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate a random PPP instance with a planted secret.

    Follows the construction used in the cryptographic literature: draw a
    uniform random epsilon-matrix ``A`` and epsilon-vector ``V``; whenever a
    row of ``A V`` is negative, negate that row of ``A`` so that the secret
    satisfies the perceptron constraints ``(A V)_j >= 0``.  The public
    multiset ``S`` is then the resulting vector ``A V``.

    Returns
    -------
    (A, S, secret_bits):
        ``A`` is an ``(m, n)`` int8 matrix of +/-1, ``S`` the length-``m``
        vector of products and ``secret_bits`` the planted secret in the
        {0,1} encoding (``fitness == 0`` by construction).
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"instance dimensions must be positive, got m={m}, n={n}")
    rng = np.random.default_rng(rng)
    A = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    V = rng.choice(np.array([-1, 1], dtype=np.int32), size=n)
    Y = A.astype(np.int32) @ V
    negative = Y < 0
    A[negative] = -A[negative]
    Y = np.abs(Y)
    secret_bits = ((V + 1) // 2).astype(np.int8)
    return A, Y.astype(np.int32), secret_bits


class PermutedPerceptronProblem(BinaryProblem):
    """Knudsen–Meier objective for the Permuted Perceptron Problem.

    Parameters
    ----------
    A:
        Public epsilon-matrix of shape ``(m, n)`` with entries in {-1, +1}.
    S:
        Public multiset of the ``m`` products ``(A V)_j`` of the secret, as a
        1-D array (order is irrelevant; only the value histogram is used).
    secret:
        Optional planted secret in the {0,1} encoding, kept only for testing
        and verification purposes (never used by the objective).
    """

    name = "ppp"

    def __init__(
        self,
        A: np.ndarray,
        S: np.ndarray,
        secret: np.ndarray | None = None,
    ) -> None:
        A = np.asarray(A)
        if A.ndim != 2:
            raise ValueError(f"A must be a 2-D matrix, got shape {A.shape}")
        if not np.all(np.isin(A, (-1, 1))):
            raise ValueError("A must be an epsilon-matrix with entries in {-1, +1}")
        S = np.asarray(S, dtype=np.int64).ravel()
        if S.size != A.shape[0]:
            raise ValueError(
                f"S must have one entry per row of A: len(S)={S.size}, rows={A.shape[0]}"
            )
        if S.size and S.min() < 0:
            raise ValueError("S must be a multiset of non-negative integers")
        self.m, self.n = map(int, A.shape)
        self.A = A.astype(np.int8)
        # Row-major access to columns of A is the hot path of the delta
        # evaluation; keep a contiguous transposed copy (cache friendliness,
        # cf. the HPC guide on stride effects).
        self._A32 = np.ascontiguousarray(A, dtype=np.int32)
        self._At32 = np.ascontiguousarray(A.T, dtype=np.int32)
        self.S = S
        # Target histogram over the values 1..n (index v-1 counts rows with
        # (A V)_j == v).  Values outside that range cannot occur for the
        # planted secret.
        if S.size and S.max() > self.n:
            raise ValueError("S contains a value larger than n, inconsistent instance")
        self.target_histogram = np.bincount(S, minlength=self.n + 1)[1:].astype(np.int64)
        self.secret = None if secret is None else as_solution(secret, self.n)
        # Precompiled pairwise delta evaluator: built lazily on first use,
        # disabled entirely by REPRO_EVAL_PATH=reference or when the
        # instance is too large for the float32 exactness bound.
        self._fast_scorer: _PPPFastScorer | None = None
        self._fast_enabled = fast_path_enabled()

    def _fast(self) -> _PPPFastScorer | None:
        if not self._fast_enabled:
            return None
        if self._fast_scorer is None:
            scorer = _PPPFastScorer(self)
            if not scorer.exact:
                self._fast_enabled = False
                return None
            self._fast_scorer = scorer
        return self._fast_scorer

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        m: int,
        n: int,
        rng: np.random.Generator | int | None = None,
    ) -> "PermutedPerceptronProblem":
        """Generate a random instance of size ``m x n`` with a planted secret."""
        A, S, secret = generate_ppp_instance(m, n, rng)
        return cls(A, S, secret=secret)

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def _products(self, solution: np.ndarray) -> np.ndarray:
        V = (2 * solution.astype(np.int32) - 1)
        return self._A32 @ V

    def _fitness_from_products(self, Y: np.ndarray) -> float:
        # |y| - y is 0 for y >= 0 and -2y for y < 0.
        sign_term = SIGN_PENALTY_WEIGHT * 2 * int(np.minimum(Y, 0).sum() * -1)
        hist = np.bincount(np.clip(Y, 0, self.n), minlength=self.n + 1)[1:]
        hist_term = int(np.abs(hist - self.target_histogram).sum())
        return float(sign_term + hist_term)

    def evaluate(self, solution: np.ndarray) -> float:
        solution = as_solution(solution, self.n)
        return self._fitness_from_products(self._products(solution))

    def evaluate_batch(self, solutions: np.ndarray) -> np.ndarray:
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) array, got {solutions.shape}")
        V = 2 * solutions.astype(np.int32) - 1
        Y = V @ self._A32.T  # (batch, m)
        return self._fitness_from_products_batch(Y)

    def _fitness_from_products_batch(self, Y: np.ndarray) -> np.ndarray:
        batch = Y.shape[0]
        sign_term = SIGN_PENALTY_WEIGHT * 2 * (-np.minimum(Y, 0)).sum(axis=1)
        clipped = np.clip(Y, 0, self.n)
        offsets = clipped + (np.arange(batch, dtype=np.int64)[:, None] * (self.n + 1))
        counts = np.bincount(offsets.ravel(), minlength=batch * (self.n + 1))
        counts = counts.reshape(batch, self.n + 1)[:, 1:]
        hist_term = np.abs(counts - self.target_histogram[None, :]).sum(axis=1)
        return (sign_term + hist_term).astype(np.float64)

    # ------------------------------------------------------------------
    # Incremental neighborhood evaluation (the GPU kernel's compute_fitness)
    # ------------------------------------------------------------------
    def evaluate_neighborhood(self, solution: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """Delta evaluation of every neighbor reached by ``moves``.

        The ``S = 1`` case of :meth:`evaluate_neighborhood_batch`.
        """
        solution = as_solution(solution, self.n)
        return self.evaluate_neighborhood_batch(solution[None, :], moves)[0]

    def evaluate_neighborhood_batch(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        *,
        element_budget: int = 4_194_304,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Delta evaluation of ``moves`` applied to every row of ``solutions``.

        Dispatches to the precompiled bilinear scorer (see
        :class:`_PPPFastScorer`) whenever the move table qualifies — k in
        {1, 2}, distinct in-range indices, workspace within budget — and to
        the chunked reference evaluation otherwise.  Both paths return
        bit-identical fitness matrices; ``REPRO_EVAL_PATH=reference`` forces
        the reference path.  ``out``, when given, must be a ``(S, M)``
        float64 array and is written in place.
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
        return self._evaluate_neighborhood_batch_reference(
            solutions, moves, element_budget=element_budget, out=out
        )

    def _evaluate_neighborhood_batch_reference(
        self,
        solutions: np.ndarray,
        moves: np.ndarray,
        *,
        element_budget: int = 4_194_304,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Chunked broadcast evaluation — the ground truth for every move table.

        Flipping bit ``p`` changes the epsilon value ``V_p`` by ``-2 V_p``,
        hence the product vector by ``-2 A[:, p] V_p``; a k-bit move simply
        accumulates k such column updates.  For replica ``s`` and move ``j``
        the product vector changes by
        ``-2 * sum_t A[:, moves[j, t]] * V_s[moves[j, t]]``, and each chunk of
        neighbors is then scored with the histogram arithmetic of
        :meth:`evaluate_batch`.  All ``S x M`` deltas are computed with one
        broadcasting expression per flipped-bit position — no Python loop
        over the replicas.  The move axis is chunked so the intermediate
        ``(S, chunk, m)`` product tensor stays under ``element_budget``
        elements, and at :data:`REFERENCE_CHUNK` moves so a single row's
        temporaries stay cache-sized.
        """
        solutions, moves = self._check_batch_args(solutions, moves)
        num_solutions = solutions.shape[0]
        num_moves, k = moves.shape
        V = 2 * solutions.astype(np.int32) - 1  # (S, n)
        Y0 = V @ self._At32  # (S, m)
        if out is None:
            out = np.empty((num_solutions, num_moves), dtype=np.float64)
        if num_solutions == 0 or num_moves == 0:
            return out
        chunk = max(1, min(REFERENCE_CHUNK, element_budget // max(1, num_solutions * self.m)))
        for start in range(0, num_moves, chunk):
            block = moves[start : start + chunk]  # (c, k)
            c = block.shape[0]
            delta = np.zeros((num_solutions, c, self.m), dtype=np.int32)
            for t in range(k):
                cols = block[:, t]
                delta += self._At32[cols][None, :, :] * V[:, cols][:, :, None]
            Yn = Y0[:, None, :] - 2 * delta
            scores = self._fitness_from_products_batch(Yn.reshape(num_solutions * c, self.m))
            out[:, start : start + c] = scores.reshape(num_solutions, c)
        return out

    # ------------------------------------------------------------------
    # Metadata for the harness / timing model
    # ------------------------------------------------------------------
    def is_solution(self, fitness: float) -> bool:
        return fitness == 0

    def cost_profile(self, k: int = 1) -> dict[str, float]:
        # Per neighbor: k column updates of length m (2 flops each), the sign
        # term (2 flops/row) and the histogram accumulation + distance
        # (~3 flops/row); memory traffic is dominated by reading k columns of
        # A plus the current product vector.  The columns of A are read-only
        # instance data and can be bound to the texture cache
        # ("texture_bytes"), which is the optimisation the paper's Figure 8
        # labels "GPUTexture".
        flops = (2.0 * k + 5.0) * self.m
        matrix_bytes = 4.0 * k * self.m
        product_bytes = 4.0 * self.m
        return {
            "flops": flops,
            "bytes": matrix_bytes + product_bytes,
            "texture_bytes": matrix_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"PermutedPerceptronProblem(m={self.m}, n={self.n})"
