"""Property tests of the precompiled PPP delta evaluator.

The bilinear fast scorer must be *bit-identical* to the chunked reference
evaluation for every move table it accepts, and must fall back (not fail)
on the tables it cannot represent.  These tests compare the two paths on
randomized instances — square and rectangular, tiny and protocol-sized —
over randomized solution blocks including the degenerate all-zeros /
all-ones states and the planted secret.
"""

import numpy as np
import pytest

from repro.problems import PermutedPerceptronProblem
from repro.problems.ppp import _PPPFastScorer


def pair_moves(n: int) -> np.ndarray:
    moves = np.array(
        [(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int64
    )
    moves.setflags(write=False)
    return moves


def solution_block(problem, rng, rows: int) -> np.ndarray:
    """Random rows, led (as far as ``rows`` allows) by all-zeros, all-ones
    and the planted secret."""
    block = rng.integers(0, 2, size=(rows, problem.n)).astype(np.int8)
    special = [np.zeros(problem.n), np.ones(problem.n)]
    if problem.secret is not None:
        special.append(problem.secret)
    for index, row in enumerate(special[:rows]):
        block[index] = row
    return block


@pytest.mark.parametrize("m,n", [(73, 73), (41, 29), (29, 41), (7, 5), (4, 4)])
def test_pairwise_moves_bit_identical(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    problem = PermutedPerceptronProblem.generate(m, n, rng=rng)
    solutions = solution_block(problem, rng, 9)
    moves = pair_moves(n)
    fast = problem.evaluate_neighborhood_batch(solutions, moves)
    reference = problem._evaluate_neighborhood_batch_reference(solutions, moves)
    assert fast.dtype == reference.dtype
    assert np.array_equal(fast, reference)


@pytest.mark.parametrize("rows", [1, 8, 64])
@pytest.mark.parametrize("m,n", [(73, 73), (41, 29), (17, 23)])
def test_single_bit_moves_bit_identical(m, n, rows):
    rng = np.random.default_rng(m + n)
    problem = PermutedPerceptronProblem.generate(m, n, rng=rng)
    solutions = solution_block(problem, rng, rows)
    moves = np.arange(n, dtype=np.int64)[:, None]
    moves.setflags(write=False)
    assert np.array_equal(
        problem.evaluate_neighborhood_batch(solutions, moves),
        problem._evaluate_neighborhood_batch_reference(solutions, moves),
    )


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_single_bit_permuted_and_partial_tables_bit_identical(rows):
    """The k = 1 scorer gathers its ``(S, n)`` totals by ``cols_i``: any
    order, subset or repeat of the columns must read the same as the
    reference."""
    rng = np.random.default_rng(rows)
    problem = PermutedPerceptronProblem.generate(29, 37, rng=rng)
    solutions = solution_block(problem, rng, rows)
    tables = [
        rng.permutation(problem.n),
        rng.permutation(problem.n)[:11],
        np.array([5]),
        rng.integers(0, problem.n, size=60),
    ]
    for cols in tables:
        moves = cols.astype(np.int64)[:, None]
        for writable in (True, False):
            moves = moves.copy()
            moves.setflags(write=writable)
            assert problem._fast().move_table(moves) is not None
            assert np.array_equal(
                problem.evaluate_neighborhood_batch(solutions, moves),
                problem._evaluate_neighborhood_batch_reference(solutions, moves),
            )


@pytest.mark.parametrize("m,n", [(260, 260), (60, 1100), (1000, 60), (31, 31), (3, 5)])
def test_exact_guard_bounds_single_bit_intermediates(m, n):
    """Wherever the scorer reports ``exact``, every float32 intermediate of
    the k = 1 GEMMs is an integer below 2^24: ``|A V| <= n``, table ``t``'s
    ``|lin @ A| <= m·max|single_lin[t]|``, its constant term
    ``<= m·max|single_base[t]| + 2·target``, and the sum over the tables."""
    problem = PermutedPerceptronProblem.generate(m, n, rng=m * n)
    scorer = _PPPFastScorer(problem)
    assert scorer.exact
    lin_bound = m * np.abs(scorer.single_lin).max(axis=1)
    base_bound = m * np.abs(scorer.single_base).max(axis=1)
    base_bound[2:] += 2 * scorer.target_occ
    assert n < 2**24
    assert (lin_bound + base_bound).sum() < 2**24
    # The bounds hold on actual solution blocks.
    rng = np.random.default_rng(0)
    solutions = solution_block(problem, rng, 4)
    signs = (2 * solutions - 1).astype(np.float32)
    products = signs @ scorer.At_f32
    assert np.abs(products).max() <= n
    z = ((products + n) // 2).astype(np.intp)
    lin_a = scorer.single_lin[:, z] @ scorer.A_f32  # (R, S, n)
    assert (np.abs(lin_a).max(axis=(1, 2)) <= lin_bound).all()
    base = scorer.single_base[:, z].sum(axis=2)  # (R, S)
    assert (np.abs(base).max(axis=1) <= base_bound).all()


def test_exact_guard_refuses_oversized_instances():
    problem = PermutedPerceptronProblem.generate(300, 300, rng=0)
    assert not _PPPFastScorer(problem).exact
    assert problem._fast() is None


def test_random_subset_tables_and_writable_arrays():
    rng = np.random.default_rng(5)
    problem = PermutedPerceptronProblem.generate(31, 37, rng=rng)
    solutions = solution_block(problem, rng, 6)
    for _ in range(10):
        count = int(rng.integers(1, 40))
        i = rng.integers(0, problem.n, size=count)
        j = rng.integers(0, problem.n, size=count)
        keep = i != j
        if not keep.any():
            continue
        moves = np.stack([i[keep], j[keep]], axis=1).astype(np.int64)  # writable
        assert np.array_equal(
            problem.evaluate_neighborhood_batch(solutions, moves),
            problem._evaluate_neighborhood_batch_reference(solutions, moves),
        )


def test_unsupported_tables_fall_back_to_reference():
    rng = np.random.default_rng(9)
    problem = PermutedPerceptronProblem.generate(19, 13, rng=rng)
    scorer = problem._fast()
    assert scorer is not None
    solutions = solution_block(problem, rng, 4)
    # Duplicate indices (a double flip), k=3 and empty tables are out of the
    # bilinear model: the scorer must refuse them and the dispatcher must
    # still produce reference-exact results.
    duplicates = np.array([[0, 0], [3, 3], [1, 2]], dtype=np.int64)
    assert scorer.move_table(duplicates) is None
    triples = rng.integers(0, problem.n, size=(11, 3)).astype(np.int64)
    assert scorer.move_table(triples) is None
    assert scorer.move_table(np.empty((0, 2), dtype=np.int64)) is None
    for moves in (duplicates, triples):
        assert np.array_equal(
            problem.evaluate_neighborhood_batch(solutions, moves),
            problem._evaluate_neighborhood_batch_reference(solutions, moves),
        )


def test_scalar_neighborhood_matches_batch_row():
    rng = np.random.default_rng(3)
    problem = PermutedPerceptronProblem.generate(73, 73, rng=rng)
    solution = rng.integers(0, 2, size=problem.n).astype(np.int8)
    moves = pair_moves(problem.n)
    assert np.array_equal(
        problem.evaluate_neighborhood(solution, moves),
        problem._evaluate_neighborhood_batch_reference(solution[None, :], moves)[0],
    )


def test_out_parameter_writes_in_place():
    rng = np.random.default_rng(17)
    problem = PermutedPerceptronProblem.generate(23, 19, rng=rng)
    solutions = solution_block(problem, rng, 5)
    moves = pair_moves(problem.n)
    out = np.empty((5, moves.shape[0]), dtype=np.float64)
    result = problem.evaluate_neighborhood_batch(solutions, moves, out=out)
    assert result is out
    assert np.array_equal(out, problem._evaluate_neighborhood_batch_reference(solutions, moves))


def test_move_table_cache_reuses_readonly_tables():
    problem = PermutedPerceptronProblem.generate(11, 11, rng=0)
    scorer = problem._fast()
    moves = pair_moves(problem.n)
    table = scorer.move_table(moves)
    assert scorer.move_table(moves) is table
    writable = np.array(moves)
    assert scorer.move_table(writable) is not scorer.move_table(writable)


def test_env_switch_disables_fast_path(monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    problem = PermutedPerceptronProblem.generate(11, 11, rng=0)
    assert problem._fast() is None
    monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
    problem = PermutedPerceptronProblem.generate(11, 11, rng=0)
    assert isinstance(problem._fast(), _PPPFastScorer)
