"""Bit-identity suites for the UBQP / MaxSAT / NK precompiled fast scorers.

Modeled on the PPP fast-path suite: every fast path must agree *bit for bit*
with its chunked reference evaluation on qualifying move tables, silently
fall back on everything else, and die entirely under
``REPRO_EVAL_PATH=reference``.
"""

import numpy as np
import pytest

from repro.problems import MaxSat, NKLandscape, UBQP, clear_fast_caches
from repro.problems.fastpath import BoundedCache, eval_path


def frozen(arr):
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def random_pairs(rng, n, num, allow_duplicates=False):
    a = rng.integers(0, n, size=num)
    if allow_duplicates:
        b = rng.integers(0, n, size=num)
    else:
        b = (a + 1 + rng.integers(0, n - 1, size=num)) % n
    return frozen(np.stack([a, b], axis=1))


def make_problem(kind, rng_seed=0):
    if kind == "ubqp":
        return UBQP.random(40, rng=rng_seed)
    if kind == "maxsat":
        return MaxSat.random(40, 170, k=3, rng=rng_seed)
    return NKLandscape(40, 4, rng=rng_seed)


PROBLEMS = ("ubqp", "maxsat", "nk")


@pytest.mark.parametrize("kind", PROBLEMS)
@pytest.mark.parametrize("k", [1, 2])
def test_fast_matches_reference_bitwise(kind, k):
    rng = np.random.default_rng(17)
    problem = make_problem(kind)
    solutions = rng.integers(0, 2, size=(9, problem.n), dtype=np.int8)
    for trial in range(5):
        if k == 1:
            moves = frozen(rng.integers(0, problem.n, size=(64, 1)))
        else:
            moves = random_pairs(rng, problem.n, 64, allow_duplicates=kind == "ubqp")
        fast = problem.evaluate_neighborhood_batch(solutions, moves)
        ref = problem._evaluate_neighborhood_batch_reference(solutions, moves)
        np.testing.assert_array_equal(fast, ref)


@pytest.mark.parametrize("kind", PROBLEMS)
def test_fast_path_actually_engages(kind):
    problem = make_problem(kind)
    rng = np.random.default_rng(3)
    solutions = rng.integers(0, 2, size=(4, problem.n), dtype=np.int8)
    moves = random_pairs(rng, problem.n, 32)
    problem.evaluate_neighborhood_batch(solutions, moves)
    scorer = problem._fast()
    assert scorer is not None
    table = scorer.move_table(moves)
    assert table is not None
    # Frozen arrays are preprocessed once and served from the id-keyed cache.
    assert scorer.move_table(moves) is table


@pytest.mark.parametrize("kind", PROBLEMS)
def test_out_parameter_writes_in_place(kind):
    problem = make_problem(kind)
    rng = np.random.default_rng(5)
    solutions = rng.integers(0, 2, size=(6, problem.n), dtype=np.int8)
    for moves in (frozen(rng.integers(0, problem.n, size=(20, 1))),
                  frozen(rng.integers(0, problem.n, size=(10, 3)))):
        ref = problem._evaluate_neighborhood_batch_reference(solutions, moves)
        out = np.full((6, moves.shape[0]), np.nan)
        returned = problem.evaluate_neighborhood_batch(solutions, moves, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("kind", PROBLEMS)
def test_unsupported_tables_fall_back(kind):
    problem = make_problem(kind)
    rng = np.random.default_rng(11)
    solutions = rng.integers(0, 2, size=(3, problem.n), dtype=np.int8)
    scorer = problem._fast()
    assert scorer is not None
    k3 = frozen(rng.integers(0, problem.n, size=(12, 3)))
    out_of_range = frozen(np.array([[0], [problem.n]]))
    empty = frozen(np.empty((0, 2)))
    assert scorer.move_table(k3) is None
    assert scorer.move_table(out_of_range) is None
    assert scorer.move_table(empty) is None
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, k3),
        problem._evaluate_neighborhood_batch_reference(solutions, k3),
    )


@pytest.mark.parametrize("kind", ["maxsat", "nk"])
def test_duplicate_indices_fall_back(kind):
    # The reference path buffers the fancy-index flip, so a repeated index
    # flips once; the delta formulas would count it twice.  MaxSAT and NK
    # must therefore decline duplicate pairs (UBQP's arithmetic reference
    # represents them exactly — covered by the bitwise suite above).
    problem = make_problem(kind)
    rng = np.random.default_rng(13)
    solutions = rng.integers(0, 2, size=(4, problem.n), dtype=np.int8)
    dup = frozen(np.array([[7, 7], [1, 2]]))
    assert problem._fast().move_table(dup) is None
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, dup),
        problem._evaluate_neighborhood_batch_reference(solutions, dup),
    )


def test_ubqp_non_integer_q_disables_fast_path():
    rng = np.random.default_rng(19)
    Q = rng.random((16, 16))
    Q = (Q + Q.T) / 2
    problem = UBQP(Q)
    assert problem._fast() is None
    solutions = rng.integers(0, 2, size=(3, 16), dtype=np.int8)
    moves = frozen(np.arange(16)[:, None])
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, moves),
        problem._evaluate_neighborhood_batch_reference(solutions, moves),
    )


def test_maxsat_repeated_variable_clause_disables_fast_path():
    variables = np.array([[0, 0, 1], [2, 3, 4]])
    signs = np.ones((2, 3), dtype=np.int8)
    problem = MaxSat(6, variables, signs)
    assert problem._fast() is None
    rng = np.random.default_rng(23)
    solutions = rng.integers(0, 2, size=(4, 6), dtype=np.int8)
    moves = frozen(np.arange(6)[:, None])
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, moves),
        problem._evaluate_neighborhood_batch_reference(solutions, moves),
    )


@pytest.mark.parametrize("kind", ["ubqp", "maxsat", "nk"])
def test_kill_switch_forces_reference(kind, monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    problem = make_problem(kind)
    assert problem._fast() is None
    rng = np.random.default_rng(29)
    solutions = rng.integers(0, 2, size=(3, problem.n), dtype=np.int8)
    moves = random_pairs(rng, problem.n, 16)
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, moves),
        problem._evaluate_neighborhood_batch_reference(solutions, moves),
    )


def test_eval_path_rejects_unknown_values(monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_PATH", "0")
    with pytest.raises(ValueError, match="reference, fast, incremental"):
        make_problem("ubqp")


@pytest.mark.parametrize(
    "retired",
    ["REPRO_PPP_FAST", "REPRO_UBQP_FAST", "REPRO_MAXSAT_FAST", "REPRO_NK_FAST",
     "REPRO_INCREMENTAL"],
)
def test_retired_switches_are_rejected(retired, monkeypatch):
    """Setting a retired switch must not silently run the default path."""
    monkeypatch.setenv(retired, "0")
    with pytest.raises(ValueError, match=f"{retired}.*REPRO_EVAL_PATH"):
        eval_path()


def test_bounded_cache_evicts_least_recently_used():
    cache = BoundedCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a" -> "b" is now oldest
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2
    with pytest.raises(ValueError):
        BoundedCache(0)


def test_move_table_cache_is_bounded():
    problem = UBQP.random(24, rng=7)
    rng = np.random.default_rng(31)
    solutions = rng.integers(0, 2, size=(2, 24), dtype=np.int8)
    tables = [frozen(rng.integers(0, 24, size=(8, 1))) for _ in range(12)]
    for moves in tables:
        problem.evaluate_neighborhood_batch(solutions, moves)
    scorer = problem._fast()
    assert len(scorer._tables) <= 8


def test_clear_fast_caches_empties_live_caches():
    problem = NKLandscape(20, 2, rng=2)
    rng = np.random.default_rng(37)
    solutions = rng.integers(0, 2, size=(3, 20), dtype=np.int8)
    moves = frozen(np.arange(20)[:, None])
    problem.evaluate_neighborhood_batch(solutions, moves)
    scorer = problem._fast()
    assert len(scorer._tables_cache) == 1
    clear_fast_caches()
    assert len(scorer._tables_cache) == 0
    # Still correct afterwards: tables rebuild transparently.
    np.testing.assert_array_equal(
        problem.evaluate_neighborhood_batch(solutions, moves),
        problem._evaluate_neighborhood_batch_reference(solutions, moves),
    )
