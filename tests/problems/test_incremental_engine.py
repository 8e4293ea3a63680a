"""Unit tests of the incremental gain-cache engine.

The engine's contract (:mod:`repro.problems.incremental`): served
evaluations are bit-identical to the full recompute, anything outside the
compiled model declines to the reference chain, and rows whose mirror
diverges from the actual solutions (restarts, kicks, migration, restores —
any out-of-band mutation) are silently re-derived.  These tests drive the
engine directly, without a search loop on top.
"""

import gc
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.problems.incremental as incremental
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import (
    MaxSat,
    OneMax,
    UBQP,
    generate_random_ksat,
)
from repro.problems.fastpath import BoundedCache, MoveTableCache, cache_stats
from repro.problems.incremental import (
    GainEngine,
    attach_gain_engine,
    check_period,
    create_gain_engine,
    detach_gain_engine,
)
from repro.problems.instances import make_table_instance

#: The problems with a gain state.
PROBLEM_FACTORIES = {
    "ppp": lambda: make_table_instance((25, 25), trial=0),
    "maxsat": lambda: MaxSat(24, *generate_random_ksat(24, 100, k=3, rng=2)),
}


def frozen_moves(n: int, order: int) -> np.ndarray:
    moves = KHammingNeighborhood(n, order).moves()
    moves.setflags(write=False)
    return moves


def reference(problem, solutions, moves):
    """The recompute path, guaranteed engine-free."""
    engine = problem._gain_engine
    problem._gain_engine = None
    try:
        return problem.evaluate_neighborhood_batch(solutions, moves)
    finally:
        problem._gain_engine = engine


def random_block(problem, rng, rows):
    return np.stack([problem.random_solution(rng) for _ in range(rows)])


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
@pytest.mark.parametrize("order", [1, 2])
def test_randomized_commits_stay_bit_identical(name, order):
    """25 iterations of expect/evaluate/commit match the recompute exactly,
    including rows perturbed behind the engine's back (self-heal)."""
    problem = PROBLEM_FACTORIES[name]()
    moves = frozen_moves(problem.n, order)
    rng = np.random.default_rng(20260808)
    rows = 6
    solutions = random_block(problem, rng, rows)
    engine = GainEngine(problem, rows_hint=rows)
    all_rows = np.arange(rows, dtype=np.int64)

    served_any = False
    for step in range(25):
        engine.expect(all_rows)
        got = engine.try_evaluate(solutions, moves, None)
        want = reference(problem, solutions, moves)
        if got is None:
            # Outside the model (e.g. the PPP state is pair-flip only):
            # declining is the contract, nothing to compare.
            assert not engine.stats["evals"]
            return
        served_any = True
        np.testing.assert_array_equal(got, want)

        # Commit one random flip per row, through the engine.
        bits = np.stack(
            [rng.choice(problem.n, size=order, replace=False) for _ in range(rows)]
        ).astype(np.int64)
        engine.commit(all_rows, bits)
        solutions[all_rows[:, None], bits] ^= 1

        if step % 7 == 3:
            # Out-of-band mutation: the engine only sees the changed content
            # at the next evaluation and must re-derive that row.
            victim = int(rng.integers(rows))
            solutions[victim] = problem.random_solution(rng)
    assert served_any
    assert engine.stats["reinit_rows"] > rows  # initial derivation + self-heals


def _served_ppp_engine(rows):
    """A PPP 2-Hamming engine that has served one ``rows``-row evaluation."""
    problem = make_table_instance((16, 16), trial=0)
    moves = frozen_moves(problem.n, 2)
    solutions = random_block(problem, np.random.default_rng(5), rows)
    engine = GainEngine(problem, rows_hint=rows)
    engine.expect(np.arange(rows, dtype=np.int64))
    assert engine.try_evaluate(solutions, moves, None) is not None
    return problem, moves, solutions, engine


@pytest.mark.parametrize("count", [1, 3, 50])
def test_ppp_workspace_estimate_covers_the_kept_buffers(count):
    """``can_materialize`` bounds at least every buffer ``materialize`` keeps."""
    state = _served_ppp_engine(3)[3]._state
    kept = sum(buf.nbytes for buf in state._workspace(count))
    assert state.workspace_bytes(count) >= kept


def test_ppp_declines_over_the_workspace_limit(monkeypatch):
    """A request whose workspace exceeds the limit declines to the recompute,
    which stays bit-identical; a request within the limit is still served."""
    problem, moves, solutions, engine = _served_ppp_engine(3)
    monkeypatch.setattr(incremental, "WORKSPACE_LIMIT", engine._state.workspace_bytes(2))
    attach_gain_engine(problem, engine)
    try:
        engine.expect(np.arange(3, dtype=np.int64))
        got = problem.evaluate_neighborhood_batch(solutions, moves)
        assert engine.stats["declined"] == 1 and engine.stats["evals"] == 1
        np.testing.assert_array_equal(got, reference(problem, solutions, moves))

        engine.expect(np.arange(2, dtype=np.int64))
        got = problem.evaluate_neighborhood_batch(solutions[:2], moves)
        assert engine.stats["declined"] == 1 and engine.stats["evals"] == 2
        np.testing.assert_array_equal(got, reference(problem, solutions[:2], moves))
    finally:
        detach_gain_engine(problem)


_SCIPY_PROBE = """
import json, sys
import repro
import repro.localsearch.multistart as multistart
from repro.core import GPUEvaluator
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import make_table_instance

engines = []
create = multistart.create_gain_engine
multistart.create_gain_engine = lambda *a, **k: engines.append(create(*a, **k)) or engines[-1]
problem = make_table_instance((16, 16), trial=0)
evaluator = GPUEvaluator(problem, KHammingNeighborhood(problem.n, 2))
multistart.MultiStartRunner(evaluator, max_iterations=5).run(seeds=[1, 2, 3])
print(json.dumps({
    "evals": sum(engine.stats["evals"] for engine in engines),
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""


def test_engine_runs_without_importing_scipy():
    """Every GEMM of the PPP materialization runs on numpy's BLAS: neither
    ``import repro`` nor a served 2-Hamming lockstep run imports scipy, whose
    own BLAS would bring a second thread pool into the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    completed = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    probe = json.loads(completed.stdout)
    assert probe["evals"] > 0
    assert probe["scipy"] == []


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_duplicate_bit_commits_self_heal(name):
    """A commit that repeats a bit is outside the state model: the row is
    invalidated and re-derived, and results stay exact."""
    problem = PROBLEM_FACTORIES[name]()
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(7)
    solutions = random_block(problem, rng, 3)
    engine = GainEngine(problem, rows_hint=3)
    rows = np.arange(3, dtype=np.int64)

    engine.expect(rows)
    if engine.try_evaluate(solutions, moves, None) is None:
        pytest.skip("problem declines this move table")
    dup = np.array([[1, 1], [2, 5], [4, 4]], dtype=np.int64)
    engine.commit(rows, dup)
    solutions[rows[:, None], dup] ^= 1  # double flips: rows 0 and 2 unchanged
    assert not engine.valid[0] and engine.valid[1] and not engine.valid[2]

    engine.expect(rows)
    got = engine.try_evaluate(solutions, moves, None)
    np.testing.assert_array_equal(got, reference(problem, solutions, moves))


def test_declines_without_expected_rows_and_on_foreign_tables():
    problem = make_table_instance((16, 16), trial=0)
    moves = frozen_moves(problem.n, 2)
    other = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(3)
    solutions = random_block(problem, rng, 2)
    engine = GainEngine(problem, rows_hint=2)
    rows = np.arange(2, dtype=np.int64)

    # No expect() declaration -> decline.
    assert engine.try_evaluate(solutions, moves, None) is None

    # Writable move table -> decline (it may be mutated between calls).
    writable = moves.copy()
    engine.expect(rows)
    assert engine.try_evaluate(solutions, writable, None) is None

    # Bind the real table, then a different array with equal content must
    # decline: the gain state's coupling indices belong to the bound table.
    engine.expect(rows)
    assert engine.try_evaluate(solutions, moves, None) is not None
    engine.expect(rows)
    assert engine.try_evaluate(solutions, other, None) is None
    assert engine.stats["declined"] >= 3

    # Row-count mismatch between expect() and the actual batch -> decline.
    engine.expect(rows)
    assert engine.try_evaluate(solutions[:1], moves, None) is None


@pytest.mark.parametrize(
    "path, engine", [("reference", False), ("fast", False), ("incremental", True)]
)
def test_kill_switch_disables_engine_creation(monkeypatch, path, engine):
    problem = PROBLEM_FACTORIES["maxsat"]()
    monkeypatch.setenv("REPRO_EVAL_PATH", path)
    assert (create_gain_engine(problem) is not None) == engine
    monkeypatch.delenv("REPRO_EVAL_PATH")
    assert create_gain_engine(problem) is not None
    # Problems without a gain state never get an engine.
    class Alien:
        name = "alien"
        n = 4
    assert create_gain_engine(Alien()) is None
    for other in (UBQP.random(8, rng=1), OneMax(8)):
        assert create_gain_engine(other) is None


def test_attach_helpers_nest_and_restore():
    problem = PROBLEM_FACTORIES["maxsat"]()
    outer = create_gain_engine(problem)
    prev = attach_gain_engine(problem, outer)
    assert prev is None and problem._gain_engine is outer
    inner = create_gain_engine(problem)
    prev_inner = attach_gain_engine(problem, inner)
    assert prev_inner is outer
    detach_gain_engine(problem, prev_inner)
    assert problem._gain_engine is outer
    detach_gain_engine(problem, prev)
    assert problem._gain_engine is None


@pytest.mark.parametrize("name", ["ppp", "maxsat"])
def test_pickling_strips_engine_and_fast_scorer(name):
    """Pickled problems leave process-local state behind and still score
    bit-identically on the other side."""
    problem = PROBLEM_FACTORIES[name]()
    moves = frozen_moves(problem.n, 2)
    rng = np.random.default_rng(11)
    solutions = random_block(problem, rng, 3)
    engine = create_gain_engine(problem, rows_hint=3)
    attach_gain_engine(problem, engine)
    engine.expect(np.arange(3, dtype=np.int64))
    want = problem.evaluate_neighborhood_batch(solutions, moves)
    assert engine.stats["evals"] == 1 and problem._fast_scorer is not None

    clone = pickle.loads(pickle.dumps(problem))
    assert clone._gain_engine is None
    assert clone._fast_scorer is None
    np.testing.assert_array_equal(clone.evaluate_neighborhood_batch(solutions, moves), want)
    assert problem._gain_engine is engine  # the original keeps its state


def test_debug_check_mode_verifies_served_results(monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL_CHECK", "1")
    problem = PROBLEM_FACTORIES["maxsat"]()
    moves = frozen_moves(problem.n, 1)
    rng = np.random.default_rng(13)
    solutions = random_block(problem, rng, 2)
    engine = GainEngine(problem, rows_hint=2)
    rows = np.arange(2, dtype=np.int64)
    for _ in range(4):
        engine.expect(rows)
        assert engine.try_evaluate(solutions, moves, None) is not None
        bits = rng.integers(0, problem.n, size=(2, 1)).astype(np.int64)
        engine.commit(rows, bits)
        solutions[rows[:, None], bits] ^= 1
    assert engine.stats["checks"] == 4


@pytest.mark.parametrize("raw", ["often", "-1", "1.5"])
def test_debug_check_period_rejects_junk(monkeypatch, raw):
    monkeypatch.setenv("REPRO_INCREMENTAL_CHECK", raw)
    with pytest.raises(ValueError, match="REPRO_INCREMENTAL_CHECK"):
        GainEngine(PROBLEM_FACTORIES["maxsat"](), rows_hint=1)


@pytest.mark.parametrize("raw, period", [(None, 0), ("0", 0), ("3", 3)])
def test_debug_check_period_accepts_integers(monkeypatch, raw, period):
    if raw is None:
        monkeypatch.delenv("REPRO_INCREMENTAL_CHECK", raising=False)
    else:
        monkeypatch.setenv("REPRO_INCREMENTAL_CHECK", raw)
    assert check_period() == period


# ---------------------------------------------------------------------------
# Cache observability (BoundedCache / MoveTableCache counters)
# ---------------------------------------------------------------------------
def test_bounded_cache_counts_hits_misses_evictions():
    cache = BoundedCache(2)
    assert cache.get("a") is None  # miss
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert cache.get("b") is None
    stats = cache.stats()
    assert stats == {"size": 2, "maxsize": 2, "hits": 1, "misses": 2, "evictions": 1}
    cache.clear()
    assert cache.stats()["size"] == 0
    assert cache.stats()["hits"] == 1  # counters survive clear()


def test_move_table_cache_counts_writable_rebuilds():
    built = []
    cache = MoveTableCache(lambda m: built.append(1) or ("table", m.shape), maxsize=2)
    frozen = np.arange(6, dtype=np.int64).reshape(3, 2)
    frozen.setflags(write=False)
    writable = frozen.copy()
    cache.lookup(frozen)
    cache.lookup(frozen)  # served from cache
    assert len(built) == 1
    cache.lookup(writable)
    cache.lookup(writable)  # rebuilt every time
    assert len(built) == 3
    assert cache.stats()["writable_rebuilds"] == 2


def test_cache_stats_aggregates_live_caches():
    before = cache_stats()
    cache = BoundedCache(4)
    cache.get("missing")
    cache.put("k", "v")
    cache.get("k")
    after = cache_stats()
    assert after["caches"] >= before["caches"] + 1
    assert after["hits"] >= before["hits"] + 1
    assert after["misses"] >= before["misses"] + 1


def test_cache_stats_keep_the_counts_of_dead_caches():
    cache = BoundedCache(1)
    cache.get("missing")
    cache.put("a", 1)
    cache.get("a")
    cache.put("b", 2)  # evicts "a"
    during = cache_stats()
    del cache
    gc.collect()
    after = cache_stats()
    for counter in ("hits", "misses", "evictions"):
        assert after[counter] >= during[counter]
