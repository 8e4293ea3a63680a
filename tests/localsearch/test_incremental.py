"""Incremental gain-cache engine under the search loops: bit-identity matrix.

The engine replaces the per-iteration full ``(S, M)`` recompute of the
lockstep runner with O(affected) maintenance on the one problem that keeps
a gain state (PPP 2-Hamming), but it is pure plumbing: for every transfer
mode and every lockstep algorithm the trajectories, byte counters and
launch counts must match the ``REPRO_EVAL_PATH=fast`` recompute exactly —
including across every invalidation path (restarts, device faults, replica
migration on rebalance, checkpoint -> restore) — and the fast recompute
must in turn match ``REPRO_EVAL_PATH=reference`` on every problem, in the
lockstep runner and in VNS's repeated descents; the single searches must
follow the plain reference loop of ``tests/conftest.py``.  MaxSAT keeps no
gain state: its lockstep runs create no engine and follow the same
trajectory on all three paths.
"""

import functools

import numpy as np
import pytest

import repro.localsearch.multistart as multistart_mod
from repro.core import CPUEvaluator, GPUEvaluator, SequentialEvaluator
from repro.core.evaluators import MultiGPUEvaluator
from repro.localsearch import MultiStartRunner, TabuSearch, VariableNeighborhoodSearch
from repro.localsearch.multistart import MultiStartRunner as Runner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import (
    LeadingOnes,
    MaxSat,
    OneMax,
    UBQP,
    create_gain_engine,
    generate_random_ksat,
)
from repro.problems.instances import make_table_instance

MODES = ("full", "delta", "reduced", "persistent")
ALGORITHMS = ("tabu", "hill-climbing", "first-improvement")
SEEDS = [21, 22, 23, 24]

PROBLEM_FACTORIES = {
    "ppp": lambda: make_table_instance((16, 16), trial=0),
    "onemax": lambda: OneMax(16),
    "maxsat": lambda: MaxSat(16, *generate_random_ksat(16, 60, k=3, rng=2)),
    "2sat": lambda: MaxSat(16, *generate_random_ksat(16, 40, k=2, rng=4)),
    "ubqp": lambda: UBQP.random(16, rng=1),
}
#: The problem with a gain state, and the MaxSAT instances that have none.
ENGINE_PROBLEMS = ("ppp",)
STATELESS_PROBLEMS = ("maxsat", "2sat")


@pytest.fixture
def engines(monkeypatch):
    """Every gain engine the lockstep runner creates, in creation order."""
    created = []
    real_create = multistart_mod.create_gain_engine

    def probe(problem, rows_hint=0):
        engine = real_create(problem, rows_hint=rows_hint)
        if engine is not None:
            created.append(engine)
        return engine

    monkeypatch.setattr(multistart_mod, "create_gain_engine", probe)
    return created


def lockstep_signature(problem, mode, algorithm, *, order=2):
    neighborhood = KHammingNeighborhood(problem.n, order)
    with GPUEvaluator(problem, neighborhood) as evaluator:
        runner = MultiStartRunner(
            evaluator,
            algorithm=algorithm,
            max_iterations=12,
            transfer_mode=mode,
            target_fitness=float("-inf"),
        )
        result = runner.run(seeds=SEEDS)
        return {
            "best": [r.best_fitness for r in result],
            "iterations": [r.iterations for r in result],
            "reasons": [r.stopping_reason for r in result],
            "solutions": [r.best_solution.tobytes() for r in result],
            "evaluations": evaluator.stats.evaluations,
            "simulated_time": evaluator.stats.simulated_time,
        }


class TestLockstepMatrix:
    """4 transfer modes x 3 algorithms, across the three ``REPRO_EVAL_PATH``
    values: incremental == fast on PPP and MaxSAT (an engine is created
    for the PPP only), fast == reference on all five."""

    @pytest.mark.parametrize("name", ENGINE_PROBLEMS + STATELESS_PROBLEMS)
    @pytest.mark.parametrize("mode", MODES)
    def test_engine_matches_recompute(self, name, mode, engines, monkeypatch):
        problem = PROBLEM_FACTORIES[name]()
        for algorithm in ALGORITHMS:
            monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
            with_engine = lockstep_signature(problem, mode, algorithm)
            monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
            without = lockstep_signature(problem, mode, algorithm)
            assert with_engine == without, f"{name}/{mode}/{algorithm} diverged"
        assert bool(engines) == (name in ENGINE_PROBLEMS)

    @pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
    @pytest.mark.parametrize("mode", MODES)
    def test_fast_scorers_match_reference(self, name, mode, monkeypatch):
        for algorithm in ALGORITHMS:
            # The path is read when the problem is built, so build one per path.
            monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
            fast = lockstep_signature(PROBLEM_FACTORIES[name](), mode, algorithm)
            monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
            reference = lockstep_signature(PROBLEM_FACTORIES[name](), mode, algorithm)
            assert fast == reference, f"{name}/{mode}/{algorithm} diverged"

    @pytest.mark.parametrize(
        "name, devices, mode",
        [(name, 1, "delta") for name in ENGINE_PROBLEMS]
        + [("ppp", devices, mode) for devices in (2, 4) for mode in MODES[:3]],
    )
    def test_engine_actually_serves_the_hot_loop(
        self, name, devices, mode, engines, monkeypatch
    ):
        """Guard against the matrix passing because the engine silently
        declines everything: on 2-Hamming lockstep it must serve, one GPU or
        a pool that rebalances and loses and regains a device, from one
        scoring call per lockstep step and one derivation per replica."""
        problem = PROBLEM_FACTORIES[name]()
        scoring_calls = []
        real_score = problem.evaluate_neighborhood_batch

        @functools.wraps(real_score)
        def counted(*args, **kwargs):
            scoring_calls.append(1)
            return real_score(*args, **kwargs)

        monkeypatch.setattr(problem, "evaluate_neighborhood_batch", counted)

        def run():
            neighborhood = KHammingNeighborhood(problem.n, 2)
            if devices == 1:
                evaluator, options = GPUEvaluator(problem, neighborhood), {}
            else:
                evaluator = MultiGPUEvaluator(problem, neighborhood, devices=devices)
                options = {"rebalance_every": 2}
            with evaluator:
                runner = MultiStartRunner(
                    evaluator,
                    max_iterations=12,
                    transfer_mode=mode,
                    target_fitness=float("-inf"),
                    **options,
                )
                plan = None if devices == 1 else f"fail:{devices - 1}@3,join:{devices - 1}@6"
                result = runner.run(seeds=SEEDS, fault_plan=plan)
                signature = (
                    [r.best_solution.tobytes() for r in result],
                    [r.iterations for r in result],
                    evaluator.stats.simulated_time,
                )
                return signature, result.iterations

        with_engine, steps = run()
        assert len(scoring_calls) == steps
        assert engines, "no engine was created for the lockstep run"
        stats = engines[-1].stats
        assert stats["evals"] > 0, f"engine never served ({stats})"
        assert stats["commits"] > 0
        assert stats["reinit_rows"] == len(SEEDS), stats
        monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
        assert run()[0] == with_engine


def tabu_pool_signature(name, devices, order):
    """Tabu on a fresh problem (the path is read at build), 4 rows, 12 steps,
    on one GPU or on a pool that rebalances and loses and regains a device."""
    problem = PROBLEM_FACTORIES[name]()
    neighborhood = KHammingNeighborhood(problem.n, order)
    if devices == 1:
        evaluator, options, plan = GPUEvaluator(problem, neighborhood), {}, None
    else:
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=devices)
        options, plan = {"rebalance_every": 2}, "fail:1@3,join:1@6"
    with evaluator:
        result = MultiStartRunner(
            evaluator,
            max_iterations=12,
            transfer_mode="delta",
            target_fitness=float("-inf"),
            **options,
        ).run(seeds=SEEDS, fault_plan=plan)
        return {
            "best": [r.best_fitness for r in result],
            "iterations": [r.iterations for r in result],
            "solutions": [r.best_solution.tobytes() for r in result],
            "simulated_time": evaluator.stats.simulated_time,
        }


@pytest.mark.parametrize("name", STATELESS_PROBLEMS)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("devices", [1, 2])
def test_maxsat_runs_without_an_engine(name, order, devices, engines, monkeypatch):
    """MaxSAT keeps no gain state: a multi-row tabu run (3-SAT and 2-SAT, one
    GPU or a pool) creates no engine and follows the same trajectory on all
    three evaluation paths."""
    runs = {}
    for path in ("incremental", "fast", "reference"):
        monkeypatch.setenv("REPRO_EVAL_PATH", path)
        runs[path] = tabu_pool_signature(name, devices, order)
    assert not engines
    assert runs["incremental"] == runs["fast"] == runs["reference"]


def cpu_lockstep_signature(evaluator_cls):
    """PPP 25x25, 2-Hamming, 4 rows, 10 tabu steps on a CPU evaluator (a
    fresh problem: the evaluation path is read when it is built)."""
    problem = make_table_instance((25, 25), trial=0)
    with evaluator_cls(problem, KHammingNeighborhood(problem.n, 2)) as evaluator:
        result = MultiStartRunner(
            evaluator, max_iterations=10, target_fitness=float("-inf")
        ).run(seeds=SEEDS)
        return {
            "best": [r.best_fitness for r in result],
            "iterations": [r.iterations for r in result],
            "solutions": [r.best_solution.tobytes() for r in result],
            "simulated_time": evaluator.stats.simulated_time,
        }


def test_cpu_lockstep_run_is_served_by_the_engine(engines, monkeypatch):
    """The CPU evaluator scores a multi-row step with the frozen move table,
    so the runner's gain engine serves every step instead of declining."""
    monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
    served = cpu_lockstep_signature(CPUEvaluator)
    assert len(engines) == 1
    assert engines[0].stats["evals"] > 0, engines[0].stats
    assert engines[0].stats["declined"] == 0, engines[0].stats
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    assert cpu_lockstep_signature(CPUEvaluator) == served


def test_sequential_per_move_calls_never_reach_the_engine(engines, monkeypatch):
    """The sequential evaluator scores one move per call; those calls are not
    neighborhood batches, so the engine is never offered (nor declines) one."""
    monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
    looped = cpu_lockstep_signature(SequentialEvaluator)
    assert len(engines) == 1
    assert engines[0].stats["evals"] == 0, engines[0].stats
    assert engines[0].stats["declined"] == 0, engines[0].stats
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    assert cpu_lockstep_signature(SequentialEvaluator) == looped


SCALAR_FACTORIES = dict(PROBLEM_FACTORIES, leadingones=lambda: LeadingOnes(16))


def vns_signature(name, evaluator_cls, order):
    """VNS on a fresh problem (the path is read at build): repeated descents
    on each of its evaluators, every one after the first from a moved start."""
    problem = SCALAR_FACTORIES[name]()
    vns = VariableNeighborhoodSearch(
        problem,
        max_order=order,
        evaluator_factory=evaluator_cls,
        max_iterations_per_descent=8,
        max_rounds=3,
        target_fitness=float("-inf"),
    )
    result = vns.run(rng=np.random.default_rng(31))
    for evaluator in vns.evaluators:
        evaluator.close()
    return (
        result.best_fitness,
        result.iterations,
        result.evaluations,
        result.best_solution.tobytes(),
        tuple(evaluator.stats.simulated_time for evaluator in vns.evaluators),
    )


def search_record(result):
    return (
        result.best_fitness,
        result.iterations,
        result.evaluations,
        result.stopping_reason,
        tuple(result.history),
        result.best_solution.tobytes(),
    )


class TestScalarIdentity:
    """The single searches on the default path follow the plain reference loop."""

    @pytest.mark.parametrize("name", sorted(SCALAR_FACTORIES))
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("evaluator_cls", [GPUEvaluator, CPUEvaluator])
    def test_default_matches_reference(
        self, name, order, evaluator_cls, monkeypatch, reference_search
    ):
        """``GPUEvaluator`` scores on its frozen full move table,
        ``CPUEvaluator`` on a writable one; both follow the reference."""
        monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
        problem = SCALAR_FACTORIES[name]()
        with evaluator_cls(problem, KHammingNeighborhood(problem.n, order)) as evaluator:
            tabu = TabuSearch(evaluator, max_iterations=15, track_history=True).run(rng=31)
        expected = reference_search(SCALAR_FACTORIES[name], order, "tabu", 31, max_iterations=15)
        assert search_record(tabu) == search_record(expected)
        default = vns_signature(name, evaluator_cls, order)
        monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
        assert vns_signature(name, evaluator_cls, order) == default

    @pytest.mark.parametrize("name", STATELESS_PROBLEMS)
    @pytest.mark.parametrize("order", [1, 2])
    def test_frozen_single_row_reaches_the_fast_scorer(self, name, order, monkeypatch):
        """MaxSAT has no scalar override and no gain state: an S=1 call on
        the evaluator's frozen table must reach the batch fast scorer,
        whatever the clause width, and no engine is ever created for it."""
        monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
        problem = PROBLEM_FACTORIES[name]()
        assert create_gain_engine(problem) is None
        scorer = problem._fast()
        calls = []
        real_evaluate = scorer.evaluate

        def counted(solutions, table, **kwargs):
            calls.append(solutions.shape[0])
            return real_evaluate(solutions, table, **kwargs)

        monkeypatch.setattr(scorer, "evaluate", counted)
        neighborhood = KHammingNeighborhood(problem.n, order)
        with GPUEvaluator(problem, neighborhood) as evaluator:
            evaluator.evaluate(problem.random_solution(3))
        assert calls == [1]


def multi_gpu_signature(mode, *, fault_plan=None, resume=None, checkpoints=None):
    problem = make_table_instance((16, 16), trial=1)
    neighborhood = KHammingNeighborhood(problem.n, 2)
    evaluator = MultiGPUEvaluator(problem, neighborhood, devices=3)
    runner = Runner(
        evaluator,
        max_iterations=30,
        transfer_mode=mode,
        rebalance_every=7,
        target_fitness=float("-inf"),
    )
    kwargs = {}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if resume is not None:
        result = runner.run(resume=resume)
    else:
        if checkpoints is not None:
            kwargs["checkpoint_every"] = 10
            kwargs["checkpoint_callback"] = checkpoints.append
        result = runner.run(seeds=[11, 12, 13, 14, 15, 16], **kwargs)
    contexts = list(runner.evaluator.pool.contexts)
    return {
        "best": [r.best_fitness for r in result],
        "iterations": [r.iterations for r in result],
        "simulated_time": result.simulated_time,
        "h2d": sum(ctx.stats.h2d_bytes for ctx in contexts),
        "d2h": sum(ctx.stats.d2h_bytes for ctx in contexts),
        "launches": sum(ctx.stats.kernel_launches for ctx in contexts),
        "makespan": max(ctx.timeline.elapsed for ctx in contexts),
    }


class TestInvalidationPaths:
    @pytest.mark.parametrize("mode", ("delta", "reduced"))
    def test_device_fault_and_migration(self, mode, engines, monkeypatch):
        """A mid-run device death migrates replicas (and the rebalances move
        them again): the engine is invalidated, not consulted stale."""
        monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
        with_engine = multi_gpu_signature(mode, fault_plan="fail:1@6")
        assert len(engines) == 1 and engines[0].stats["evals"] > 0, engines
        monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
        assert with_engine == multi_gpu_signature(mode, fault_plan="fail:1@6")

    def test_checkpoint_restore_rederives(self, engines, monkeypatch):
        """Gain state is derived data: a restored run (fresh engine, no
        persisted state) must match the uninterrupted engine-off run."""
        monkeypatch.setenv("REPRO_EVAL_PATH", "fast")
        uninterrupted = multi_gpu_signature("delta")
        assert not engines

        monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
        checkpoints = []
        multi_gpu_signature("delta", checkpoints=checkpoints)
        assert checkpoints
        restored = multi_gpu_signature("delta", resume=checkpoints[0])
        assert restored["best"] == uninterrupted["best"]
        assert restored["iterations"] == uninterrupted["iterations"]
        assert len(engines) == 2 and all(e.stats["evals"] > 0 for e in engines)
