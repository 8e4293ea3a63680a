"""Fast-path vs legacy trajectory identity, end to end.

The precompiled PPP delta evaluator is a pure host-side
speedup: with the same seeds, the pipeline must follow bit-for-bit the same
best-fitness trajectories and produce identical transfer accounting —
byte/launch counters and simulated makespans — whether the bilinear scorer
or the chunked reference evaluation runs underneath.  These tests run the
same workload twice, once with ``REPRO_EVAL_PATH=reference`` and once on
the default path, across all four transfer modes.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator
from repro.harness import run_ppp_experiment
from repro.localsearch import TRANSFER_MODES, MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import instance_seed, make_table_instance

SPEC = (21, 21)
ORDER = 2
MAX_ITERATIONS = 10
REPLICAS = 5


def _seeds() -> list[int]:
    return [instance_seed(*SPEC, trial) for trial in range(REPLICAS)]


def _multistart_records(mode: str) -> list[tuple]:
    problem = make_table_instance(SPEC, trial=0)
    neighborhood = KHammingNeighborhood(problem.n, ORDER)
    with GPUEvaluator(problem, neighborhood) as evaluator:
        runner = MultiStartRunner(
            evaluator,
            algorithm="tabu",
            max_iterations=MAX_ITERATIONS,
            track_history=True,
            transfer_mode=mode,
        )
        results = runner.run(seeds=_seeds())
        stats = evaluator.context.stats
        counters = (
            stats.kernel_launches,
            stats.h2d_bytes,
            stats.d2h_bytes,
            evaluator.context.timeline.elapsed,
        )
    records = [
        (tuple(r.history), r.best_fitness, r.iterations, r.stopping_reason,
         tuple(r.best_solution))
        for r in results
    ]
    return records, counters


def _experiment_row(mode: str) -> dict:
    row = run_ppp_experiment(
        SPEC,
        ORDER,
        trials=REPLICAS,
        max_iterations=MAX_ITERATIONS,
        evaluator_factory="gpu",
        transfer_mode=mode,
    )
    return {
        "records": [
            (t.trial, t.fitness, t.iterations, t.success) for t in row.trials
        ],
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
        "p2p_bytes": row.p2p_bytes,
        "kernel_launches": row.kernel_launches,
        "sim_elapsed_s": row.sim_elapsed_s,
    }


@pytest.mark.parametrize("mode", TRANSFER_MODES)
def test_lockstep_trajectories_identical(mode, monkeypatch):
    """Fast and legacy paths trace identical fitness histories and counters."""
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    legacy_records, legacy_counters = _multistart_records(mode)
    monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
    fast_records, fast_counters = _multistart_records(mode)
    assert fast_records == legacy_records
    assert fast_counters == legacy_counters


@pytest.mark.parametrize("mode", TRANSFER_MODES)
def test_experiment_rows_identical(mode, monkeypatch):
    """The harness reports identical trials, bytes, launches and makespans."""
    monkeypatch.setenv("REPRO_EVAL_PATH", "reference")
    legacy = _experiment_row(mode)
    monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
    fast = _experiment_row(mode)
    assert fast == legacy


def test_fast_path_actually_engages(monkeypatch):
    """Guard against the fast path silently never activating in this config."""
    monkeypatch.delenv("REPRO_EVAL_PATH", raising=False)
    problem = make_table_instance(SPEC, trial=0)
    scorer = problem._fast()
    assert scorer is not None and scorer.exact
    moves = np.array([(i, j) for i in range(problem.n)
                      for j in range(i + 1, problem.n)], dtype=np.int64)
    moves.setflags(write=False)
    assert scorer.move_table(moves) is not None
