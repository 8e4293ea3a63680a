"""Benchmark: host wall-clock of the simulator itself, per transfer mode.

The simulator's value is measured in *simulated* seconds, but its usability
is measured in *host* seconds: the paper-protocol pipeline bench (50 batched
tabu trials, 2-Hamming, 40 lockstep iterations) used to take ~12-14 s of
host time per transfer mode.  This benchmark tracks that wall clock after
the hot-loop rework — precompiled per-problem delta evaluators, cached
kernel move tables and array-backed timeline accounting — against the
recorded pre-change numbers, and reports lockstep iterations per second.

Two further sections cover the rounds of host-side engineering since:

* The incremental section measures the gain-cache engine
  (:mod:`repro.problems.incremental`, the default) against the full
  per-iteration ``(S, M)`` recompute (``REPRO_EVAL_PATH=fast``) — live, and
  against the recorded recompute walls of the previous round.
* The fast-scorer section times the UBQP / MaxSAT / NK precompiled delta
  evaluators against their chunked reference paths (single core, live).

The speedup is pure host-side engineering: every run stays bit-identical to
the slow path (same seeds -> same trajectories, byte counters and simulated
makespans), which ``tests/localsearch/test_fastpath_identity.py`` and
``tests/localsearch/test_incremental.py`` enforce.

Run as a script (``python benchmarks/bench_simspeed.py [--smoke]``) or via
``pytest benchmarks/bench_simspeed.py --benchmark-only``.  Both entry points
write ``benchmarks/BENCH_simspeed.json``.  With ``--smoke`` the script also
acts as a CI regression guard: it exits non-zero when the smoke wall clock
regresses more than 2x over the recorded smoke baseline.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.harness import run_ppp_experiment
from repro.localsearch import TRANSFER_MODES
from repro.problems import MaxSat, NKLandscape, UBQP

#: Paper-protocol configuration (matches bench_pipeline).
SPEC = (73, 73)
ORDER = 2
TRIALS = 50
MAX_ITERATIONS = 40

#: Reduced configuration for CI smoke runs.
SMOKE_TRIALS = 20
SMOKE_MAX_ITERATIONS = 8

JSON_PATH = Path(__file__).resolve().parent / "BENCH_simspeed.json"

#: Pre-change wall clocks of the full 50-trial protocol, measured on the
#: reference machine immediately before the hot-loop rework (same workload,
#: same interpreter).  Kept in the report so the JSON always shows the
#: before/after pair the speedup claims are made against.
PRE_CHANGE_WALL_S = {
    "full": 13.780,
    "delta": 11.790,
    "reduced": 12.241,
    "persistent": 12.226,
}

#: Full-protocol walls of the per-iteration recompute (the previous round's
#: default, now reachable via ``REPRO_EVAL_PATH=fast``), recorded on the
#: reference machine.  The incremental gain-cache engine is measured against
#: these and against a live recompute run.
RECORDED_RECOMPUTE_WALL_S = {
    "full": 0.885,
    "delta": 0.862,
    "reduced": 0.856,
    "persistent": 0.858,
}

#: Eval-vs-bookkeeping split of the hot loop, measured by
#: ``benchmarks/profile_hotloop.py`` (delta mode, 50 trials, cap 40, under
#: cProfile) on the reference machine.  With the recompute, the kernel-body
#: evaluation math dominates at 91% of the profiled wall; the incremental
#: engine removes most of it and leaves a 73/27 split at a much smaller
#: absolute wall.
PROFILE_HOTLOOP_RECORDED = {
    "mode": "delta",
    "trials": 50,
    "max_iterations": 40,
    "recompute": {"wall_s": 0.816, "eval_wall_s": 0.746, "eval_fraction": 0.91},
    "incremental": {"wall_s": 0.322, "eval_wall_s": 0.237, "eval_fraction": 0.73},
}

#: Recorded post-change smoke wall clocks (reference machine).  The CI guard
#: fails when a smoke run takes more than ``GUARD_FACTOR`` times this.
SMOKE_BASELINE_WALL_S = {
    "full": 0.15,
    "delta": 0.15,
    "reduced": 0.15,
    "persistent": 0.15,
}
GUARD_FACTOR = 2.0

#: Fast-scorer micro-benchmark shapes: full 2-Hamming pair tables over n
#: bits, scored for a whole replica block at once (the lockstep unit of
#: work).  Sized so the reference path runs long enough to time reliably.
FAST_SCORER_REPLICAS = 32
FAST_SCORER_PROBLEMS = {
    "ubqp": lambda: UBQP.random(128, rng=1),
    "maxsat": lambda: MaxSat.random(128, 550, k=3, rng=2),
    "nk": lambda: NKLandscape(128, 8, rng=3),
}


def run_mode(
    mode: str,
    trials: int,
    max_iterations: int,
    incremental: bool = True,
) -> dict:
    """One batched GPU experiment under ``mode``; wall-clock accounting only.

    ``incremental=False`` disables the gain-cache engine for the run
    (``REPRO_EVAL_PATH=fast``) to measure the full per-iteration recompute —
    trajectories and simulated accounting stay bit-identical; only the wall
    clock moves.
    """
    saved = os.environ.get("REPRO_EVAL_PATH")
    if not incremental:
        os.environ["REPRO_EVAL_PATH"] = "fast"
    try:
        start = time.perf_counter()
        row = run_ppp_experiment(
            SPEC,
            ORDER,
            trials=trials,
            max_iterations=max_iterations,
            evaluator_factory="gpu",
            trial_mode="batched",
            transfer_mode=mode,
        )
        wall_s = time.perf_counter() - start
    finally:
        if not incremental:
            if saved is None:
                os.environ.pop("REPRO_EVAL_PATH", None)
            else:
                os.environ["REPRO_EVAL_PATH"] = saved
    lockstep_iterations = max(int(round(row.mean_iterations)), 1) + 1  # + initial block
    return {
        "wall_s": wall_s,
        "eval_wall_s": row.eval_wall_s,
        "host_overhead_s": max(0.0, wall_s - row.eval_wall_s),
        "iterations_per_s": lockstep_iterations / wall_s,
        "mean_iterations": row.mean_iterations,
        "sim_elapsed_s": row.sim_elapsed_s,
        "kernel_launches": row.kernel_launches,
        "h2d_bytes": row.h2d_bytes,
        "d2h_bytes": row.d2h_bytes,
    }


def measure_fast_scorers() -> dict:
    """Precompiled delta scorers vs their chunked reference paths (1 core)."""
    rng = np.random.default_rng(0)
    results = {}
    for name, factory in FAST_SCORER_PROBLEMS.items():
        problem = factory()
        a, b = np.triu_indices(problem.n, 1)
        moves = np.stack([a, b], axis=1).astype(np.int64)
        moves.setflags(write=False)
        solutions = rng.integers(
            0, 2, size=(FAST_SCORER_REPLICAS, problem.n), dtype=np.int8
        )
        problem.evaluate_neighborhood_batch(solutions, moves)  # warm the caches
        fast_s = min(
            _timed(lambda: problem.evaluate_neighborhood_batch(solutions, moves))
            for _ in range(3)
        )
        ref_s = _timed(
            lambda: problem._evaluate_neighborhood_batch_reference(solutions, moves)
        )
        results[name] = {
            "n": problem.n,
            "replicas": FAST_SCORER_REPLICAS,
            "moves": int(moves.shape[0]),
            "fast_wall_s": fast_s,
            "reference_wall_s": ref_s,
            "speedup": ref_s / fast_s,
        }
    return results


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(*, smoke: bool = False) -> dict:
    trials = SMOKE_TRIALS if smoke else TRIALS
    max_iterations = SMOKE_MAX_ITERATIONS if smoke else MAX_ITERATIONS
    # The gain-cache engine is the default: "modes" is the incremental
    # configuration.  The recompute rows re-run the same protocol with
    # REPRO_EVAL_PATH=fast — the previous round's hot loop — so the JSON
    # always carries the live pair behind the incremental speedup claim.
    # Full-protocol rows are the fastest of five passes after a warm-up run
    # (scorer builds, move-table caches, NumPy internals): the protocol
    # measures the steady-state loop floor, and single passes are exposed to
    # container scheduling noise (the engine rows finish in ~0.3s on the
    # reference box, so one descheduling event is a 20-40% relative error).
    # The same pass count applies to the incremental and recompute rows —
    # min-of-N estimates the quiet-machine floor for both sides of the
    # speedup symmetrically.  Smoke rows stay single-pass — the CI guard
    # budget is deliberately loose.
    passes = 1 if smoke else 5
    if not smoke:
        run_mode(TRANSFER_MODES[0], 2, 2)

    def best_of(mode: str, incremental: bool) -> dict:
        runs = [
            run_mode(mode, trials, max_iterations, incremental=incremental)
            for _ in range(passes)
        ]
        return min(runs, key=lambda run: run["wall_s"])

    modes = {mode: best_of(mode, True) for mode in TRANSFER_MODES}
    recompute = {mode: best_of(mode, False) for mode in TRANSFER_MODES}
    payload = {
        "benchmark": "simulator_wall_clock",
        "instance": {"m": SPEC[0], "n": SPEC[1], "order": ORDER},
        "trials": trials,
        "max_iterations": max_iterations,
        "smoke": smoke,
        "modes": modes,
        "incremental": {
            "recompute_live": recompute,
            "speedup_vs_recompute_live": {
                mode: recompute[mode]["wall_s"] / modes[mode]["wall_s"]
                for mode in TRANSFER_MODES
            },
        },
        "guard_factor": GUARD_FACTOR,
    }
    if smoke:
        payload["smoke_baseline_wall_s"] = SMOKE_BASELINE_WALL_S
    else:
        payload["pre_change_wall_s"] = PRE_CHANGE_WALL_S
        payload["speedup"] = {
            mode: PRE_CHANGE_WALL_S[mode] / modes[mode]["wall_s"]
            for mode in TRANSFER_MODES
        }
        payload["incremental"]["recorded_recompute_wall_s"] = RECORDED_RECOMPUTE_WALL_S
        payload["incremental"]["speedup_vs_recorded_recompute"] = {
            mode: RECORDED_RECOMPUTE_WALL_S[mode] / modes[mode]["wall_s"]
            for mode in TRANSFER_MODES
        }
        payload["profile_hotloop"] = PROFILE_HOTLOOP_RECORDED
        payload["fast_scorers"] = measure_fast_scorers()
    return payload


def write_json(payload: dict, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_guard(payload: dict) -> list[str]:
    """Smoke regression guard: wall clock must stay within GUARD_FACTOR of baseline."""
    failures = []
    for mode, baseline in SMOKE_BASELINE_WALL_S.items():
        wall = payload["modes"][mode]["wall_s"]
        if wall > GUARD_FACTOR * baseline:
            failures.append(
                f"{mode}: smoke wall {wall:.3f}s exceeds {GUARD_FACTOR:.0f}x "
                f"baseline {baseline:.3f}s"
            )
        # The recompute configuration (REPRO_EVAL_PATH=fast) guards against
        # the same baseline it set when it was the default; the incremental
        # run must additionally never pessimize over its own recompute.
        recompute_wall = payload["incremental"]["recompute_live"][mode]["wall_s"]
        if recompute_wall > GUARD_FACTOR * baseline:
            failures.append(
                f"{mode}: recompute smoke wall {recompute_wall:.3f}s exceeds "
                f"{GUARD_FACTOR:.0f}x baseline {baseline:.3f}s"
            )
        if wall > GUARD_FACTOR * recompute_wall:
            failures.append(
                f"{mode}: incremental smoke wall {wall:.3f}s exceeds "
                f"{GUARD_FACTOR:.0f}x the recompute wall {recompute_wall:.3f}s"
            )
    return failures


@pytest.mark.benchmark(group="simspeed")
def test_simulator_wall_clock(benchmark):
    """The smoke protocol stays within the regression guard in every mode."""
    payload = benchmark.pedantic(
        lambda: measure(smoke=True), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(payload["modes"])
    assert not check_guard(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small configuration for CI (also enables the guard)")
    parser.add_argument("--json", type=Path, default=JSON_PATH,
                        help="where to write the machine-readable results")
    args = parser.parse_args()
    payload = measure(smoke=args.smoke)
    print(f"simulator wall clock: {payload['trials']} trials, "
          f"cap {payload['max_iterations']} iterations")
    header = (f"{'mode':<10} {'wall':>9} {'eval':>9} {'overhead':>9} "
              f"{'iters/s':>9}" + ("" if args.smoke else f" {'before':>9} {'speedup':>8}"))
    print(header)
    for mode in TRANSFER_MODES:
        result = payload["modes"][mode]
        line = (f"{mode:<10} {result['wall_s']:>8.3f}s {result['eval_wall_s']:>8.3f}s "
                f"{result['host_overhead_s']:>8.3f}s {result['iterations_per_s']:>9.1f}")
        if not args.smoke:
            line += (f" {PRE_CHANGE_WALL_S[mode]:>8.3f}s"
                     f" {payload['speedup'][mode]:>7.1f}x")
        print(line)
    for mode in TRANSFER_MODES:
        recompute = payload["incremental"]["recompute_live"][mode]
        speedup = payload["incremental"]["speedup_vs_recompute_live"][mode]
        print(f"{mode:<10} {recompute['wall_s']:>8.3f}s recompute "
              f"(incremental engine {speedup:.1f}x over it, live)")
    for name, result in payload.get("fast_scorers", {}).items():
        print(f"fast scorer {name:<8} {result['fast_wall_s'] * 1e3:>8.1f} ms vs "
              f"reference {result['reference_wall_s'] * 1e3:>8.1f} ms "
              f"({result['speedup']:.1f}x)")
    write_json(payload, args.json)
    print(f"wrote {args.json}")
    if args.smoke:
        failures = check_guard(payload)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            raise SystemExit(1)
        print("smoke guard passed")


if __name__ == "__main__":
    main()
