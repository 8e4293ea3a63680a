"""Profiling harness for the simulator's host-side hot loop.

Runs the paper-protocol batched tabu pipeline (the same workload as
``bench_simspeed``) under ``cProfile`` and prints

* the top functions by cumulative and internal time,
* the wall-clock split measured by the runtime (kernel-body evaluation math
  vs simulator bookkeeping),
* the run's accounting counters (launches, recorded timeline intervals,
  transferred bytes) — the object-churn side of the cost, and
* the fast-path cache counters (move-table / workspace / coupling-index
  hits, misses and evictions) aggregated over every live bounded cache.

This is the tool that identified the PPP scoring math as ~90% of the
pipeline's host wall clock (motivating the precompiled bilinear evaluator)
and the per-transfer interval objects as the dominant bookkeeping cost
(motivating the array-backed timeline accounting).

Usage::

    python benchmarks/profile_hotloop.py [--mode delta] [--trials 50]
        [--iterations 40] [--top 15] [--slow | --recompute]

``--slow`` profiles the reference evaluation (sets
``REPRO_EVAL_PATH=reference`` for the run); ``--recompute`` keeps the fast
scorers but disables the incremental gain-cache engine
(``REPRO_EVAL_PATH=fast``) to profile the full per-iteration recompute.
"""

import argparse
import cProfile
import io
import os
import pstats
import time

from repro.localsearch import TRANSFER_MODES


def profile_run(mode: str, trials: int, iterations: int, top: int) -> None:
    from repro.harness import run_ppp_experiment

    # Warm-up pass: builds the per-problem scorer, kernel move tables and
    # NumPy internals so the profile shows the steady-state loop.
    run_ppp_experiment(
        (73, 73), 2, trials=min(trials, 5), max_iterations=2,
        evaluator_factory="gpu", trial_mode="batched", transfer_mode=mode,
    )

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    row = run_ppp_experiment(
        (73, 73), 2, trials=trials, max_iterations=iterations,
        evaluator_factory="gpu", trial_mode="batched", transfer_mode=mode,
    )
    profiler.disable()
    wall_s = time.perf_counter() - start

    print(f"mode {mode}: {trials} trials, cap {iterations} iterations, "
          f"wall {wall_s:.3f}s")
    overhead = max(0.0, wall_s - row.eval_wall_s)
    print(f"  kernel-body evaluation : {row.eval_wall_s:>8.3f}s "
          f"({row.eval_wall_s / wall_s:.0%})")
    print(f"  simulator bookkeeping  : {overhead:>8.3f}s ({overhead / wall_s:.0%})")
    print(f"  kernel launches {row.kernel_launches}, "
          f"h2d {row.h2d_bytes} B, d2h {row.d2h_bytes} B, "
          f"sim elapsed {row.sim_elapsed_s * 1e3:.2f}ms")

    from repro.problems import cache_stats

    caches = cache_stats()
    total = caches["hits"] + caches["misses"]
    hit_rate = caches["hits"] / total if total else 0.0
    print(f"  fast-path caches: {caches['caches']} live, "
          f"{caches['entries']} entries, {caches['hits']} hits / "
          f"{caches['misses']} misses ({hit_rate:.0%} hit rate), "
          f"{caches['evictions']} evictions")

    for sort in ("cumulative", "tottime"):
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats(sort).print_stats(top)
        print(f"\n--- top {top} by {sort} ---")
        # Drop the pstats preamble; keep the table.
        lines = stream.getvalue().splitlines()
        table_start = next(
            (i for i, line in enumerate(lines) if line.lstrip().startswith("ncalls")), 0
        )
        print("\n".join(lines[table_start:]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=list(TRANSFER_MODES), default="delta")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--top", type=int, default=15,
                        help="functions to show per table")
    path = parser.add_mutually_exclusive_group()
    path.add_argument("--slow", action="store_true",
                      help="profile the reference PPP evaluation "
                           "(REPRO_EVAL_PATH=reference) instead of the fast path")
    path.add_argument("--recompute", action="store_true",
                      help="profile the full per-iteration recompute "
                           "(REPRO_EVAL_PATH=fast) instead of the "
                           "incremental gain-cache engine")
    args = parser.parse_args()
    if args.slow:
        os.environ["REPRO_EVAL_PATH"] = "reference"
    elif args.recompute:
        os.environ["REPRO_EVAL_PATH"] = "fast"
    profile_run(args.mode, args.trials, args.iterations, args.top)


if __name__ == "__main__":
    main()
