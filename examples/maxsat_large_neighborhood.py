#!/usr/bin/env python3
"""Large-neighborhood tabu search on random Max-3SAT.

The paper's methodology is problem-agnostic: any binary problem can plug its
fitness function into the neighborhood kernels.  This example applies the
same machinery to random Max-3SAT and compares hill climbing and tabu search
with 1- and 2-Hamming neighborhoods, plus a variable neighborhood search
that uses all of them.

Run with:  python examples/maxsat_large_neighborhood.py [--vars 60] [--clauses 260]
"""

import argparse

import numpy as np

from repro.core import CPUEvaluator, GPUEvaluator, full_step_time
from repro.harness import render_markdown_table
from repro.localsearch import HillClimbing, TabuSearch, VariableNeighborhoodSearch
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import MaxSat


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vars", type=int, default=60, help="number of boolean variables")
    parser.add_argument("--clauses", type=int, default=260, help="number of 3-SAT clauses")
    parser.add_argument("--trials", type=int, default=3, help="runs per configuration")
    parser.add_argument("--iterations", type=int, default=120, help="iteration cap per run")
    args = parser.parse_args()

    problem = MaxSat.random(args.vars, args.clauses, k=3, rng=11)
    print(f"Random Max-3SAT: {args.vars} variables, {args.clauses} clauses "
          f"(clause/variable ratio {args.clauses / args.vars:.2f})\n")

    rows = []

    def record(label, results, neighborhood=None):
        fitnesses = [r.best_fitness for r in results]
        gpu_note = "-"
        if neighborhood is not None:
            cpu_step = full_step_time(CPUEvaluator(problem, neighborhood))
            gpu_note = f"x{cpu_step / full_step_time(GPUEvaluator(problem, neighborhood)):.1f}"
        rows.append([
            label,
            f"{np.mean(fitnesses):.1f}",
            f"{np.min(fitnesses):.0f}",
            f"{np.mean([r.iterations for r in results]):.0f}",
            gpu_note,
        ])

    for order in (1, 2):
        neighborhood = KHammingNeighborhood(problem.n, order)
        hc = HillClimbing(CPUEvaluator(problem, neighborhood), max_iterations=args.iterations)
        record(f"hill climbing, {order}-Hamming",
               [hc.run(rng=s) for s in range(args.trials)], neighborhood)
        ts = TabuSearch(GPUEvaluator(problem, neighborhood), max_iterations=args.iterations)
        record(f"tabu search, {order}-Hamming",
               [ts.run(rng=s) for s in range(args.trials)], neighborhood)

    vns = VariableNeighborhoodSearch(problem, max_order=2, max_rounds=6,
                                     max_iterations_per_descent=args.iterations)
    record("variable neighborhood search (1..2)", [vns.run(rng=s) for s in range(args.trials)])

    print(render_markdown_table(
        ["Algorithm", "Mean unsatisfied", "Best", "Mean iterations", "Modeled GPU speedup"],
        rows))
    print("\nUnsatisfied-clause counts: lower is better; 0 means a satisfying assignment.")


if __name__ == "__main__":
    main()
