#!/usr/bin/env python3
"""PPP cryptanalysis with growing neighborhoods (the paper's core experiment, in miniature).

The paper's central claim is that larger neighborhoods — affordable only on
the GPU — improve the quality of the attack on the Permuted Perceptron
Problem: more successful tries and better fitness within the same iteration
budget.  This example reproduces that comparison on a moderate instance and
prints a miniature version of Tables I–III.

Run with:  python examples/ppp_cryptanalysis.py [--m 41] [--n 41] [--trials 5]
"""

import argparse

import numpy as np

from repro import (
    CPUEvaluator,
    GPUEvaluator,
    KHammingNeighborhood,
    PermutedPerceptronProblem,
    TabuSearch,
)
from repro.core import full_step_time
from repro.harness import format_time, render_markdown_table


def attack(problem, order: int, trials: int, max_iterations: int):
    """Run `trials` independent tabu searches with a k-Hamming neighborhood."""
    neighborhood = KHammingNeighborhood(problem.n, order)
    evaluator = CPUEvaluator(problem, neighborhood)  # functionally identical to the GPU
    search = TabuSearch(evaluator, max_iterations=max_iterations)
    results = [search.run(rng=seed) for seed in range(trials)]
    cpu_step = full_step_time(CPUEvaluator(problem, neighborhood))
    gpu_step = full_step_time(GPUEvaluator(problem, neighborhood))
    mean_iters = float(np.mean([r.iterations for r in results]))
    return {
        "order": order,
        "size": neighborhood.size,
        "fitness_mean": float(np.mean([r.best_fitness for r in results])),
        "fitness_std": float(np.std([r.best_fitness for r in results])),
        "successes": sum(r.success for r in results),
        "iterations": mean_iters,
        "cpu_time": cpu_step * mean_iters,
        "gpu_time": gpu_step * mean_iters,
        "acceleration": cpu_step / gpu_step,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=41, help="number of PPP constraints (rows)")
    parser.add_argument("--n", type=int, default=41, help="secret length (columns)")
    parser.add_argument("--trials", type=int, default=5, help="independent tabu-search runs")
    parser.add_argument("--iterations", type=int, default=150, help="iteration cap per run")
    args = parser.parse_args()

    problem = PermutedPerceptronProblem.generate(args.m, args.n, rng=1)
    print(f"Attacking a {args.m} x {args.n} PPP instance "
          f"({args.trials} tabu-search runs per neighborhood, {args.iterations} iterations max)\n")

    rows = []
    for order in (1, 2, 3):
        stats = attack(problem, order, args.trials, args.iterations)
        rows.append([
            f"{order}-Hamming",
            f"{stats['size']}",
            f"{stats['fitness_mean']:.1f} (+/-{stats['fitness_std']:.1f})",
            f"{stats['successes']}/{args.trials}",
            f"{stats['iterations']:.0f}",
            format_time(stats["cpu_time"]),
            format_time(stats["gpu_time"]),
            f"x{stats['acceleration']:.1f}",
        ])

    print(render_markdown_table(
        ["Neighborhood", "|N|", "Fitness", "# solutions", "# iterations",
         "CPU time (model)", "GPU time (model)", "Acceleration"],
        rows,
    ))
    print(
        "\nReading: with the same iteration budget, the larger neighborhoods find more\n"
        "solutions (the paper's Tables I->III pattern), and only the GPU makes the\n"
        "3-Hamming structure affordable (last column)."
    )


if __name__ == "__main__":
    main()
