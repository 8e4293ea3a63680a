#!/usr/bin/env python3
"""GPU acceleration vs problem size (the paper's Figure 8, as a script).

Sweeps PPP instances of growing size and prints the modeled CPU and GPU
execution times of 10 000 1-Hamming tabu-search iterations, locating the
crossover point where the GPU starts to pay off and the asymptotic speedup.

Run with:  python examples/neighborhood_scaling.py [--points 8] [--order 1]
"""

import argparse

from repro.core import CPUEvaluator, GPUEvaluator, full_step_time
from repro.harness import format_time, render_markdown_table
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import FIGURE8_INSTANCES, PermutedPerceptronProblem
from repro.problems.instances import instance_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8,
                        help="number of instance sizes to sweep (max 15)")
    parser.add_argument("--order", type=int, default=1, choices=(1, 2, 3),
                        help="Hamming order of the neighborhood")
    parser.add_argument("--iterations", type=int, default=10_000,
                        help="number of LS iterations the reported times cover")
    args = parser.parse_args()

    rows = []
    crossover = None
    for spec in FIGURE8_INSTANCES[: args.points]:
        problem = PermutedPerceptronProblem.generate(spec.m, spec.n,
                                                     rng=instance_seed(spec.m, spec.n))
        neighborhood = KHammingNeighborhood(problem.n, args.order)
        cpu = full_step_time(CPUEvaluator(problem, neighborhood)) * args.iterations
        gpu = full_step_time(GPUEvaluator(problem, neighborhood)) * args.iterations
        if crossover is None and gpu < cpu:
            crossover = spec.label
        rows.append([spec.label, f"{neighborhood.size}", format_time(cpu), format_time(gpu),
                     f"x{cpu / gpu:.1f}"])

    print(f"{args.order}-Hamming neighborhood, {args.iterations} iterations "
          f"(modeled times, GTX 280 vs single-core Xeon)\n")
    print(render_markdown_table(
        ["Problem size", "|N| (threads)", "CPU time", "GPU time", "Acceleration"], rows))
    if crossover:
        print(f"\nGPU becomes faster than the CPU at instance size {crossover} "
              "(the paper locates this crossover around 201 x 217 for the 1-Hamming kernel).")
    else:
        print("\nThe GPU never overtakes the CPU in this sweep "
              "(expected for very small instances / the 1-Hamming neighborhood).")


if __name__ == "__main__":
    main()
