#!/usr/bin/env python3
"""Quickstart: crack a small Permuted Perceptron instance on the simulated GPU.

This is the 60-second tour of the library:

1. generate a PPP instance (the paper's cryptographic workload),
2. pick a neighborhood (here the 2-Hamming structure, whose thread mapping
   uses the closed form of the paper's Appendix A/B),
3. build a GPU evaluator (one simulated thread per neighbor),
4. run the paper's tabu search, and
5. inspect the result and the simulated device activity.

Run with:  python examples/quickstart.py
"""

from repro import GPUEvaluator, KHammingNeighborhood, PermutedPerceptronProblem, TabuSearch
from repro.core import CPUEvaluator, full_step_time
from repro.harness import format_time


def main() -> None:
    # 1. A random 41 x 41 instance with a planted secret (fitness 0 exists).
    problem = PermutedPerceptronProblem.generate(m=41, n=41, rng=2024)
    print(f"Problem: {problem!r} — secret fitness = {problem.evaluate(problem.secret)}")

    # 2. The 2-Hamming neighborhood: flip two bits, n(n-1)/2 = 820 neighbors.
    neighborhood = KHammingNeighborhood(problem.n, k=2)
    print(f"Neighborhood: {neighborhood!r}")

    # 3. One simulated GTX 280; every neighbor is evaluated by its own thread.
    evaluator = GPUEvaluator(problem, neighborhood)

    # 4. The paper's tabu search: tenure |N|/6, stop at fitness 0 or the
    #    iteration cap.
    search = TabuSearch(evaluator, max_iterations=2_000, track_history=True)
    result = search.run(rng=7)

    # 5. Results + simulated device activity.
    print(f"\n{result.summary()}")
    print(f"Initial fitness      : {result.initial_fitness:g}")
    print(f"Best fitness         : {result.best_fitness:g}")
    print(f"Iterations           : {result.iterations}")
    print(f"Neighbor evaluations : {result.evaluations}")
    print(f"Simulated GPU time   : {format_time(result.simulated_time)}")

    stats = evaluator.context.stats
    print(f"Kernel launches      : {stats.kernel_launches}")
    print(f"Simulated kernel time: {format_time(stats.kernel_time)}")
    print(f"Simulated transfers  : {format_time(stats.transfer_time)}")

    # One full step of one solution, priced on each platform.
    cpu_step = full_step_time(CPUEvaluator(problem, neighborhood))
    gpu_step = full_step_time(GPUEvaluator(problem, neighborhood))
    print(
        f"Modeled acceleration vs single-core CPU: x{cpu_step / gpu_step:.1f} "
        f"({format_time(cpu_step)} -> {format_time(gpu_step)} per iteration)"
    )


if __name__ == "__main__":
    main()
