"""Neighborhood-evaluation kernels (the paper's ``MoveIncrEvalKernel``).

The paper's Figs. 7, 9 and 10 show one CUDA kernel per neighborhood: every
thread derives its move from its global id (identity, closed form with a
square root, or Newton–Raphson respectively), evaluates the corresponding
neighbor and writes the fitness into a global array indexed by the thread
id.  :func:`build_neighborhood_kernel` produces the simulator equivalent for
*any* binary problem and *any* k-Hamming neighborhood: the per-thread body
is a literal transcription of the paper's kernels, the vectorized body is
the NumPy batch equivalent used for fast execution.

The batch kernel takes an optional trailing ``scores`` argument:
fitnesses the caller already computed.  The GPU evaluators score a whole
step in one host call and hand each device its slice; the device's launch
is still priced as the evaluation kernel but only lands that slice in its
output buffer.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..gpu.kernel import Kernel, ThreadContext
from ..gpu.timing import KernelCostProfile
from ..neighborhoods import Neighborhood
from ..problems import BinaryProblem

__all__ = [
    "build_neighborhood_kernel",
    "build_batch_neighborhood_kernel",
    "mapping_flops",
    "kernel_cost_profile",
]

#: Approximate arithmetic cost of the thread-id -> move transformation, per
#: thread, by Hamming order: the identity, the closed form with one square
#: root (paper Appendix B), and the Newton–Raphson iteration plus a square
#: root (paper Appendix C / Algorithm 1).
_MAPPING_FLOPS = {1: 2.0, 2: 25.0, 3: 90.0}


def mapping_flops(order: int) -> float:
    """Per-thread cost of the one-to-k index transformation."""
    return _MAPPING_FLOPS.get(order, 40.0 * order)


def kernel_cost_profile(
    problem: BinaryProblem, order: int, *, use_texture: bool = False
) -> KernelCostProfile:
    """Per-thread cost of evaluating one neighbor of ``problem`` at Hamming order ``order``.

    With ``use_texture=True`` the read-only instance data (as declared by the
    problem's ``texture_bytes`` cost entry) is served through the texture
    cache instead of plain global memory — the optimisation behind the
    "GPUTexture" curve of the paper's Figure 8.
    """
    cost = problem.cost_profile(order)
    total_bytes = cost["bytes"]
    texture_bytes = 0.0
    if use_texture:
        texture_bytes = min(float(cost.get("texture_bytes", 0.0)), total_bytes)
    return KernelCostProfile(
        flops=cost["flops"] + mapping_flops(order),
        gmem_bytes=total_bytes - texture_bytes + 4.0,  # + the fitness write
        texture_bytes=texture_bytes,
        registers=24,
    )


def build_neighborhood_kernel(
    problem: BinaryProblem,
    neighborhood: Neighborhood,
    *,
    use_texture: bool = False,
) -> Kernel:
    """Create the evaluation kernel for ``problem`` explored with ``neighborhood``.

    The kernel signature (its ``args`` tuple at launch time) is
    ``(solution, fitnesses)``:

    * ``solution`` — the current candidate, a length-``n`` 0/1 vector living
      in (simulated) global memory;
    * ``fitnesses`` — the output array of ``neighborhood.size`` fitness
      values, one slot per thread.

    A launch covers the whole neighborhood.
    """
    mapping = neighborhood.mapping
    size = neighborhood.size

    def thread_fn(ctx: ThreadContext, solution, fitnesses) -> None:
        # Literal transcription of the paper's kernels:
        #   int move_index = blockIdx.x * blockDim.x + threadIdx.x;
        #   if (move_index < N) {
        #       <one-to-k index transformation>
        #       new_fitness[move_index] = compute_fitness(V, move...);
        #   }
        move_index = ctx.global_id
        if move_index < size:
            move = mapping.from_flat(move_index)
            fitnesses[move_index] = problem.delta_evaluate(solution, move)

    def vectorized_fn(tids: np.ndarray, solution, fitnesses) -> None:
        fitnesses[:size] = problem.evaluate_neighborhood(solution, neighborhood.move_table)

    return Kernel(
        name=f"MoveIncrEvalKernel<{problem.name},{neighborhood.order}-Hamming>",
        thread_fn=thread_fn,
        vectorized_fn=vectorized_fn,
        cost=kernel_cost_profile(problem, neighborhood.order, use_texture=use_texture),
    )


def build_batch_neighborhood_kernel(
    problem: BinaryProblem,
    neighborhood: Neighborhood,
    *,
    use_texture: bool = False,
) -> Kernel:
    """Solution-parallel generalization of the paper's evaluation kernel.

    One thread per (replica, neighbor) pair over a logical ``(S, M)`` work
    shape: thread ``t`` evaluates neighbor ``t % M`` of solution ``t // M``.
    The kernel's ``args`` tuple is ``(solutions, fitnesses[, scores])``
    where ``solutions`` is the ``(S, n)`` block of current candidates,
    ``fitnesses`` a flat array of ``S * M`` output slots and ``scores``
    optional precomputed fitnesses (see the module docstring).  A launch
    covers whole ``(S, M)`` blocks.  The per-thread
    cost profile is identical to the single-solution kernel — batching
    multiplies the thread count, not the per-thread work — which is exactly
    why the launch amortizes its fixed overhead over ``S`` replicas.
    """
    mapping = neighborhood.mapping
    size = neighborhood.size

    def thread_fn(ctx: ThreadContext, solutions, fitnesses, scores=None) -> None:
        # The paper's kernel with a second logical axis:
        #   int tid = blockIdx.x * blockDim.x + threadIdx.x;
        #   int replica = tid / M, move_index = tid % M;
        #   if (replica < S) new_fitness[tid] = compute_fitness(V[replica], move...);
        tid = ctx.global_id
        if scores is not None:
            if tid < scores.size:
                fitnesses[tid] = scores.flat[tid]
            return
        replica, move_index = divmod(tid, size)
        if replica < solutions.shape[0]:
            move = mapping.from_flat(move_index)
            fitnesses[tid] = problem.delta_evaluate(solutions[replica], move)

    # Launch-invariant: whether the problem's batch evaluation can write
    # output in place.
    accepts_out = "out" in inspect.signature(problem.evaluate_neighborhood_batch).parameters

    def vectorized_fn(tids: np.ndarray, solutions, fitnesses, scores=None) -> None:
        if scores is not None:
            fitnesses[: tids.size] = scores.reshape(-1)
            return
        num_solutions = solutions.shape[0]
        total = num_solutions * size
        # One broadcast delta evaluation over all replicas.  The launcher
        # hands us the contiguous id range 0..S*M-1, so the scores land in
        # the output buffer without an S*M fancy-index scatter.
        view = fitnesses[:total].reshape(num_solutions, size)
        if accepts_out and view.flags.c_contiguous:
            problem.evaluate_neighborhood_batch(solutions, neighborhood.move_table, out=view)
        else:
            view[...] = problem.evaluate_neighborhood_batch(solutions, neighborhood.move_table)

    return Kernel(
        name=f"BatchMoveIncrEvalKernel<{problem.name},{neighborhood.order}-Hamming>",
        thread_fn=thread_fn,
        vectorized_fn=vectorized_fn,
        cost=kernel_cost_profile(problem, neighborhood.order, use_texture=use_texture),
    )
