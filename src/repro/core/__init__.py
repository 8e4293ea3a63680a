"""Parallel neighborhood evaluation engine (the paper's primary contribution).

This subpackage ties the mappings, neighborhoods and problems together with
the GPU execution substrate: kernels that evaluate one neighbor per thread,
evaluators for the CPU baseline / single GPU / multi-GPU platforms (with
the fused move-selection reduction) and the per-iteration timing estimates
that feed the reproduced tables.
"""

from .evaluators import (
    REDUCE_OPS,
    CPUEvaluator,
    EvaluatorStats,
    GPUEvaluator,
    MultiGPUEvaluator,
    NeighborhoodEvaluator,
    SequentialEvaluator,
)
from .kernels import build_neighborhood_kernel, kernel_cost_profile, mapping_flops
from .timing_estimates import IterationTimes, iteration_times, run_times

__all__ = [
    "NeighborhoodEvaluator",
    "SequentialEvaluator",
    "CPUEvaluator",
    "GPUEvaluator",
    "MultiGPUEvaluator",
    "EvaluatorStats",
    "REDUCE_OPS",
    "build_neighborhood_kernel",
    "kernel_cost_profile",
    "mapping_flops",
    "IterationTimes",
    "iteration_times",
    "run_times",
]
