"""Parallel neighborhood evaluation engine (the paper's primary contribution).

This subpackage ties the mappings, neighborhoods and problems together with
the GPU execution substrate: kernels that evaluate one neighbor per thread,
evaluators for the CPU baseline / single GPU / multi-GPU platforms (with
the fused move-selection reduction) and ``full_step_time``, the one-step
probe that prices the reproduced tables' CPU and GPU columns.
"""

from .evaluators import (
    REDUCE_OPS,
    CPUEvaluator,
    EvaluatorStats,
    GPUEvaluator,
    MultiGPUEvaluator,
    NeighborhoodEvaluator,
    SequentialEvaluator,
    full_step_time,
)
from .kernels import kernel_cost_profile, mapping_flops

__all__ = [
    "NeighborhoodEvaluator",
    "SequentialEvaluator",
    "CPUEvaluator",
    "GPUEvaluator",
    "MultiGPUEvaluator",
    "EvaluatorStats",
    "REDUCE_OPS",
    "kernel_cost_profile",
    "mapping_flops",
    "full_step_time",
]
