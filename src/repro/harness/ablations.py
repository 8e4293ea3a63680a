"""Ablation studies of the paper's design choices (Section III-A, Figure 8, Section V).

Each function sweeps one modelling/implementation knob and returns a list of
labelled measurements, so the effect of every choice the paper (or this
reproduction) makes can be quantified.  Every point prices one ``full`` step
(:func:`~repro.core.evaluators.full_step_time`) on evaluators built with the
knob it varies:

* thread-block size — the occupancy trade-off of Section III-A;
* texture binding of the instance data — the "GPUTexture" curve of Figure 8;
* device generation — GTX 280 vs the G80 the paper contrasts it with;
* number of devices — the multi-GPU perspective of Section V;
* number of CPU cores — how much of the GPU advantage a multi-core CPU
  baseline would claw back (a question the paper leaves open).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.evaluators import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator, full_step_time
from ..gpu.device import GTX_280, GTX_8800, TESLA_C1060, DeviceSpec
from ..neighborhoods import KHammingNeighborhood
from ..problems import PermutedPerceptronProblem

__all__ = [
    "AblationPoint",
    "block_size_ablation",
    "texture_ablation",
    "device_ablation",
    "multi_gpu_ablation",
    "cpu_cores_ablation",
]


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation sweep and its modeled iteration time."""

    label: str
    gpu_time: float
    cpu_time: float

    @property
    def speedup(self) -> float:
        return self.cpu_time / self.gpu_time if self.gpu_time else float("inf")


def _default_problem(order: int) -> tuple[PermutedPerceptronProblem, KHammingNeighborhood]:
    problem = PermutedPerceptronProblem.generate(101, 117, rng=0)
    return problem, KHammingNeighborhood(problem.n, order)


def _gpu_sweep(order: int, knobs, evaluator=GPUEvaluator) -> list[AblationPoint]:
    """One CPU step, and one GPU step per ``(label, evaluator kwargs)`` of ``knobs``."""
    problem, neighborhood = _default_problem(order)
    cpu_time = full_step_time(CPUEvaluator(problem, neighborhood))
    return [
        AblationPoint(label, full_step_time(evaluator(problem, neighborhood, **kw)), cpu_time)
        for label, kw in knobs
    ]


def block_size_ablation(
    order: int = 2,
    block_sizes: tuple[int, ...] = (32, 64, 128, 256, 512),
) -> list[AblationPoint]:
    """Modeled iteration time as a function of the threads-per-block choice."""
    return _gpu_sweep(order, [(f"block={block}", {"block_size": block}) for block in block_sizes])


def texture_ablation(orders: tuple[int, ...] = (1, 2, 3)) -> list[AblationPoint]:
    """Plain global-memory reads vs binding the instance matrix to a texture."""
    return [
        point
        for order in orders
        for point in _gpu_sweep(order, [
            (f"{order}-Hamming/global", {"use_texture_memory": False}),
            (f"{order}-Hamming/texture", {"use_texture_memory": True}),
        ])
    ]


def device_ablation(
    order: int = 2,
    devices: tuple[DeviceSpec, ...] = (GTX_8800, TESLA_C1060, GTX_280),
) -> list[AblationPoint]:
    """Modeled iteration time across device generations (G80 vs GT200)."""
    return _gpu_sweep(order, [(device.name, {"device": device}) for device in devices])


def multi_gpu_ablation(
    order: int = 3,
    device_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> list[AblationPoint]:
    """Simulated per-iteration time of the partitioned multi-GPU exploration."""
    return _gpu_sweep(
        order, [(f"{count} GPU(s)", {"devices": count}) for count in device_counts],
        MultiGPUEvaluator,
    )


def cpu_cores_ablation(
    order: int = 3,
    core_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> list[AblationPoint]:
    """How a multi-core CPU baseline would narrow the gap (paper uses one core)."""
    problem, neighborhood = _default_problem(order)
    gpu_time = full_step_time(GPUEvaluator(problem, neighborhood))
    return [
        AblationPoint(
            f"{cores} core(s)",
            gpu_time,
            full_step_time(CPUEvaluator(problem, neighborhood, cores=cores)),
        )
        for cores in core_counts
    ]
