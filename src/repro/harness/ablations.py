"""Ablation studies of the design choices called out in DESIGN.md.

Each function sweeps one modelling/implementation knob and returns a list of
labelled measurements, so the effect of every choice the paper (or this
reproduction) makes can be quantified:

* thread-block size — the occupancy trade-off of Section III-A;
* texture binding of the instance data — the "GPUTexture" curve of Figure 8;
* device generation — GTX 280 vs the G80 the paper contrasts it with;
* number of devices — the multi-GPU perspective of Section V;
* number of CPU cores — how much of the GPU advantage a multi-core CPU
  baseline would claw back (a question the paper leaves open).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.evaluators import MultiGPUEvaluator
from ..core.timing_estimates import iteration_times
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


def block_size_ablation(
    order: int = 2,
    block_sizes: tuple[int, ...] = (32, 64, 128, 256, 512),
) -> list[AblationPoint]:
    """Modeled iteration time as a function of the threads-per-block choice."""
    problem, neighborhood = _default_problem(order)
    points = []
    for block in block_sizes:
        t = iteration_times(problem, neighborhood, block_size=block)
        points.append(AblationPoint(label=f"block={block}", gpu_time=t.gpu_time, cpu_time=t.cpu_time))
    return points


def texture_ablation(orders: tuple[int, ...] = (1, 2, 3)) -> list[AblationPoint]:
    """Plain global-memory reads vs binding the instance matrix to a texture."""
    points = []
    for order in orders:
        problem, neighborhood = _default_problem(order)
        plain = iteration_times(problem, neighborhood, use_texture=False)
        tex = iteration_times(problem, neighborhood, use_texture=True)
        points.append(AblationPoint(f"{order}-Hamming/global", plain.gpu_time, plain.cpu_time))
        points.append(AblationPoint(f"{order}-Hamming/texture", tex.gpu_time, tex.cpu_time))
    return points


def device_ablation(
    order: int = 2,
    devices: tuple[DeviceSpec, ...] = (GTX_8800, TESLA_C1060, GTX_280),
) -> list[AblationPoint]:
    """Modeled iteration time across device generations (G80 vs GT200)."""
    problem, neighborhood = _default_problem(order)
    points = []
    for device in devices:
        t = iteration_times(problem, neighborhood, device=device)
        points.append(AblationPoint(label=device.name, gpu_time=t.gpu_time, cpu_time=t.cpu_time))
    return points


def multi_gpu_ablation(
    order: int = 3,
    device_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> list[AblationPoint]:
    """Simulated per-iteration time of the partitioned multi-GPU exploration."""
    problem, neighborhood = _default_problem(order)
    solution = problem.random_solution(0)
    cpu_time = iteration_times(problem, neighborhood).cpu_time
    points = []
    for count in device_counts:
        evaluator = MultiGPUEvaluator(problem, neighborhood, devices=count)
        evaluator.evaluate(solution)
        points.append(
            AblationPoint(label=f"{count} GPU(s)", gpu_time=evaluator.stats.simulated_time,
                          cpu_time=cpu_time)
        )
    return points


def cpu_cores_ablation(
    order: int = 3,
    core_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> list[AblationPoint]:
    """How a multi-core CPU baseline would narrow the gap (paper uses one core)."""
    problem, neighborhood = _default_problem(order)
    gpu_time = iteration_times(problem, neighborhood).gpu_time
    points = []
    for cores in core_counts:
        t = iteration_times(problem, neighborhood, cpu_cores=cores)
        points.append(AblationPoint(label=f"{cores} core(s)", gpu_time=gpu_time, cpu_time=t.cpu_time))
    return points
