"""Regeneration of Figure 8: GPU acceleration of the 1-Hamming kernel vs instance size.

The paper measures, for fifteen synthetic PPP instances from 101x117 up to
1501x1517, the execution time of 10 000 tabu-search iterations with the
1-Hamming neighborhood on the CPU and on the GPU, and plots both curves
(the acceleration factor grows from ~1.1x at 201x217 to ~10.8x at
1501x1517).

Reproducing the *functional* part of 10 000 iterations for every size in
pure Python is unnecessary: the per-iteration time is independent of the
search trajectory, so each point executes a small number of real iterations
(to exercise the code path end to end) and reports one priced step per
platform (:func:`~repro.core.evaluators.full_step_time` on a CPU and a GPU
evaluator) scaled to the nominal 10 000 iterations — exactly how the paper
itself extrapolates the 3-Hamming CPU times it could not afford to measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.evaluators import CPUEvaluator, GPUEvaluator, full_step_time
from ..localsearch.tabu import TabuSearch
from ..neighborhoods import OneHammingNeighborhood
from ..problems import PermutedPerceptronProblem
from ..problems.instances import PPPInstanceSpec, instance_seed
from .config import ExperimentScale, get_scale

__all__ = ["Figure8Point", "figure_eight", "PAPER_FIGURE8_REFERENCE"]

#: Approximate values read off the paper's Figure 8 (acceleration factors).
PAPER_FIGURE8_REFERENCE = {
    "201 x 217": 1.1,
    "1501 x 1517": 10.8,
}


@dataclass(frozen=True)
class Figure8Point:
    """One x-position of Figure 8."""

    instance: PPPInstanceSpec
    nominal_iterations: int
    executed_iterations: int
    cpu_time: float
    gpu_time: float
    final_fitness: float

    @property
    def label(self) -> str:
        return self.instance.label

    @property
    def acceleration(self) -> float:
        return self.cpu_time / self.gpu_time if self.gpu_time else float("inf")

    def as_dict(self) -> dict:
        return {
            "instance": self.label,
            "cpu_time_s": self.cpu_time,
            "gpu_time_s": self.gpu_time,
            "acceleration": self.acceleration,
            "nominal_iterations": self.nominal_iterations,
        }


def figure_eight(
    scale: str | ExperimentScale = "smoke",
    *,
    max_points: int | None = None,
) -> list[Figure8Point]:
    """Compute the CPU/GPU execution-time series of Figure 8.

    ``max_points`` truncates the instance sweep (useful for quick benches —
    the largest instances allocate matrices of ~1500 x 1500).
    """
    scale = get_scale(scale)
    points: list[Figure8Point] = []
    specs = scale.figure8_instances
    if max_points is not None:
        if max_points < 1:
            raise ValueError(f"max_points must be positive, got {max_points}")
        specs = specs[:max_points]
    for spec in specs:
        problem = PermutedPerceptronProblem.generate(
            spec.m, spec.n, rng=instance_seed(spec.m, spec.n)
        )
        neighborhood = OneHammingNeighborhood(problem.n)
        cpu_step = full_step_time(CPUEvaluator(problem, neighborhood))
        gpu_step = full_step_time(GPUEvaluator(problem, neighborhood))

        final_fitness = float("nan")
        executed = scale.figure8_executed_iterations
        if executed > 0:
            search = TabuSearch(
                CPUEvaluator(problem, neighborhood),
                max_iterations=executed,
                target_fitness=-1.0,  # run exactly `executed` iterations
            )
            result = search.run(rng=instance_seed(spec.m, spec.n, trial=1))
            final_fitness = result.best_fitness

        nominal = scale.figure8_nominal_iterations
        points.append(
            Figure8Point(
                instance=spec,
                nominal_iterations=nominal,
                executed_iterations=executed,
                cpu_time=cpu_step * nominal,
                gpu_time=gpu_step * nominal,
                final_fitness=final_fitness,
            )
        )
    return points
