"""Registry of the PPP instance families used in the paper's evaluation.

Two families appear in the paper:

* **Tables I–III** use the four "popular instances of the literature"
  (Knudsen & Meier 1999): ``73x73``, ``81x81``, ``101x101`` and ``101x117``.
* **Figure 8** sweeps synthetic instances of growing size
  ``m x n = (100k+1) x (100k+17)`` for ``k = 1..15`` (i.e. ``101x117`` up to
  ``1501x1517``) to measure the GPU acceleration factor of the 1-Hamming
  kernel over 10 000 iterations.

The original cryptographic challenge matrices are not public; the paper
itself regenerates random instances of those dimensions (the identification
scheme draws them at random), so we do the same with a deterministic,
per-instance seed derived from the dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ppp import PermutedPerceptronProblem

__all__ = [
    "PPPInstanceSpec",
    "TABLE_INSTANCES",
    "FIGURE8_INSTANCES",
    "make_table_instance",
    "instance_seed",
]


@dataclass(frozen=True)
class PPPInstanceSpec:
    """Dimensions (and display label) of a PPP instance family member."""

    m: int
    n: int

    @property
    def label(self) -> str:
        return f"{self.m} x {self.n}"


#: The four literature instances of Tables I, II and III.
TABLE_INSTANCES: tuple[PPPInstanceSpec, ...] = (
    PPPInstanceSpec(73, 73),
    PPPInstanceSpec(81, 81),
    PPPInstanceSpec(101, 101),
    PPPInstanceSpec(101, 117),
)

#: The fifteen growing instances of Figure 8 (x-axis labels "101-117" ... "1501-1517").
FIGURE8_INSTANCES: tuple[PPPInstanceSpec, ...] = tuple(
    PPPInstanceSpec(100 * k + 1, 100 * k + 17) for k in range(1, 16)
)


def instance_seed(m: int, n: int, trial: int = 0) -> int:
    """Deterministic seed for instance/trial reproducibility across the harness."""
    return int(np.uint64(1_000_003) * np.uint64(m) + np.uint64(977) * np.uint64(n) + np.uint64(trial))


def make_table_instance(
    spec: PPPInstanceSpec | tuple[int, int],
    trial: int = 0,
) -> PermutedPerceptronProblem:
    """Instantiate one of the Table I–III instances with a planted secret."""
    if not isinstance(spec, PPPInstanceSpec):
        spec = PPPInstanceSpec(*spec)
    return PermutedPerceptronProblem.generate(spec.m, spec.n, rng=instance_seed(spec.m, spec.n, trial))

