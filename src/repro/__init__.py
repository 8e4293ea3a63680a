"""repro — Large Neighborhood Local Search Optimization on (simulated) GPUs.

A from-scratch Python reproduction of Luong, Melab and Talbi,
"Large Neighborhood Local Search Optimization on Graphics Processing Units"
(LSPP workshop @ IPDPS, 2010).

The package is organised in layers:

* :mod:`repro.mappings` — thread-id <-> move index transformations
  (the paper's core technical contribution);
* :mod:`repro.neighborhoods` — 1/2/3-Hamming (and generic k) neighborhoods;
* :mod:`repro.problems` — the Permuted Perceptron Problem and auxiliary
  binary workloads;
* :mod:`repro.gpu` — the SPMD GPU execution simulator and timing model;
* :mod:`repro.core` — neighborhood-evaluation kernels, CPU/GPU/multi-GPU
  evaluators, move selection, per-iteration time estimates;
* :mod:`repro.localsearch` — tabu search, hill climbing, VNS;
* :mod:`repro.harness` — the experiment runner regenerating every table and
  figure of the paper's evaluation.
"""

from . import core, gpu, localsearch, mappings, neighborhoods, problems
from .core import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator, SequentialEvaluator
from .localsearch import HillClimbing, LSResult, TabuSearch
from .mappings import mapping_for
from .neighborhoods import KHammingNeighborhood
from .problems import PermutedPerceptronProblem

__version__ = "1.0.0"

__all__ = [
    "core",
    "gpu",
    "localsearch",
    "mappings",
    "neighborhoods",
    "problems",
    "CPUEvaluator",
    "GPUEvaluator",
    "MultiGPUEvaluator",
    "SequentialEvaluator",
    "TabuSearch",
    "HillClimbing",
    "LSResult",
    "KHammingNeighborhood",
    "PermutedPerceptronProblem",
    "mapping_for",
    "__version__",
]
