"""Local search algorithms built on the parallel neighborhood evaluators."""

from .hill_climbing import FirstImprovementHillClimbing, HillClimbing
from .iterated import VariableNeighborhoodSearch
from .multistart import (
    REDUCED_SELECTION_MODES,
    TRANSFER_MODES,
    MultiStartResult,
    MultiStartRunner,
)
from .result import LSResult
from .tabu import TabuSearch

__all__ = [
    "TRANSFER_MODES",
    "REDUCED_SELECTION_MODES",
    "HillClimbing",
    "FirstImprovementHillClimbing",
    "TabuSearch",
    "VariableNeighborhoodSearch",
    "LSResult",
    "MultiStartRunner",
    "MultiStartResult",
]
