"""Binary optimization problems used as workloads for the neighborhood kernels."""

from .base import BinaryProblem, as_solution, flip_bits
from .fastpath import cache_stats, clear_fast_caches
from .incremental import (
    GainEngine,
    attach_gain_engine,
    create_gain_engine,
    detach_gain_engine,
    incremental_enabled,
)
from .instances import (
    FIGURE8_INSTANCES,
    TABLE_INSTANCES,
    PPPInstanceSpec,
    instance_seed,
    make_table_instance,
)
from .maxsat import MaxSat, generate_random_ksat
from .onemax import LeadingOnes, OneMax
from .ppp import PermutedPerceptronProblem, generate_ppp_instance
from .ubqp import UBQP

__all__ = [
    "BinaryProblem",
    "GainEngine",
    "as_solution",
    "attach_gain_engine",
    "cache_stats",
    "clear_fast_caches",
    "create_gain_engine",
    "detach_gain_engine",
    "flip_bits",
    "incremental_enabled",
    "PermutedPerceptronProblem",
    "generate_ppp_instance",
    "OneMax",
    "LeadingOnes",
    "MaxSat",
    "generate_random_ksat",
    "UBQP",
    "PPPInstanceSpec",
    "TABLE_INSTANCES",
    "FIGURE8_INSTANCES",
    "make_table_instance",
    "instance_seed",
]
