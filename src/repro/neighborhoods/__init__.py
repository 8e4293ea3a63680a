"""Neighborhood structures for binary problems (paper Section II)."""

from .base import Neighborhood
from .hamming import (
    KHammingNeighborhood,
    OneHammingNeighborhood,
    ThreeHammingNeighborhood,
    TwoHammingNeighborhood,
)

__all__ = [
    "Neighborhood",
    "KHammingNeighborhood",
    "OneHammingNeighborhood",
    "TwoHammingNeighborhood",
    "ThreeHammingNeighborhood",
]
