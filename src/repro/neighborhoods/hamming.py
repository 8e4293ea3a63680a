"""k-Hamming-distance neighborhoods (the three structures of the paper and beyond)."""

from __future__ import annotations

from ..mappings import MoveMapping, mapping_for
from .base import Neighborhood

__all__ = [
    "KHammingNeighborhood",
    "OneHammingNeighborhood",
    "TwoHammingNeighborhood",
    "ThreeHammingNeighborhood",
]


class KHammingNeighborhood(Neighborhood):
    """All solutions at Hamming distance exactly ``k`` from the current one.

    ``k = 1`` is the classic bit-flip neighborhood, ``k = 2`` the quadratic
    improvement and ``k = 3`` the "large neighborhood" whose exploration the
    paper makes practical on GPU.  Larger ``k`` falls back to the exact
    combinatorial mapping.
    """

    def __init__(self, n: int, k: int, *, float_sqrt: bool = False) -> None:
        if k <= 0:
            raise ValueError(f"Hamming order must be positive, got {k}")
        if k > n:
            raise ValueError(f"Hamming order {k} exceeds the solution length {n}")
        self.n = int(n)
        self._k = int(k)
        kwargs = {"float_sqrt": float_sqrt} if k in (2, 3) else {}
        self._mapping = mapping_for(n, k, **kwargs)

    @property
    def size(self) -> int:
        return self._mapping.size

    @property
    def order(self) -> int:
        return self._k

    @property
    def mapping(self) -> MoveMapping:
        return self._mapping


class OneHammingNeighborhood(KHammingNeighborhood):
    """Convenience alias for ``KHammingNeighborhood(n, 1)``."""

    def __init__(self, n: int) -> None:
        super().__init__(n, 1)


class TwoHammingNeighborhood(KHammingNeighborhood):
    """Convenience alias for ``KHammingNeighborhood(n, 2)``."""

    def __init__(self, n: int, *, float_sqrt: bool = False) -> None:
        super().__init__(n, 2, float_sqrt=float_sqrt)


class ThreeHammingNeighborhood(KHammingNeighborhood):
    """Convenience alias for ``KHammingNeighborhood(n, 3)``."""

    def __init__(self, n: int, *, float_sqrt: bool = False) -> None:
        super().__init__(n, 3, float_sqrt=float_sqrt)
