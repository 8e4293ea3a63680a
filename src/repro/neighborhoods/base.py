"""Neighborhood structures for binary local search.

A *neighborhood* couples a move mapping (how flat indices translate to bit
flips) with the metadata local search algorithms and evaluators need: its
size, its Hamming order and how to materialise or partition its moves.  The
paper's three structures are all instances of
:class:`~repro.neighborhoods.hamming.KHammingNeighborhood`.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np

from ..mappings import MoveMapping

__all__ = ["Neighborhood", "NeighborhoodSlice"]


@dataclass(frozen=True)
class NeighborhoodSlice:
    """A contiguous range of flat move indices (used for partitioned exploration)."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64)


class Neighborhood(abc.ABC):
    """Abstract neighborhood of a binary solution of length ``n``."""

    #: Length of the solutions this neighborhood applies to.
    n: int

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of neighbors of any solution (the paper's kernel thread count)."""

    @property
    @abc.abstractmethod
    def order(self) -> int:
        """Hamming distance between a solution and its neighbors."""

    @property
    @abc.abstractmethod
    def mapping(self) -> MoveMapping:
        """The flat-index <-> move mapping attached to this neighborhood."""

    # ------------------------------------------------------------------
    @functools.cached_property
    def move_table(self) -> np.ndarray:
        """The whole neighborhood's ``(size, k)`` moves, built on first use.

        Shared by the evaluation kernels and the lockstep runner's move
        decoding, and read-only so problems can cache per-table
        preprocessing keyed on its identity.
        """
        moves = self.mapping.all_moves()
        moves.setflags(write=False)
        return moves

    def moves(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Materialise the moves for ``indices`` (default: the whole neighborhood)."""
        if indices is None:
            return self.mapping.all_moves()
        return self.mapping.from_flat_batch(np.asarray(indices, dtype=np.int64))

    def partition(self, parts: int) -> list[NeighborhoodSlice]:
        """Split the flat index space into ``parts`` balanced contiguous slices.

        This is the decomposition the paper proposes for multi-GPU
        exploration (one slice per device).
        """
        if parts <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        base, extra = divmod(self.size, parts)
        slices = []
        start = 0
        for i in range(parts):
            size = base + (1 if i < extra else 0)
            slices.append(NeighborhoodSlice(start, start + size))
            start += size
        return slices

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.n}, order={self.order}, size={self.size})"
