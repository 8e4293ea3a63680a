"""Neighborhood structures for binary local search.

A *neighborhood* couples a move mapping (how flat indices translate to bit
flips) with the metadata local search algorithms and evaluators need: its
size, its Hamming order and how to materialise its moves.  The
paper's three structures are all instances of
:class:`~repro.neighborhoods.hamming.KHammingNeighborhood`.
"""

from __future__ import annotations

import abc
import functools
import numpy as np

from ..mappings import MoveMapping

__all__ = ["Neighborhood"]


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

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.n}, order={self.order}, size={self.size})"
