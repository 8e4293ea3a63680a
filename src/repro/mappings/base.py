"""Common interface for neighborhood index mappings.

The central technical device of the paper is a pair of transformations
between the *flat* index space ``{0, ..., |N| - 1}`` (the GPU thread id
space) and the *move* space of a neighborhood (the indexes of the bits
flipped to obtain a neighbor).  Every mapping in this package implements
:class:`MoveMapping`:

* ``to_flat`` / ``to_flat_batch``   — move ``(i_1 < i_2 < ... < i_k)`` → flat id
  (the paper's *k*-to-one transformation),
* ``from_flat`` / ``from_flat_batch`` — flat id → move
  (the paper's one-to-*k* transformation executed by every GPU thread).

Moves are always canonicalised as strictly increasing tuples of bit
positions; the flat ordering is the lexicographic order of those tuples,
which is exactly the ordering induced by the paper's 2D/3D abstractions
(Appendices A–D).
"""

from __future__ import annotations

import abc
import functools
from math import comb
from typing import Iterable, Sequence

import numpy as np

__all__ = ["MoveMapping", "neighborhood_size", "canonical_move"]


def neighborhood_size(n: int, k: int) -> int:
    """Number of neighbors of a binary vector of length ``n`` at Hamming distance ``k``.

    This is the binomial coefficient ``C(n, k)``; for the three structures
    studied in the paper it reduces to the closed forms quoted there:
    ``n``, ``n(n-1)/2`` and ``n(n-1)(n-2)/6``.
    """
    if n < 0:
        raise ValueError(f"vector length must be non-negative, got {n}")
    if k < 0:
        raise ValueError(f"Hamming distance must be non-negative, got {k}")
    return comb(n, k)


def canonical_move(move: Iterable[int]) -> tuple[int, ...]:
    """Return ``move`` as a strictly increasing tuple, validating uniqueness."""
    t = tuple(sorted(int(i) for i in move))
    if len(set(t)) != len(t):
        raise ValueError(f"move contains repeated indexes: {move!r}")
    return t


class MoveMapping(abc.ABC):
    """Bijection between flat thread ids and k-bit-flip moves.

    Parameters
    ----------
    n:
        Length of the binary solution vector.

    Notes
    -----
    Concrete subclasses fix the Hamming distance ``k`` (class attribute) and
    provide scalar and vectorized implementations of the two directions.
    The scalar versions mirror the per-thread arithmetic of the paper's CUDA
    kernels; the batch versions are the NumPy equivalents used by the
    vectorized evaluators.
    """

    #: Hamming distance of the moves handled by this mapping.
    k: int = 0

    def __init__(self, n: int) -> None:
        if n < self.k:
            raise ValueError(
                f"vector length n={n} is too small for a {self.k}-Hamming neighborhood"
            )
        self.n = int(n)

    # ------------------------------------------------------------------
    # Required interface
    # ------------------------------------------------------------------
    @functools.cached_property
    def size(self) -> int:
        """Number of moves (equivalently, number of GPU threads to launch)."""
        return neighborhood_size(self.n, self.k)

    @abc.abstractmethod
    def to_flat(self, move: Sequence[int]) -> int:
        """Map a move (ascending bit positions) to its flat index."""

    @abc.abstractmethod
    def from_flat(self, index: int) -> tuple[int, ...]:
        """Map a flat index to the corresponding move (ascending bit positions)."""

    # ------------------------------------------------------------------
    # Batch interface (default: loop over the scalar versions)
    # ------------------------------------------------------------------
    def to_flat_batch(self, moves: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_flat` over an ``(m, k)`` integer array."""
        moves = np.asarray(moves, dtype=np.int64)
        if moves.ndim != 2 or moves.shape[1] != self.k:
            raise ValueError(f"expected an (m, {self.k}) array, got shape {moves.shape}")
        return np.array([self.to_flat(tuple(row)) for row in moves], dtype=np.int64)

    def from_flat_batch(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`from_flat` over a 1-D integer array of flat ids."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        out = np.empty((indices.size, self.k), dtype=np.int64)
        for row, idx in enumerate(indices):
            out[row] = self.from_flat(int(idx))
        return out

    # ------------------------------------------------------------------
    # Convenience helpers
    # ------------------------------------------------------------------
    def all_moves(self) -> np.ndarray:
        """Materialize the full neighborhood as an ``(size, k)`` array of moves."""
        return self.from_flat_batch(np.arange(self.size, dtype=np.int64))

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.size:
            raise IndexError(
                f"flat index {index} out of range for neighborhood of size {self.size}"
            )
        return index

    def _check_move(self, move: Sequence[int]) -> tuple[int, ...]:
        t = canonical_move(move)
        if len(t) != self.k:
            raise ValueError(f"expected a {self.k}-index move, got {move!r}")
        if t and (t[0] < 0 or t[-1] >= self.n):
            raise ValueError(f"move {move!r} out of range for n={self.n}")
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self.n}, size={self.size})"
