"""Checks for neighborhood index mappings, shared by the mapping tests.

The correctness of the whole GPU exploration scheme hinges on the mappings
being true bijections between ``{0, ..., |N|-1}`` and the set of canonical
moves.
"""

from __future__ import annotations

import numpy as np

from repro.mappings import ExactKHammingMapping, MoveMapping

__all__ = [
    "check_roundtrip",
    "check_bijection",
    "check_against_exact",
]


def check_roundtrip(mapping: MoveMapping, indices: np.ndarray | None = None) -> bool:
    """Verify ``to_flat(from_flat(i)) == i`` for the given flat indices.

    Raises ``AssertionError`` with a diagnostic message on the first failure
    and returns ``True`` otherwise.  When ``indices`` is ``None`` the whole
    index space is checked (only do this for small neighborhoods).
    """
    if indices is None:
        indices = np.arange(mapping.size, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64).ravel()
    moves = mapping.from_flat_batch(indices)
    back = mapping.to_flat_batch(moves)
    bad = np.nonzero(back != indices)[0]
    if bad.size:
        first = int(bad[0])
        raise AssertionError(
            f"roundtrip failed for flat index {indices[first]}: "
            f"from_flat -> {tuple(moves[first])}, to_flat -> {back[first]}"
        )
    return True


def check_bijection(mapping: MoveMapping) -> bool:
    """Exhaustively verify that ``from_flat`` enumerates each move exactly once."""
    moves = mapping.from_flat_batch(np.arange(mapping.size, dtype=np.int64))
    # Moves must be strictly increasing tuples within range.
    if moves.size:
        if moves.min() < 0 or moves.max() >= mapping.n:
            raise AssertionError("a generated move is out of range")
        if mapping.k > 1 and not np.all(np.diff(moves, axis=1) > 0):
            raise AssertionError("a generated move is not strictly increasing")
    as_tuples = {tuple(int(v) for v in row) for row in moves}
    if len(as_tuples) != mapping.size:
        raise AssertionError(
            f"from_flat is not injective: {mapping.size - len(as_tuples)} duplicate moves"
        )
    return True


def check_against_exact(mapping: MoveMapping, indices: np.ndarray | None = None) -> bool:
    """Compare a mapping against the exact combinatorial reference ordering."""
    reference = ExactKHammingMapping(mapping.n, mapping.k)
    if indices is None:
        indices = np.arange(mapping.size, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64).ravel()
    got = mapping.from_flat_batch(indices)
    expected = reference.from_flat_batch(indices)
    if not np.array_equal(got, expected):
        bad = np.nonzero(np.any(got != expected, axis=1))[0][0]
        raise AssertionError(
            f"mapping disagrees with exact reference at flat index {indices[bad]}: "
            f"got {tuple(got[bad])}, expected {tuple(expected[bad])}"
        )
    return True
