"""Index mappings between GPU thread ids and neighborhood moves.

This subpackage implements the paper's core technical contribution: the
transformations that let each GPU thread deduce, from its flat id alone,
which neighbor of the current solution it must evaluate (Section III and
Appendices A–D of the paper).
"""

from .base import MoveMapping, canonical_move, neighborhood_size
from .exact import ExactKHammingMapping, rank_combination, unrank_combination
from .newton import (
    minimal_k_tetrahedral,
    minimal_k_tetrahedral_batch,
    newton_cubic_root,
    newton_cubic_root_batch,
)
from .one_hamming import OneHammingMapping
from .three_hamming import ThreeHammingMapping, flat_to_triple, triple_to_flat
from .two_hamming import TwoHammingMapping, flat_to_pair, pair_to_flat
from .validation import check_against_exact, check_bijection, check_roundtrip

__all__ = [
    "MoveMapping",
    "canonical_move",
    "neighborhood_size",
    "ExactKHammingMapping",
    "rank_combination",
    "unrank_combination",
    "OneHammingMapping",
    "TwoHammingMapping",
    "ThreeHammingMapping",
    "pair_to_flat",
    "flat_to_pair",
    "triple_to_flat",
    "flat_to_triple",
    "newton_cubic_root",
    "newton_cubic_root_batch",
    "minimal_k_tetrahedral",
    "minimal_k_tetrahedral_batch",
    "check_roundtrip",
    "check_bijection",
    "check_against_exact",
    "mapping_for",
]


def mapping_for(n: int, k: int, **kwargs) -> MoveMapping:
    """Factory returning the most efficient mapping for a k-Hamming neighborhood.

    The paper's closed-form mappings are used for ``k in {1, 2, 3}``; larger
    Hamming distances fall back to the exact combinatorial mapping.
    """
    if k < 1:
        raise ValueError(f"Hamming order must be positive, got {k}")
    if k == 1:
        return OneHammingMapping(n)
    if k == 2:
        return TwoHammingMapping(n, **kwargs)
    if k == 3:
        return ThreeHammingMapping(n, **kwargs)
    return ExactKHammingMapping(n, k)
