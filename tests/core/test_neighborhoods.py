"""Tests for the k-Hamming neighborhood structures."""

import numpy as np
import pytest

from repro.gpu import partition_range
from repro.neighborhoods import (
    KHammingNeighborhood,
    OneHammingNeighborhood,
    ThreeHammingNeighborhood,
    TwoHammingNeighborhood,
)


class TestSizes:
    def test_paper_size_formulas(self):
        n = 117
        assert OneHammingNeighborhood(n).size == n
        assert TwoHammingNeighborhood(n).size == n * (n - 1) // 2
        assert ThreeHammingNeighborhood(n).size == n * (n - 1) * (n - 2) // 6

    def test_len_matches_size(self):
        nb = TwoHammingNeighborhood(10)
        assert len(nb) == nb.size == 45

    def test_order_property(self):
        assert OneHammingNeighborhood(10).order == 1
        assert TwoHammingNeighborhood(10).order == 2
        assert ThreeHammingNeighborhood(10).order == 3
        assert KHammingNeighborhood(10, 4).order == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KHammingNeighborhood(10, 0)
        with pytest.raises(ValueError):
            KHammingNeighborhood(3, 4)


class TestMoves:
    def test_all_moves_shape_and_uniqueness(self):
        nb = TwoHammingNeighborhood(9)
        moves = nb.moves()
        assert moves.shape == (nb.size, 2)
        assert len({tuple(m) for m in moves}) == nb.size

    def test_subset_moves(self):
        nb = ThreeHammingNeighborhood(11)
        idx = np.array([0, 5, nb.size - 1])
        moves = nb.moves(idx)
        assert moves.shape == (3, 3)
        assert np.array_equal(moves, nb.mapping.from_flat_batch(idx))

    def test_generic_k_neighborhood_uses_exact_mapping(self):
        nb = KHammingNeighborhood(8, 4)
        assert nb.size == 70
        moves = nb.moves()
        assert np.all(np.diff(moves, axis=1) > 0)


class TestPartition:
    """The multi-GPU split of a neighborhood's flat index space."""

    def test_partition_covers_and_balances(self):
        nb = TwoHammingNeighborhood(30)  # size 435
        parts = partition_range(nb.size, 4)
        assert len(parts) == 4
        assert parts[0].start == 0 and parts[-1].stop == nb.size
        sizes = [p.size for p in parts]
        assert sum(sizes) == nb.size and max(sizes) - min(sizes) <= 1
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    def test_partition_slices_the_moves(self):
        nb = ThreeHammingNeighborhood(11)
        parts = partition_range(nb.size, 3)
        moves = np.concatenate([nb.moves(np.arange(p.start, p.stop)) for p in parts])
        assert np.array_equal(moves, nb.moves())

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_range(TwoHammingNeighborhood(10).size, 0)

    def test_partition_more_parts_than_moves(self):
        nb = OneHammingNeighborhood(3)
        parts = partition_range(nb.size, 5)
        assert sum(p.size for p in parts) == 3
        assert len(parts) == 5
        assert [p.size for p in parts] == [1, 1, 1, 0, 0]
