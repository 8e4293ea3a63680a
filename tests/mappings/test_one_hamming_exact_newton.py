"""Tests for the 1-Hamming mapping, the exact reference mapping and the Newton solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapping_checks import check_bijection, check_roundtrip
from repro.mappings import (
    ExactKHammingMapping,
    OneHammingMapping,
    mapping_for,
    minimal_k_tetrahedral,
    minimal_k_tetrahedral_batch,
    neighborhood_size,
    newton_cubic_root,
    newton_cubic_root_batch,
    rank_combination,
    unrank_combination,
)


class TestOneHamming:
    @pytest.mark.parametrize("n", [1, 2, 10, 73, 1517])
    def test_size_is_n(self, n):
        assert OneHammingMapping(n).size == n

    def test_identity_mapping(self):
        mapping = OneHammingMapping(50)
        for i in (0, 1, 25, 49):
            assert mapping.from_flat(i) == (i,)
            assert mapping.to_flat((i,)) == i

    def test_batch_identity(self):
        mapping = OneHammingMapping(20)
        idx = np.arange(20)
        assert np.array_equal(mapping.from_flat_batch(idx)[:, 0], idx)
        assert np.array_equal(mapping.to_flat_batch(idx.reshape(-1, 1)), idx)

    def test_roundtrip_and_bijection(self):
        mapping = OneHammingMapping(37)
        assert check_roundtrip(mapping)
        assert check_bijection(mapping)

    def test_out_of_range(self):
        mapping = OneHammingMapping(5)
        with pytest.raises(IndexError):
            mapping.from_flat(5)
        with pytest.raises(ValueError):
            mapping.to_flat((5,))
        with pytest.raises(IndexError):
            mapping.from_flat_batch(np.array([0, 5]))
        with pytest.raises(ValueError):
            mapping.to_flat_batch(np.array([[5]]))


class TestNeighborhoodSizeHelper:
    def test_matches_paper_formulas(self):
        n = 101
        assert neighborhood_size(n, 1) == n
        assert neighborhood_size(n, 2) == n * (n - 1) // 2
        assert neighborhood_size(n, 3) == n * (n - 1) * (n - 2) // 6

    def test_degenerate_cases(self):
        assert neighborhood_size(0, 0) == 1
        assert neighborhood_size(3, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_size(-1, 2)
        with pytest.raises(ValueError):
            neighborhood_size(4, -1)


class TestExactMapping:
    @pytest.mark.parametrize("n,k", [(5, 1), (6, 2), (7, 3), (8, 4), (9, 5)])
    def test_exhaustive_roundtrip(self, n, k):
        mapping = ExactKHammingMapping(n, k)
        assert check_roundtrip(mapping)
        assert check_bijection(mapping)

    def test_all_moves_is_lexicographic(self):
        mapping = ExactKHammingMapping(6, 3)
        moves = mapping.all_moves()
        as_tuples = [tuple(m) for m in moves]
        assert as_tuples == sorted(as_tuples)

    def test_rank_unrank_are_inverse(self):
        n, k = 12, 4
        for rank in range(math.comb(n, k)):
            move = unrank_combination(rank, n, k)
            assert rank_combination(move, n) == rank

    def test_rank_rejects_bad_moves(self):
        with pytest.raises(ValueError):
            rank_combination((3, 3), 10)
        with pytest.raises(ValueError):
            rank_combination((3, 12), 10)
        with pytest.raises(IndexError):
            unrank_combination(1000, 5, 2)

    def test_factory_dispatch(self):
        assert mapping_for(10, 1).__class__.__name__ == "OneHammingMapping"
        assert mapping_for(10, 2).__class__.__name__ == "TwoHammingMapping"
        assert mapping_for(10, 3).__class__.__name__ == "ThreeHammingMapping"
        assert mapping_for(10, 4).__class__.__name__ == "ExactKHammingMapping"

    @pytest.mark.parametrize("k", [0, -1])
    def test_factory_rejects_non_positive_order(self, k):
        with pytest.raises(ValueError, match="Hamming order must be positive"):
            mapping_for(6, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_factory_sizes_agree_with_binomial(self, k):
        assert mapping_for(12, k).size == math.comb(12, k)


class TestNewtonSolver:
    def test_exact_roots(self):
        # u^3 - u = 6Y with u integer: Y = C(u+1, 3)
        for u in (2, 3, 5, 10, 100, 1000):
            y = (u + 1) * u * (u - 1) // 6
            root = newton_cubic_root(float(y))
            assert root == pytest.approx(u, rel=1e-9)

    def test_zero_y(self):
        assert newton_cubic_root(0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            newton_cubic_root(-1.0)
        with pytest.raises(ValueError):
            newton_cubic_root_batch(np.array([-3.0]))

    def test_batch_matches_scalar(self):
        ys = np.array([0, 1, 2, 5, 100, 10_000, 1_000_000], dtype=np.float64)
        batch = newton_cubic_root_batch(ys)
        scalar = np.array([newton_cubic_root(float(y)) for y in ys])
        assert np.allclose(batch, scalar, rtol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(y=st.integers(min_value=1, max_value=10**12))
    def test_minimal_k_is_minimal(self, y):
        k = minimal_k_tetrahedral(y)
        assert k * (k - 1) * (k - 2) // 6 >= y
        if k > 2:
            km1 = k - 1
            assert km1 * (km1 - 1) * (km1 - 2) // 6 < y

    def test_minimal_k_batch_matches_scalar(self):
        ys = np.array([0, 1, 2, 3, 4, 5, 10, 35, 56, 57, 10_000, 166650, 581130609], dtype=np.int64)
        batch = minimal_k_tetrahedral_batch(ys)
        scalar = np.array([minimal_k_tetrahedral(int(y)) for y in ys])
        assert np.array_equal(batch, scalar)
