"""Tests for the 2-Hamming closed-form index transformations (Appendix A/B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapping_checks import check_against_exact, check_bijection, check_roundtrip
from repro.mappings import (
    TwoHammingMapping,
    flat_to_pair,
    pair_to_flat,
)


class TestPaperWorkedExample:
    """The worked example of Appendix A/B: n = 6, m = 15, (i=2, j=3) <-> 9."""

    def test_two_to_one(self):
        assert pair_to_flat(2, 3, 6) == 9

    def test_one_to_two(self):
        assert flat_to_pair(9, 6) == (2, 3)

    def test_first_move_is_zero(self):
        assert pair_to_flat(0, 1, 6) == 0

    def test_last_move_is_size_minus_one(self):
        assert pair_to_flat(4, 5, 6) == 14


class TestNeighborhoodSize:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (6, 15), (73, 2628), (117, 6786)])
    def test_size_formula(self, n, expected):
        assert TwoHammingMapping(n).size == expected
        assert TwoHammingMapping(n).size == n * (n - 1) // 2

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            TwoHammingMapping(1)


class TestBijection:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 17, 33, 73])
    def test_exhaustive_roundtrip(self, n):
        mapping = TwoHammingMapping(n)
        assert check_roundtrip(mapping)
        assert check_bijection(mapping)

    @pytest.mark.parametrize("n", [5, 10, 33, 73])
    def test_matches_exact_lexicographic_order(self, n):
        assert check_against_exact(TwoHammingMapping(n))

    @pytest.mark.parametrize("n", [6, 73, 117])
    def test_float_sqrt_variant_matches_exact_variant(self, n):
        exact = TwoHammingMapping(n)
        gpu_like = TwoHammingMapping(n, float_sqrt=True)
        idx = np.arange(exact.size)
        assert np.array_equal(exact.from_flat_batch(idx), gpu_like.from_flat_batch(idx))

    def test_large_instance_spot_checks(self):
        # 1517 bits is the largest instance of Figure 8.
        mapping = TwoHammingMapping(1517)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, mapping.size, size=2000)
        assert check_roundtrip(mapping, idx)


class TestScalarVectorConsistency:
    @pytest.mark.parametrize("n", [4, 9, 50])
    def test_from_flat_batch_matches_scalar(self, n):
        mapping = TwoHammingMapping(n)
        idx = np.arange(mapping.size)
        batch = mapping.from_flat_batch(idx)
        scalar = np.array([mapping.from_flat(int(i)) for i in idx])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("n", [4, 9, 50])
    def test_to_flat_batch_matches_scalar(self, n):
        mapping = TwoHammingMapping(n)
        moves = mapping.all_moves()
        batch = mapping.to_flat_batch(moves)
        scalar = np.array([mapping.to_flat(tuple(m)) for m in moves])
        assert np.array_equal(batch, scalar)


class TestInputValidation:
    def test_out_of_range_flat_index(self):
        mapping = TwoHammingMapping(10)
        with pytest.raises(IndexError):
            mapping.from_flat(mapping.size)
        with pytest.raises(IndexError):
            mapping.from_flat(-1)

    def test_out_of_range_move(self):
        mapping = TwoHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat((3, 10))

    def test_duplicate_indices_rejected(self):
        mapping = TwoHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat((4, 4))

    def test_move_order_is_canonicalised(self):
        mapping = TwoHammingMapping(10)
        assert mapping.to_flat((7, 2)) == mapping.to_flat((2, 7))

    def test_bad_batch_shape(self):
        mapping = TwoHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat_batch(np.zeros((3, 3), dtype=np.int64))

    def test_non_increasing_batch_rejected(self):
        mapping = TwoHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat_batch(np.array([[5, 2]]))


class TestPropertyBased:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=400),
        data=st.data(),
    )
    def test_roundtrip_random_indices(self, n, data):
        mapping = TwoHammingMapping(n)
        index = data.draw(st.integers(min_value=0, max_value=mapping.size - 1))
        move = mapping.from_flat(index)
        assert len(move) == 2
        assert 0 <= move[0] < move[1] < n
        assert mapping.to_flat(move) == index

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=400),
        data=st.data(),
    )
    def test_roundtrip_random_moves(self, n, data):
        mapping = TwoHammingMapping(n)
        i = data.draw(st.integers(min_value=0, max_value=n - 2))
        j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
        flat = mapping.to_flat((i, j))
        assert 0 <= flat < mapping.size
        assert mapping.from_flat(flat) == (i, j)
