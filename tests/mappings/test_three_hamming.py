"""Tests for the 3-Hamming plan-decomposition mapping (Appendix C/D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapping_checks import check_against_exact, check_bijection, check_roundtrip
from repro.mappings import (
    ThreeHammingMapping,
    flat_to_triple,
    triple_to_flat,
)


class TestNeighborhoodSize:
    @pytest.mark.parametrize(
        "n,expected",
        [(3, 1), (4, 4), (6, 20), (73, 62196), (101, 166650), (117, 260130)],
    )
    def test_size_formula(self, n, expected):
        mapping = ThreeHammingMapping(n)
        assert mapping.size == expected
        assert mapping.size == n * (n - 1) * (n - 2) // 6

    def test_paper_max_iterations_match_table_values(self):
        # Table I reports the stopping criterion n(n-1)(n-2)/6 for 101x101 and
        # 101x117 as 166650 and 260130 iterations, which pins down n.
        assert ThreeHammingMapping(101).size == 166650
        assert ThreeHammingMapping(117).size == 260130


class TestOrderingConvention:
    def test_first_flat_index_is_smallest_triple(self):
        mapping = ThreeHammingMapping(8)
        assert mapping.from_flat(0) == (0, 1, 2)

    def test_last_flat_index_is_largest_triple(self):
        mapping = ThreeHammingMapping(8)
        assert mapping.from_flat(mapping.size - 1) == (5, 6, 7)

    def test_plan_boundaries(self):
        # Plan z contains C(n-1-z, 2) elements; the first move of plan z is
        # (z, z+1, z+2).
        n = 9
        mapping = ThreeHammingMapping(n)
        flat = 0
        for z in range(n - 2):
            assert mapping.from_flat(flat) == (z, z + 1, z + 2)
            flat += (n - 1 - z) * (n - 2 - z) // 2


class TestBijection:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 17, 33])
    def test_exhaustive_roundtrip(self, n):
        mapping = ThreeHammingMapping(n)
        assert check_roundtrip(mapping)
        assert check_bijection(mapping)

    @pytest.mark.parametrize("n", [5, 10, 17, 33])
    def test_matches_exact_lexicographic_order(self, n):
        assert check_against_exact(ThreeHammingMapping(n))

    @pytest.mark.parametrize("n", [73, 101, 117])
    def test_paper_instances_random_roundtrip(self, n):
        mapping = ThreeHammingMapping(n)
        rng = np.random.default_rng(12345)
        idx = rng.integers(0, mapping.size, size=3000)
        assert check_roundtrip(mapping, idx)

    def test_figure8_largest_instance_roundtrip(self):
        mapping = ThreeHammingMapping(1517)
        rng = np.random.default_rng(7)
        idx = rng.integers(0, mapping.size, size=1000)
        assert check_roundtrip(mapping, idx)

    @pytest.mark.parametrize("n", [10, 33, 73])
    def test_float_sqrt_variant_matches_exact_variant(self, n):
        exact = ThreeHammingMapping(n)
        gpu_like = ThreeHammingMapping(n, float_sqrt=True)
        idx = np.arange(exact.size)
        assert np.array_equal(exact.from_flat_batch(idx), gpu_like.from_flat_batch(idx))


class TestScalarVectorConsistency:
    @pytest.mark.parametrize("n", [5, 9, 20])
    def test_from_flat_batch_matches_scalar(self, n):
        mapping = ThreeHammingMapping(n)
        idx = np.arange(mapping.size)
        batch = mapping.from_flat_batch(idx)
        scalar = np.array([mapping.from_flat(int(i)) for i in idx])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("n", [5, 9, 20])
    def test_to_flat_batch_matches_scalar(self, n):
        mapping = ThreeHammingMapping(n)
        moves = mapping.all_moves()
        batch = mapping.to_flat_batch(moves)
        scalar = np.array([mapping.to_flat(tuple(m)) for m in moves])
        assert np.array_equal(batch, scalar)

    def test_module_level_functions_agree_with_class(self):
        n = 23
        mapping = ThreeHammingMapping(n)
        for flat in (0, 7, 100, mapping.size - 1):
            z, x, y = flat_to_triple(flat, n)
            assert triple_to_flat(z, x, y, n) == flat
            assert mapping.from_flat(flat) == (z, x, y)


class TestInputValidation:
    def test_out_of_range_flat_index(self):
        mapping = ThreeHammingMapping(10)
        with pytest.raises(IndexError):
            mapping.from_flat(mapping.size)

    def test_out_of_range_move(self):
        mapping = ThreeHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat((3, 5, 10))

    def test_duplicate_indices_rejected(self):
        mapping = ThreeHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat((1, 1, 2))

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            ThreeHammingMapping(2)

    def test_non_increasing_batch_rejected(self):
        mapping = ThreeHammingMapping(10)
        with pytest.raises(ValueError):
            mapping.to_flat_batch(np.array([[5, 2, 8]]))


class TestPropertyBased:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=3, max_value=200), data=st.data())
    def test_roundtrip_random_indices(self, n, data):
        mapping = ThreeHammingMapping(n)
        index = data.draw(st.integers(min_value=0, max_value=mapping.size - 1))
        move = mapping.from_flat(index)
        assert len(move) == 3
        assert 0 <= move[0] < move[1] < move[2] < n
        assert mapping.to_flat(move) == index

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=3, max_value=200), data=st.data())
    def test_roundtrip_random_moves(self, n, data):
        mapping = ThreeHammingMapping(n)
        z = data.draw(st.integers(min_value=0, max_value=n - 3))
        x = data.draw(st.integers(min_value=z + 1, max_value=n - 2))
        y = data.draw(st.integers(min_value=x + 1, max_value=n - 1))
        flat = mapping.to_flat((z, x, y))
        assert 0 <= flat < mapping.size
        assert mapping.from_flat(flat) == (z, x, y)
