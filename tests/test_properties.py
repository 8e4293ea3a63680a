"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPUEvaluator, GPUEvaluator
from repro.core.evaluators import _fused_reduce
from repro.gpu import partition_range
from repro.mappings import ExactKHammingMapping, mapping_for
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import OneMax, PermutedPerceptronProblem
from repro.problems.base import flip_bits


class TestMappingProperties:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=4, max_value=60), k=st.integers(min_value=1, max_value=4))
    def test_mapping_is_a_bijection_on_random_samples(self, n, k):
        if k > n:
            return
        mapping = mapping_for(n, k)
        rng = np.random.default_rng(n * 131 + k)
        idx = rng.integers(0, mapping.size, size=min(64, mapping.size))
        moves = mapping.from_flat_batch(idx)
        # strictly increasing moves in range
        if k > 1:
            assert np.all(np.diff(moves, axis=1) > 0)
        assert moves.min() >= 0 and moves.max() < n
        assert np.array_equal(mapping.to_flat_batch(moves), idx)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=5, max_value=40), k=st.integers(min_value=1, max_value=3))
    def test_closed_forms_agree_with_exact_reference(self, n, k):
        fast = mapping_for(n, k)
        exact = ExactKHammingMapping(n, k)
        idx = np.arange(min(fast.size, 200))
        assert np.array_equal(fast.from_flat_batch(idx), exact.from_flat_batch(idx))


class TestNeighborhoodProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=3),
        parts=st.integers(min_value=1, max_value=12),
    )
    def test_partition_is_a_cover_without_overlap(self, n, k, parts):
        # The multi-GPU split of a neighborhood, including more devices than moves.
        if k > n:
            return
        nb = KHammingNeighborhood(n, k)
        slices = partition_range(nb.size, parts)
        assert [s.device_index for s in slices] == list(range(parts))
        covered = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        assert covered.size == nb.size
        assert np.array_equal(np.sort(covered), np.arange(nb.size))
        sizes = [s.size for s in slices]
        assert max(sizes) - min(sizes) <= 1


class TestPPPProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_objective_invariant_under_row_permutation(self, seed):
        """The PPP objective only sees the histogram of A V', so permuting the
        rows of A (together with S) must not change any fitness value."""
        rng = np.random.default_rng(seed)
        problem = PermutedPerceptronProblem.generate(13, 11, rng=seed)
        perm = rng.permutation(problem.m)
        permuted = PermutedPerceptronProblem(problem.A[perm], problem.S[perm])
        bits = problem.random_solution(rng)
        assert problem.evaluate(bits) == permuted.evaluate(bits)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fitness_zero_iff_histogram_matches_and_constraints_hold(self, seed):
        problem = PermutedPerceptronProblem.generate(11, 11, rng=seed)
        bits = problem.random_solution(seed)
        V = 2 * bits.astype(np.int64) - 1
        Y = problem.A.astype(np.int64) @ V
        hist = np.bincount(np.clip(Y, 0, problem.n), minlength=problem.n + 1)[1:]
        expected_zero = bool(np.all(Y >= 0) and np.array_equal(hist, problem.target_histogram))
        assert (problem.evaluate(bits) == 0) == expected_zero

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_moving_to_selected_best_neighbor_matches_reported_fitness(self, seed):
        problem = PermutedPerceptronProblem.generate(12, 12, rng=seed)
        neighborhood = KHammingNeighborhood(12, 2)
        evaluator = CPUEvaluator(problem, neighborhood)
        bits = problem.random_solution(seed)
        fitnesses = evaluator.evaluate(bits)
        (index,), (fitness,) = _fused_reduce(fitnesses[None, :], "argmin")
        move = neighborhood.mapping.from_flat(int(index))
        assert problem.evaluate(flip_bits(bits, move)) == fitness


class TestSelectionProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        fitnesses=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                           min_size=1, max_size=50),
        data=st.data(),
    )
    def test_best_admissible_never_returns_forbidden_without_aspiration(self, fitnesses, data):
        fitnesses = np.array(fitnesses)
        forbidden = np.array(data.draw(
            st.lists(st.booleans(), min_size=len(fitnesses), max_size=len(fitnesses))
        ))
        (index,), (fitness,) = _fused_reduce(
            fitnesses[None, :], "argmin", admissible=~forbidden[None, :]
        )
        if index < 0:
            assert forbidden.all()
        else:
            assert not forbidden[index]
            admissible_values = fitnesses[~forbidden]
            assert fitness == admissible_values.min()


class TestEvaluatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_gpu_and_cpu_evaluators_always_agree(self, seed):
        problem = OneMax(17)
        neighborhood = KHammingNeighborhood(17, 2)
        bits = problem.random_solution(seed)
        cpu = CPUEvaluator(problem, neighborhood).evaluate(bits)
        gpu = GPUEvaluator(problem, neighborhood).evaluate(bits)
        assert np.array_equal(cpu, gpu)
