"""Tests for the texture-memory cost model (the "GPUTexture" curve of Figure 8)."""

import pytest

from repro.core import GPUEvaluator, full_step_time, kernel_cost_profile
from repro.gpu import GPUTimingModel, GTX_280, KernelCostProfile, grid_for
from repro.neighborhoods import OneHammingNeighborhood, TwoHammingNeighborhood
from repro.problems import OneMax, PermutedPerceptronProblem


@pytest.fixture(scope="module")
def ppp():
    return PermutedPerceptronProblem.generate(73, 73, rng=0)


class TestCostProfileSplit:
    def test_ppp_declares_texture_eligible_bytes(self, ppp):
        cost = ppp.cost_profile(2)
        assert 0 < cost["texture_bytes"] < cost["bytes"]
        # The texture-eligible portion is the matrix columns: 4 bytes * k * m.
        assert cost["texture_bytes"] == 4.0 * 2 * ppp.m

    def test_kernel_cost_profile_moves_bytes_to_texture(self, ppp):
        plain = kernel_cost_profile(ppp, 2)
        textured = kernel_cost_profile(ppp, 2, use_texture=True)
        assert plain.texture_bytes == 0.0
        assert textured.texture_bytes > 0.0
        # Total memory traffic is conserved.
        assert plain.gmem_bytes == pytest.approx(textured.gmem_bytes + textured.texture_bytes)
        assert plain.flops == textured.flops

    def test_problems_without_texture_data_are_unaffected(self):
        problem = OneMax(32)
        plain = kernel_cost_profile(problem, 1)
        textured = kernel_cost_profile(problem, 1, use_texture=True)
        assert textured.texture_bytes == 0.0
        assert textured.gmem_bytes == plain.gmem_bytes


class TestTimingModelWithTexture:
    def test_texture_reads_are_cheaper_for_memory_bound_kernels(self):
        model = GPUTimingModel(GTX_280)
        cfg = grid_for(1_000_000, 256)
        plain = model.kernel_time(cfg, KernelCostProfile(flops=10, gmem_bytes=2000))
        textured = model.kernel_time(
            cfg, KernelCostProfile(flops=10, gmem_bytes=400, texture_bytes=1600)
        )
        assert textured.memory_time < plain.memory_time

    def test_scaled_preserves_texture_bytes(self):
        cost = KernelCostProfile(flops=10, gmem_bytes=100, texture_bytes=50)
        scaled = cost.scaled(2.0)
        assert scaled.texture_bytes == 100.0
        assert scaled.gmem_bytes == 200.0


class TestEndToEnd:
    def test_texture_helps_latency_bound_1hamming(self, ppp):
        neighborhood = OneHammingNeighborhood(ppp.n)
        plain = full_step_time(GPUEvaluator(ppp, neighborhood))
        textured = full_step_time(GPUEvaluator(ppp, neighborhood, use_texture_memory=True))
        assert textured <= plain

    def test_texture_never_hurts(self, ppp):
        for neighborhood in (OneHammingNeighborhood(ppp.n), TwoHammingNeighborhood(ppp.n)):
            plain = full_step_time(GPUEvaluator(ppp, neighborhood))
            textured = full_step_time(GPUEvaluator(ppp, neighborhood, use_texture_memory=True))
            assert textured <= plain * 1.0001

    def test_gpu_evaluator_texture_option_is_functionally_identical(self, ppp):
        neighborhood = TwoHammingNeighborhood(ppp.n)
        solution = ppp.random_solution(5)
        plain = GPUEvaluator(ppp, neighborhood)
        textured = GPUEvaluator(ppp, neighborhood, use_texture_memory=True)
        import numpy as np

        assert np.array_equal(plain.evaluate(solution), textured.evaluate(solution))
        # ... but the simulated time differs (texture path is never slower).
        assert textured.stats.simulated_time <= plain.stats.simulated_time * 1.0001
