"""Ablation benchmarks: the paper's design choices (Section III-A, Figure 8, Section V).

Each benchmark runs one ablation sweep from :mod:`repro.harness.ablations`
and attaches the modeled times/speedups of every configuration to
``extra_info`` so the full sweep is recorded in the benchmark output.
"""

import pytest

from repro.harness import (
    block_size_ablation,
    cpu_cores_ablation,
    device_ablation,
    multi_gpu_ablation,
    texture_ablation,
)


@pytest.mark.benchmark(group="ablations")
def test_block_size_sweep(benchmark):
    """Threads-per-block choice for the 2-Hamming kernel on 101x117."""
    points = benchmark.pedantic(block_size_ablation, rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = {p.label: p.gpu_time for p in points}
    # 256-thread blocks (the library default) must be at least as good as
    # tiny 32-thread blocks for a large launch.
    by_label = {p.label: p.gpu_time for p in points}
    assert by_label["block=256"] <= by_label["block=32"] * 1.05


@pytest.mark.benchmark(group="ablations")
def test_texture_memory_sweep(benchmark):
    """Texture binding of the PPP matrix (the Figure 8 "GPUTexture" variant)."""
    points = benchmark.pedantic(texture_ablation, rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = {p.label: p.gpu_time for p in points}
    by_label = {p.label: p.gpu_time for p in points}
    assert by_label["1-Hamming/texture"] <= by_label["1-Hamming/global"]


@pytest.mark.benchmark(group="ablations")
def test_device_generation_sweep(benchmark):
    """G80 vs Tesla C1060 vs GTX 280 for the same 2-Hamming kernel."""
    points = benchmark.pedantic(device_ablation, rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = {p.label: p.speedup for p in points}
    speedups = {p.label: p.speedup for p in points}
    assert speedups["NVIDIA GTX 280"] > speedups["NVIDIA 8800 GTX (G80)"]


@pytest.mark.benchmark(group="ablations")
def test_multi_gpu_scaling_sweep(benchmark):
    """The paper's multi-GPU perspective: 1, 2, 4, 8 simulated devices."""
    points = benchmark.pedantic(multi_gpu_ablation, rounds=1, iterations=1)
    times = {p.label: p.gpu_time for p in points}
    benchmark.extra_info["sweep"] = times
    assert times["8 GPU(s)"] < times["1 GPU(s)"]


@pytest.mark.benchmark(group="ablations")
def test_cpu_cores_sweep(benchmark):
    """Would a multi-core CPU baseline erase the GPU advantage?  (No.)"""
    points = benchmark.pedantic(cpu_cores_ablation, rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = {p.label: p.speedup for p in points}
    assert all(p.speedup > 1.0 for p in points)
