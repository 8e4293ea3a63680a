"""Tests for kernel execution, occupancy, the timing model and multi-GPU pooling."""

import numpy as np
import pytest

from repro.gpu import (
    GTX_280,
    ExecutionMode,
    GPUContext,
    GPUTimingModel,
    HostTimingModel,
    Kernel,
    KernelCostProfile,
    XEON_3GHZ,
    build_contexts,
    grid_for,
    occupancy,
    partition_range,
)


def make_square_kernel():
    """A toy kernel: out[tid] = tid**2 (per-thread and vectorized bodies)."""

    def thread_fn(ctx, out, n):
        tid = ctx.global_id
        if tid < n:
            out[tid] = tid * tid

    def vectorized_fn(tids, out, n):
        out[tids] = tids * tids

    return Kernel(
        "square",
        thread_fn=thread_fn,
        vectorized_fn=vectorized_fn,
        cost=KernelCostProfile(flops=2, gmem_bytes=8),
    )


class TestKernelExecution:
    def test_vectorized_and_per_thread_agree(self):
        kernel = make_square_kernel()
        n = 1000
        cfg = kernel.launch_config(n, block_size=128)
        out_vec = np.zeros(n, dtype=np.int64)
        out_thr = np.zeros(n, dtype=np.int64)
        kernel.execute(cfg, (out_vec, n), active_threads=n, mode=ExecutionMode.VECTORIZED)
        kernel.execute(cfg, (out_thr, n), active_threads=n, mode=ExecutionMode.PER_THREAD)
        expected = np.arange(n, dtype=np.int64) ** 2
        assert np.array_equal(out_vec, expected)
        assert np.array_equal(out_thr, expected)

    def test_bounds_check_guards_padding_threads(self):
        # 73 active threads in a 256-thread block: the padding threads must
        # not write outside the logical range.
        kernel = make_square_kernel()
        n = 73
        cfg = kernel.launch_config(n)
        assert cfg.total_threads == 256
        out = np.zeros(n, dtype=np.int64)
        kernel.execute(cfg, (out, n), active_threads=n, mode=ExecutionMode.PER_THREAD)
        assert np.array_equal(out, np.arange(n) ** 2)

    def test_kernel_requires_an_implementation(self):
        with pytest.raises(ValueError):
            Kernel("empty", cost=KernelCostProfile(1, 1))

    def test_missing_backend_raises(self):
        kernel = Kernel(
            "vec-only",
            vectorized_fn=lambda tids, out: None,
            cost=KernelCostProfile(1, 1),
        )
        cfg = kernel.launch_config(10)
        with pytest.raises(ValueError):
            kernel.execute(cfg, (np.zeros(10),), mode=ExecutionMode.PER_THREAD)


class TestOccupancy:
    def test_full_occupancy_for_large_launch(self):
        cfg = grid_for(100_000, 256)
        occ = occupancy(GTX_280, cfg)
        assert occ.occupancy == 1.0
        assert occ.active_warps_per_mp == GTX_280.max_threads_per_mp / GTX_280.warp_size

    def test_tiny_launch_is_latency_bound(self):
        # The paper's 1-Hamming kernel for n=73: one block of 256 threads.
        cfg = grid_for(73, 256)
        occ = occupancy(GTX_280, cfg)
        assert occ.limiter == "grid"
        assert occ.active_warps_per_mp < 1.0

    def test_block_size_above_limit_rejected(self):
        cfg = grid_for(10_000, 512)
        occupancy(GTX_280, cfg)  # 512 is allowed
        with pytest.raises(ValueError):
            occupancy(GTX_280, grid_for(10_000, 1024))

    def test_shared_memory_limits_residency(self):
        cfg = grid_for(100_000, 256)
        occ = occupancy(GTX_280, cfg, shared_mem_per_block=8192)
        assert occ.blocks_per_mp == 2
        assert occ.limiter == "shared"

    def test_register_pressure_limits_residency(self):
        cfg = grid_for(100_000, 256)
        occ = occupancy(GTX_280, cfg, registers_per_thread=64)
        assert occ.limiter == "registers"
        assert occ.occupancy < 1.0

    def test_unschedulable_launch_reports_zero(self):
        cfg = grid_for(1000, 256)
        occ = occupancy(GTX_280, cfg, shared_mem_per_block=10**6)
        assert occ.blocks_per_mp == 0 and occ.occupancy == 0.0


class TestTimingModel:
    def test_more_threads_take_longer_at_full_occupancy(self):
        model = GPUTimingModel(GTX_280)
        cost = KernelCostProfile(flops=1000, gmem_bytes=400)
        small = model.kernel_time(grid_for(100_000, 256), cost, active_threads=100_000)
        large = model.kernel_time(grid_for(1_000_000, 256), cost, active_threads=1_000_000)
        assert large.kernel_time > small.kernel_time

    def test_latency_bound_small_launch_is_inefficient(self):
        # Per-thread time should be much worse for a 73-thread launch than
        # for a one-million-thread launch (latency hiding).
        model = GPUTimingModel(GTX_280)
        cost = KernelCostProfile(flops=500, gmem_bytes=600)
        tiny = model.kernel_time(grid_for(73, 256), cost, active_threads=73)
        huge = model.kernel_time(grid_for(1_000_000, 256), cost, active_threads=1_000_000)
        per_thread_tiny = tiny.kernel_time / 73
        per_thread_huge = huge.kernel_time / 1_000_000
        assert per_thread_tiny > 5 * per_thread_huge

    def test_launch_overhead_always_included(self):
        model = GPUTimingModel(GTX_280)
        cost = KernelCostProfile(flops=1, gmem_bytes=1)
        t = model.kernel_time(grid_for(1, 32), cost, active_threads=1)
        assert t.total_time >= GTX_280.kernel_launch_overhead

    def test_memory_vs_compute_bound_classification(self):
        model = GPUTimingModel(GTX_280)
        cfg = grid_for(1_000_000, 256)
        mem_heavy = model.kernel_time(cfg, KernelCostProfile(flops=1, gmem_bytes=10_000))
        compute_heavy = model.kernel_time(cfg, KernelCostProfile(flops=100_000, gmem_bytes=4))
        assert mem_heavy.bound == "memory"
        assert compute_heavy.bound == "compute"

    def test_transfer_time_has_latency_floor(self):
        model = GPUTimingModel(GTX_280)
        assert model.transfer_time(0) == pytest.approx(GTX_280.pcie_latency)
        assert model.transfer_time(10**9) > model.transfer_time(10**3)
        with pytest.raises(ValueError):
            model.transfer_time(-1)

    def test_reduction_time_scales(self):
        model = GPUTimingModel(GTX_280)
        assert model.reduction_time(10**7) > model.reduction_time(10**3)
        with pytest.raises(ValueError):
            model.reduction_time(-1)

    def test_host_model_scales_with_work(self):
        host = HostTimingModel(XEON_3GHZ)
        assert host.evaluation_time(2e9) == pytest.approx(2 * host.evaluation_time(1e9))
        with pytest.raises(ValueError):
            host.evaluation_time(-1.0)

    def test_host_multicore_ablation(self):
        single = HostTimingModel(XEON_3GHZ, cores_used=1)
        multi = HostTimingModel(XEON_3GHZ, cores_used=8)
        assert multi.evaluation_time(1e10) < single.evaluation_time(1e10)


class TestGPUContext:
    def test_launch_accumulates_time_and_results(self):
        ctx = GPUContext(GTX_280)
        kernel = make_square_kernel()
        out = np.zeros(500, dtype=np.int64)
        record = ctx.launch(kernel, 500, (out, 500))
        assert np.array_equal(out, np.arange(500) ** 2)
        assert ctx.stats.kernel_launches == 1
        assert ctx.stats.kernel_time == pytest.approx(record.time.total_time)

    def test_transfers_are_timed_and_counted(self):
        ctx = GPUContext(GTX_280)
        data = np.random.default_rng(0).random(1000)
        ctx.to_device("data", data)
        back = ctx.to_host("data")
        assert np.array_equal(back, data)
        assert ctx.stats.h2d_bytes == data.nbytes
        assert ctx.stats.d2h_bytes == data.nbytes
        assert ctx.stats.transfer_time > 0

    def test_invalid_launch_sizes(self):
        ctx = GPUContext(GTX_280)
        kernel = make_square_kernel()
        with pytest.raises(ValueError):
            ctx.launch(kernel, 0, (np.zeros(1), 1))
        cfg = grid_for(32, 32)
        with pytest.raises(ValueError):
            ctx.launch(kernel, 100, (np.zeros(100), 100), config=cfg)

    def test_launch_records_opt_in(self):
        ctx = GPUContext(GTX_280, keep_launch_records=True)
        kernel = make_square_kernel()
        out = np.zeros(10, dtype=np.int64)
        ctx.launch(kernel, 10, (out, 10))
        assert len(ctx.stats.launch_records) == 1


class TestDevicePool:
    def test_partition_range_is_balanced_and_covering(self):
        parts = partition_range(103, 4)
        assert len(parts) == 4
        sizes = [p.size for p in parts]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        # contiguous and ordered
        assert parts[0].start == 0 and parts[-1].stop == 103
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_range(-1, 2)
        with pytest.raises(ValueError):
            partition_range(10, 0)

    def test_build_contexts(self):
        contexts = build_contexts(3, pinned=True)
        assert [ctx.device for ctx in contexts] == [GTX_280] * 3
        assert all(ctx.pinned and ctx.engine is contexts[0].engine for ctx in contexts)
        assert [ctx.device_key for ctx in contexts] == ["gpu0", "gpu1", "gpu2"]
        with pytest.raises(ValueError, match="need at least one device"):
            build_contexts(0)
        with pytest.raises(ValueError, match="need at least one device"):
            build_contexts([])


def test_memoized_launch_price_equals_the_model():
    from repro.gpu import GTX_280, KernelCostProfile, grid_for
    from repro.gpu.timing import GPUTimingModel

    model = GPUTimingModel(GTX_280)
    cost = KernelCostProfile(flops=40, gmem_bytes=24, registers=20)
    for threads in (1, 255, 256, 4097, 70_000_000):
        config, breakdown = model.launch(threads, 128, cost)
        assert config == grid_for(threads, 128)
        assert breakdown == model.kernel_time(config, cost, active_threads=threads)
        assert model.launch(threads, 128, cost)[1] is breakdown
    other = GPUTimingModel(GTX_280, latency_hiding_warps=1.0)
    assert other.launch(256, 128, cost)[1] == other.kernel_time(
        grid_for(256, 128), cost, active_threads=256
    )
