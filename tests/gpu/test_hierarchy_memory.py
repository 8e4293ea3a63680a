"""Tests for the thread hierarchy, device presets and memory manager."""

import numpy as np
import pytest

from repro.gpu import (
    DEFAULT_BLOCK_SIZE,
    GTX_280,
    GTX_8800,
    XEON_3GHZ,
    DeviceSpec,
    Dim3,
    HostMemoryKind,
    MemoryManager,
    MemorySpace,
    OutOfDeviceMemory,
    get_device,
    grid_for,
)


class TestDeviceSpecs:
    def test_gtx280_matches_paper_description(self):
        # The paper states 32 multiprocessors for its GTX 280.
        assert GTX_280.multiprocessors == 32
        assert GTX_280.warp_size == 32
        assert GTX_280.max_threads_per_block == 512

    def test_peak_flops_formula(self):
        assert GTX_280.peak_flops == pytest.approx(2 * 32 * 8 * 1.296e9)
        assert GTX_280.sustained_flops < GTX_280.peak_flops

    def test_g80_has_stricter_memory_model(self):
        # "GTX 280 get better global memory performance" than the G80 series.
        assert GTX_280.sustained_bandwidth > GTX_8800.sustained_bandwidth

    def test_warps_to_hide_latency_is_positive(self):
        assert GTX_280.warps_to_hide_latency > 1

    def test_with_overrides_returns_new_spec(self):
        tweaked = GTX_280.with_overrides(multiprocessors=16)
        assert tweaked.multiprocessors == 16
        assert GTX_280.multiprocessors == 32
        assert isinstance(tweaked, DeviceSpec)

    def test_get_device_lookup(self):
        assert get_device("GTX 280") is GTX_280
        assert get_device("gtx-280") is GTX_280
        with pytest.raises(KeyError):
            get_device("does-not-exist")

    def test_host_spec(self):
        assert XEON_3GHZ.cores == 8
        assert XEON_3GHZ.with_overrides(cores=4).cores == 4


class TestDim3AndGrid:
    def test_dim3_size(self):
        assert Dim3(4).size == 4
        assert Dim3(4, 3).size == 12
        assert Dim3(4, 3, 2).size == 24
        assert tuple(Dim3(5, 6, 7)) == (5, 6, 7)

    def test_dim3_rejects_negative(self):
        with pytest.raises(ValueError):
            Dim3(-1)

    def test_launch_config_rejects_zero_extents(self):
        from repro.gpu import LaunchConfig

        with pytest.raises(ValueError):
            LaunchConfig(grid=Dim3(0), block=Dim3(32))
        with pytest.raises(ValueError):
            LaunchConfig(grid=Dim3(1), block=Dim3(0))

    def test_grid_for_exact_multiple(self):
        cfg = grid_for(1024, 256)
        assert cfg.num_blocks == 4
        assert cfg.threads_per_block == 256
        assert cfg.total_threads == 1024

    def test_grid_for_rounds_up(self):
        cfg = grid_for(1000, 256)
        assert cfg.num_blocks == 4
        assert cfg.total_threads == 1024

    def test_grid_for_small_neighborhood(self):
        # 1-Hamming on n=73: a single (partly idle) block.
        cfg = grid_for(73)
        assert cfg.threads_per_block == DEFAULT_BLOCK_SIZE
        assert cfg.num_blocks == 1

    def test_grid_for_spills_to_2d(self):
        # 3-Hamming on n=1517 needs ~581 million threads -> 2-D grid.
        total = 1517 * 1516 * 1515 // 6
        cfg = grid_for(total, 256)
        assert cfg.grid.y > 1
        assert cfg.total_threads >= total

    def test_grid_for_validation(self):
        with pytest.raises(ValueError):
            grid_for(0)
        with pytest.raises(ValueError):
            grid_for(10, 0)

    def test_global_ids_cover_launch(self):
        cfg = grid_for(100, 32)
        ids = cfg.global_ids()
        assert ids.shape == (cfg.total_threads,)
        assert ids[0] == 0 and ids[-1] == cfg.total_threads - 1

    def test_thread_indices_enumeration_matches_global_ids(self):
        cfg = grid_for(70, 32)
        ids = [ti.global_x for ti in cfg.thread_indices()]
        # Every global id appears exactly once.
        assert sorted(ids) == list(range(cfg.total_threads))


class TestMemoryManager:
    def test_alloc_and_capacity(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.alloc("a", (10,), np.float64)  # 80 bytes
        assert mm.allocated_bytes == 80
        with pytest.raises(OutOfDeviceMemory):
            mm.alloc("b", (200,), np.float64)

    def test_double_alloc_rejected(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.alloc("a", (4,), np.float32)
        with pytest.raises(ValueError):
            mm.alloc("a", (4,), np.float32)

    def test_free(self):
        mm = MemoryManager(capacity_bytes=1000)
        mm.alloc("a", (10,), np.float64)
        mm.free("a")
        assert mm.allocated_bytes == 0
        with pytest.raises(KeyError):
            mm.free("a")

    def test_to_device_roundtrip(self):
        mm = MemoryManager(capacity_bytes=10_000)
        host = np.arange(32, dtype=np.int32)
        mm.to_device("x", host)
        back = mm.to_host("x")
        assert np.array_equal(back, host)
        # copies are tracked
        assert mm.transfer_count("h2d") == 1
        assert mm.transfer_count("d2h") == 1
        assert mm.bytes_transferred("h2d") == host.nbytes

    def test_to_device_reuses_buffer(self):
        mm = MemoryManager(capacity_bytes=10_000)
        mm.to_device("x", np.zeros(8, dtype=np.float32))
        mm.to_device("x", np.ones(8, dtype=np.float32))
        assert mm.transfer_count("h2d") == 2
        assert np.array_equal(mm.to_host("x"), np.ones(8, dtype=np.float32))

    def test_copy_shape_mismatch(self):
        mm = MemoryManager(capacity_bytes=10_000)
        mm.to_device("x", np.zeros(8))
        with pytest.raises(ValueError):
            mm.get("x").copy_from_host(np.zeros(9))

    def test_shared_memory_not_counted_against_global_capacity(self):
        mm = MemoryManager(capacity_bytes=100)
        mm.alloc("tile", (64,), np.float64, space=MemorySpace.SHARED)
        assert mm.allocated_bytes == 0

    def test_reset_statistics(self):
        mm = MemoryManager(capacity_bytes=10_000)
        mm.to_device("x", np.zeros(8))
        mm.reset_statistics()
        assert mm.transfer_count() == 0

    def test_transfer_totals_stay_constant_size(self):
        mm = MemoryManager(capacity_bytes=10_000)
        expected = {}

        def copy(step):
            kind = (HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED)[step % 2]
            host = np.zeros(1 + step % 7, dtype=np.float32)
            mm.to_device("x", host, host_kind=kind)
            mm.free("x")
            expected.setdefault(("h2d", kind), []).append(host.nbytes)
            if step % 3 == 0:
                mm.to_device("y", host)
                mm.to_host("y", host_kind=kind)
                mm.free("y")
                expected.setdefault(("h2d", HostMemoryKind.PAGEABLE), []).append(host.nbytes)
                expected.setdefault(("d2h", kind), []).append(host.nbytes)

        for step in range(10):
            copy(step)
        state = {key: len(value) for key, value in mm.copy_totals.items()}
        for step in range(10, 10_000):
            copy(step)
        # 10,000 copies leave the bookkeeping exactly as large as 10 did.
        assert {key: len(value) for key, value in mm.copy_totals.items()} == state
        assert set(vars(mm)) == {"capacity_bytes", "allocations", "copy_totals"}
        for direction in (None, "h2d", "d2h"):
            for kind in (None, HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED):
                sizes = [
                    nbytes
                    for (copy_direction, copy_kind), values in expected.items()
                    if direction in (None, copy_direction) and kind in (None, copy_kind)
                    for nbytes in values
                ]
                assert mm.transfer_count(direction, kind) == len(sizes)
                assert mm.bytes_transferred(direction, kind) == sum(sizes)
