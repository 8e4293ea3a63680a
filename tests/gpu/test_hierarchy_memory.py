"""Tests for the thread hierarchy, device presets and memory manager."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gpu import (
    DEFAULT_BLOCK_SIZE,
    GTX_280,
    GTX_8800,
    XEON_3GHZ,
    DeviceSpec,
    Dim3,
    MemoryManager,
    MemorySpace,
    OutOfDeviceMemory,
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

    def test_replace_returns_new_spec(self):
        tweaked = replace(GTX_280, multiprocessors=16)
        assert tweaked.multiprocessors == 16
        assert GTX_280.multiprocessors == 32
        assert isinstance(tweaked, DeviceSpec)

    def test_host_spec(self):
        assert XEON_3GHZ.cores == 8
        assert replace(XEON_3GHZ, cores=4).cores == 4


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
        assert mm.allocated_bytes == host.nbytes

    def test_to_device_reuses_buffer(self):
        mm = MemoryManager(capacity_bytes=10_000)
        mm.to_device("x", np.zeros(8, dtype=np.float32))
        buf = mm.get("x")
        mm.to_device("x", np.ones(8, dtype=np.float32))
        assert mm.get("x") is buf and mm.allocated_bytes == 32
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

    def test_sized_keeps_a_buffer_of_the_same_geometry(self):
        mm = MemoryManager(capacity_bytes=1024)
        buf = mm.sized("x", (8,), np.float32)
        buf.data[:] = 3.0
        assert mm.sized("x", (8,), np.float32) is buf
        assert np.all(mm.get("x").data == 3.0)
        assert mm.allocated_bytes == 32

    @pytest.mark.parametrize(
        "shape,dtype", [((12,), np.float32), ((8,), np.float64)], ids=["shape", "dtype"]
    )
    def test_sized_reallocates_another_geometry(self, shape, dtype):
        mm = MemoryManager(capacity_bytes=1024)
        old = mm.sized("x", (8,), np.float32)
        new = mm.sized("x", shape, dtype)
        assert new is not old and mm.get("x") is new
        assert new.data.shape == shape and new.data.dtype == dtype
        assert mm.allocated_bytes == new.nbytes

    def test_allocated_bytes_tracks_random_sequences(self):
        # The running counter must equal the live non-shared bytes after
        # every operation, and a request must overflow exactly when the
        # live bytes (less a buffer `sized` frees first) plus the request
        # exceed the capacity.
        rng = np.random.default_rng(7)
        mm = MemoryManager(capacity_bytes=1024)
        names = [(f"g{i}", MemorySpace.GLOBAL) for i in range(6)]
        names += [(f"s{i}", MemorySpace.SHARED) for i in range(2)]
        overflows = 0
        for _ in range(3000):
            live = sum(
                buf.nbytes for buf in mm.allocations.values()
                if buf.space is not MemorySpace.SHARED
            )
            assert mm.allocated_bytes == live
            name, space = names[rng.integers(len(names))]
            op = rng.integers(10)
            if op == 0:
                for live_name in list(mm.allocations):
                    mm.free(live_name)
                continue
            if op < 4 and name in mm.allocations:
                mm.free(name)
                continue
            shape = (int(rng.integers(1, 48)),)
            existing = mm.allocations.get(name)
            if existing is not None and existing.data.shape == shape:
                assert mm.sized(name, shape, np.float64, space) is existing
                continue
            if existing is not None and space is not MemorySpace.SHARED:
                live -= existing.nbytes
            overflow = space is not MemorySpace.SHARED and live + 8 * shape[0] > 1024
            request = mm.sized if existing is not None or op % 2 else mm.alloc
            if overflow:
                overflows += 1
                with pytest.raises(OutOfDeviceMemory):
                    request(name, shape, np.float64, space)
            else:
                assert request(name, shape, np.float64, space).data.shape == shape
        assert overflows > 50

    def test_copies_leave_no_bookkeeping(self):
        # Copy bytes are counted once, by the context that prices them
        # (DeviceStats); the manager keeps only its allocations.
        mm = MemoryManager(capacity_bytes=10_000)
        for step in range(1000):
            host = np.zeros(1 + step % 7, dtype=np.float32)
            mm.to_device("x", host)
            mm.free("x")
            mm.to_device("y", host)
            mm.to_host("y")
            mm.free("y")
        assert set(vars(mm)) == {"capacity_bytes", "allocations", "_allocated_bytes"}
        assert not mm.allocations and mm.allocated_bytes == 0
