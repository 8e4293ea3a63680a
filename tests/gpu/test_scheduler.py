"""Tests for the multi-device scheduler, the pinned-memory transfer model
and peer-to-peer copies.

Covers the model layer (per-kind transfer pricing, peer link pricing,
weighted partitioning) and the runtime layer (``copy_peer_async`` interval
placement and byte accounting, the staging pool, the scheduler's
cross-device makespan/serialized-sum clocks and merged timeline report).
"""

import numpy as np
import pytest

from repro.gpu import (
    GTX_280,
    GTX_8800,
    HOST_TIMELINE_STREAM,
    TESLA_C1060,
    DeviceScheduler,
    GPUContext,
    HostMemoryKind,
    InterconnectTopology,
    Kernel,
    KernelCostProfile,
    Link,
    P2P_STREAM,
    PinnedStagingPool,
    ResidentStepPlan,
    build_contexts,
    partition_range,
    throughput_weights,
    timeline_report,
    weighted_partition_range,
)
from repro.gpu.timing import GPUTimingModel


def _copy_kernel(name="copy"):
    def body(tids, src, dst):
        dst[tids] = src[tids]

    return Kernel(name=name, vectorized_fn=body, cost=KernelCostProfile(flops=1, gmem_bytes=8))


class TestTransferPricing:
    def test_pageable_pricing_matches_seed_model(self):
        model = GPUTimingModel(GTX_280)
        nbytes = 1 << 20
        expected = GTX_280.pcie_latency + nbytes / GTX_280.pcie_bandwidth
        assert model.transfer_time(nbytes) == pytest.approx(expected)
        assert model.transfer_time(nbytes, HostMemoryKind.PAGEABLE) == pytest.approx(expected)

    def test_pinned_is_strictly_faster_for_any_size(self):
        model = GPUTimingModel(GTX_280)
        for nbytes in (0, 64, 4096, 1 << 22):
            assert model.transfer_time(nbytes, HostMemoryKind.PINNED) < model.transfer_time(
                nbytes, HostMemoryKind.PAGEABLE
            )

    def test_peer_transfer_uses_slower_endpoint(self):
        model = GPUTimingModel(GTX_280)
        alone = model.peer_transfer_time(1 << 20)
        with_peer = model.peer_transfer_time(1 << 20, TESLA_C1060)
        assert alone == pytest.approx(
            GTX_280.p2p_latency + (1 << 20) / GTX_280.p2p_bandwidth
        )
        assert with_peer >= alone

    def test_peer_transfer_rejects_incapable_device(self):
        with pytest.raises(ValueError, match="peer-to-peer"):
            GPUTimingModel(GTX_8800).peer_transfer_time(100)
        with pytest.raises(ValueError, match="peer-to-peer"):
            GPUTimingModel(GTX_280).peer_transfer_time(100, GTX_8800)

    def test_negative_bytes_rejected(self):
        model = GPUTimingModel(GTX_280)
        with pytest.raises(ValueError):
            model.transfer_time(-1, HostMemoryKind.PINNED)
        with pytest.raises(ValueError):
            model.peer_transfer_time(-1)


class TestPinnedStagingPool:
    def test_counters_and_block_rounding(self):
        pool = PinnedStagingPool(block_bytes=4096)
        assert pool.stage(100) == 4096
        assert pool.stage(4097) == 8192
        assert pool.stagings == 2
        assert pool.staged_bytes == 4197
        assert pool.high_water_bytes == 8192

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PinnedStagingPool().stage(-1)

    def test_pinned_context_stages_async_packets(self):
        ctx = GPUContext(GTX_280, pinned=True)
        ctx.copy_async("packet", np.zeros(100, dtype=np.uint8))
        assert ctx.staging_pool.stagings == 1
        assert ctx.staging_pool.staged_bytes == ctx.stats.h2d_bytes == 100

    def test_pageable_context_has_no_pool(self):
        ctx = GPUContext(GTX_280)
        assert ctx.staging_pool is None
        ctx.copy_async("packet", np.zeros(100, dtype=np.uint8))
        assert ctx.stats.h2d_bytes == 100

    def test_pinned_workload_is_faster_than_pageable(self):
        results = {}
        for pinned in (False, True):
            ctx = GPUContext(GTX_280, pinned=pinned)
            for step in range(5):
                ctx.to_device(f"buf{step}", np.zeros(1024, dtype=np.float64))
                ctx.to_host(f"buf{step}")
            results[pinned] = ctx.stats.transfer_time
        assert results[True] < results[False]


class TestPeerCopies:
    def test_copy_appears_on_both_timelines_and_p2p_counters_only(self):
        src = GPUContext(GTX_280)
        dst = GPUContext(GTX_280)
        payload = np.arange(256, dtype=np.uint8)
        event = src.copy_peer_async(dst, "landing", payload)
        assert np.array_equal(dst.memory.get("landing").data, payload)
        assert src.stats.p2p_bytes == 256
        assert src.stats.peer_transfers == 1
        # No host round trip: the h2d/d2h counters stay untouched on both ends.
        assert src.stats.h2d_bytes == 0 and src.stats.d2h_bytes == 0
        assert dst.stats.h2d_bytes == 0 and dst.stats.d2h_bytes == 0
        for ctx in (src, dst):
            intervals = ctx.timeline.stream(P2P_STREAM).intervals
            assert len(intervals) == 1
            assert intervals[0].kind == "p2p"
        assert event.time == pytest.approx(
            src.timing.peer_transfer_time(256, dst.device)
        )

    def test_link_is_shared_consecutive_copies_serialize(self):
        src = GPUContext(GTX_280)
        dst = GPUContext(GTX_280)
        first = src.copy_peer_async(dst, "a", np.zeros(128, dtype=np.uint8))
        second = src.copy_peer_async(dst, "b", np.zeros(128, dtype=np.uint8))
        assert second.time >= 2 * (first.time - 0) - 1e-15

    def test_incapable_endpoint_raises(self):
        src = GPUContext(GTX_280)
        dst = GPUContext(GTX_8800)
        assert not src.can_access_peer(dst)
        with pytest.raises(RuntimeError, match="p2p-capable"):
            src.copy_peer_async(dst, "x", np.zeros(8, dtype=np.uint8))


class TestWeightedPartitioning:
    def test_equal_weights_reduce_to_even_split(self):
        for total, parts in [(103, 4), (10, 3), (7, 7), (0, 2), (3, 5)]:
            even = partition_range(total, parts)
            weighted = weighted_partition_range(total, [2.5] * parts)
            assert weighted == even

    def test_proportional_and_covering(self):
        parts = weighted_partition_range(100, [3.0, 1.0])
        assert parts[0].size == 75 and parts[1].size == 25
        assert parts[0].start == 0 and parts[-1].stop == 100
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    def test_largest_remainder_sums_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            total = int(rng.integers(0, 500))
            weights = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 6)))
            parts = weighted_partition_range(total, weights)
            assert sum(p.size for p in parts) == total
            shares = total * weights / weights.sum()
            for part, share in zip(parts, shares):
                assert abs(part.size - share) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_partition_range(-1, [1.0])
        with pytest.raises(ValueError):
            weighted_partition_range(10, [])
        with pytest.raises(ValueError):
            weighted_partition_range(10, [1.0, -1.0])
        with pytest.raises(ValueError):
            weighted_partition_range(10, [0.0, 0.0])

    def test_throughput_weights_homogeneous_equal(self):
        weights = throughput_weights([GTX_280, GTX_280, GTX_280])
        assert weights[0] == weights[1] == weights[2]

    def test_throughput_weights_order_faster_device_heavier(self):
        cost = KernelCostProfile(flops=100.0, gmem_bytes=50.0)
        w280, w8800 = throughput_weights([GTX_280, GTX_8800], cost)
        assert w280 > w8800


class TestDeviceScheduler:
    """Pool clocks and reports over work issued through the contexts' async API."""

    def test_concurrent_issue_overlaps_devices(self):
        contexts = [GPUContext(GTX_280) for _ in range(3)]
        scheduler = DeviceScheduler(contexts)
        kernel = _copy_kernel()
        src = np.ones(4096)
        for ctx in contexts:
            upload = ctx.copy_async("src", src)
            ctx.launch_async(kernel, 4096, (src, np.empty(4096)), wait_for=[upload])
            ctx.download_async("src", wait_for=[upload])
        # All three devices ran the same chain concurrently: the pool-level
        # makespan is one chain, the serialized sum is three.
        assert scheduler.makespan < scheduler.serialized_sum
        assert scheduler.overlap_saved == pytest.approx(
            scheduler.serialized_sum - scheduler.makespan
        )
        assert scheduler.makespan == pytest.approx(
            max(ctx.timeline.elapsed for ctx in contexts)
        )

    def test_cross_device_event_ordering(self):
        contexts = [GPUContext(GTX_280), GPUContext(GTX_280)]
        upload = contexts[0].copy_async("a", np.zeros(1 << 16))
        # An operation on device 1 gated by an event from device 0 cannot
        # start before that event fires.
        gated = contexts[1].copy_async("b", np.zeros(16, dtype=np.uint8), wait_for=[upload])
        interval = contexts[1].timeline.stream("h2d").intervals[0]
        assert interval.start >= upload.time
        assert gated.time > upload.time

    def test_host_ops_count_into_makespan(self):
        scheduler = DeviceScheduler([GPUContext(GTX_280)])
        interval = scheduler.host_timeline.schedule(
            "gather", "partials", 1.0, stream=HOST_TIMELINE_STREAM
        )
        assert interval.end == pytest.approx(1.0)
        assert scheduler.makespan == pytest.approx(1.0)
        assert scheduler.serialized_sum == pytest.approx(1.0)

    def test_merged_timeline_report(self):
        contexts = [GPUContext(GTX_280), GPUContext(GTX_280)]
        scheduler = DeviceScheduler(contexts)
        for ctx in contexts:
            ctx.copy_async("x", np.zeros(1024))
        scheduler.host_timeline.schedule(
            "gather", "results", 1e-6, stream=HOST_TIMELINE_STREAM
        )
        report = timeline_report(scheduler)
        assert "gpu0:h2d" in report and "gpu1:h2d" in report
        assert "host:host" in report
        assert "makespan" in report
        # A bare context list merges the same way (without the host rows).
        report_list = timeline_report(contexts)
        assert "gpu1:h2d" in report_list and "host:host" not in report_list

    def test_route_peer_and_capability(self):
        capable = DeviceScheduler([GPUContext(GTX_280), GPUContext(GTX_280)])
        assert capable.all_peer_capable
        src, dst = capable.contexts
        event = src.copy_peer_async(dst, "pkt", np.zeros(64, dtype=np.uint8))
        assert event.time > 0
        mixed = DeviceScheduler([GPUContext(GTX_280), GPUContext(GTX_8800)])
        assert not mixed.all_peer_capable
        assert not mixed.contexts[0].can_access_peer(mixed.contexts[1])

    def test_needs_at_least_one_context(self):
        with pytest.raises(ValueError):
            DeviceScheduler([])


def _half_duplex_topology(specs):
    """A ``dedicated`` fabric whose host and peer links are half duplex."""
    keys = [f"gpu{index}" for index in range(len(specs))]
    host_paths = {
        key: (
            Link(
                f"pcie:{key}", bandwidth=spec.pcie_pinned_bandwidth, latency=spec.pcie_latency,
                duplex=False, pageable_bandwidth=spec.pcie_bandwidth,
            ),
        )
        for key, spec in zip(keys, specs)
    }
    peer_paths = {
        (a, b): (Link(f"p2p:{a}-{b}", bandwidth=4.0e9, latency=2.0e-6, duplex=False),)
        for position, a in enumerate(keys)
        for b in keys[position + 1 :]
    }
    return InterconnectTopology(
        "half-duplex", device_keys=keys, host_paths=host_paths, peer_paths=peer_paths
    )


class TestResidentStepPricing:
    """A pool step priced in one call equals its rows priced one device at a time.

    Each case runs the same seeded resident steps on two identical pools:
    one prices every step's plan in one ``price_resident_step`` call, the
    other splits it into the delta route plus one plan per device row, in
    device order.  The host sync points lag the devices' clocks, so packets
    overlap earlier downloads (a stall on a half-duplex lane or the shared
    uplink); every stream interval, counter and engine commit must agree
    float for float.
    """

    STEPS = 6

    def _plans(self, pool, rng):
        kernel = _copy_kernel("resident")
        for step in range(self.STEPS):
            plan = ResidentStepPlan(
                kernel=kernel, reduce=None if step % 3 == 2 else "FusedReduce<argmin>"
            )
            plan.issues = [("delta_hub", 2.0e-6)]
            if step % 2 == 0 and pool.all_peer_capable:
                plan.hub = 0
                plan.hub_packet = ("hub", np.zeros(int(rng.integers(64, 512)), np.uint8))
                plan.hub_not_before = float(rng.uniform(0.0, 1.0)) * pool.makespan
                plan.forwards = [
                    (device, "forward", np.zeros(int(rng.integers(16, 128)), np.uint8))
                    for device in range(1, len(pool.contexts))
                ]
            for device, ctx in enumerate(pool.contexts):
                rows, moves = int(rng.integers(1, 9)), int(rng.integers(16, 64))
                for packets, name, chance in (
                    (plan.packets, "deltas", 0.7), (plan.reduction_packets, "packet", 0.6)
                ):
                    size = int(rng.integers(8, 4096))
                    packets.append(
                        (name, np.zeros(size, np.uint8)) if rng.random() < chance else None
                    )
                download = f"out{step}"
                ctx.alloc(download, (rows if plan.reduce else rows * moves,), np.float64)
                ctx.memory.get(download).data[...] = step + device
                plan.devices.append(device)
                plan.not_before.append(
                    float(rng.uniform(0.5, 1.0)) * ctx.timeline.elapsed
                )
                plan.shapes.append((rows, moves))
                plan.downloads.append(download)
            yield step, plan

    @staticmethod
    def _rows(plan):
        """The plan as its delta route plus one plan per device row."""
        route = ResidentStepPlan(
            issues=plan.issues, hub=plan.hub, hub_packet=plan.hub_packet,
            hub_not_before=plan.hub_not_before, forwards=plan.forwards,
        )
        rows = [
            ResidentStepPlan(
                devices=[device], not_before=[sync], packets=[packet], shapes=[shape],
                kernel=plan.kernel, block_size=plan.block_size, reduce=plan.reduce,
                reduction_packets=[reduction], downloads=[download],
            )
            for device, sync, packet, shape, reduction, download in zip(
                plan.devices, plan.not_before, plan.packets, plan.shapes,
                plan.reduction_packets, plan.downloads,
            )
        ]
        return [route, *rows]

    @staticmethod
    def _record(pool, times):
        def lanes(timeline):
            return [
                (name, stream.cursor, [tuple(vars(i).values()) for i in stream.intervals])
                for name, stream in timeline.streams.items()
            ]

        engine = pool.engine
        return {
            "times": [
                (t.issues, t.upload, t.arrivals, t.done, t.latest,
                 [data.tobytes() for data in t.data])
                for t in times
            ],
            "streams": [lanes(ctx.timeline) for ctx in pool.contexts],
            "host": lanes(pool.host_timeline),
            "stats": [
                (
                    ctx.stats.snapshot(),
                    [(r.config, r.active_threads, r.time, r.work_shape)
                     for r in ctx.stats.launch_records],
                )
                for ctx in pool.contexts
            ],
            "loads": {
                key: (load.starts, load.ends, load.nbytes, load.transfers)
                for key, load in engine._loads.items()
            },
            "links": lanes(engine.timeline),
            "total_stall": engine.total_stall,
            "stall_by_device": engine.stall_by_device,
            "transfers": engine.transfers,
            "retries": (engine.retried_transfers, engine.retry_time),
        }

    def _run(self, devices, topology, *, split, faults=False):
        pool = DeviceScheduler(build_contexts(devices, topology=topology))
        for ctx in pool.contexts:
            ctx.keep_launch_records = True
        steps = []
        for step, plan in self._plans(pool, np.random.default_rng(7)):
            if faults and step in (1, 3):
                pool.engine.inject_transfer_faults(count=3, retries=2, backoff=1.0e-5)
            if not split:
                steps.append(pool.price_resident_step(plan))
                continue
            route, *rows = [pool.price_resident_step(part) for part in self._rows(plan)]
            steps.append(
                route._replace(
                    **{
                        field: [value for row in rows for value in getattr(row, field)]
                        for field in ("data", "done")
                    },
                    latest=max(route.latest, *(row.latest for row in rows)),
                )
            )
        return self._record(pool, steps)

    @pytest.mark.parametrize(
        "devices, topology",
        [
            pytest.param(4, "dedicated", id="dedicated-4"),
            pytest.param(8, "dedicated", id="dedicated-8"),
            pytest.param(4, _half_duplex_topology([GTX_280] * 4), id="half-duplex-4"),
            pytest.param(4, "shared", id="shared-4"),
            pytest.param([GTX_280, GTX_8800, TESLA_C1060], "shared", id="shared-mixed"),
        ],
    )
    @pytest.mark.parametrize("faults", [False, True], ids=["no-fault", "flaky"])
    def test_one_call_equals_device_by_device(self, devices, topology, faults):
        whole = self._run(devices, topology, split=False, faults=faults)
        split = self._run(devices, topology, split=True, faults=faults)
        assert whole == split
        if faults:
            assert whole["retries"][0] > 0
        if not isinstance(topology, str) or topology == "shared":
            assert whole["total_stall"] > 0.0
