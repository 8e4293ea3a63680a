"""Unit tests of the interconnect engine: links, topologies, routing and
progressive fair-share arbitration.

The load-bearing invariants:

* a *single* transfer prices bit-identically to the legacy
  ``GPUTimingModel.transfer_time`` / ``peer_transfer_time`` model on every
  preset topology (the back-compat contract);
* overlapping transfers on a shared link each see their fair share of its
  capacity, so a contended copy is never faster than a dedicated one;
* bytes are conserved per link regardless of how the arbitration stretched
  the copies.
"""

import numpy as np
import pytest

from repro.gpu import (
    GTX_280,
    GTX_8800,
    DeviceScheduler,
    GPUContext,
    HostMemoryKind,
    InterconnectTopology,
    Link,
    MultiGPU,
    SequencedTransfer,
    TransferEngine,
    TransferRequest,
    format_interconnect,
    resolve_topology,
    timeline_report,
)
from repro.gpu.timing import GPUTimingModel

MIB = 1 << 20


def shared4():
    return InterconnectTopology.shared_uplink([GTX_280] * 4)


def dedicated4():
    return InterconnectTopology.dedicated([GTX_280] * 4)


class TestLinksAndTopology:
    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(name="bad", bandwidth=0.0)
        with pytest.raises(ValueError):
            Link(name="bad", bandwidth=1.0, latency=-1.0)

    def test_device_link_kind_properties(self):
        topo = dedicated4()
        link = topo.links["pcie:gpu0"]
        assert link.rate_cap(HostMemoryKind.PAGEABLE) == GTX_280.pcie_bandwidth
        assert link.rate_cap(HostMemoryKind.PINNED) == GTX_280.pcie_pinned_bandwidth
        assert link.kind_latency(HostMemoryKind.PAGEABLE) == GTX_280.pcie_latency
        assert link.kind_latency(HostMemoryKind.PINNED) == GTX_280.pcie_pinned_latency

    def test_presets_route_every_device(self):
        for name in ("dedicated", "shared", "switched", "nvlink"):
            topo = resolve_topology(name, [GTX_280] * 3)
            for key in topo.device_keys:
                route = topo.host_route(key, HostMemoryKind.PAGEABLE)
                assert route.links
                assert route.rate_cap <= GTX_280.pcie_pinned_bandwidth

    def test_shared_presets_have_an_uplink_dedicated_does_not(self):
        assert dedicated4().uplink is None
        for name in ("shared", "switched", "nvlink"):
            topo = resolve_topology(name, [GTX_280] * 2)
            assert topo.uplink is not None
            assert topo.uplink.shared

    def test_peer_routes_follow_capability(self):
        mixed = resolve_topology("shared", [GTX_280, GTX_8800])
        assert not mixed.has_peer_route("gpu0", "gpu1")
        capable = resolve_topology("shared", [GTX_280, GTX_280])
        assert capable.has_peer_route("gpu0", "gpu1")
        assert capable.has_peer_route("gpu1", "gpu0")  # symmetric

    def test_nvlink_mesh_is_fat_and_low_latency(self):
        topo = resolve_topology("nvlink", [GTX_280] * 2)
        route = topo.peer_route("gpu0", "gpu1")
        assert route.rate_cap > GTX_280.p2p_bandwidth
        assert route.latency < GTX_280.p2p_latency

    def test_resolve_validates(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("ring", [GTX_280])
        with pytest.raises(ValueError, match="describes"):
            resolve_topology(shared4(), [GTX_280] * 2)
        with pytest.raises(TypeError):
            resolve_topology(42, [GTX_280])
        with pytest.raises(KeyError):
            shared4().host_route("gpu9", HostMemoryKind.PAGEABLE)

    def test_context_rejects_engine_plus_topology(self):
        engine = TransferEngine(dedicated4())
        with pytest.raises(ValueError, match="not both"):
            GPUContext(GTX_280, engine=engine, topology="shared")
        with pytest.raises(ValueError, match="device_key"):
            GPUContext(GTX_280, engine=engine, device_key="gpu9")


class TestSingleTransferBackCompat:
    @pytest.mark.parametrize("topology", ["dedicated", "shared", "switched", "nvlink"])
    @pytest.mark.parametrize("kind", [HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED])
    def test_host_copy_bit_identical_to_legacy_model(self, topology, kind):
        engine = TransferEngine(resolve_topology(topology, [GTX_280] * 4))
        legacy = GPUTimingModel(GTX_280)
        # Disjoint one-second windows: each copy is alone on its route.
        for slot, nbytes in enumerate((1, 4096, 12345, 4 * MIB)):
            for direction in ("h2d", "d2h"):
                grant = engine.transfer(
                    "gpu2", direction, nbytes, kind=kind, start=float(slot)
                )
                assert grant.duration == legacy.transfer_time(nbytes, kind)
                assert grant.stall == 0.0

    def test_peer_copy_bit_identical_to_legacy_model(self):
        engine = TransferEngine(dedicated4())
        legacy = GPUTimingModel(GTX_280)
        grant = engine.peer_transfer("gpu0", "gpu3", 98765)
        assert grant.duration == legacy.peer_transfer_time(98765, GTX_280)

    def test_zero_bytes_costs_latency_only(self):
        engine = TransferEngine(shared4())
        grant = engine.transfer("gpu0", "h2d", 0, kind=HostMemoryKind.PAGEABLE)
        assert grant.duration == GTX_280.pcie_latency

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TransferEngine(shared4()).transfer("gpu0", "h2d", -1)

    def test_unknown_direction_and_missing_peer(self):
        engine = TransferEngine(shared4())
        with pytest.raises(ValueError, match="direction"):
            engine.transfer("gpu0", "sideways", 10)
        with pytest.raises(ValueError, match="destination"):
            engine.transfer_batch(
                [TransferRequest(device="gpu0", direction="p2p", nbytes=1)]
            )
        mixed = TransferEngine(resolve_topology("shared", [GTX_280, GTX_8800]))
        with pytest.raises(ValueError, match="no peer route"):
            mixed.peer_transfer("gpu0", "gpu1", 10)


class TestFairShareArbitration:
    def test_concurrent_uploads_split_the_uplink(self):
        # The headline contention scenario: four simultaneous replica
        # uploads on a shared root complex must each crawl at ~1/4 of the
        # uplink — at least 3x the dedicated-link time — while the same
        # batch on dedicated links runs at full rate.
        for kind in (HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED):
            requests = [
                TransferRequest(
                    device=f"gpu{i}", direction="h2d", nbytes=4 * MIB, kind=kind
                )
                for i in range(4)
            ]
            contended = TransferEngine(shared4()).transfer_batch(requests)
            dedicated = TransferEngine(dedicated4()).transfer_batch(requests)
            for slow, fast in zip(contended, dedicated):
                assert fast.duration == fast.dedicated
                assert slow.duration >= 3.0 * fast.duration
                assert slow.stall > 0.0

    def test_two_equal_transfers_halve_the_rate(self):
        engine = TransferEngine(shared4())
        grants = engine.transfer_batch(
            [
                TransferRequest(
                    device=f"gpu{i}", direction="h2d", nbytes=8 * MIB,
                    kind=HostMemoryKind.PINNED,
                )
                for i in range(2)
            ]
        )
        nominal = 8 * MIB / GTX_280.pcie_pinned_bandwidth
        for grant in grants:
            assert grant.duration - GTX_280.pcie_pinned_latency == pytest.approx(
                2 * nominal
            )

    def test_duplex_directions_do_not_contend(self):
        engine = TransferEngine(shared4())
        grants = engine.transfer_batch(
            [
                TransferRequest(device="gpu0", direction="h2d", nbytes=MIB),
                TransferRequest(device="gpu1", direction="d2h", nbytes=MIB),
            ]
        )
        for grant in grants:
            assert grant.stall == 0.0

    def test_half_duplex_directions_do_contend(self):
        half = Link(name="bus", bandwidth=1e9, latency=0.0, duplex=False)
        topo = InterconnectTopology(
            "half",
            device_keys=["gpu0", "gpu1"],
            host_paths={"gpu0": (half,), "gpu1": (half,)},
            peer_paths={},
        )
        grants = TransferEngine(topo).transfer_batch(
            [
                TransferRequest(device="gpu0", direction="h2d", nbytes=MIB, kind=None),
                TransferRequest(device="gpu1", direction="d2h", nbytes=MIB, kind=None),
            ]
        )
        for grant in grants:
            assert grant.duration == pytest.approx(2 * MIB / 1e9)

    def test_progressive_arbitration_never_stretches_committed_grants(self):
        engine = TransferEngine(shared4())
        first = engine.transfer("gpu0", "h2d", 4 * MIB, kind=HostMemoryKind.PINNED)
        # A later arrival overlaps the committed transfer: it is slowed by
        # the residual share, the committed grant is immutable.
        second = engine.transfer(
            "gpu1", "h2d", 4 * MIB, kind=HostMemoryKind.PINNED, start=0.0
        )
        assert first.duration == first.dedicated
        assert second.duration > second.dedicated
        # Half the second transfer ran at half rate (under the first), the
        # rest at full rate once the uplink freed up.
        assert second.duration == pytest.approx(1.5 * first.dedicated, rel=1e-6)

    def test_disjoint_windows_do_not_contend(self):
        engine = TransferEngine(shared4())
        first = engine.transfer("gpu0", "h2d", MIB)
        later = engine.transfer("gpu1", "h2d", MIB, start=first.end + 1.0)
        assert later.stall == 0.0

    def test_contended_is_never_faster_than_dedicated(self):
        rng = np.random.default_rng(11)
        engine = TransferEngine(shared4())
        for _ in range(40):
            grant = engine.transfer(
                f"gpu{rng.integers(4)}",
                "h2d" if rng.random() < 0.5 else "d2h",
                int(rng.integers(1, MIB)),
                kind=HostMemoryKind.PAGEABLE,
                start=float(rng.random() * 1e-3),
            )
            assert grant.duration >= grant.dedicated - 1e-18

    def test_switched_peer_copies_share_the_fabric(self):
        topo = resolve_topology("switched", [GTX_280] * 4)
        engine = TransferEngine(topo)
        grants = engine.transfer_batch(
            [
                TransferRequest(
                    device="gpu0", direction="p2p", peer="gpu1", nbytes=4 * MIB, kind=None
                ),
                TransferRequest(
                    device="gpu2", direction="p2p", peer="gpu3", nbytes=4 * MIB, kind=None
                ),
            ]
        )
        for grant in grants:
            assert grant.stall > 0.0
        # ... but not with host traffic, which has its own uplink.
        host = engine.transfer("gpu0", "h2d", MIB)
        assert host.stall == 0.0


class TestTransferSequence:
    """``transfer_sequence`` prices like one ``transfer_batch`` per copy."""

    @staticmethod
    def _half_duplex():
        bus = Link(name="bus", bandwidth=2e9, latency=1e-6, duplex=False, shared=True)
        keys = ["gpu0", "gpu1", "gpu2"]
        return InterconnectTopology(
            "half",
            device_keys=keys,
            host_paths={key: (bus,) for key in keys},
            peer_paths={("gpu0", "gpu1"): (Link(name="p2p:01", bandwidth=5e9),)},
            uplink=bus,
        )

    @pytest.mark.parametrize("preset", ["dedicated", "shared", "switched", "nvlink", "half"])
    def test_matches_one_batch_per_copy(self, preset):
        if preset == "half":
            topology = self._half_duplex()
        else:
            topology = resolve_topology(preset, [GTX_280] * 3)
        rng = np.random.default_rng(7)
        sequence = []
        for index in range(60):
            direction = ["h2d", "d2h", "p2p"][int(rng.integers(3))]
            peer = "gpu1" if direction == "p2p" else None
            after = (int(rng.integers(index)),) if index and rng.random() < 0.3 else ()
            sequence.append(
                SequencedTransfer(
                    "gpu0" if peer else f"gpu{rng.integers(3)}",
                    direction,
                    int(rng.integers(0, MIB)),
                    None if peer else [HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED][
                        int(rng.integers(2))
                    ],
                    float(rng.random() * 2e-3),
                    peer=peer,
                    label=f"copy{index}",
                    after=after,
                )
            )
        batched, one_by_one = TransferEngine(topology), TransferEngine(topology)
        for engine in (batched, one_by_one):
            engine.inject_transfer_faults(3, retries=2, backoff=1e-5)
        starts, durations = batched.transfer_sequence(sequence)
        expected_starts, expected = [], []
        for transfer in sequence:
            start = max(
                [transfer.start]
                + [expected_starts[j] + expected[j] for j in transfer.after]
            )
            (grant,) = one_by_one.transfer_batch(
                [
                    TransferRequest(
                        device=transfer.device, direction=transfer.direction,
                        nbytes=transfer.nbytes, kind=transfer.kind, start=start,
                        peer=transfer.peer, label=transfer.label,
                    )
                ]
            )
            expected_starts.append(grant.start)
            expected.append(grant.duration)
        assert starts == expected_starts
        assert durations == expected
        assert batched.snapshot() == one_by_one.snapshot()
        assert batched.total_stall > 0.0 or preset == "dedicated"

    def test_after_orders_a_copy_behind_earlier_ones(self):
        engine = TransferEngine(dedicated4())
        starts, durations = engine.transfer_sequence(
            [
                SequencedTransfer("gpu0", "h2d", MIB, HostMemoryKind.PINNED, 0.0),
                SequencedTransfer("gpu1", "h2d", MIB, HostMemoryKind.PINNED, 1e-6, after=(0,)),
            ]
        )
        assert starts == [0.0, durations[0]]


class TestAccounting:
    def test_bytes_conserved_per_link_regardless_of_arbitration(self):
        requests = [
            TransferRequest(device=f"gpu{i % 4}", direction="h2d", nbytes=(i + 1) * 1000)
            for i in range(8)
        ]
        for topo in (dedicated4(), shared4()):
            engine = TransferEngine(topo)
            engine.transfer_batch(requests)
            total = sum(request.nbytes for request in requests)
            per_device = {
                key: sum(r.nbytes for r in requests if r.device == key)
                for key in topo.device_keys
            }
            for key, expected in per_device.items():
                assert engine.link_bytes(f"pcie:{key}") == expected
            if topo.uplink is not None:
                assert engine.uplink_bytes() == total
                assert sum(
                    engine.link_bytes(f"pcie:{key}") for key in topo.device_keys
                ) == engine.uplink_bytes()

    def test_uplink_busy_is_interval_union(self):
        engine = TransferEngine(shared4())
        a = engine.transfer("gpu0", "h2d", MIB)
        engine.transfer("gpu1", "h2d", MIB, start=a.end + 5.0)
        # Two disjoint windows: busy time is their summed durations.
        assert engine.uplink_busy() == pytest.approx(a.duration * 2)
        overlapped = TransferEngine(shared4())
        overlapped.transfer_batch(
            [
                TransferRequest(device=f"gpu{i}", direction="h2d", nbytes=MIB)
                for i in range(2)
            ]
        )
        # Full overlap: the union is one (stretched) window, not the sum.
        assert overlapped.uplink_busy() < 2 * a.duration * 2

    def test_stall_attribution_and_reset(self):
        engine = TransferEngine(shared4())
        engine.transfer_batch(
            [
                TransferRequest(device=f"gpu{i}", direction="h2d", nbytes=4 * MIB)
                for i in range(4)
            ]
        )
        assert engine.total_stall > 0.0
        assert set(engine.stall_by_device) == {f"gpu{i}" for i in range(4)}
        assert engine.link_transfers("uplink") == 4
        engine.reset()
        assert engine.total_stall == 0.0
        assert engine.transfers == 0
        assert engine.uplink_bytes() == 0.0
        assert not engine.timeline.streams

    def test_format_interconnect_lists_busy_links(self):
        engine = TransferEngine(shared4())
        engine.transfer("gpu0", "h2d", MIB, label="resident")
        text = format_interconnect(engine)
        assert "topology shared" in text
        assert "uplink" in text and "(shared)" in text
        assert "contention stall" in text

    def test_timeline_report_renders_uplink_lane(self):
        pool = MultiGPU([GTX_280] * 2, topology="shared")
        scheduler = DeviceScheduler(pool.contexts, engine=pool.engine)
        scheduler.upload_batch([(0, "a", np.zeros(256)), (1, "b", np.zeros(256))])
        report = timeline_report(scheduler)
        assert "interconnect:uplink" in report
        assert "contention stall" in report
        # The engine alone renders the same lanes.
        assert "interconnect:uplink" in timeline_report(pool.engine)


class TestContextIntegration:
    def test_pool_contexts_share_one_engine(self):
        pool = MultiGPU([GTX_280] * 3, topology="shared")
        engines = {id(ctx.engine) for ctx in pool.contexts}
        assert len(engines) == 1
        assert pool.contexts[0].device_key == "gpu0"
        assert pool.contexts[2].device_key == "gpu2"

    def test_standalone_context_gets_private_dedicated_engine(self):
        ctx = GPUContext(GTX_280)
        assert ctx.engine.topology.name == "dedicated"
        other = GPUContext(GTX_280)
        assert ctx.engine is not other.engine

    def test_sync_transfers_route_through_engine(self):
        ctx = GPUContext(GTX_280, topology="shared")
        ctx.to_device("a", np.zeros(1024, dtype=np.float64))
        ctx.to_host("a")
        assert ctx.engine.transfers == 2
        assert ctx.engine.uplink_bytes() == 2 * 8 * 1024
        assert ctx.engine.link_bytes("pcie:gpu0", "h2d") == 8 * 1024
        assert ctx.engine.link_bytes("pcie:gpu0", "d2h") == 8 * 1024

    def test_context_reset_rewinds_engine(self):
        ctx = GPUContext(GTX_280, topology="shared")
        ctx.to_device("a", np.zeros(8))
        ctx.reset()
        assert ctx.engine.transfers == 0

    def test_peer_copy_uses_topology_route_on_shared_engine(self):
        pool = MultiGPU([GTX_280, GTX_280], topology="nvlink")
        src, dst = pool.contexts
        event = src.copy_peer_async(dst, "pkt", np.zeros(1 << 16, dtype=np.uint8))
        # NVLink edge: much faster than the legacy PCIe peer pricing.
        legacy = src.timing.peer_transfer_time(1 << 16, dst.device)
        assert event.time < legacy
        assert pool.engine.link_bytes("nvlink:gpu0-gpu1") == 1 << 16

    def test_incapable_peer_has_no_route_on_shared_engine(self):
        pool = MultiGPU([GTX_280, GTX_8800], topology="shared")
        src, dst = pool.contexts
        assert not src.can_access_peer(dst)
        with pytest.raises(RuntimeError):
            src.copy_peer_async(dst, "x", np.zeros(8, dtype=np.uint8))
