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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    GTX_280,
    GTX_8800,
    TOPOLOGY_PRESETS,
    DeviceScheduler,
    GPUContext,
    HostMemoryKind,
    InterconnectTopology,
    Link,
    TransferEngine,
    TransferRequest,
    build_contexts,
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

    @pytest.mark.parametrize("preset", sorted(TOPOLOGY_PRESETS))
    def test_every_preset_rejects_an_empty_pool(self, preset):
        with pytest.raises(ValueError, match="topology needs at least one device"):
            TOPOLOGY_PRESETS[preset]([])

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


class TestTransferAt:
    """``transfer_at`` prices like a one-request ``transfer_batch``."""

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
        at, batched = TransferEngine(topology), TransferEngine(topology)
        for engine in (at, batched):
            engine.inject_transfer_faults(3, retries=2, backoff=1e-5)
        ends = []
        for index in range(60):
            direction = ["h2d", "d2h", "p2p"][int(rng.integers(3))]
            peer = "gpu1" if direction == "p2p" else None
            device = "gpu0" if peer else f"gpu{rng.integers(3)}"
            nbytes = int(rng.integers(0, MIB))
            kind = None if peer else [HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED][
                int(rng.integers(2))
            ]
            start = float(rng.random() * 2e-3)
            if index and rng.random() < 0.3:
                # Stream order: queue behind an earlier copy.
                start = max(start, ends[int(rng.integers(index))])
            duration = at.transfer_at(
                device, direction, nbytes, kind, start, peer=peer, label=f"copy{index}"
            )
            (grant,) = batched.transfer_batch(
                [
                    TransferRequest(
                        device=device, direction=direction, nbytes=nbytes, kind=kind,
                        start=start, peer=peer, label=f"copy{index}",
                    )
                ]
            )
            assert (start, duration) == (grant.start, grant.duration)
            ends.append(start + duration)
        assert at.snapshot() == batched.snapshot()
        assert at.total_stall > 0.0 or preset == "dedicated"


def _lanes(engine):
    return {
        name: (stream.cursor, [tuple(vars(i).values()) for i in stream.intervals])
        for name, stream in engine.timeline.streams.items()
    }


class TestWalkMatchesArbitration:
    """The walk of ``transfer_at`` against the general fluid arbitration.

    Twin engines see the same history of committed multi-request batches;
    each lone copy is priced by ``transfer_at`` on one engine and by a
    one-request ``transfer_batch`` (``_arbitrate``) on the other.
    """

    @staticmethod
    def _copy(data, index, boundaries):
        direction = data.draw(st.sampled_from(["h2d", "d2h", "p2p"]))
        peer = "gpu1" if direction == "p2p" else None
        device = "gpu0" if peer else data.draw(st.sampled_from(["gpu0", "gpu1", "gpu2"]))
        kind = None if peer else data.draw(
            st.sampled_from([HostMemoryKind.PAGEABLE, HostMemoryKind.PINNED])
        )
        # Zero-byte copies, and starts exactly on a committed boundary.
        nbytes = data.draw(st.one_of(st.just(0), st.integers(1, MIB)))
        start = data.draw(
            st.one_of(st.floats(0.0, 2e-3), st.sampled_from(boundaries))
        )
        return TransferRequest(
            device=device, direction=direction, nbytes=nbytes, kind=kind,
            start=start, peer=peer, label=f"copy{index}",
        )

    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(["dedicated", "shared", "switched", "nvlink", "half"]),
        faults=st.integers(0, 3),
        data=st.data(),
    )
    def test_lone_copy_prices_as_a_one_request_batch(self, preset, faults, data):
        if preset == "half":
            topology = TestTransferAt._half_duplex()
        else:
            topology = resolve_topology(preset, [GTX_280] * 3)
        walk, batch = TransferEngine(topology), TransferEngine(topology)
        if faults:
            for engine in (walk, batch):
                engine.inject_transfer_faults(faults, retries=2, backoff=1e-5)
        boundaries = [0.0]
        for index in range(data.draw(st.integers(1, 12), label="operations")):
            if data.draw(st.booleans(), label="history batch"):
                requests = [
                    self._copy(data, index, boundaries)
                    for _ in range(data.draw(st.integers(2, 4), label="batch size"))
                ]
                grants = walk.transfer_batch(requests)
                assert batch.transfer_batch(requests) == grants
                boundaries += [t for grant in grants for t in (grant.start, grant.end)]
                continue
            request = self._copy(data, index, boundaries)
            duration = walk.transfer_at(
                request.device, request.direction, request.nbytes, request.kind,
                request.start, peer=request.peer, label=request.label,
            )
            (grant,) = batch.transfer_batch([request])
            assert duration == grant.duration
            boundaries += [request.start, request.start + duration]
        assert walk.snapshot() == batch.snapshot()
        assert (walk.total_stall, walk.stall_by_device) == (
            batch.total_stall, batch.stall_by_device
        )
        assert _lanes(walk) == _lanes(batch)

    def test_copy_ending_just_past_a_boundary(self):
        # A copy that would end 1e-7 (relative) after a committed transfer
        # leaves the uplink is past the 1e-12 finish threshold: it takes a
        # second round at the freed rate, in the walk as in `_arbitrate`.
        topology = resolve_topology("shared", [GTX_280] * 2)
        walk, batch = TransferEngine(topology), TransferEngine(topology)
        for engine in (walk, batch):
            first = engine.transfer("gpu0", "h2d", 4 << 30, kind=HostMemoryKind.PINNED)
        rate = min(walk._path("gpu1", "h2d", None, HostMemoryKind.PINNED).rate,
                   topology.uplink.bandwidth / 2)
        nbytes = int(first.end * rate * (1.0 + 1e-7))
        duration = walk.transfer_at("gpu1", "h2d", nbytes, HostMemoryKind.PINNED, 0.0)
        grant = batch.transfer("gpu1", "h2d", nbytes, kind=HostMemoryKind.PINNED)
        assert duration == grant.duration
        assert walk.snapshot() == batch.snapshot()


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
                assert engine.link_bytes(topo.uplink.name) == total
                assert sum(
                    engine.link_bytes(f"pcie:{key}") for key in topo.device_keys
                ) == engine.link_bytes(topo.uplink.name)

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

    def test_stall_attribution(self):
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

    def test_format_interconnect_lists_busy_links(self):
        engine = TransferEngine(shared4())
        engine.transfer("gpu0", "h2d", MIB, label="resident")
        text = format_interconnect(engine)
        assert "topology shared" in text
        assert "uplink" in text and "(shared)" in text
        assert "contention stall" in text

    def test_timeline_report_renders_uplink_lane(self):
        pool = DeviceScheduler(build_contexts([GTX_280] * 2, topology="shared"))
        pool.upload_batch([(0, "a", np.zeros(256)), (1, "b", np.zeros(256))])
        report = timeline_report(pool)
        assert "interconnect:uplink" in report
        assert "contention stall" in report
        # The engine alone renders the same lanes.
        assert "interconnect:uplink" in timeline_report(pool.engine)


class TestContextIntegration:
    def test_pool_contexts_share_one_engine(self):
        contexts = build_contexts([GTX_280] * 3, topology="shared")
        engines = {id(ctx.engine) for ctx in contexts}
        assert len(engines) == 1
        assert contexts[0].device_key == "gpu0"
        assert contexts[2].device_key == "gpu2"
        assert DeviceScheduler(contexts).engine is contexts[0].engine

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
        assert ctx.engine.link_bytes("uplink") == 2 * 8 * 1024
        assert ctx.engine.link_bytes("pcie:gpu0", "h2d") == 8 * 1024
        assert ctx.engine.link_bytes("pcie:gpu0", "d2h") == 8 * 1024

    def test_peer_copy_uses_topology_route_on_shared_engine(self):
        src, dst = build_contexts([GTX_280, GTX_280], topology="nvlink")
        event = src.copy_peer_async(dst, "pkt", np.zeros(1 << 16, dtype=np.uint8))
        # NVLink edge: much faster than the legacy PCIe peer pricing.
        legacy = src.timing.peer_transfer_time(1 << 16, dst.device)
        assert event.time < legacy
        assert src.engine.link_bytes("nvlink:gpu0-gpu1") == 1 << 16

    def test_incapable_peer_has_no_route_on_shared_engine(self):
        src, dst = build_contexts([GTX_280, GTX_8800], topology="shared")
        assert not src.can_access_peer(dst)
        with pytest.raises(RuntimeError):
            src.copy_peer_async(dst, "x", np.zeros(8, dtype=np.uint8))
