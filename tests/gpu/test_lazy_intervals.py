"""Lazy array-backed interval accounting vs eager interval objects.

The hot-loop rework replaced per-operation :class:`StreamInterval` objects
with parallel columns plus O(1) counters; interval objects are now built
only on demand.  These randomized tests assert the lazily-materialized
records equal the objects :meth:`Stream.schedule` returned — same values,
same order, bit-identical floats — and that the O(1) counters
(``num_intervals``, ``busy_time``) always agree with a recomputation over
the materialized objects on a pool workload, across all four interconnect
topology presets.  The same workloads check the two records that remain of
each copy: the engine's channel loads equal an eager per-grant shadow, and
the device streams hold one interval per host copy and one per endpoint of
a peer copy.
"""

import numpy as np
import pytest

from repro.gpu import (
    GTX_280,
    HOST_TIMELINE_STREAM,
    DeviceScheduler,
    GPUContext,
    HostMemoryKind,
    TransferEngine,
    TransferRequest,
    resolve_topology,
)
from repro.gpu.streams import Stream, Timeline

PRESETS = ("dedicated", "shared", "switched", "nvlink")
DEVICES = 3


def random_requests(rng, engine, count: int) -> list[TransferRequest]:
    keys = engine.topology.device_keys
    requests = []
    for _ in range(count):
        device = keys[int(rng.integers(len(keys)))]
        roll = rng.random()
        peer = keys[int(rng.integers(len(keys)))]
        if roll < 0.2 and peer != device and engine.has_peer_route(device, peer):
            direction, kind = "p2p", None
        else:
            direction = "h2d" if rng.random() < 0.5 else "d2h"
            kind = (
                HostMemoryKind.PINNED
                if rng.random() < 0.3
                else HostMemoryKind.PAGEABLE
            )
            peer = None
        requests.append(
            TransferRequest(
                device=device,
                direction=direction,
                nbytes=float(rng.integers(1, 1 << 20)),
                kind=kind,
                start=float(rng.random() * 1e-2),
                peer=peer,
            )
        )
    return requests


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    busy, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if start > cursor:
            busy += end - start
            cursor = end
        elif end > cursor:
            busy += end - cursor
            cursor = end
    return busy


@pytest.mark.parametrize("preset", PRESETS)
def test_engine_link_loads_match_eager_shadow(preset):
    """Per-link bytes, transfers and busy time equal a per-grant re-recording."""
    rng = np.random.default_rng(hash(preset) % (2**32))
    engine = TransferEngine(resolve_topology(preset, [GTX_280] * DEVICES))
    topology = engine.topology
    shadow: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    granted = 0
    for _ in range(12):
        batch = random_requests(rng, engine, int(rng.integers(1, 6)))
        for grant in engine.transfer_batch(batch):
            granted += 1
            request = grant.request
            if request.direction == "p2p":
                route = topology.peer_route(request.device, request.peer)
            else:
                route = topology.host_route(request.device, request.kind)
            for link in route.links:
                shadow.setdefault((link.name, link.channel(request.direction)), []).append(
                    (grant.start, grant.end, request.nbytes)
                )

    assert set(engine._loads) == set(shadow)
    for name in {name for name, _channel in shadow}:
        channels = {ch: rows for (link, ch), rows in shadow.items() if link == name}
        for channel, rows in channels.items():
            bytes_in_order = 0.0
            for _start, _end, nbytes in rows:
                bytes_in_order += nbytes
            assert engine.link_bytes(name, channel) == bytes_in_order
            assert engine.link_transfers(name, channel) == len(rows)
        assert engine.link_transfers(name) == sum(len(r) for r in channels.values())
        busy = max(
            union_length([(start, end) for start, end, _ in rows])
            for rows in channels.values()
        )
        assert engine.link_busy(name) == pytest.approx(busy, rel=1e-12, abs=0.0)
    assert engine.transfers == granted

def test_stream_schedule_lazy_records_identical():
    """Stream.schedule's returned objects equal the lazy snapshot, in order."""
    rng = np.random.default_rng(7)
    stream = Stream("compute")
    eager = []
    busy = 0.0
    for index in range(200):
        duration = float(rng.random() * 1e-3)
        not_before = float(rng.random() * 1e-2)
        interval = stream.schedule("kernel", f"op{index}", duration,
                                   not_before=not_before)
        eager.append(interval)
        busy += interval.end - interval.start
    snapshot = stream.intervals
    assert snapshot == eager
    assert stream.num_intervals == 200
    assert stream.busy_time == busy
    assert stream.cursor == eager[-1].end
    # The snapshot is a copy: mutating it must not alter the records.
    snapshot.pop()
    assert stream.num_intervals == 200


def test_append_interval_round_trips():
    rng = np.random.default_rng(11)
    stream = Stream("h2d")
    for index in range(50):
        stream.schedule("h2d", f"u{index}", float(rng.random() * 1e-4))
    records = stream.intervals
    rebuilt = Stream("h2d")
    for interval in records:
        rebuilt.append_interval(interval.kind, interval.name, interval.start, interval.end)
    assert rebuilt.intervals == records
    assert rebuilt.num_intervals == stream.num_intervals
    assert rebuilt.busy_time == stream.busy_time


def run_pool_workload(preset):
    """Six rounds of uploads, downloads, peer packets and host gathers.

    Returns the pool and the number of peer copies it issued.
    """
    rng = np.random.default_rng(hash(("pool", preset)) % (2**32))
    engine = TransferEngine(resolve_topology(preset, [GTX_280] * DEVICES))
    contexts = [
        GPUContext(GTX_280, engine=engine, device_key=f"gpu{i}")
        for i in range(DEVICES)
    ]
    scheduler = DeviceScheduler(contexts)
    peer_copies = 0
    for step in range(6):
        for ctx in contexts:
            upload = ctx.copy_async(f"x{step}", np.zeros(int(rng.integers(64, 4096))))
            ctx.download_async(f"x{step}", wait_for=[upload])
        if preset != "dedicated" and contexts[0].can_access_peer(contexts[1]):
            contexts[0].copy_peer_async(
                contexts[1], f"pkt{step}", np.zeros(256, dtype=np.uint8)
            )
            peer_copies += 1
        scheduler.host_timeline.schedule(
            "gather", f"g{step}", 1e-6, stream=HOST_TIMELINE_STREAM
        )
    return scheduler, peer_copies


@pytest.mark.parametrize("preset", PRESETS)
def test_scheduler_workload_counters_consistent(preset):
    """End-to-end pool workload: O(1) counters agree with materialization."""
    scheduler, _peer_copies = run_pool_workload(preset)
    contexts = scheduler.contexts

    for timeline in [*(ctx.timeline for ctx in contexts), scheduler.host_timeline]:
        records = timeline.intervals()
        assert timeline.num_intervals == len(records)
        for stream in timeline.streams.values():
            materialized = stream.intervals
            assert stream.num_intervals == len(materialized)
            total = 0.0
            for interval in materialized:
                total += interval.end - interval.start
            assert stream.busy_time == total
            if materialized:
                assert stream.cursor >= max(i.end for i in materialized)


@pytest.mark.parametrize("preset", PRESETS)
def test_pool_records_each_copy_once_on_device_streams(preset):
    """One interval per host copy; a peer copy occupies both endpoints."""
    scheduler, peer_copies = run_pool_workload(preset)
    kinds: dict[str, int] = {}
    for ctx in scheduler.contexts:
        for interval in ctx.timeline.intervals():
            kinds[interval.kind] = kinds.get(interval.kind, 0) + 1
    host_copies = 2 * 6 * DEVICES
    assert kinds.get("h2d", 0) + kinds.get("d2h", 0) == host_copies
    assert kinds.get("p2p", 0) == 2 * peer_copies
    assert scheduler.engine.transfers == host_copies + peer_copies
    if preset != "dedicated":
        assert peer_copies == 6
    for ctx in scheduler.contexts:
        assert ctx.stats.h2d_bytes == ctx.stats.d2h_bytes > 0


def test_timeline_intervals_merge_streams_exactly():
    """Timeline.intervals() is every stream's records, sorted by start."""
    rng = np.random.default_rng(13)
    timeline = Timeline()
    for name in ("h2d", "compute", "d2h"):
        stream = timeline.stream(name)
        for index in range(30):
            stream.schedule(
                name, f"{name}-{index}", float(rng.random() * 1e-3),
                not_before=float(rng.random() * 1e-2),
            )
    merged = timeline.intervals()
    per_stream = [i for stream in timeline.streams.values() for i in stream.intervals]
    assert merged == sorted(per_stream, key=lambda i: (i.start, i.stream))
    assert timeline.num_intervals == len(merged) == 90
    busy = 0.0
    for stream in timeline.streams.values():
        busy += stream.busy_time
    assert timeline.busy_time == busy
    assert timeline.elapsed == max(i.end for i in merged)
    assert timeline.overlap_saved == max(0.0, busy - timeline.elapsed)
