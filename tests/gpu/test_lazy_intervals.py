"""Lazy array-backed interval accounting vs legacy eager objects.

The hot-loop rework replaced per-operation :class:`StreamInterval` objects
with parallel columns plus O(1) counters; interval objects are now built
only when a report asks.  These randomized property tests shadow-record
every operation the eager way and assert the lazily-materialized records
are identical — same values, same order, bit-identical floats — across all
four interconnect topology presets, and that the O(1) counters
(``num_intervals``, ``busy_time``) always agree with a recomputation over
the materialized objects.
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
from repro.gpu.scheduler import merge_timelines
from repro.gpu.streams import Stream, StreamInterval, Timeline

PRESETS = ("dedicated", "shared", "switched", "nvlink")
DEVICES = 3


class EagerShadow:
    """The legacy recording scheme: one interval object per operation."""

    def __init__(self):
        self.streams: dict[str, list[StreamInterval]] = {}
        self.busy: dict[str, float] = {}
        self.cursor: dict[str, float] = {}

    def record(self, stream: str, kind: str, name: str, start: float, end: float):
        self.streams.setdefault(stream, []).append(
            StreamInterval(stream=stream, kind=kind, name=name, start=start, end=end)
        )
        # Accumulate op-by-op, exactly like Stream.append_interval.
        self.busy[stream] = self.busy.get(stream, 0.0) + (end - start)
        self.cursor[stream] = max(self.cursor.get(stream, 0.0), end)


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
                label="pkt" if rng.random() < 0.5 else "",
            )
        )
    return requests


@pytest.mark.parametrize("preset", PRESETS)
def test_engine_timeline_matches_eager_shadow(preset):
    """TransferEngine's lane records equal a per-grant eager re-recording."""
    rng = np.random.default_rng(hash(preset) % (2**32))
    engine = TransferEngine(resolve_topology(preset, [GTX_280] * DEVICES))
    shadow = EagerShadow()
    for _ in range(12):
        batch = random_requests(rng, engine, int(rng.integers(1, 6)))
        grants = engine.transfer_batch(batch)
        for grant in grants:
            request = grant.request
            for link_name in grant.links:
                if not engine.topology.links[link_name].shared:
                    continue
                shadow.record(
                    link_name,
                    request.direction,
                    request.label or f"{request.device}:{request.direction}",
                    grant.start,
                    grant.end,
                )

    timeline = engine.timeline
    assert set(timeline.streams) == set(shadow.streams)
    if preset == "dedicated":
        # No shared links: the lane timeline must stay empty.
        assert timeline.num_intervals == 0
        return
    for name, stream in timeline.streams.items():
        materialized = stream.intervals
        assert materialized == shadow.streams[name]  # order + exact floats
        assert stream.num_intervals == len(shadow.streams[name])
        assert stream.busy_time == shadow.busy[name]  # same accumulation order
        assert stream.cursor == shadow.cursor[name]
    assert timeline.num_intervals == sum(len(v) for v in shadow.streams.values())
    merged = timeline.intervals()
    assert merged == sorted(merged, key=lambda i: (i.start, i.stream))


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


def test_intervals_setter_round_trips():
    rng = np.random.default_rng(11)
    stream = Stream("h2d")
    for index in range(50):
        stream.schedule("h2d", f"u{index}", float(rng.random() * 1e-4))
    records = stream.intervals
    rebuilt = Stream("h2d")
    rebuilt.intervals = records
    assert rebuilt.intervals == records
    assert rebuilt.num_intervals == stream.num_intervals
    assert rebuilt.busy_time == stream.busy_time


def test_merge_timelines_copies_columns_exactly():
    rng = np.random.default_rng(13)
    timelines = {}
    for prefix in ("gpu0", "gpu1"):
        timeline = Timeline()
        for name in ("h2d", "compute"):
            stream = timeline.stream(name)
            for index in range(30):
                stream.schedule(name, f"{prefix}-{index}", float(rng.random() * 1e-3))
        timelines[prefix] = timeline
    merged = merge_timelines(timelines)
    for prefix, timeline in timelines.items():
        for name, stream in timeline.streams.items():
            view = merged.streams[f"{prefix}:{name}"]
            assert view.cursor == stream.cursor
            assert view.num_intervals == stream.num_intervals
            assert view.busy_time == stream.busy_time  # per-op accumulation
            assert [
                (i.kind, i.name, i.start, i.end) for i in view.intervals
            ] == [(i.kind, i.name, i.start, i.end) for i in stream.intervals]
    assert merged.num_intervals == sum(
        t.num_intervals for t in timelines.values()
    )


@pytest.mark.parametrize("preset", PRESETS)
def test_scheduler_workload_counters_consistent(preset):
    """End-to-end pool workload: O(1) counters agree with materialization."""
    rng = np.random.default_rng(hash(("pool", preset)) % (2**32))
    engine = TransferEngine(resolve_topology(preset, [GTX_280] * DEVICES))
    contexts = [
        GPUContext(GTX_280, engine=engine, device_key=f"gpu{i}")
        for i in range(DEVICES)
    ]
    scheduler = DeviceScheduler(contexts)
    for step in range(6):
        for ctx in contexts:
            upload = ctx.copy_async(f"x{step}", np.zeros(int(rng.integers(64, 4096))))
            ctx.download_async(f"x{step}", wait_for=[upload])
        if preset != "dedicated" and contexts[0].can_access_peer(contexts[1]):
            contexts[0].copy_peer_async(
                contexts[1], f"pkt{step}", np.zeros(256, dtype=np.uint8)
            )
        scheduler.host_timeline.schedule(
            "gather", f"g{step}", 1e-6, stream=HOST_TIMELINE_STREAM
        )

    for context in contexts:
        timeline = context.timeline
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
    merged = scheduler.merged_timeline()
    assert merged.num_intervals == (
        sum(ctx.timeline.num_intervals for ctx in contexts)
        + scheduler.host_timeline.num_intervals
        + engine.timeline.num_intervals
    )
