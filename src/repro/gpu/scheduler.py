"""Concurrent multi-device scheduler: one timeline per device, one per host.

The seed multi-GPU path issued per-device work from a serial host loop and
approximated concurrency as a per-step ``max`` over device times.
:class:`DeviceScheduler` replaces that with real concurrent *issue*: every
device owns its own :class:`~repro.gpu.streams.Timeline` (the one inside its
:class:`~repro.gpu.runtime.GPUContext`), the host owns another, and
operations are ordered only by the :class:`~repro.gpu.streams.Event`
dependencies the caller threads between them.  Because all timelines share
the same simulated clock origin, an event recorded on device 0 can gate an
operation on device 1 (or on the host) directly — that is how peer-routed
delta packets and host gathers serialize without a global barrier.

The pool-level elapsed time is the **cross-device makespan**: the latest
completion over every device timeline and the host timeline.  The
**serialized sum** — what the same work would cost if the devices ran one
after another — is the sum of per-timeline busy times; their difference is
the overlap the concurrent issue bought.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .hierarchy import DEFAULT_BLOCK_SIZE
from .interconnect import P2P, TransferEngine, TransferRequest
from .kernel import Kernel, KernelLaunch
from .memory import HostMemoryKind
from .runtime import GPUContext
from .streams import (
    COMPUTE_STREAM,
    COPY_STREAM,
    DEFAULT_STREAM,
    DOWNLOAD_STREAM,
    P2P_STREAM,
    Event,
    Stream,
    Timeline,
)

__all__ = [
    "DeviceScheduler",
    "HOST_TIMELINE_STREAM",
    "ResidentStepPlan",
    "ResidentStepTimes",
    "merge_timelines",
]

#: Stream name used for host-side operations (gathers, scatter bookkeeping)
#: on the scheduler's host timeline.
HOST_TIMELINE_STREAM = "host"


def merge_timelines(
    timelines: dict[str, Timeline],
) -> Timeline:
    """Merge several timelines into one view with prefixed stream names.

    Streams of the timeline registered under prefix ``"gpu0"`` appear as
    ``"gpu0:compute"``, ``"gpu0:h2d"``, ... in the merged view, so
    :func:`~repro.gpu.streams.format_timeline` renders a single
    cross-device report whose makespan is the pool-level elapsed time.
    """
    merged = Timeline()
    for prefix, timeline in timelines.items():
        for name, stream in timeline.streams.items():
            label = f"{prefix}:{name}"
            view = Stream(name=label, cursor=stream.cursor)
            view.copy_records_from(stream)
            merged.streams[label] = view
    return merged


@dataclass
class ResidentStepPlan:
    """One step of a device-resident session across the pool, as data.

    :meth:`DeviceScheduler.price_resident_step` prices it in issue order,
    in one pass.  The *delta route* (what ``apply_deltas`` issues) comes
    first:

    - ``issues``: host-side driver calls ``(name, duration)``, serialized on
      the host timeline;
    - ``hub``: the device that receives the combined delta packet
      ``hub_packet`` (``(buffer name, bytes)``) once the last issue has run
      and ``hub_not_before`` has passed (``None``: no hub upload);
    - ``forwards``: ``(device, buffer name, payload)`` peer copies from the
      hub, in order, each after the upload and the previous forward.

    Then the *evaluation chains* (what ``evaluate_resident`` issues), one
    row per device in device order, each priced whole before the next: an
    optional pre-kernel packet, the launch over ``(S, M)`` threads, then
    either the download of the fitness block or an optional reduction
    packet, the fused reduction and the download of its ``(index,
    fitness)`` pairs.  Packets are ``(buffer name, bytes)`` pairs or
    ``None``.  The buffers a chain downloads must hold their data (the
    fused selection's ``reduced`` pairs) before the plan is priced.
    """

    issues: list[tuple[str, float]] = field(default_factory=list)
    hub: int | None = None
    hub_packet: tuple[str, np.ndarray] | None = None
    hub_not_before: float = 0.0
    forwards: list[tuple[int, str, np.ndarray]] = field(default_factory=list)

    devices: list[int] = field(default_factory=list)
    #: Per device: the host sync point no operation may start before.
    not_before: list[float] = field(default_factory=list)
    packets: list[tuple[str, np.ndarray] | None] = field(default_factory=list)
    shapes: list[tuple[int, int]] = field(default_factory=list)
    kernel: Kernel | None = None
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Name of the fused-reduction interval; ``None`` downloads the block.
    reduce: str | None = None
    reduction_packets: list[tuple[str, np.ndarray] | None] = field(default_factory=list)
    #: Per device: the device buffer the chain downloads.
    downloads: list[str] = field(default_factory=list)


class ResidentStepTimes(NamedTuple):
    """When the operations of a :class:`ResidentStepPlan` finished."""

    #: End of each host issue, in plan order.
    issues: list[float]
    #: End of the hub upload (``None`` without one).
    upload: float | None
    #: Arrival of each forward, in plan order.
    arrivals: list[float]
    #: Per chain: the downloaded data and the download's end.
    data: list[np.ndarray]
    done: list[float]
    #: Latest end of anything the step put on a device or host timeline.
    latest: float


def _append(timeline: Timeline, stream: str, kind: str, name: str, start, end) -> None:
    """Record one operation that ends its stream's queue at ``end``."""
    lane = timeline.streams.get(stream) or timeline.stream(stream)
    lane.append_interval(kind, name, start, end)
    lane.cursor = end


def _cursor(timeline: Timeline, stream: str) -> float:
    """A stream's cursor, without creating the stream."""
    lane = timeline.streams.get(stream)
    return lane.cursor if lane is not None else 0.0


class DeviceScheduler:
    """Prices work across a pool of device contexts plus a host timeline.

    The scheduler does not own the contexts — it coordinates them.
    :meth:`upload_batch` and :meth:`download_batch` price simultaneous
    copies as one engine arbitration and return completion
    :class:`~repro.gpu.streams.Event` objects, which a caller can pass as a
    dependency of an operation on *any* device, so cross-device ordering
    costs exactly what the event times say.  :meth:`price_resident_step`
    prices one resident lockstep step — of a single device or of the whole
    pool — from its :class:`ResidentStepPlan`.  Single operations go
    through the contexts' own asynchronous API.
    """

    def __init__(
        self,
        contexts: Sequence[GPUContext],
        *,
        host_timeline: Timeline | None = None,
        engine: TransferEngine | None = None,
    ) -> None:
        if not contexts:
            raise ValueError("need at least one device context")
        self.contexts = list(contexts)
        self.host_timeline = host_timeline if host_timeline is not None else Timeline()
        if engine is None:
            # A pool built over one shared interconnect exposes it here; a
            # grab-bag of standalone contexts (each with a private engine)
            # leaves the scheduler without a pool-level fabric view.
            first = contexts[0].engine
            if all(ctx.engine is first for ctx in contexts):
                engine = first
        #: The pool's shared transfer engine (``None`` for mixed pools).
        self.engine = engine

    # ------------------------------------------------------------------
    # Batched fan-out and gather
    # ------------------------------------------------------------------
    def upload_batch(
        self,
        items: Sequence[tuple[int, str, np.ndarray]],
        *,
        host_kind: HostMemoryKind | None = None,
        stream: str = COPY_STREAM,
        sync: bool = False,
        not_before: float = 0.0,
    ) -> list[Event]:
        """Concurrent host -> device fan-out as ONE engine arbitration batch.

        ``items`` is a list of ``(device_index, buffer_name, host_array)``
        triples.  All copies are priced together, so on a shared-uplink
        topology ``N`` simultaneous uploads each see ``~1/N`` of the root
        complex — issuing them one by one would let the first grab the full
        rate before the others arrive.  ``sync=True`` uses null-stream
        semantics per device (the copy starts once that device has drained).
        """
        if not items:
            return []
        engine = self.engine
        prepared = []
        requests = []
        for index, name, host_array in items:
            ctx = self.contexts[index]
            host_array = np.asarray(host_array)
            kind = ctx._host_kind(host_kind)
            if sync:
                # Null-stream semantics: the copy starts once every stream
                # of that device has drained (or at the caller's floor).
                target_stream = DEFAULT_STREAM
                start = max(ctx.timeline.elapsed, not_before)
            else:
                target_stream = stream
                start = ctx._issue_start(stream, None, not_before)
            prepared.append((ctx, name, host_array, kind, start, target_stream))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="h2d",
                    nbytes=int(host_array.nbytes),
                    kind=kind,
                    start=start,
                    label=name,
                )
            )
        if engine is not None:
            grants = engine.transfer_batch(requests)
        else:
            # Mixed pools without one shared fabric: per-context pricing.
            grants = [
                ctx.host_transfer_grant(
                    "h2d", request.nbytes, kind=request.kind,
                    start=request.start, label=request.label,
                )
                for (ctx, *_), request in zip(prepared, requests)
            ]
        return [
            ctx.copy_async(
                name, host_array,
                stream=target_stream, not_before=start,
                host_kind=kind, grant=grant,
            )
            for (ctx, name, host_array, kind, start, target_stream), grant in zip(
                prepared, grants
            )
        ]

    def download_batch(
        self,
        items: Sequence[tuple[int, str, Event | None]],
        *,
        host_kind: HostMemoryKind | None = None,
        stream: str = DOWNLOAD_STREAM,
    ) -> list[tuple[np.ndarray, Event]]:
        """Concurrent device -> host gather as ONE engine arbitration batch.

        ``items`` is a list of ``(device_index, buffer_name, wait_event)``
        triples; each copy starts once its device's download stream is free
        and its event (typically the kernel completion) has fired.
        """
        if not items:
            return []
        engine = self.engine
        prepared = []
        requests = []
        for index, name, wait_event in items:
            ctx = self.contexts[index]
            kind = ctx._host_kind(host_kind)
            start = ctx._issue_start(stream, wait_event, 0.0)
            nbytes = ctx.memory.get(name).nbytes
            prepared.append((ctx, name, kind, start, wait_event))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="d2h",
                    nbytes=nbytes,
                    kind=kind,
                    start=start,
                    label=name,
                )
            )
        if engine is not None:
            grants = engine.transfer_batch(requests)
        else:
            grants = [
                ctx.host_transfer_grant(
                    "d2h", request.nbytes, kind=request.kind,
                    start=request.start, label=request.label,
                )
                for (ctx, *_), request in zip(prepared, requests)
            ]
        results = []
        for (ctx, name, kind, start, wait_event), grant in zip(prepared, grants):
            data, event = ctx.download_async(
                name, stream=stream, wait_for=wait_event,
                host_kind=kind, grant=grant,
            )
            results.append((data, event))
        return results

    # ------------------------------------------------------------------
    # One resident lockstep step, priced as a batch
    # ------------------------------------------------------------------
    def price_resident_step(self, plan: ResidentStepPlan) -> ResidentStepTimes:
        """Price one resident step: delta route, then every device's chain.

        The result is what issuing the plan one operation at a time through
        the contexts' async API gives, float for float — same intervals,
        counters and engine commits, in the same order — without building
        an event, request or grant object per operation.  Every copy is
        one :meth:`TransferEngine.transfer_at` call, every clock a Python
        float, and launches are memoized (:meth:`GPUTimingModel.launch`).
        After the delta route, one pass over the plan's rows prices each
        device's chain whole: packets, launch, reduction, download.

        Each copy therefore commits in issue order — a device's packets and
        download before the next device's — on every topology: on a shared
        uplink a later device's upload sees the earlier device's download,
        armed transfer faults hit the copies the per-device issue would
        hand them, and the stall sums add up in the same order.
        """
        if self.engine is None:
            raise ValueError("pricing a resident step needs a pool sharing one transfer engine")
        latest = 0.0
        issues: list[float] = []
        host = self.host_timeline
        for name, duration in plan.issues:
            start = max(_cursor(host, HOST_TIMELINE_STREAM), 0.0)
            end = start + duration
            _append(host, HOST_TIMELINE_STREAM, "issue", name, start, end)
            issues.append(end)
            latest = max(latest, end)
        upload = None
        arrivals: list[float] = []
        if plan.hub is not None:
            upload, arrivals = self._forward_deltas(plan, issues[-1] if issues else 0.0)
            latest = max(latest, upload, *arrivals)
        data: list[np.ndarray] = []
        done: list[float] = []
        for row in range(len(plan.devices)):
            download, end = self._price_chain(plan, row)
            data.append(download)
            done.append(end)
        return ResidentStepTimes(
            issues=issues,
            upload=upload,
            arrivals=arrivals,
            data=data,
            done=done,
            latest=max([latest, *done]),
        )

    def _forward_deltas(
        self, plan: ResidentStepPlan, issued: float
    ) -> tuple[float, list[float]]:
        """The hub upload and the peer forwards of one combined delta packet.

        Each forward starts after the upload and the forward before it, and
        no sooner than the hub's and its peer's P2P streams free up.
        """
        engine = self.engine
        hub = self.contexts[plan.hub]
        name, packet = plan.hub_packet
        kind = hub._host_kind(None)
        nbytes = hub.stage_upload(name, packet, kind).nbytes
        hub_p2p = _cursor(hub.timeline, P2P_STREAM)
        peers = [self.contexts[index] for index, _buffer, _payload in plan.forwards]
        floors = [max(hub_p2p, _cursor(peer.timeline, P2P_STREAM), 0.0) for peer in peers]
        start = max(_cursor(hub.timeline, COPY_STREAM), max(plan.hub_not_before, issued))
        duration = engine.transfer_at(hub.device_key, "h2d", nbytes, kind, start, label=name)
        upload = ready = start + duration
        hub.stats.transfer_time += duration
        hub.stats.h2d_bytes += nbytes
        _append(hub.timeline, COPY_STREAM, "h2d", name, start, upload)
        arrivals = []
        for peer, floor, (_index, buffer, payload) in zip(peers, floors, plan.forwards):
            peer.land_peer_copy(buffer, payload)
            start = max(floor, ready)
            duration = engine.transfer_at(
                hub.device_key, P2P, int(payload.nbytes), None, start,
                peer=peer.device_key, label=buffer,
            )
            ready = start + duration
            hub.stats.p2p_bytes += int(payload.nbytes)
            hub.stats.peer_transfers += 1
            hub.stats.p2p_time += duration
            _append(hub.timeline, P2P_STREAM, "p2p", f"{buffer}->peer", start, ready)
            _append(peer.timeline, P2P_STREAM, "p2p", buffer, start, ready)
            arrivals.append(ready)
        return upload, arrivals

    def _price_chain(self, plan: ResidentStepPlan, row: int) -> tuple[np.ndarray, float]:
        """Price the evaluation chain of plan row ``row``: ``(download, its end)``.

        The operations are priced and recorded in issue order: the
        pre-kernel packet, the launch, the reduction packet, the fused
        reduction and the download.  The packets queue on the copy stream
        after the host sync point; the launch waits for the first, the
        reduction for the launch and the second.
        """
        ctx = self.contexts[plan.devices[row]]
        stats, timeline = ctx.stats, ctx.timeline
        kind = ctx._host_kind(None)
        sync = float(plan.not_before[row])
        copy_ready = max(_cursor(timeline, COPY_STREAM), sync)
        packet_end = self._upload(ctx, kind, plan.packets[row], copy_ready)
        threads = plan.shapes[row][0] * plan.shapes[row][1]
        config, price = ctx.timing.launch(threads, plan.block_size, plan.kernel.cost)
        kernel_time = price.total_time
        start = max(_cursor(timeline, COMPUTE_STREAM), sync, packet_end)
        ready = start + kernel_time
        stats.kernel_launches += 1
        stats.kernel_time += kernel_time
        if ctx.keep_launch_records:
            stats.launch_records.append(
                KernelLaunch(
                    kernel_name=plan.kernel.name, config=config, active_threads=threads,
                    time=price, mode=ctx.mode, work_shape=plan.shapes[row],
                )
            )
        _append(timeline, COMPUTE_STREAM, "kernel", plan.kernel.name, start, ready)
        packet_end = self._upload(
            ctx, kind, plan.reduction_packets[row], max(copy_ready, packet_end)
        )
        if plan.reduce is not None:
            start = max(ready, packet_end)
            duration = ctx.timing.reduction_time(threads)
            ready = start + duration
            stats.reductions += 1
            stats.reduction_time += duration
            _append(timeline, COMPUTE_STREAM, "reduce", plan.reduce, start, ready)
        name = plan.downloads[row]
        data = ctx.stage_download(name, kind)
        nbytes = int(data.nbytes)
        start = max(_cursor(timeline, DOWNLOAD_STREAM), ready)
        duration = self.engine.transfer_at(ctx.device_key, "d2h", nbytes, kind, start, label=name)
        stats.transfer_time += duration
        stats.d2h_bytes += nbytes
        end = start + duration
        _append(timeline, DOWNLOAD_STREAM, "d2h", name, start, end)
        return data, end

    def _upload(self, ctx: GPUContext, kind, packet, start: float) -> float:
        """Price and record one chain packet from ``start``; returns its end.

        No packet (``None``) ends at ``-inf``, so it delays nothing.
        """
        if packet is None:
            return -math.inf
        name, payload = packet
        nbytes = ctx.stage_upload(name, payload, kind).nbytes
        duration = self.engine.transfer_at(ctx.device_key, "h2d", nbytes, kind, start, label=name)
        ctx.stats.transfer_time += duration
        ctx.stats.h2d_bytes += nbytes
        _append(ctx.timeline, COPY_STREAM, "h2d", name, start, start + duration)
        return start + duration

    @property
    def all_peer_capable(self) -> bool:
        """Whether every pairwise P2P link in the pool is available."""
        if self.engine is not None:
            keys = [ctx.device_key for ctx in self.contexts]
            return all(
                self.engine.has_peer_route(a, b)
                for i, a in enumerate(keys)
                for b in keys[i + 1 :]
            )
        return all(ctx.device.p2p_capable for ctx in self.contexts)

    # ------------------------------------------------------------------
    # Pool-level clocks
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Overlap-aware cross-device elapsed time (incl. the host timeline)."""
        return max([ctx.timeline.elapsed for ctx in self.contexts] + [self.host_timeline.elapsed])

    @property
    def serialized_sum(self) -> float:
        """What the recorded work would cost run one device after another."""
        return (
            sum(ctx.timeline.busy_time for ctx in self.contexts)
            + self.host_timeline.busy_time
        )

    @property
    def overlap_saved(self) -> float:
        """Simulated time hidden by concurrent cross-device execution."""
        return max(0.0, self.serialized_sum - self.makespan)

    # ------------------------------------------------------------------
    def merged_timeline(self) -> Timeline:
        """All device timelines plus the host one, as a single prefixed view.

        When the pool shares a transfer engine whose topology has shared
        links (a host uplink, a switch fabric), each populated link appears
        as its own ``interconnect:<link>`` lane, so the report shows *when*
        the root complex was busy next to the per-device streams.
        """
        timelines: dict[str, Timeline] = {
            f"gpu{i}": ctx.timeline for i, ctx in enumerate(self.contexts)
        }
        if self.host_timeline.streams:
            timelines["host"] = self.host_timeline
        if self.engine is not None and self.engine.timeline.streams:
            timelines["interconnect"] = self.engine.timeline
        return merge_timelines(timelines)

    def reset(self) -> None:
        """Reset every device context and the host timeline."""
        for ctx in self.contexts:
            ctx.reset()
        self.host_timeline.reset()

    def __repr__(self) -> str:  # pragma: no cover
        names = ", ".join(ctx.device.name for ctx in self.contexts)
        return f"DeviceScheduler([{names}])"
