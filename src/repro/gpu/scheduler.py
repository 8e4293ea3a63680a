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

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dtypes import FITNESS_BYTES
from .hierarchy import DEFAULT_BLOCK_SIZE
from .interconnect import P2P, SequencedTransfer, TransferEngine, TransferRequest
from .kernel import Kernel, KernelLaunch
from .memory import HostMemoryKind, MemorySpace
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
from .timing import KernelCostProfile

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

    :meth:`DeviceScheduler.price_resident_step` prices it in issue order.
    The *delta route* (what ``apply_deltas`` issues) comes first:

    - ``issues``: host-side driver calls ``(name, duration)``, serialized on
      the host timeline;
    - ``hub``: the device that receives the combined delta packet
      ``hub_packet`` (``(buffer name, bytes)``) once the last issue has run
      and ``hub_not_before`` has passed (``None``: no hub upload);
    - ``forwards``: ``(device, buffer name, payload)`` peer copies from the
      hub, in order, each after the upload and the previous forward.

    Then the *evaluation chains* (what ``evaluate_resident`` issues), one
    row per device in device order: an optional pre-kernel packet, the
    launch over ``(S, M)`` threads, then either the download of the fitness
    block or an optional reduction packet, the fused reduction and the
    download of its ``(index, fitness)`` pairs.  Packets are
    ``(buffer name, bytes)`` pairs or ``None``.
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
    #: Per chain: the device's elapsed time before and after the step.
    elapsed_before: list[float]
    elapsed_after: list[float]
    #: Latest end of anything the step put on a device or host timeline.
    latest: float


def _append(timeline: Timeline, stream: str, kind: str, name: str, start, end) -> None:
    """Record one operation that ends its stream's queue at ``end``."""
    lane = timeline.stream(stream)
    lane.append_interval(kind, name, start, end)
    lane.cursor = end


def _cursor(timeline: Timeline, stream: str) -> float:
    """A stream's cursor, without creating the stream."""
    lane = timeline.streams.get(stream)
    return lane.cursor if lane is not None else 0.0


class DeviceScheduler:
    """Issues work across a pool of device contexts plus a host timeline.

    The scheduler does not own the contexts — it coordinates them: each
    ``issue_*`` helper delegates to the context's asynchronous API and
    returns the completion :class:`~repro.gpu.streams.Event`, which the
    caller can pass as a dependency of an operation on *any* device (or the
    host).  Cross-device ordering therefore costs exactly what the event
    times say, with no serializing host loop in between.
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
    @property
    def num_devices(self) -> int:
        return len(self.contexts)

    def device(self, index: int) -> GPUContext:
        return self.contexts[index]

    # ------------------------------------------------------------------
    # Issue helpers (thin wrappers that keep call sites uniform)
    # ------------------------------------------------------------------
    def upload(
        self,
        index: int,
        name: str,
        host_array: np.ndarray,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        space: MemorySpace = MemorySpace.GLOBAL,
        host_kind: HostMemoryKind | None = None,
    ) -> Event:
        """Host -> device ``index`` copy on that device's copy stream."""
        return self.contexts[index].copy_async(
            name,
            host_array,
            wait_for=wait_for,
            not_before=not_before,
            space=space,
            host_kind=host_kind,
        )

    def launch(
        self,
        index: int,
        kernel: Kernel,
        active_threads,
        args,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cost: KernelCostProfile | None = None,
    ) -> tuple[KernelLaunch, Event]:
        """Kernel launch on device ``index``'s compute stream."""
        return self.contexts[index].launch_async(
            kernel,
            active_threads,
            args,
            wait_for=wait_for,
            not_before=not_before,
            block_size=block_size,
            cost=cost,
        )

    def download(
        self,
        index: int,
        name: str,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        host_kind: HostMemoryKind | None = None,
    ) -> tuple[np.ndarray, Event]:
        """Device ``index`` -> host copy on that device's download stream."""
        return self.contexts[index].download_async(
            name, wait_for=wait_for, not_before=not_before, host_kind=host_kind
        )

    def route_peer(
        self,
        src: int,
        dst: int,
        name: str,
        data: np.ndarray,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Device -> device copy over the P2P link (no host round trip)."""
        return self.contexts[src].copy_peer_async(
            self.contexts[dst], name, data, wait_for=wait_for, not_before=not_before
        )

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
        an event, request or grant object per operation.  The engine prices
        the step's copies in :meth:`TransferEngine.transfer_sequence` calls,
        the launches are memoized (:meth:`GPUTimingModel.launch`) and the
        chains' clocks are NumPy arithmetic over the device axis.

        Copies commit in the order the per-device issue used: the delta
        route, then per device its packets and its download.  When no chain
        uploads a packet, the downloads of all devices go through one engine
        call; otherwise each device's chain is priced in turn, because a
        later device's upload must see the earlier device's download on a
        shared channel (and the stall sum must add up in the same order).
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
        elapsed_before: list[float] = []
        rows = range(len(plan.devices))
        if any(plan.packets) or any(plan.reduction_packets):
            groups = [[row] for row in rows]
        else:
            groups = [list(rows)] if plan.devices else []
        for group in groups:
            self._price_chains(plan, group, data, done, elapsed_before)
        elapsed_after = [max(before, end) for before, end in zip(elapsed_before, done)]
        return ResidentStepTimes(
            issues=issues,
            upload=upload,
            arrivals=arrivals,
            data=data,
            done=done,
            elapsed_before=elapsed_before,
            elapsed_after=elapsed_after,
            latest=max([latest, *done]),
        )

    def _forward_deltas(
        self, plan: ResidentStepPlan, issued: float
    ) -> tuple[float, list[float]]:
        """The hub upload and the peer forwards of one combined delta packet."""
        hub = self.contexts[plan.hub]
        name, packet = plan.hub_packet
        kind = hub._host_kind(None)
        nbytes = hub.stage_upload(name, packet, kind).nbytes
        hub_p2p = _cursor(hub.timeline, P2P_STREAM)
        transfers = [
            SequencedTransfer(
                hub.device_key, "h2d", nbytes, kind,
                max(_cursor(hub.timeline, COPY_STREAM), max(plan.hub_not_before, issued)),
                label=name,
            )
        ]
        peers = []
        for position, (index, buffer, payload) in enumerate(plan.forwards, start=1):
            peer = self.contexts[index]
            peer.land_peer_copy(buffer, payload)
            peers.append(peer)
            transfers.append(
                SequencedTransfer(
                    hub.device_key, P2P, int(payload.nbytes), None,
                    max(hub_p2p, _cursor(peer.timeline, P2P_STREAM), 0.0),
                    peer=peer.device_key, label=buffer,
                    after=(0,) if position == 1 else (0, position - 1),
                )
            )
        starts, durations = self.engine.transfer_sequence(transfers)
        ends = [start + duration for start, duration in zip(starts, durations)]
        hub.stats.transfer_time += durations[0]
        hub.stats.h2d_bytes += nbytes
        _append(hub.timeline, COPY_STREAM, "h2d", name, starts[0], ends[0])
        for peer, transfer, start, duration, end in zip(
            peers, transfers[1:], starts[1:], durations[1:], ends[1:]
        ):
            hub.stats.p2p_bytes += transfer.nbytes
            hub.stats.peer_transfers += 1
            hub.stats.p2p_time += duration
            _append(hub.timeline, P2P_STREAM, "p2p", f"{transfer.label}->peer", start, end)
            _append(peer.timeline, P2P_STREAM, "p2p", transfer.label, start, end)
        return ends[0], ends[1:]

    def _price_chains(self, plan, group, data, done, elapsed_before) -> None:
        """Price the evaluation chains of the plan rows in ``group``."""
        contexts = [self.contexts[plan.devices[row]] for row in group]
        kinds = [ctx._host_kind(None) for ctx in contexts]
        sync = np.array([plan.not_before[row] for row in group])
        elapsed_before.extend(ctx.timeline.elapsed for ctx in contexts)
        # The packets start in copy-stream order after the host sync point,
        # so one engine call prices them; ``slots[position][k]`` holds the
        # sequence index and size of packet k (pre-kernel, reduction).
        uploads: list[SequencedTransfer] = []
        slots: list[list[tuple[int, int] | None]] = []
        for position, (row, ctx) in enumerate(zip(group, contexts)):
            floor = float(max(_cursor(ctx.timeline, COPY_STREAM), sync[position]))
            slots.append([])
            for packet in (plan.packets[row], plan.reduction_packets[row]):
                if packet is None:
                    slots[-1].append(None)
                    continue
                name, payload = packet
                nbytes = ctx.stage_upload(name, payload, kinds[position]).nbytes
                previous = [entry[0] for entry in slots[-1] if entry is not None]
                slots[-1].append((len(uploads), nbytes))
                uploads.append(
                    SequencedTransfer(
                        ctx.device_key, "h2d", nbytes, kinds[position], floor,
                        label=name, after=tuple(previous),
                    )
                )
        up_start, up_time = self.engine.transfer_sequence(uploads)
        packet_end = np.array(
            [
                [-np.inf if slot is None else up_start[slot[0]] + up_time[slot[0]]
                 for slot in device_slots]
                for device_slots in slots
            ]
        ).reshape(len(group), 2)
        # Launches and fused reductions, over the device axis.
        threads = [plan.shapes[row][0] * plan.shapes[row][1] for row in group]
        prices = [
            ctx.timing.launch(count, plan.block_size, plan.kernel.cost)
            for count, ctx in zip(threads, contexts)
        ]
        compute = np.array([_cursor(ctx.timeline, COMPUTE_STREAM) for ctx in contexts])
        kernel_start = np.maximum(np.maximum(compute, sync), packet_end[:, 0])
        kernel_end = kernel_start + np.array([price.total_time for _config, price in prices])
        ready = kernel_end
        if plan.reduce is not None:
            overhead = np.array([ctx.device.kernel_launch_overhead for ctx in contexts])
            bandwidth = np.array([ctx.device.sustained_bandwidth for ctx in contexts])
            reduce_time = overhead + float(FITNESS_BYTES) * np.array(threads) / bandwidth
            reduce_start = np.maximum(kernel_end, packet_end[:, 1])
            ready = reduce_start + reduce_time
        # Downloads start once the download stream is free and the launch
        # (or reduction) is done; one engine call prices them.
        downloads = []
        for position, (row, ctx) in enumerate(zip(group, contexts)):
            data.append(ctx.stage_download(plan.downloads[row], kinds[position]))
            downloads.append(
                SequencedTransfer(
                    ctx.device_key, "d2h", int(data[-1].nbytes), kinds[position],
                    max(_cursor(ctx.timeline, DOWNLOAD_STREAM), float(ready[position])),
                    label=plan.downloads[row],
                )
            )
        down_start, down_time = self.engine.transfer_sequence(downloads)
        def record_upload(ctx, slot):
            if slot is not None:
                index, nbytes = slot
                ctx.stats.transfer_time += up_time[index]
                ctx.stats.h2d_bytes += nbytes
                _append(ctx.timeline, COPY_STREAM, "h2d", uploads[index].label,
                        up_start[index], up_start[index] + up_time[index])

        # Record each device's operations in issue order: pre-kernel
        # packet, launch, reduction packet, reduction, download.
        for position, (row, ctx) in enumerate(zip(group, contexts)):
            stats, timeline = ctx.stats, ctx.timeline
            record_upload(ctx, slots[position][0])
            config, price = prices[position]
            stats.kernel_launches += 1
            stats.kernel_time += price.total_time
            if ctx.keep_launch_records:
                stats.launch_records.append(
                    KernelLaunch(
                        kernel_name=plan.kernel.name, config=config,
                        active_threads=threads[position], time=price, mode=ctx.mode,
                        work_shape=plan.shapes[row],
                    )
                )
            _append(timeline, COMPUTE_STREAM, "kernel", plan.kernel.name,
                    float(kernel_start[position]), float(kernel_end[position]))
            record_upload(ctx, slots[position][1])
            if plan.reduce is not None:
                stats.reductions += 1
                stats.reduction_time += float(reduce_time[position])
                _append(timeline, COMPUTE_STREAM, "reduce", plan.reduce,
                        float(reduce_start[position]), float(ready[position]))
            end = down_start[position] + down_time[position]
            stats.transfer_time += down_time[position]
            stats.d2h_bytes += downloads[position].nbytes
            _append(timeline, DOWNLOAD_STREAM, "d2h", downloads[position].label,
                    down_start[position], end)
            done.append(end)

    def host_op(
        self,
        kind: str,
        name: str,
        duration: float,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Schedule a host-side operation (gather, scatter) on the host timeline."""
        interval = self.host_timeline.schedule(
            kind,
            name,
            duration,
            stream=HOST_TIMELINE_STREAM,
            wait_for=wait_for,
            not_before=not_before,
        )
        return Event(stream=HOST_TIMELINE_STREAM, time=interval.end)

    def can_route_peer(self, src: int, dst: int) -> bool:
        return self.contexts[src].can_access_peer(self.contexts[dst])

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
        return max(
            max(ctx.timeline.elapsed for ctx in self.contexts),
            self.host_timeline.elapsed,
        )

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

    @property
    def per_device_elapsed(self) -> list[float]:
        return [ctx.timeline.elapsed for ctx in self.contexts]

    def synchronize(self) -> float:
        """Host-side sync point across the whole pool: the makespan instant."""
        return self.makespan

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
