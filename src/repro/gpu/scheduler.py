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
completion over every device timeline and the host timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .hierarchy import DEFAULT_BLOCK_SIZE
from .interconnect import D2H, H2D, P2P, TransferEngine, TransferRequest
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
]

#: Stream name used for host-side operations (gathers, scatter bookkeeping)
#: on the scheduler's host timeline.
HOST_TIMELINE_STREAM = "host"


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
    #: Per chain: the downloaded buffer's data (the device buffer itself,
    #: not a copy) and the download's end.
    data: list[np.ndarray]
    done: list[float]
    #: Latest end of anything the step put on a device or host timeline.
    latest: float


class _Lanes:
    """One context's resident-step pricing handles, bound once.

    Its four stream objects and its engine paths.  A stream that does not
    exist yet is ``None``: its cursor reads 0.0 and the first record
    creates it through :meth:`Timeline.stream`, so streams appear in the
    same order as without handles.  :meth:`DeviceScheduler._lanes_of`
    fetches the streams again whenever the timeline's ``version`` has
    moved (a stream created elsewhere, a restore).
    """

    __slots__ = (
        "ctx", "timeline", "version", "copy", "compute", "download", "p2p",
        "h2d", "d2h", "peers",
    )

    def __init__(self, ctx: GPUContext, pool_size: int) -> None:
        self.ctx = ctx
        self.timeline = ctx.timeline
        self.version = -1
        self.h2d = ctx._path(H2D)
        self.d2h = ctx._path(D2H)
        #: Peer paths from this device, by pool index, resolved on first use.
        self.peers: list = [None] * pool_size

    def fetch(self) -> None:
        streams = self.timeline.streams
        self.copy = streams.get(COPY_STREAM)
        self.compute = streams.get(COMPUTE_STREAM)
        self.download = streams.get(DOWNLOAD_STREAM)
        self.p2p = streams.get(P2P_STREAM)
        self.version = self.timeline.version


def _cursor(stream: Stream | None) -> float:
    """A stream handle's cursor (0.0 before the stream exists)."""
    return stream.cursor if stream is not None else 0.0


class DeviceScheduler:
    """A pool of device contexts plus a host timeline, and the pricing across them.

    An evaluator holds its devices as one scheduler: the contexts (built by
    :func:`~repro.gpu.multi_device.build_contexts`, or one existing
    context), their shared transfer engine and the host timeline.  The
    scheduler does not create the contexts — it coordinates them — and it
    refuses contexts that price on different engines.
    :meth:`upload_batch` and :meth:`download_batch` price simultaneous
    copies as one engine arbitration and return completion
    :class:`~repro.gpu.streams.Event` objects, which a caller can pass as a
    dependency of an operation on *any* device, so cross-device ordering
    costs exactly what the event times say.  :meth:`price_resident_step`
    prices one resident lockstep step — of a single device or of the whole
    pool — from its :class:`ResidentStepPlan`.  Single operations go
    through the contexts' own asynchronous API.
    """

    def __init__(self, contexts: Sequence[GPUContext]) -> None:
        if not contexts:
            raise ValueError("need at least one device context")
        engine = contexts[0].engine
        if any(ctx.engine is not engine for ctx in contexts):
            raise ValueError(
                "the contexts price their copies on different transfer engines; "
                "build the pool with build_contexts so they share one"
            )
        self.contexts = list(contexts)
        self.host_timeline = Timeline()
        #: The pool's shared transfer engine.
        self.engine: TransferEngine = engine
        #: Per context: its resident-step pricing handles, built on first use.
        self._lanes: list[_Lanes | None] = [None] * len(self.contexts)
        self._timelines = [ctx.timeline for ctx in self.contexts] + [self.host_timeline]

    # ------------------------------------------------------------------
    # Batched fan-out and gather
    # ------------------------------------------------------------------
    def _batch_contexts(self, items: Sequence[tuple], what: str) -> list[GPUContext]:
        """The context of every batch item, at most one item per device: a
        batch prices its copies as concurrent, but one device's stream would
        record them back to back, each both slowed and queued."""
        contexts = [self.contexts[item[0]] for item in items]
        for at, ctx in enumerate(contexts):
            if any(ctx is other for other in contexts[:at]):
                raise ValueError(
                    f"{what} holds two copies for device {ctx.device_key}; "
                    "issue copies to one device in separate batches"
                )
        return contexts

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
        triples, at most one per device.  All copies are priced together, so
        on a shared-uplink topology ``N`` simultaneous uploads each see
        ``~1/N`` of the root complex — issuing them one by one would let the
        first grab the full rate before the others arrive.  ``sync=True``
        uses null-stream semantics per device (the copy starts once that
        device has drained).
        """
        if not items:
            return []
        prepared = []
        requests = []
        for ctx, (_index, name, host_array) in zip(
            self._batch_contexts(items, "upload_batch"), items
        ):
            host_array = np.asarray(host_array)
            kind = ctx._host_kind(host_kind)
            if sync:
                # Null-stream semantics: the copy starts once every stream
                # of that device has drained (or at the caller's floor).
                target_stream = DEFAULT_STREAM
                start = max(ctx.timeline.elapsed, not_before)
            else:
                target_stream = stream
                start = ctx._issue(stream, None, not_before)[1]
            prepared.append((ctx, name, host_array, kind, start, target_stream))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="h2d",
                    nbytes=int(host_array.nbytes),
                    kind=kind,
                    start=start,
                )
            )
        grants = self.engine.transfer_batch(requests)
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
        triples, at most one per device; each copy starts once its device's
        download stream is free and its event (typically the kernel
        completion) has fired.
        """
        if not items:
            return []
        prepared = []
        requests = []
        for ctx, (_index, name, wait_event) in zip(
            self._batch_contexts(items, "download_batch"), items
        ):
            kind = ctx._host_kind(host_kind)
            start = ctx._issue(stream, wait_event, 0.0)[1]
            nbytes = ctx.memory.get(name).nbytes
            prepared.append((ctx, name, kind, start, wait_event))
            requests.append(
                TransferRequest(
                    device=ctx.device_key,
                    direction="d2h",
                    nbytes=nbytes,
                    kind=kind,
                    start=start,
                )
            )
        grants = self.engine.transfer_batch(requests)
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
        an event, request or grant object per operation.  Every copy goes
        through the context's copy primitive
        (:meth:`GPUContext._host_copy`, :meth:`GPUContext._peer_copy`) over
        its bound path and stream handles (:class:`_Lanes`), every clock is
        a Python float, and launches are memoized
        (:meth:`GPUTimingModel.launch`).
        After the delta route, one pass over the plan's rows prices each
        device's chain whole: packets, launch, reduction, download.

        Each copy therefore commits in issue order — a device's packets and
        download before the next device's — on every topology: on a shared
        uplink a later device's upload sees the earlier device's download,
        armed transfer faults hit the copies the per-device issue would
        hand them, and the stall sums add up in the same order.
        """
        latest = 0.0
        issues: list[float] = []
        if plan.issues:
            host = self.host_timeline.stream(HOST_TIMELINE_STREAM)
            for name, duration in plan.issues:
                start = max(host.cursor, 0.0)
                end = start + duration
                host.append_interval("issue", name, start, end)
                host.cursor = end
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

    def _lanes_of(self, index: int) -> _Lanes:
        """Context ``index``'s pricing handles, with current stream objects."""
        lanes = self._lanes[index]
        if lanes is None:
            lanes = self._lanes[index] = _Lanes(self.contexts[index], len(self.contexts))
        if lanes.version != lanes.timeline.version:
            lanes.fetch()
        return lanes

    def _forward_deltas(
        self, plan: ResidentStepPlan, issued: float
    ) -> tuple[float, list[float]]:
        """The hub upload and the peer forwards of one combined delta packet.

        Each forward starts after the upload and the forward before it, and
        no sooner than the hub's and its peer's P2P streams free up.
        """
        hub = self._lanes_of(plan.hub)
        ctx = hub.ctx
        name, packet = plan.hub_packet
        nbytes = ctx.land(name, packet).nbytes
        hub_p2p = _cursor(hub.p2p)
        peers = [self._lanes_of(index) for index, _buffer, _payload in plan.forwards]
        floors = [max(hub_p2p, _cursor(peer.p2p), 0.0) for peer in peers]
        start = max(_cursor(hub.copy), max(plan.hub_not_before, issued))
        if hub.copy is None:
            hub.copy = hub.timeline.stream(COPY_STREAM)
        upload = ready = start + ctx._host_copy(hub.h2d, nbytes, start, name, hub.copy)
        arrivals = []
        for peer, floor, (index, buffer, payload) in zip(peers, floors, plan.forwards):
            peer.ctx.land(buffer, payload)
            start = max(floor, ready)
            path = hub.peers[index]
            if path is None:
                path = hub.peers[index] = self.engine._path(
                    ctx.device_key, P2P, peer.ctx.device_key, None
                )
            for lanes in (hub, peer):
                if lanes.p2p is None:
                    lanes.p2p = lanes.timeline.stream(P2P_STREAM)
            ready = start + ctx._peer_copy(
                path, int(payload.nbytes), start, buffer, hub.p2p, peer.p2p
            )
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
        lanes = self._lanes_of(plan.devices[row])
        ctx = lanes.ctx
        stats = ctx.stats
        sync = float(plan.not_before[row])
        copy_ready = max(_cursor(lanes.copy), sync)
        packet_end = self._upload(lanes, plan.packets[row], copy_ready)
        threads = plan.shapes[row][0] * plan.shapes[row][1]
        config, price = ctx.timing.launch(threads, plan.block_size, plan.kernel.cost)
        kernel_time = price.total_time
        start = max(_cursor(lanes.compute), sync, packet_end)
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
        compute = lanes.compute
        if compute is None:
            compute = lanes.compute = lanes.timeline.stream(COMPUTE_STREAM)
        compute.append_interval("kernel", plan.kernel.name, start, ready)
        compute.cursor = ready
        packet_end = self._upload(
            lanes, plan.reduction_packets[row], max(copy_ready, packet_end)
        )
        if plan.reduce is not None:
            start = max(ready, packet_end)
            duration = ctx.timing.reduction_time(threads)
            ready = start + duration
            stats.reductions += 1
            stats.reduction_time += duration
            compute.append_interval("reduce", plan.reduce, start, ready)
            compute.cursor = ready
        name = plan.downloads[row]
        data = ctx.memory.get(name).data
        download = lanes.download
        if download is None:
            download = lanes.download = lanes.timeline.stream(DOWNLOAD_STREAM)
        start = max(download.cursor, ready)
        return data, start + ctx._host_copy(lanes.d2h, int(data.nbytes), start, name, download)

    def _upload(self, lanes: _Lanes, packet, start: float) -> float:
        """Price and record one chain packet from ``start``; returns its end.

        No packet (``None``) ends at ``-inf``, so it delays nothing.
        """
        if packet is None:
            return -math.inf
        name, payload = packet
        ctx = lanes.ctx
        nbytes = ctx.land(name, payload).nbytes
        if lanes.copy is None:
            lanes.copy = lanes.timeline.stream(COPY_STREAM)
        return start + ctx._host_copy(lanes.h2d, nbytes, start, name, lanes.copy)

    @property
    def all_peer_capable(self) -> bool:
        """Whether every pairwise P2P link in the pool is available."""
        keys = [ctx.device_key for ctx in self.contexts]
        return all(
            self.engine.has_peer_route(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]
        )

    # ------------------------------------------------------------------
    # Pool-level clocks
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Overlap-aware cross-device elapsed time (incl. the host timeline).

        The latest cursor of any stream, in one pass; 0.0 stands in for a
        timeline without streams, as its ``elapsed`` does (cursors are
        never negative).
        """
        cursors = [
            stream.cursor for timeline in self._timelines for stream in timeline.streams.values()
        ]
        cursors.append(0.0)
        return max(cursors)

    def __repr__(self) -> str:  # pragma: no cover
        names = ", ".join(ctx.device.name for ctx in self.contexts)
        return f"DeviceScheduler([{names}])"
