"""Device runtime: the host-side context that owns memory, launches kernels
and accumulates the simulated clock.

:class:`GPUContext` plays the role of the CUDA runtime in the paper's
implementation: the host allocates device buffers, copies the candidate
solution and problem data up, launches the neighborhood kernel, copies the
fitness array back and keeps track of how much (simulated) time all of that
took.

Two issue models coexist:

* the **synchronous** API (:meth:`GPUContext.to_device`,
  :meth:`GPUContext.launch`, :meth:`GPUContext.to_host`) — every operation
  runs on the null stream and serializes against all outstanding work, so
  elapsed time is the plain sum of operation times (the seed behaviour);
* the **asynchronous** API (:meth:`GPUContext.copy_async`,
  :meth:`GPUContext.launch_async`, :meth:`GPUContext.download_async`,
  :meth:`GPUContext.reduce_async`) — operations are issued on named streams
  and ordered only by the :class:`~repro.gpu.streams.Event` dependencies the
  caller passes, so a transfer on one stream hides under a kernel running on
  another.  The overlap-aware elapsed time is :attr:`GPUContext.timeline`'s
  makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .device import DeviceSpec, GTX_280
from .hierarchy import DEFAULT_BLOCK_SIZE, LaunchConfig
from .interconnect import (
    InterconnectTopology,
    TransferEngine,
    TransferGrant,
    resolve_topology,
)
from .kernel import ExecutionMode, Kernel, KernelLaunch, PersistentKernel, normalize_work
from .memory import HostMemoryKind, MemoryManager, MemorySpace, PinnedStagingPool
from .streams import (
    COMPUTE_STREAM,
    COPY_STREAM,
    DOWNLOAD_STREAM,
    P2P_STREAM,
    Event,
    Timeline,
)
from .timing import GPUTimingModel, KernelCostProfile

__all__ = ["DeviceLoop", "DeviceStats", "GPUContext", "PersistentLaunchRecord"]


@dataclass
class DeviceStats:
    """Accumulated simulated activity of one device context."""

    kernel_launches: int = 0
    kernel_time: float = 0.0
    transfer_time: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    #: Device->device traffic sent over peer links (never counted in the
    #: host-facing ``h2d_bytes``/``d2h_bytes`` — no host round trip happens).
    p2p_bytes: int = 0
    peer_transfers: int = 0
    p2p_time: float = 0.0
    #: Fused on-device reductions (argmin epilogues of the resident pipeline).
    reductions: int = 0
    reduction_time: float = 0.0
    launch_records: list[KernelLaunch] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Total simulated device work (kernels + reductions + transfers).

        This is the *serial* sum; when operations were issued on concurrent
        streams the elapsed time is the context timeline's makespan, which
        can be smaller.
        """
        return self.kernel_time + self.reduction_time + self.transfer_time + self.p2p_time

    def reset(self) -> None:
        self.kernel_launches = 0
        self.kernel_time = 0.0
        self.transfer_time = 0.0
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.p2p_bytes = 0
        self.peer_transfers = 0
        self.p2p_time = 0.0
        self.reductions = 0
        self.reduction_time = 0.0
        self.launch_records.clear()

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> dict:
        """Scalar counters only — launch records are profiling artifacts."""
        return {
            "kernel_launches": self.kernel_launches,
            "kernel_time": self.kernel_time,
            "transfer_time": self.transfer_time,
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
            "p2p_bytes": self.p2p_bytes,
            "peer_transfers": self.peer_transfers,
            "p2p_time": self.p2p_time,
            "reductions": self.reductions,
            "reduction_time": self.reduction_time,
        }

    def restore(self, state: dict) -> None:
        """Reload :meth:`snapshot` counters; other keys are ignored.

        Checkpoints written before the host wall-clock counter was dropped
        still carry a ``host_eval_time`` entry.
        """
        self.kernel_launches = int(state["kernel_launches"])
        self.kernel_time = float(state["kernel_time"])
        self.transfer_time = float(state["transfer_time"])
        self.h2d_bytes = int(state["h2d_bytes"])
        self.d2h_bytes = int(state["d2h_bytes"])
        self.p2p_bytes = int(state["p2p_bytes"])
        self.peer_transfers = int(state["peer_transfers"])
        self.p2p_time = float(state["p2p_time"])
        self.reductions = int(state["reductions"])
        self.reduction_time = float(state["reduction_time"])
        self.launch_records.clear()


@dataclass(frozen=True)
class PersistentLaunchRecord:
    """Summary of one completed persistent launch (one per *run*, not per iteration)."""

    kernel_name: str
    #: On-device loop iterations executed inside the single launch.
    iterations: int
    #: Accumulated on-device execution time (evaluation bodies + fused
    #: reductions), excluding the launch overhead.
    body_time: float
    #: The one fixed launch overhead the whole run pays.
    launch_overhead: float
    #: Result-ring traffic drained by the host while the kernel ran.
    ring_bytes: int
    #: Early-stop/control flag traffic written by the host while the kernel ran.
    control_bytes: int

    @property
    def total_time(self) -> float:
        return self.body_time + self.launch_overhead

    @property
    def amortized_overhead(self) -> float:
        """Launch overhead per iteration — the quantity the loop drives to zero."""
        return self.launch_overhead / self.iterations if self.iterations else self.launch_overhead


class DeviceLoop:
    """The host-side handle of one persistent launch.

    A real persistent kernel is launched once; its resident grid then
    iterates on-device (delta scatter → neighborhood evaluation → fused
    reduction/selection → tabu update) while the host merely drains a small
    per-iteration result ring and writes an early-stop flag.  The simulator
    models that with this loop object: while it is open,

    * :meth:`iterate` executes one loop body functionally and accumulates
      its execution time *without* any per-iteration launch overhead;
    * :meth:`reduce` accumulates a fused reduction as a pure bandwidth pass
      (the per-reduction launch overhead also disappears inside the loop);
    * :meth:`drain_ring` / :meth:`write_control` account the host's
      concurrent PCIe traffic (``O(S)`` bytes per iteration, both ways).

    :meth:`finish` then charges exactly **one** kernel launch and one launch
    overhead, and records one long interval per stream on the timeline: the
    compute stream holds the whole resident loop, while the ring drain and
    the control writes sit on the download/copy streams, concurrent with it.
    """

    def __init__(
        self,
        context: "GPUContext",
        kernel: PersistentKernel,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if not isinstance(kernel, PersistentKernel):
            kernel = PersistentKernel(kernel)
        self.context = context
        self.kernel = kernel
        self.block_size = int(block_size)
        #: The launch cannot start before outstanding work has drained
        #: (null-stream semantics for the launch itself).
        self.start_time = context.timeline.elapsed
        self.iterations = 0
        self._body_time = 0.0
        self._ring_time = 0.0
        self._ring_bytes = 0
        self._control_time = 0.0
        self._control_bytes = 0
        # The host's concurrent ring/control traffic is priced through the
        # interconnect engine at its approximate position inside the loop, so
        # persistent-mode drains contend on a shared uplink like any other
        # copy; each cursor advances past the grants already issued.
        loop_start = self.start_time + context.device.kernel_launch_overhead
        self._ring_cursor = loop_start
        self._control_cursor = loop_start
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("persistent loop has already been finished")

    @property
    def closed(self) -> bool:
        return self._closed

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable progress of the open launch (all accumulators)."""
        self._check_open()
        return {
            "start_time": self.start_time,
            "iterations": self.iterations,
            "body_time": self._body_time,
            "ring_time": self._ring_time,
            "ring_bytes": self._ring_bytes,
            "control_time": self._control_time,
            "control_bytes": self._control_bytes,
            "ring_cursor": self._ring_cursor,
            "control_cursor": self._control_cursor,
        }

    def restore(self, state: dict) -> None:
        """Overwrite a freshly-opened loop with snapshotted progress."""
        self._check_open()
        self.start_time = float(state["start_time"])
        self.iterations = int(state["iterations"])
        self._body_time = float(state["body_time"])
        self._ring_time = float(state["ring_time"])
        self._ring_bytes = int(state["ring_bytes"])
        self._control_time = float(state["control_time"])
        self._control_bytes = int(state["control_bytes"])
        self._ring_cursor = float(state["ring_cursor"])
        self._control_cursor = float(state["control_cursor"])

    def iterate(
        self,
        active_threads: int | tuple[int, ...],
        args,
        *,
        cost: KernelCostProfile | None = None,
    ) -> float:
        """Run one on-device iteration of the loop body; returns its duration.

        The body executes functionally exactly like a standalone launch, but
        only the roofline execution time is charged — the fixed launch
        overhead is paid once for the whole loop, by :meth:`finish`.
        """
        self._check_open()
        total_active, _ = normalize_work(active_threads)
        if total_active <= 0:
            raise ValueError(f"active_threads must be positive, got {active_threads}")
        cfg = self.kernel.launch_config(total_active, self.block_size)
        self.kernel.execute(
            cfg, args, active_threads=total_active, mode=self.context.mode
        )
        breakdown = self.context.timing.kernel_time(
            cfg, cost if cost is not None else self.kernel.cost, active_threads=total_active
        )
        duration = breakdown.kernel_time  # overhead-free: the grid is already resident
        self._body_time += duration
        self.context.stats.kernel_time += duration
        self.iterations += 1
        return duration

    def reduce(self, num_elements: int) -> float:
        """Account one in-loop fused reduction (bandwidth pass, no launch)."""
        self._check_open()
        duration = (
            self.context.timing.reduction_time(num_elements)
            - self.context.device.kernel_launch_overhead
        )
        self._body_time += duration
        self.context.stats.reductions += 1
        self.context.stats.reduction_time += duration
        return duration

    def drain_ring(self, nbytes: int) -> float:
        """Account the host draining ``nbytes`` of the per-iteration result ring."""
        self._check_open()
        grant = self.context.host_transfer_grant(
            "d2h", nbytes, start=self._ring_cursor, label=f"ring[{self.kernel.name}]"
        )
        duration = grant.duration
        self._ring_cursor = grant.end
        self._ring_time += duration
        self._ring_bytes += int(nbytes)
        self.context.stats.transfer_time += duration
        self.context.stats.d2h_bytes += int(nbytes)
        return duration

    def write_control(self, nbytes: int) -> float:
        """Account the host writing ``nbytes`` of early-stop/control flags."""
        self._check_open()
        grant = self.context.host_transfer_grant(
            "h2d", nbytes, start=self._control_cursor, label=f"flags[{self.kernel.name}]"
        )
        duration = grant.duration
        self._control_cursor = grant.end
        self._control_time += duration
        self._control_bytes += int(nbytes)
        self.context.stats.transfer_time += duration
        self.context.stats.h2d_bytes += int(nbytes)
        return duration

    def finish(self) -> PersistentLaunchRecord:
        """Close the loop: one launch, one overhead, one interval per stream."""
        self._check_open()
        self._closed = True
        overhead = self.context.device.kernel_launch_overhead
        self.context.stats.kernel_launches += 1
        self.context.stats.kernel_time += overhead
        timeline = self.context.timeline
        timeline.schedule(
            "kernel",
            self.kernel.name,
            overhead + self._body_time,
            stream=COMPUTE_STREAM,
            not_before=self.start_time,
        )
        # The ring drain and the control writes run on the host concurrently
        # with the resident kernel; they start once the grid is up.
        if self._ring_time:
            timeline.schedule(
                "d2h",
                f"result_ring[{self.kernel.name}]",
                self._ring_time,
                stream=DOWNLOAD_STREAM,
                not_before=self.start_time + overhead,
            )
        if self._control_time:
            timeline.schedule(
                "h2d",
                f"stop_flags[{self.kernel.name}]",
                self._control_time,
                stream=COPY_STREAM,
                not_before=self.start_time + overhead,
            )
        return PersistentLaunchRecord(
            kernel_name=self.kernel.name,
            iterations=self.iterations,
            body_time=self._body_time,
            launch_overhead=overhead,
            ring_bytes=self._ring_bytes,
            control_bytes=self._control_bytes,
        )


class GPUContext:
    """Host-side handle to one simulated GPU.

    Parameters
    ----------
    device:
        Hardware description (defaults to the paper's GTX 280).
    mode:
        Execution backend for kernel bodies; the vectorized backend is the
        default, the per-thread backend is available for verification.
    keep_launch_records:
        Store a :class:`~repro.gpu.kernel.KernelLaunch` record per launch
        (disable for very long runs to bound memory).
    pinned:
        Stage host<->device transfers through pinned (page-locked) host
        memory: copies are priced with the device's pinned PCIe terms and
        packet stagings are accounted in :attr:`staging_pool`.  The default
        (pageable) keeps the seed model's single latency + bandwidth term.
    engine:
        The pool's shared :class:`~repro.gpu.interconnect.TransferEngine`.
        Every copy this context issues is routed and priced through it, so
        transfers of different devices contend on shared links.  Omitted, a
        private engine over a single-device topology is created (``topology``
        selects which; the default derives a dedicated link from the device
        spec, pricing bit-identically to the legacy model).
    device_key:
        This context's name inside the engine's topology (``"gpu0"``, ...).
    topology:
        Preset name or :class:`~repro.gpu.interconnect.InterconnectTopology`
        used when no ``engine`` is passed.
    """

    def __init__(
        self,
        device: DeviceSpec = GTX_280,
        *,
        mode: ExecutionMode = ExecutionMode.VECTORIZED,
        keep_launch_records: bool = False,
        pinned: bool = False,
        engine: TransferEngine | None = None,
        device_key: str = "gpu0",
        topology: InterconnectTopology | str | None = None,
    ) -> None:
        self.device = device
        self.mode = mode
        self.memory = MemoryManager(capacity_bytes=device.global_mem_bytes)
        self.timing = GPUTimingModel(device)
        self.stats = DeviceStats()
        self.timeline = Timeline()
        self.keep_launch_records = keep_launch_records
        self.pinned = bool(pinned)
        if engine is None:
            engine = TransferEngine(resolve_topology(topology, [device]))
            device_key = engine.topology.device_keys[0]
        elif topology is not None:
            raise ValueError("pass either a shared engine or a topology, not both")
        if device_key not in engine.topology.device_keys:
            raise ValueError(
                f"device_key {device_key!r} is not part of topology "
                f"{engine.topology.name!r} ({engine.topology.device_keys})"
            )
        #: Interconnect engine pricing every transfer this context issues.
        self.engine = engine
        #: This device's name inside the engine's topology.
        self.device_key = device_key
        #: Pinned staging buffers for the per-iteration delta/result packets
        #: (allocated once, recycled; ``None`` on pageable contexts).
        self.staging_pool: PinnedStagingPool | None = (
            PinnedStagingPool() if pinned else None
        )

    def _host_kind(self, kind: HostMemoryKind | None) -> HostMemoryKind:
        """Resolve a transfer's host-memory kind (default: the context's)."""
        if kind is not None:
            return kind
        return HostMemoryKind.PINNED if self.pinned else HostMemoryKind.PAGEABLE

    def _issue_start(
        self,
        stream: str,
        wait_for: Event | list[Event] | None,
        not_before: float,
    ) -> float:
        """The instant a stream-ordered operation would start (cursor + deps)."""
        if wait_for is None:
            events: list[Event] = []
        elif isinstance(wait_for, Event):
            events = [wait_for]
        else:
            events = list(wait_for)
        barrier = max([not_before, *(event.time for event in events)], default=not_before)
        return max(self.timeline.stream(stream).cursor, barrier)

    def host_transfer_grant(
        self,
        direction: str,
        nbytes: float,
        *,
        kind: HostMemoryKind | None = None,
        start: float | None = None,
        label: str = "",
    ) -> TransferGrant:
        """Route one host<->device copy of this device through the engine.

        ``start`` defaults to the null-stream issue point (the timeline's
        current makespan).  The caller schedules the returned grant's
        duration on whichever stream carries the copy.
        """
        return self.engine.transfer(
            self.device_key,
            direction,
            nbytes,
            kind=self._host_kind(kind),
            start=self.timeline.elapsed if start is None else start,
            label=label,
        )

    # ------------------------------------------------------------------
    # Memory operations (timed)
    # ------------------------------------------------------------------
    def to_device(
        self,
        name: str,
        host_array: np.ndarray,
        space: MemorySpace = MemorySpace.GLOBAL,
        *,
        host_kind: HostMemoryKind | None = None,
    ):
        """Copy ``host_array`` into device buffer ``name`` (allocating it if new).

        Synchronous (null-stream) semantics: the copy starts only after every
        outstanding operation on every stream has completed.
        """
        kind = self._host_kind(host_kind)
        buf = self.memory.to_device(name, host_array, space, host_kind=kind)
        grant = self.host_transfer_grant("h2d", buf.nbytes, kind=kind, label=name)
        self.stats.transfer_time += grant.duration
        self.stats.h2d_bytes += buf.nbytes
        self.timeline.schedule_sync("h2d", name, grant.duration)
        return buf

    def to_host(self, name: str, *, host_kind: HostMemoryKind | None = None) -> np.ndarray:
        """Copy device buffer ``name`` back to the host (null-stream semantics)."""
        kind = self._host_kind(host_kind)
        out = self.memory.to_host(name, host_kind=kind)
        grant = self.host_transfer_grant("d2h", out.nbytes, kind=kind, label=name)
        self.stats.transfer_time += grant.duration
        self.stats.d2h_bytes += out.nbytes
        self.timeline.schedule_sync("d2h", name, grant.duration)
        return out

    def alloc(self, name: str, shape, dtype=np.float64, space: MemorySpace = MemorySpace.GLOBAL):
        """Allocate an output buffer on the device (not timed: no data crosses PCIe)."""
        return self.memory.alloc(name, shape, dtype, space)

    def free(self, name: str) -> None:
        self.memory.free(name)

    def free_evaluator_buffers(self, owner) -> int:
        """Free every named buffer belonging to ``owner`` (an evaluator or its id).

        Evaluators name their persistent device buffers ``"<kind>:<id>"``
        (optionally with further ``:`` suffixes); when many evaluators share
        one context those allocations would otherwise accumulate as simulated
        device-memory leaks.  Returns the number of buffers freed.
        """
        owner_id = str(owner if isinstance(owner, int) else id(owner))
        names = [
            name for name in self.memory.allocations if owner_id in name.split(":")[1:]
        ]
        for name in names:
            self.memory.free(name)
        return len(names)

    # ------------------------------------------------------------------
    # Kernel launches (timed)
    # ------------------------------------------------------------------
    def _execute_and_time(
        self,
        kernel: Kernel,
        active_threads: int | tuple[int, ...],
        args,
        *,
        block_size: int,
        config: LaunchConfig | None,
        cost: KernelCostProfile | None,
    ) -> KernelLaunch:
        """Run the kernel body functionally and produce its launch record."""
        total_active, work_shape = normalize_work(active_threads)
        if total_active <= 0:
            raise ValueError(f"active_threads must be positive, got {active_threads}")
        cfg = config if config is not None else kernel.launch_config(total_active, block_size)
        if cfg.total_threads < total_active:
            raise ValueError(
                f"launch configuration provides {cfg.total_threads} threads but "
                f"{total_active} are required"
            )
        kernel.execute(cfg, args, active_threads=total_active, mode=self.mode)
        breakdown = self.timing.kernel_time(
            cfg, cost if cost is not None else kernel.cost, active_threads=total_active
        )
        record = KernelLaunch(
            kernel_name=kernel.name,
            config=cfg,
            active_threads=total_active,
            time=breakdown,
            mode=self.mode,
            work_shape=work_shape,
        )
        self.stats.kernel_launches += 1
        self.stats.kernel_time += breakdown.total_time
        if self.keep_launch_records:
            self.stats.launch_records.append(record)
        return record

    def launch(
        self,
        kernel: Kernel,
        active_threads: int | tuple[int, ...],
        args,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        config: LaunchConfig | None = None,
        cost: KernelCostProfile | None = None,
    ) -> KernelLaunch:
        """Execute ``kernel`` over ``active_threads`` logical work items.

        ``active_threads`` is either a plain thread count (the paper's 1-D
        one-thread-per-neighbor launch) or a logical work shape such as
        ``(S, M)`` for a solution-parallel batch of ``S`` replicas — the
        launch then covers the product and the shape is recorded so the
        profiler can attribute the time to a batched launch.  Functional
        results are written into the arrays in ``args``; the simulated
        execution time is added to :attr:`stats`.  Null-stream semantics: the
        launch serializes against all outstanding asynchronous work.
        """
        record = self._execute_and_time(
            kernel, active_threads, args, block_size=block_size, config=config, cost=cost
        )
        self.timeline.schedule_sync("kernel", kernel.name, record.time.total_time)
        return record

    # ------------------------------------------------------------------
    # Asynchronous (stream-ordered) operations
    # ------------------------------------------------------------------
    def copy_async(
        self,
        name: str,
        host_array: np.ndarray,
        *,
        stream: str = COPY_STREAM,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        space: MemorySpace = MemorySpace.GLOBAL,
        host_kind: HostMemoryKind | None = None,
        grant: TransferGrant | None = None,
    ) -> Event:
        """Host -> device copy issued on ``stream``; returns its completion event.

        Unlike :meth:`to_device` the buffer is transparently reallocated when
        the staged array's geometry changes (delta packets shrink and grow
        with the number of still-active replicas).  On a pinned context the
        packet is staged through :attr:`staging_pool` and priced with the
        pinned PCIe terms.  Passing a pre-priced ``grant`` (from a batched
        engine arbitration) skips the per-copy pricing.
        """
        kind = self._host_kind(host_kind)
        buf = self.stage_upload(name, host_array, kind, space)
        if grant is None:
            start = self._issue_start(stream, wait_for, not_before)
            grant = self.host_transfer_grant(
                "h2d", buf.nbytes, kind=kind, start=start, label=name
            )
        self.stats.transfer_time += grant.duration
        self.stats.h2d_bytes += buf.nbytes
        interval = self.timeline.schedule(
            "h2d", name, grant.duration,
            stream=stream, wait_for=wait_for, not_before=not_before,
        )
        return Event(stream=stream, time=interval.end)

    def stage_upload(
        self,
        name: str,
        host_array: np.ndarray,
        kind: HostMemoryKind,
        space: MemorySpace = MemorySpace.GLOBAL,
    ):
        """The memory side of a host -> device copy; returns the device buffer.

        The buffer is reallocated when the array's geometry changed (delta
        packets shrink and grow with the active replicas), a pinned copy is
        staged through :attr:`staging_pool`, and the copy is logged.
        """
        host_array = np.asarray(host_array)
        existing = self.memory.allocations.get(name)
        if existing is not None and (
            existing.data.shape != host_array.shape or existing.data.dtype != host_array.dtype
        ):
            self.memory.free(name)
        if kind is HostMemoryKind.PINNED and self.staging_pool is not None:
            self.staging_pool.stage(int(host_array.nbytes))
        return self.memory.to_device(name, host_array, space, host_kind=kind)

    def stage_download(self, name: str, kind: HostMemoryKind) -> np.ndarray:
        """The memory side of a device -> host copy; returns the host data."""
        out = self.memory.to_host(name, host_kind=kind)
        if kind is HostMemoryKind.PINNED and self.staging_pool is not None:
            self.staging_pool.stage(int(out.nbytes))
        return out

    def download_async(
        self,
        name: str,
        *,
        stream: str = DOWNLOAD_STREAM,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        host_kind: HostMemoryKind | None = None,
        grant: TransferGrant | None = None,
    ) -> tuple[np.ndarray, Event]:
        """Device -> host copy issued on ``stream``; returns (data, event)."""
        kind = self._host_kind(host_kind)
        out = self.stage_download(name, kind)
        if grant is None:
            start = self._issue_start(stream, wait_for, not_before)
            grant = self.host_transfer_grant(
                "d2h", out.nbytes, kind=kind, start=start, label=name
            )
        self.stats.transfer_time += grant.duration
        self.stats.d2h_bytes += out.nbytes
        interval = self.timeline.schedule(
            "d2h", name, grant.duration,
            stream=stream, wait_for=wait_for, not_before=not_before,
        )
        return out, Event(stream=stream, time=interval.end)

    # ------------------------------------------------------------------
    # Peer-to-peer (device -> device) operations
    # ------------------------------------------------------------------
    def can_access_peer(self, peer: "GPUContext") -> bool:
        """Whether a direct peer copy to ``peer`` is possible.

        Contexts sharing one interconnect engine consult its topology (the
        peer mesh is a routing property there); standalone contexts fall
        back to the specs' capability flags.
        """
        if self.engine is peer.engine:
            return self.engine.has_peer_route(self.device_key, peer.device_key)
        return self.device.p2p_capable and peer.device.p2p_capable

    def copy_peer_async(
        self,
        peer: "GPUContext",
        name: str,
        data: np.ndarray,
        *,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        space: MemorySpace = MemorySpace.GLOBAL,
    ) -> Event:
        """Device -> device copy into ``peer``'s buffer ``name`` over the P2P link.

        The copy occupies the :data:`~repro.gpu.streams.P2P_STREAM` of *both*
        endpoints for its duration (the link is shared), starts once both
        streams are free and every ``wait_for`` event has fired, and returns
        the arrival event on the peer's stream.  The traffic is accounted in
        the source's ``p2p_bytes`` — never in the host-facing h2d/d2h
        counters, because no host round trip takes place.
        """
        if not self.can_access_peer(peer):
            if not self.device.p2p_capable or not peer.device.p2p_capable:
                incapable = self.device if not self.device.p2p_capable else peer.device
                reason = f"{incapable.name!r} is not p2p-capable"
            else:
                reason = (
                    f"topology {self.engine.topology.name!r} has no peer route "
                    f"{self.device_key} -> {peer.device_key}"
                )
            raise RuntimeError(
                f"peer access between {self.device.name!r} and {peer.device.name!r} "
                f"is unavailable ({reason}); "
                "route the packet through the host instead"
            )
        data = np.asarray(data)
        peer.land_peer_copy(name, data, space)
        # Both endpoints' p2p engines are busy for the copy's duration; the
        # shared start is the later of the two stream cursors (plus deps).
        barrier = max(
            self.timeline.stream(P2P_STREAM).cursor,
            peer.timeline.stream(P2P_STREAM).cursor,
            not_before,
        )
        if self.engine is peer.engine:
            start = self._issue_start(P2P_STREAM, wait_for, barrier)
            start = max(start, peer.timeline.stream(P2P_STREAM).cursor)
            grant = self.engine.peer_transfer(
                self.device_key, peer.device_key, int(data.nbytes),
                start=start, label=name,
            )
            duration = grant.duration
        else:
            # Standalone contexts with private engines: legacy point-to-point
            # peer pricing from the device specs.
            duration = self.timing.peer_transfer_time(int(data.nbytes), peer.device)
        self.stats.p2p_bytes += int(data.nbytes)
        self.stats.peer_transfers += 1
        self.stats.p2p_time += duration
        self.timeline.schedule(
            "p2p", f"{name}->peer", duration,
            stream=P2P_STREAM, wait_for=wait_for, not_before=barrier,
        )
        interval = peer.timeline.schedule(
            "p2p", name, duration,
            stream=P2P_STREAM, wait_for=wait_for, not_before=barrier,
        )
        return Event(stream=P2P_STREAM, time=interval.end)

    def land_peer_copy(
        self, name: str, data: np.ndarray, space: MemorySpace = MemorySpace.GLOBAL
    ) -> None:
        """The memory side of a peer copy arriving here: write buffer ``name``."""
        existing = self.memory.allocations.get(name)
        if existing is not None and (
            existing.data.shape != data.shape or existing.data.dtype != data.dtype
        ):
            self.memory.free(name)
        if name not in self.memory.allocations:
            self.memory.alloc(name, data.shape, data.dtype, space)
        self.memory.get(name).copy_from_host(data)

    def launch_async(
        self,
        kernel: Kernel,
        active_threads: int | tuple[int, ...],
        args,
        *,
        stream: str = COMPUTE_STREAM,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        config: LaunchConfig | None = None,
        cost: KernelCostProfile | None = None,
    ) -> tuple[KernelLaunch, Event]:
        """Issue a kernel on ``stream``, ordered only by ``wait_for`` events."""
        record = self._execute_and_time(
            kernel, active_threads, args, block_size=block_size, config=config, cost=cost
        )
        interval = self.timeline.schedule(
            "kernel",
            kernel.name,
            record.time.total_time,
            stream=stream,
            wait_for=wait_for,
            not_before=not_before,
        )
        return record, Event(stream=stream, time=interval.end)

    def reduce_async(
        self,
        name: str,
        num_elements: int,
        *,
        stream: str = COMPUTE_STREAM,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> Event:
        """Account a fused on-device min/argmin reduction over ``num_elements``.

        The functional result is produced by the caller (the simulator's
        evaluators compute it with NumPy); this method charges the
        :meth:`~repro.gpu.timing.GPUTimingModel.reduction_time` cost and
        places the pass on the stream timeline.
        """
        duration = self.timing.reduction_time(num_elements)
        self.stats.reductions += 1
        self.stats.reduction_time += duration
        interval = self.timeline.schedule(
            "reduce", name, duration, stream=stream, wait_for=wait_for, not_before=not_before
        )
        return Event(stream=stream, time=interval.end)

    def open_device_loop(
        self,
        kernel: Kernel | PersistentKernel,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> DeviceLoop:
        """Start a persistent launch: one :class:`DeviceLoop` per run.

        The returned loop accumulates every on-device iteration; closing it
        (:meth:`DeviceLoop.finish`) charges a single kernel launch whose
        overhead is amortized over all iterations and records one long
        timeline interval per stream.
        """
        return DeviceLoop(self, kernel, block_size=block_size)

    def synchronize(self) -> float:
        """Host-side sync point: the simulated instant all streams drain."""
        return self.timeline.elapsed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_accounting(self) -> dict:
        """Checkpointable accounting state: stats, timeline, staging counters.

        Device *contents* (allocations) are deliberately not included —
        callers reinstall resident data through their own warm paths (see
        ``GPUEvaluator.restore_state``), and the shared interconnect engine
        is snapshotted separately by whoever owns it.
        """
        snap = {
            "device": self.device.name,
            "stats": self.stats.snapshot(),
            "timeline": self.timeline.snapshot(),
        }
        if self.staging_pool is not None:
            snap["staging"] = {
                "stagings": self.staging_pool.stagings,
                "staged_bytes": self.staging_pool.staged_bytes,
                "high_water_bytes": self.staging_pool.high_water_bytes,
            }
        return snap

    def restore_accounting(self, snap: dict) -> None:
        """Install a :meth:`snapshot_accounting` taken on an identical device."""
        if snap.get("device") != self.device.name:
            raise ValueError(
                f"checkpoint was taken on device {snap.get('device')!r}, "
                f"this context simulates {self.device.name!r}"
            )
        self.stats.restore(snap["stats"])
        self.timeline.restore(snap["timeline"])
        staging = snap.get("staging")
        if staging is not None and self.staging_pool is not None:
            self.staging_pool.stagings = int(staging["stagings"])
            self.staging_pool.staged_bytes = int(staging["staged_bytes"])
            self.staging_pool.high_water_bytes = int(staging["high_water_bytes"])

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear statistics, transfer logs and the stream timeline (allocations survive).

        The interconnect engine's committed load rewinds too — its load
        profile is anchored to the same simulated clock the timeline resets.
        A pool-shared engine is reset by whichever context resets first
        (pools rewind all their contexts together).
        """
        self.stats.reset()
        self.memory.reset_statistics()
        self.timeline.reset()
        self.engine.reset()
        if self.staging_pool is not None:
            self.staging_pool.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return f"GPUContext(device={self.device.name!r}, mode={self.mode.value})"
