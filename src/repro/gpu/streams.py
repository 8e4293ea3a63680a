"""CUDA-style streams and events for the simulated device.

A real device-resident pipeline issues its copies and kernels on separate
streams so that PCIe transfers overlap kernel execution.  The simulator
models that with an explicit timeline: each :class:`Stream` owns a cursor
(the simulated instant at which its last operation finishes) and a list of
:class:`StreamInterval` records; an operation scheduled on a stream starts at
the stream's cursor — or later, when it waits on an :class:`Event` recorded
on another stream — and the device-level elapsed time is the makespan over
all streams, not the sum of all operation durations.

Synchronous operations (the legacy :meth:`GPUContext.to_device` /
:meth:`GPUContext.launch` API) behave like CUDA's null stream: they start
only once *every* stream has drained, so a purely synchronous workload has a
timeline identical to the serial sum of its operation times, and the async
API strictly generalizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "StreamInterval",
    "Stream",
    "Event",
    "Timeline",
    "DEFAULT_STREAM",
    "COPY_STREAM",
    "COMPUTE_STREAM",
    "DOWNLOAD_STREAM",
    "P2P_STREAM",
    "format_timeline",
]

#: Name of the null stream used by the synchronous API.
DEFAULT_STREAM = "default"
#: Conventional stream names used by the device-resident evaluator pipeline.
COPY_STREAM = "h2d"
COMPUTE_STREAM = "compute"
DOWNLOAD_STREAM = "d2h"
#: Stream carrying device->device peer copies (``cudaMemcpyPeerAsync``); the
#: matching interval appears on *both* endpoints' timelines.
P2P_STREAM = "p2p"


@dataclass(frozen=True)
class StreamInterval:
    """One scheduled operation: what ran, on which stream, from when to when."""

    stream: str
    kind: str  # "kernel" | "h2d" | "d2h" | "reduce"
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Event:
    """A recorded point on a stream's timeline (a la ``cudaEventRecord``)."""

    stream: str
    time: float


class Stream:
    """An in-order queue of device operations with its own clock.

    Interval records are kept as parallel columns (kind/name/start/end) with
    a running busy-time accumulator: the hot loop appends thousands of
    operations per run, and materializing a :class:`StreamInterval` object
    per operation dominated the accounting cost.  The object view is built
    lazily through the :attr:`intervals` property only when a report asks.
    """

    __slots__ = ("name", "cursor", "_kinds", "_names", "_starts", "_ends", "_busy")

    def __init__(self, name: str, cursor: float = 0.0) -> None:
        self.name = name
        self.cursor = cursor
        self._kinds: list[str] = []
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._busy = 0.0

    def append_interval(self, kind: str, name: str, start: float, end: float) -> None:
        """Record one operation without materializing an interval object.

        Does not touch :attr:`cursor` — callers that manage their own stream
        clock (the interconnect's arbitrated transfers) update it themselves.
        """
        self._kinds.append(kind)
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(end)
        self._busy += end - start

    def schedule(
        self, kind: str, name: str, duration: float, *, not_before: float = 0.0
    ) -> StreamInterval:
        """Append one operation; it starts at ``max(cursor, not_before)``.

        Operations on one stream execute in order and never overlap each
        other — overlap only happens *across* streams.
        """
        if duration < 0:
            raise ValueError(f"operation duration must be non-negative, got {duration}")
        start = max(self.cursor, not_before)
        interval = StreamInterval(
            stream=self.name, kind=kind, name=name, start=start, end=start + duration
        )
        self.cursor = interval.end
        self.append_interval(kind, name, start, interval.end)
        return interval

    @property
    def num_intervals(self) -> int:
        """Number of recorded operations — O(1), no materialization."""
        return len(self._starts)

    @property
    def busy_time(self) -> float:
        """Total time this stream spent executing operations — O(1)."""
        return self._busy

    @property
    def intervals(self) -> list[StreamInterval]:
        """The recorded operations as interval objects (built on demand).

        This is a *snapshot*: mutating the returned list does not alter the
        stream's records.  Use :meth:`append_interval` / :meth:`schedule` to
        add operations.
        """
        return [
            StreamInterval(stream=self.name, kind=kind, name=name, start=start, end=end)
            for kind, name, start, end in zip(
                self._kinds, self._names, self._starts, self._ends
            )
        ]

    @intervals.setter
    def intervals(self, records: list[StreamInterval]) -> None:
        self._kinds = [interval.kind for interval in records]
        self._names = [interval.name for interval in records]
        self._starts = [interval.start for interval in records]
        self._ends = [interval.end for interval in records]
        self._busy = sum(interval.end - interval.start for interval in records)

    def copy_records_from(self, other: "Stream") -> None:
        """Append every record of ``other`` — column copies, no objects."""
        self._kinds += other._kinds
        self._names += other._names
        self._starts += other._starts
        self._ends += other._ends
        # Accumulate per-operation (not += other._busy): keeps the float sum
        # grouped exactly like a fresh sum over the concatenated records.
        for start, end in zip(other._starts, other._ends):
            self._busy += end - start

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable accounting state: cursor + busy accumulator.

        The per-operation interval *records* are report-only and deliberately
        dropped: future operations on a restored stream are scheduled and
        accumulated bit-identically (that is the checkpoint guarantee), while
        pre-checkpoint rows simply no longer show up in timeline reports.
        """
        return {"cursor": self.cursor, "busy": self._busy, "ops": self.num_intervals}

    def restore(self, state: dict) -> None:
        """Install a :meth:`snapshot`, clearing any recorded intervals.

        The busy accumulator is assigned directly — never re-summed from
        records, whose float grouping differs from the incremental ``+=``
        updates and would break bit-identical restores.
        """
        self.cursor = float(state["cursor"])
        self._kinds = []
        self._names = []
        self._starts = []
        self._ends = []
        self._busy = float(state["busy"])


class Timeline:
    """The set of streams of one device, plus the device-level clock."""

    def __init__(self) -> None:
        self.streams: dict[str, Stream] = {}

    def stream(self, name: str = DEFAULT_STREAM) -> Stream:
        """The stream called ``name``, created on first use."""
        if name not in self.streams:
            self.streams[name] = Stream(name)
        return self.streams[name]

    @property
    def elapsed(self) -> float:
        """Device-level elapsed time: the latest completion over all streams."""
        if not self.streams:
            return 0.0
        return max([stream.cursor for stream in self.streams.values()])

    @property
    def busy_time(self) -> float:
        """Sum of all operation durations (what a serial execution would take)."""
        return sum(stream.busy_time for stream in self.streams.values())

    @property
    def overlap_saved(self) -> float:
        """Simulated time hidden by running streams concurrently."""
        return max(0.0, self.busy_time - self.elapsed)

    @property
    def num_intervals(self) -> int:
        """Total recorded operations over all streams — O(1) per stream."""
        return sum(stream.num_intervals for stream in self.streams.values())

    def intervals(self) -> list[StreamInterval]:
        """All recorded intervals, sorted by start time (then stream name)."""
        records = [
            interval
            for stream in self.streams.values()
            for interval in stream.intervals
        ]
        records.sort(key=lambda interval: (interval.start, interval.stream))
        return records

    def schedule(
        self,
        kind: str,
        name: str,
        duration: float,
        *,
        stream: str = DEFAULT_STREAM,
        wait_for: Event | list[Event] | None = None,
        not_before: float = 0.0,
    ) -> StreamInterval:
        """Schedule one operation on ``stream`` after the given events."""
        if wait_for is None:
            events: list[Event] = []
        elif isinstance(wait_for, Event):
            events = [wait_for]
        else:
            events = list(wait_for)
        barrier = max([not_before, *(event.time for event in events)], default=not_before)
        return self.stream(stream).schedule(kind, name, duration, not_before=barrier)

    def schedule_sync(self, kind: str, name: str, duration: float) -> StreamInterval:
        """Null-stream semantics: start only after every stream has drained."""
        return self.stream(DEFAULT_STREAM).schedule(
            kind, name, duration, not_before=self.elapsed
        )

    # -- checkpointing ---------------------------------------------------
    def snapshot(self) -> dict:
        """Per-stream checkpoint state (see :meth:`Stream.snapshot`)."""
        return {name: stream.snapshot() for name, stream in self.streams.items()}

    def restore(self, state: dict) -> None:
        """Replace every stream with its snapshotted cursor/busy state."""
        self.streams.clear()
        for name, stream_state in state.items():
            self.stream(name).restore(stream_state)


def format_timeline(timeline: Timeline, *, limit: int | None = None) -> str:
    """Render the per-stream interval records as a fixed-width report.

    One row per operation in start order, followed by a per-stream busy
    summary and the makespan/overlap totals — the simulator's answer to
    ``nvvp``'s timeline view.
    """
    records = timeline.intervals()
    shown = records if limit is None else records[:limit]
    lines = [f"{'start':>12} {'end':>12} {'stream':<10} {'kind':<7} name"]
    for interval in shown:
        lines.append(
            f"{interval.start * 1e3:>10.4f}ms {interval.end * 1e3:>10.4f}ms "
            f"{interval.stream:<10} {interval.kind:<7} {interval.name}"
        )
    if limit is not None and len(records) > limit:
        lines.append(f"  ... ({len(records) - limit} more intervals)")
    for name in sorted(timeline.streams):
        stream = timeline.streams[name]
        lines.append(
            f"stream {name:<10} {stream.num_intervals:>6d} ops, "
            f"busy {stream.busy_time * 1e3:.4f}ms, idle until {stream.cursor * 1e3:.4f}ms"
        )
    lines.append(
        f"makespan {timeline.elapsed * 1e3:.4f}ms, serial sum {timeline.busy_time * 1e3:.4f}ms, "
        f"overlap saved {timeline.overlap_saved * 1e3:.4f}ms"
    )
    return "\n".join(lines)
