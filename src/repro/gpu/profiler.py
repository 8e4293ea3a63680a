"""Kernel-launch profiler for the simulated device (an ``nvprof``-style summary).

When a :class:`~repro.gpu.runtime.GPUContext` is created with
``keep_launch_records=True`` every launch is recorded; this module aggregates
those records into the familiar profiler view — time per kernel, launch
counts, occupancy, whether each kernel is compute- or memory-bound — which is
how a practitioner would validate the performance model against a real card.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .runtime import DeviceStats, GPUContext

__all__ = [
    "KernelProfile",
    "ProfileReport",
    "profile",
    "format_profile",
]


@dataclass
class KernelProfile:
    """Aggregated statistics of every launch of one kernel."""

    name: str
    launches: int = 0
    total_time: float = 0.0
    kernel_time: float = 0.0
    overhead_time: float = 0.0
    total_threads: int = 0
    memory_bound_launches: int = 0
    occupancy_sum: float = 0.0
    #: Launches whose logical work shape had more than one dimension (the
    #: solution-parallel ``(S, M)`` batches).
    batched_launches: int = 0
    #: Largest replica count seen in a batched launch (1 if never batched).
    max_batch: int = 1

    @property
    def mean_time(self) -> float:
        return self.total_time / self.launches if self.launches else 0.0

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_sum / self.launches if self.launches else 0.0

    @property
    def dominant_bound(self) -> str:
        if not self.launches:
            return "-"
        return "memory" if self.memory_bound_launches * 2 >= self.launches else "compute"


@dataclass
class ProfileReport:
    """Profiler view over one device context's recorded activity."""

    kernels: dict[str, KernelProfile] = field(default_factory=dict)
    transfer_time: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    #: Fused on-device reductions (the resident pipeline's argmin epilogues).
    reductions: int = 0
    reduction_time: float = 0.0

    @property
    def total_kernel_time(self) -> float:
        return sum(k.total_time for k in self.kernels.values())

    @property
    def total_time(self) -> float:
        return self.total_kernel_time + self.reduction_time + self.transfer_time

    def fraction_of_time(self, kernel_name: str) -> float:
        if self.total_time == 0:
            return 0.0
        return self.kernels[kernel_name].total_time / self.total_time


def profile(context_or_stats: GPUContext | DeviceStats) -> ProfileReport:
    """Aggregate the launch records of a context (or raw stats) into a report."""
    if isinstance(context_or_stats, GPUContext):
        stats = context_or_stats.stats
    else:
        stats = context_or_stats
    report = ProfileReport(
        transfer_time=stats.transfer_time,
        h2d_bytes=stats.h2d_bytes,
        d2h_bytes=stats.d2h_bytes,
        reductions=stats.reductions,
        reduction_time=stats.reduction_time,
    )
    if not stats.launch_records and stats.kernel_launches:
        raise ValueError(
            "no launch records available: create the GPUContext with keep_launch_records=True "
            "to enable profiling"
        )
    for record in stats.launch_records:
        entry = report.kernels.setdefault(record.kernel_name, KernelProfile(record.kernel_name))
        entry.launches += 1
        entry.total_time += record.time.total_time
        entry.kernel_time += record.time.kernel_time
        entry.overhead_time += record.time.launch_overhead
        entry.total_threads += record.active_threads
        entry.occupancy_sum += record.time.occupancy.occupancy
        if record.time.bound == "memory":
            entry.memory_bound_launches += 1
        if len(record.work_shape) > 1:
            entry.batched_launches += 1
        entry.max_batch = max(entry.max_batch, record.batch_size)
    return report


def format_profile(report: ProfileReport) -> str:
    """Render the report as a fixed-width text table (one row per kernel)."""
    lines = [
        f"{'kernel':<58} {'launches':>8} {'time':>12} {'%':>6} {'avg':>12} "
        f"{'occ':>5} {'bound':>8} {'batch':>6}"
    ]
    for name in sorted(report.kernels, key=lambda n: -report.kernels[n].total_time):
        k = report.kernels[name]
        batch = f"x{k.max_batch}" if k.batched_launches else "-"
        lines.append(
            f"{name[:58]:<58} {k.launches:>8d} {k.total_time:>11.4f}s "
            f"{100 * report.fraction_of_time(name):>5.1f}% {k.mean_time * 1e3:>10.3f}ms "
            f"{k.mean_occupancy:>5.2f} {k.dominant_bound:>8} {batch:>6}"
        )
    if report.reductions:
        lines.append(
            f"{'fused on-device reductions':<58} {report.reductions:>8d} "
            f"{report.reduction_time:>11.4f}s "
            f"{100 * (report.reduction_time / report.total_time if report.total_time else 0):>5.1f}%"
        )
    lines.append(
        f"{'host<->device transfers':<58} {'':>8} {report.transfer_time:>11.4f}s "
        f"{100 * (report.transfer_time / report.total_time if report.total_time else 0):>5.1f}% "
        f"({report.h2d_bytes} B up, {report.d2h_bytes} B down)"
    )
    return "\n".join(lines)
