"""Multi-GPU execution: neighborhood partitioning across several devices.

The paper's "Discussion and conclusion" section sketches the multi-GPU
perspective: *"It will consist of partitioning the neighborhood set, where
each partition is executed on a single GPU."*  This module builds the
device contexts of such a pool (:func:`build_contexts`) and partitions the
flat neighborhood index space into one contiguous slice per device: a
homogeneous pool splits the space evenly (:func:`partition_range`), while a
heterogeneous pool (say, a GTX 280 next to an 8800 GTX) is split
proportionally to each device's simulated throughput on the kernel at hand
(:func:`weighted_partition_range` over :func:`throughput_weights`), so that
the slowest device stops being the bottleneck of every step.  The pool
itself is a :class:`~repro.gpu.scheduler.DeviceScheduler` over the
contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .device import DeviceSpec, GTX_280
from .interconnect import InterconnectTopology, TransferEngine, resolve_topology
from .kernel import ExecutionMode
from .runtime import GPUContext
from .timing import KernelCostProfile

__all__ = [
    "Partition",
    "partition_range",
    "weighted_partition_range",
    "throughput_weights",
    "build_contexts",
]


@dataclass(frozen=True)
class Partition:
    """A contiguous slice ``[start, stop)`` of the flat neighborhood indices."""

    device_index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def partition_range(total: int, parts: int) -> list[Partition]:
    """Split ``range(total)`` into ``parts`` balanced contiguous partitions.

    The first ``total % parts`` partitions receive one extra element, so the
    sizes differ by at most one — the natural static balancing when every
    neighbor costs the same (as is the case for a fixed Hamming distance)
    and every device runs at the same speed.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    base, extra = divmod(total, parts)
    partitions = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        partitions.append(Partition(device_index=i, start=start, stop=start + size))
        start += size
    return partitions


def weighted_partition_range(total: int, weights: Sequence[float]) -> list[Partition]:
    """Split ``range(total)`` proportionally to ``weights`` (contiguous slices).

    Sizes are apportioned by the largest-remainder method, so they sum to
    ``total`` exactly and each differs from the ideal fractional share by
    less than one element.  Equal weights reduce to :func:`partition_range`
    bit-for-bit (ties are broken toward lower device indices), making the
    even split the homogeneous special case rather than a separate code
    path.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    weights = [float(w) for w in weights]
    if not weights:
        raise ValueError("need at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be non-negative, got {weights}")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("at least one weight must be positive")
    shares = [total * w / total_weight for w in weights]
    sizes = [int(share) for share in shares]
    remainder = total - sum(sizes)
    # Hand the leftover elements to the parts with the largest fractional
    # share; ties go to the lower index (matching partition_range's layout).
    order = sorted(
        range(len(weights)), key=lambda i: (-(shares[i] - sizes[i]), i)
    )
    for i in order[:remainder]:
        sizes[i] += 1
    partitions = []
    start = 0
    for i, size in enumerate(sizes):
        partitions.append(Partition(device_index=i, start=start, stop=start + size))
        start += size
    return partitions


def throughput_weights(
    devices: Sequence[DeviceSpec], cost: KernelCostProfile | None = None
) -> list[float]:
    """Relative per-thread throughput of each device on a given kernel cost.

    The weight is the reciprocal of the roofline time one thread's work
    takes at full occupancy — ``max(flops / sustained_flops, bytes /
    sustained_bandwidth)`` — so a pool of identical devices gets identical
    weights (and thus the even split), while a mixed pool is apportioned by
    how fast each card actually chews through the kernel at hand.  Without a
    cost profile a balanced 1-flop/1-byte reference workload is assumed.
    """
    flops = cost.flops if cost is not None else 1.0
    gmem = cost.gmem_bytes + cost.texture_bytes if cost is not None else 1.0
    weights = []
    for spec in devices:
        seconds = max(flops / spec.sustained_flops, gmem / spec.sustained_bandwidth)
        weights.append(1.0 / seconds if seconds > 0 else 1.0)
    return weights


def build_contexts(
    devices: list[DeviceSpec] | int = 2,
    *,
    mode: ExecutionMode = ExecutionMode.VECTORIZED,
    pinned: bool = False,
    topology: InterconnectTopology | str | None = None,
) -> list[GPUContext]:
    """One context per device, all hanging off one shared interconnect.

    ``devices`` is a list of specs or a count of GTX 280s.  Every context
    shares one :class:`~repro.gpu.interconnect.TransferEngine` over
    ``topology``, so concurrent transfers of different devices contend on
    shared links; the default derives a dedicated-link fabric from the
    device specs.  A :class:`~repro.gpu.scheduler.DeviceScheduler` over the
    result is the pool.
    """
    if isinstance(devices, int):
        if devices <= 0:
            raise ValueError("need at least one device")
        devices = [GTX_280] * devices
    if not devices:
        raise ValueError("need at least one device")
    topology = resolve_topology(topology, devices)
    engine = TransferEngine(topology)
    return [
        GPUContext(
            spec,
            mode=mode,
            pinned=pinned,
            engine=engine,
            device_key=topology.device_keys[i],
        )
        for i, spec in enumerate(devices)
    ]
