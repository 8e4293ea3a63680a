"""Analytic timing model for simulated kernel launches and the CPU baseline.

This module is the substitute for the wall-clock numbers a physical GTX 280
would produce.  It uses a standard roofline-style estimate:

* a kernel is either **compute bound** (total flops / sustained FLOP/s) or
  **memory bound** (total global-memory traffic / sustained bandwidth),
  whichever is larger;
* both throughputs degrade when the launch does not put enough warps on each
  multiprocessor to hide latency (the fate of the paper's small 1-Hamming
  kernels);
* every launch pays a fixed host-side overhead, and host<->device copies pay
  PCIe latency plus size/bandwidth.

The CPU baseline model is the scalar analogue: total flops divided by the
sustained single-core throughput of the host.

The evaluators charge these models on their simulated clocks, and the
paper's CPU and GPU columns are those clocks: one priced ``full`` step
(:func:`~repro.core.evaluators.full_step_time`) of a ``CPUEvaluator`` and
of a one-GPU ``GPUEvaluator``.

The model is calibrated (via the :data:`~repro.gpu.device.GTX_280` and
:data:`~repro.gpu.device.XEON_3GHZ` presets) so that the *shape* of the
paper's results — the 1-Hamming CPU/GPU crossover around 200×217, the
×10–×18 2-Hamming accelerations and the ×24–×26 3-Hamming plateau — is
reproduced; absolute seconds are approximations, as documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DeviceSpec, HostSpec
from .dtypes import FITNESS_BYTES
from .hierarchy import LaunchConfig, grid_for
from .memory import HostMemoryKind
from .occupancy import OccupancyResult, occupancy

__all__ = [
    "KernelCostProfile",
    "KernelTimeBreakdown",
    "GPUTimingModel",
    "HostTimingModel",
]


@dataclass(frozen=True)
class KernelCostProfile:
    """Per-thread work of one kernel, as counted by the caller.

    ``flops`` counts arithmetic operations (integer and floating point alike
    — the scalar units execute both), ``gmem_bytes`` counts uncached
    global-memory traffic per thread, ``texture_bytes`` counts read-only
    traffic served through the texture cache (the paper binds the problem
    data to a texture for its "GPUTexture" curve), ``smem_bytes`` the
    shared-memory footprint per block and ``registers`` an estimate of
    registers per thread.
    """

    flops: float
    gmem_bytes: float
    texture_bytes: float = 0.0
    smem_bytes: float = 0.0
    registers: int = 16


@dataclass(frozen=True)
class KernelTimeBreakdown:
    """Timing estimate of a single kernel launch, split by cause."""

    compute_time: float
    memory_time: float
    launch_overhead: float
    occupancy: OccupancyResult

    @property
    def kernel_time(self) -> float:
        """Device-side execution time (max of the roofline terms)."""
        return max(self.compute_time, self.memory_time)

    @property
    def total_time(self) -> float:
        return self.kernel_time + self.launch_overhead

    @property
    def bound(self) -> str:
        return "memory" if self.memory_time > self.compute_time else "compute"


#: Entries the :meth:`GPUTimingModel.launch` memo holds before it restarts.
LAUNCH_MEMO_SIZE = 4096


@dataclass
class GPUTimingModel:
    """Roofline + latency-hiding timing model for one device."""

    device: DeviceSpec
    #: Warps per SM below which throughput degrades linearly.  Derived from
    #: the device's latency characteristics unless overridden.
    latency_hiding_warps: float | None = None
    _launches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _hiding_threshold(self) -> float:
        if self.latency_hiding_warps is not None:
            return self.latency_hiding_warps
        return self.device.warps_to_hide_latency

    def latency_hiding_factor(self, occ: OccupancyResult) -> float:
        """Fraction of peak throughput sustained at the launch's occupancy."""
        threshold = self._hiding_threshold()
        if threshold <= 0:
            return 1.0
        return min(1.0, max(occ.active_warps_per_mp, 1.0 / self.device.warp_size) / threshold)

    def compute_hiding_factor(self, occ: OccupancyResult) -> float:
        """Arithmetic pipelines need far fewer warps than memory to stay busy."""
        threshold = max(self._hiding_threshold() / 4.0, 1.0)
        return min(1.0, max(occ.active_warps_per_mp, 1.0 / self.device.warp_size) / threshold)

    # ------------------------------------------------------------------
    def kernel_time(
        self,
        config: LaunchConfig,
        cost: KernelCostProfile,
        *,
        active_threads: int | None = None,
    ) -> KernelTimeBreakdown:
        """Estimate the execution time of one launch.

        ``active_threads`` is the number of threads that pass the kernel's
        bounds check (``if move_index < N``); padding threads in the last
        block do no work.
        """
        threads = config.total_threads if active_threads is None else int(active_threads)
        threads = max(threads, 0)
        occ = occupancy(
            self.device,
            config,
            registers_per_thread=cost.registers,
            shared_mem_per_block=int(cost.smem_bytes),
        )
        if occ.blocks_per_mp == 0:
            raise ValueError(
                f"kernel cannot be scheduled on {self.device.name}: limited by {occ.limiter}"
            )
        total_flops = cost.flops * threads
        total_bytes = cost.gmem_bytes * threads
        total_texture_bytes = cost.texture_bytes * threads
        compute = total_flops / (self.device.sustained_flops * self.compute_hiding_factor(occ))
        memory = total_bytes / (self.device.sustained_bandwidth * self.latency_hiding_factor(occ))
        if total_texture_bytes:
            # Texture fetches are cached and insensitive to coalescing; they
            # still need *some* parallelism to hide latency, but far less
            # than plain global loads.
            texture_hiding = min(
                1.0,
                max(occ.active_warps_per_mp, 1.0 / self.device.warp_size)
                / max(self._hiding_threshold() / 2.0, 1.0),
            )
            memory += total_texture_bytes / (
                self.device.mem_bandwidth * self.device.texture_efficiency * texture_hiding
            )
        return KernelTimeBreakdown(
            compute_time=compute,
            memory_time=memory,
            launch_overhead=self.device.kernel_launch_overhead,
            occupancy=occ,
        )

    def launch(
        self, active_threads: int, block_size: int, cost: KernelCostProfile
    ) -> tuple[LaunchConfig, KernelTimeBreakdown]:
        """Grid and price of a one-thread-per-item launch, memoized.

        Both are pure functions of the device, the latency-hiding threshold,
        the block size, the cost profile and the thread count, so a lockstep
        run that launches the same geometry every step prices it once.
        """
        key = (self.device, self.latency_hiding_warps, block_size, cost, active_threads)
        price = self._launches.get(key)
        if price is None:
            if len(self._launches) >= LAUNCH_MEMO_SIZE:
                self._launches.clear()
            config = grid_for(active_threads, block_size)
            price = self._launches[key] = (
                config,
                self.kernel_time(config, cost, active_threads=active_threads),
            )
        return price

    def transfer_time(
        self, nbytes: float, kind: HostMemoryKind = HostMemoryKind.PAGEABLE
    ) -> float:
        """Host<->device copy time over PCIe, priced per host-memory kind.

        Pageable copies pay the driver's bounce-buffer staging (the seed
        model's single latency + bandwidth term); pinned copies DMA straight
        out of page-locked memory — lower latency, higher sustained rate.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if kind is HostMemoryKind.PINNED:
            return (
                self.device.pcie_pinned_latency
                + nbytes / self.device.pcie_pinned_bandwidth
            )
        return self.device.pcie_latency + nbytes / self.device.pcie_bandwidth

    def peer_transfer_time(self, nbytes: float, peer: DeviceSpec | None = None) -> float:
        """Device->device copy time over the PCIe peer link.

        The effective rate is the slower endpoint's peer bandwidth and the
        latency the larger endpoint latency; both devices must advertise
        peer capability.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not self.device.p2p_capable or (peer is not None and not peer.p2p_capable):
            incapable = self.device if not self.device.p2p_capable else peer
            raise ValueError(
                f"device {incapable.name!r} does not support peer-to-peer access"
            )
        bandwidth = self.device.p2p_bandwidth
        latency = self.device.p2p_latency
        if peer is not None:
            bandwidth = min(bandwidth, peer.p2p_bandwidth)
            latency = max(latency, peer.p2p_latency)
        return latency + nbytes / bandwidth

    def reduction_time(self, num_elements: int) -> float:
        """Device-side parallel min/argmin reduction over ``num_elements`` values.

        Modeled as a bandwidth-bound pass over the data plus one launch
        overhead (the paper selects the best neighbor after the evaluation
        kernel; whether that reduction runs on the device or on the host
        after a copy-back, the cost is a single pass over the fitness
        array).
        """
        if num_elements < 0:
            raise ValueError("num_elements must be non-negative")
        bytes_read = float(FITNESS_BYTES) * num_elements
        return self.device.kernel_launch_overhead + bytes_read / self.device.sustained_bandwidth


@dataclass
class HostTimingModel:
    """Scalar CPU baseline: the sequential neighborhood scan of the paper."""

    host: HostSpec
    #: Use more than one core (the paper's baseline is single-core; the
    #: multi-core variant is provided for ablation studies).
    cores_used: int = 1

    def evaluation_time(self, total_flops: float, total_bytes: float = 0.0) -> float:
        """Time to execute ``total_flops`` of scalar evaluation work."""
        if total_flops < 0 or total_bytes < 0:
            raise ValueError("work amounts must be non-negative")
        cores = max(1, min(self.cores_used, self.host.cores))
        compute = total_flops / (self.host.sustained_flops * cores)
        memory = total_bytes / (self.host.sustained_bandwidth * min(cores, 2))
        return max(compute, memory)

    def iteration_overhead(self) -> float:
        """Per-iteration bookkeeping of the sequential local search (selection, tabu update)."""
        return 2.0e-7
