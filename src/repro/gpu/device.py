"""Device specifications for the SPMD GPU execution simulator.

The paper's experiments run on an NVIDIA GTX 280 (GT200 architecture) hosted
by an Intel Xeon 8-core 3 GHz machine.  Because this reproduction has no
physical GPU, the execution substrate is a simulator: kernels are executed
functionally by NumPy (or by a faithful per-thread interpreter) and *timed*
by an analytic model parameterised by the specifications below.

The numbers for the GTX 280 follow the public CUDA programming guide data
for that card; the paper itself quotes "32 multiprocessors" for its card, so
the preset uses that figure (the retail GTX 280 exposes 30 — the difference
is irrelevant to the reproduced trends but we stay faithful to the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeviceSpec",
    "HostSpec",
    "GTX_280",
    "GTX_8800",
    "TESLA_C1060",
    "TESLA_V100",
    "A100_SXM",
    "XEON_3GHZ",
    "DEVICE_PRESETS",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware description of a CUDA-capable device.

    The fields are the subset of a real device's properties that the
    occupancy calculator and the timing model need.
    """

    name: str
    #: Number of streaming multiprocessors (SMs).
    multiprocessors: int
    #: Scalar cores ("streaming processors") per SM.
    cores_per_mp: int
    #: Shader clock in Hz.
    clock_hz: float
    #: Threads per warp (32 for every CUDA architecture).
    warp_size: int = 32
    #: Hardware limit on threads per block.
    max_threads_per_block: int = 512
    #: Hardware limit on resident threads per SM.
    max_threads_per_mp: int = 1024
    #: Hardware limit on resident blocks per SM.
    max_blocks_per_mp: int = 8
    #: Register file size per SM (32-bit registers).
    registers_per_mp: int = 16384
    #: Shared memory per SM in bytes.
    shared_mem_per_mp: int = 16384
    #: Total global memory in bytes.
    global_mem_bytes: int = 1024 * 1024 * 1024
    #: Peak global-memory bandwidth in bytes/s.
    mem_bandwidth: float = 141.7e9
    #: Global memory latency in clock cycles (used by the latency-hiding model).
    mem_latency_cycles: float = 500.0
    #: Fixed host-side cost of a kernel launch + synchronisation, in seconds.
    kernel_launch_overhead: float = 6.0e-5
    #: Host <-> device transfer bandwidth (PCIe) from *pageable* host memory,
    #: bytes/s.  A pageable copy is staged through a driver-side bounce
    #: buffer (an extra host memcpy), so its sustained rate sits well below
    #: the link peak.
    pcie_bandwidth: float = 5.0e9
    #: Host <-> device transfer latency per operation from pageable memory,
    #: seconds.
    pcie_latency: float = 2.0e-5
    #: Host <-> device transfer bandwidth from *pinned* (page-locked) host
    #: memory, bytes/s.  Pinned pages are DMA-able directly, skipping the
    #: bounce-buffer copy (``cudaMallocHost`` / ``cudaHostAlloc``).
    pcie_pinned_bandwidth: float = 6.4e9
    #: Per-operation latency of a pinned transfer, seconds (no page pinning
    #: or staging work on the host side).
    pcie_pinned_latency: float = 8.0e-6
    #: Whether the device supports direct peer-to-peer copies with another
    #: capable device on the same PCIe root (``cudaMemcpyPeerAsync``).
    p2p_capable: bool = True
    #: Sustained device <-> device bandwidth over the PCIe peer link, bytes/s.
    p2p_bandwidth: float = 6.0e9
    #: Per-operation latency of a peer-to-peer copy, seconds.
    p2p_latency: float = 1.2e-5
    #: Fraction of the theoretical arithmetic peak that integer-heavy,
    #: branchy metaheuristic kernels sustain.  The GT200's 933-GFLOP peak
    #: assumes dual-issued single-precision MAD+MUL; the neighborhood
    #: kernels are dominated by integer adds, gathers and branches and land
    #: around a few percent of that figure (calibrated against the paper's
    #: Table II/III accelerations).
    arithmetic_efficiency: float = 0.025
    #: Fraction of peak bandwidth sustained for the partially-coalesced
    #: column-gather access pattern of the neighborhood kernels (the GTX 280
    #: relaxed the G80's coalescing rules, hence its higher default).
    memory_efficiency: float = 0.35
    #: Instructions a warp can issue back-to-back; kept for documentation of
    #: the latency-hiding rationale.
    issue_cycles_per_instruction: float = 4.0
    #: Resident warps per SM needed to hide global-memory latency.  Beyond
    #: this many warps the memory pipeline stays saturated; below it,
    #: throughput degrades roughly linearly (the fate of the paper's small
    #: 1-Hamming launches).
    latency_hiding_warps: float = 8.0
    #: Fraction of peak bandwidth sustained for reads served through the
    #: texture cache.  Texture fetches are cached and not subject to the
    #: coalescing rules, which is why the paper's Figure 8 plots its GPU
    #: curve as "GPUTexture" (the A matrix is bound to a texture).
    texture_efficiency: float = 0.70

    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Peak single-precision MAD throughput in FLOP/s (2 flops per core per cycle)."""
        return 2.0 * self.multiprocessors * self.cores_per_mp * self.clock_hz

    @property
    def sustained_flops(self) -> float:
        """Arithmetic throughput the timing model assumes for kernel code."""
        return self.peak_flops * self.arithmetic_efficiency

    @property
    def sustained_bandwidth(self) -> float:
        """Global-memory throughput the timing model assumes for kernel code."""
        return self.mem_bandwidth * self.memory_efficiency

    @property
    def warps_to_hide_latency(self) -> float:
        """Resident warps per SM needed to fully hide global-memory latency."""
        return self.latency_hiding_warps

    @property
    def max_warps_per_mp(self) -> int:
        return self.max_threads_per_mp // self.warp_size


@dataclass(frozen=True)
class HostSpec:
    """CPU host description used for the sequential baseline timing model."""

    name: str
    #: Number of physical cores (the paper's baseline uses a single core).
    cores: int
    clock_hz: float
    #: Sustained scalar FLOP/s of the single-threaded baseline implementation
    #: (integer-dominated 2009-era C code sits well below peak).
    sustained_flops: float
    #: Sustained memory bandwidth of a single core, bytes/s.
    sustained_bandwidth: float = 6.0e9


#: The card used in the paper (as described there: 32 multiprocessors, GT200).
GTX_280 = DeviceSpec(
    name="NVIDIA GTX 280",
    multiprocessors=32,
    cores_per_mp=8,
    clock_hz=1.296e9,
    max_threads_per_block=512,
    max_threads_per_mp=1024,
    max_blocks_per_mp=8,
    registers_per_mp=16384,
    shared_mem_per_mp=16384,
    global_mem_bytes=1024**3,
    mem_bandwidth=141.7e9,
    memory_efficiency=0.50,
)

#: Previous-generation G80 card, with the stricter coalescing rules the paper
#: mentions ("constraints of memory alignment are relaxed in comparison with
#: the previous architectures (G80 series)").
GTX_8800 = DeviceSpec(
    name="NVIDIA 8800 GTX (G80)",
    multiprocessors=16,
    cores_per_mp=8,
    clock_hz=1.35e9,
    max_threads_per_mp=768,
    registers_per_mp=8192,
    mem_bandwidth=86.4e9,
    memory_efficiency=0.20,
    # The G80 generation predates direct peer access; deltas destined for an
    # 8800 GTX in a mixed pool must take the host round trip.
    p2p_capable=False,
    pcie_pinned_bandwidth=5.6e9,
)

#: Compute-oriented sibling of the GTX 280.
TESLA_C1060 = DeviceSpec(
    name="NVIDIA Tesla C1060",
    multiprocessors=30,
    cores_per_mp=8,
    clock_hz=1.296e9,
    global_mem_bytes=4 * 1024**3,
    mem_bandwidth=102.0e9,
    memory_efficiency=0.50,
)

#: Modern NVLink-class presets.  They extend the paper-era catalog so
#: heterogeneous-fleet scheduling (weighted repartition, elastic join/leave)
#: has meaningfully unequal devices to reason about: a V100 or A100 pulls an
#: order of magnitude more replicas than a GTX 280 under the same kernel
#: cost, and its NVLink-class peer links make migration nearly free compared
#: to a PCIe host round trip.  The efficiency factors stay at the
#: metaheuristic-kernel calibration (integer-dominated, gather-heavy), not
#: the cards' dense-GEMM marketing numbers.
TESLA_V100 = DeviceSpec(
    name="NVIDIA Tesla V100 (NVLink)",
    multiprocessors=80,
    cores_per_mp=64,
    clock_hz=1.53e9,
    max_threads_per_block=1024,
    max_threads_per_mp=2048,
    max_blocks_per_mp=32,
    registers_per_mp=65536,
    shared_mem_per_mp=96 * 1024,
    global_mem_bytes=32 * 1024**3,
    mem_bandwidth=900.0e9,
    mem_latency_cycles=400.0,
    kernel_launch_overhead=1.0e-5,
    pcie_bandwidth=12.0e9,
    pcie_latency=8.0e-6,
    pcie_pinned_bandwidth=13.0e9,
    pcie_pinned_latency=4.0e-6,
    p2p_bandwidth=45.0e9,
    p2p_latency=5.0e-6,
    memory_efficiency=0.55,
    latency_hiding_warps=12.0,
    texture_efficiency=0.80,
)

A100_SXM = DeviceSpec(
    name="NVIDIA A100 SXM (NVLink3)",
    multiprocessors=108,
    cores_per_mp=64,
    clock_hz=1.41e9,
    max_threads_per_block=1024,
    max_threads_per_mp=2048,
    max_blocks_per_mp=32,
    registers_per_mp=65536,
    shared_mem_per_mp=164 * 1024,
    global_mem_bytes=80 * 1024**3,
    mem_bandwidth=2039.0e9,
    mem_latency_cycles=400.0,
    kernel_launch_overhead=1.0e-5,
    pcie_bandwidth=24.0e9,
    pcie_latency=6.0e-6,
    pcie_pinned_bandwidth=26.0e9,
    pcie_pinned_latency=3.0e-6,
    p2p_bandwidth=250.0e9,
    p2p_latency=3.0e-6,
    memory_efficiency=0.60,
    latency_hiding_warps=16.0,
    texture_efficiency=0.85,
)

#: The paper's host CPU; the sustained figure reflects a scalar, single-core,
#: integer-heavy evaluation loop (calibrated so that the reproduced table
#: shapes match the paper's CPU columns within a small factor).
XEON_3GHZ = HostSpec(
    name="Intel Xeon 3 GHz (single core baseline)",
    cores=8,
    clock_hz=3.0e9,
    sustained_flops=0.7e9,
    sustained_bandwidth=6.0e9,
)

DEVICE_PRESETS: dict[str, DeviceSpec] = {
    "gtx280": GTX_280,
    "8800gtx": GTX_8800,
    "g80": GTX_8800,
    "teslac1060": TESLA_C1060,
    "v100": TESLA_V100,
    "teslav100": TESLA_V100,
    "a100": A100_SXM,
    "a100sxm": A100_SXM,
}

