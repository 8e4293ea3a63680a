"""CUDA occupancy calculator for the simulated device.

Occupancy — the ratio of resident warps to the hardware maximum — determines
how well a kernel hides global-memory latency.  The paper's 1-Hamming
experiments are the textbook illustration: with only ``n`` threads in flight
the multiprocessors cannot cover the memory latency and the GPU loses to the
CPU; the 2- and 3-Hamming kernels launch orders of magnitude more threads
and reach full occupancy.  The timing model consumes the numbers computed
here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .hierarchy import LaunchConfig

__all__ = ["OccupancyResult", "occupancy"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy computation for one kernel launch."""

    #: Blocks that can be resident on one SM given all resource limits.
    blocks_per_mp: int
    #: Warps resident on one SM when the launch saturates the device.
    warps_per_mp: float
    #: ``warps_per_mp`` / hardware maximum, in [0, 1].
    occupancy: float
    #: Average resident warps per SM for *this* launch (can be < 1 for tiny
    #: launches, which is what kills the small 1-Hamming kernels).
    active_warps_per_mp: float
    #: Which resource bounds the residency ("threads", "blocks", "shared", "registers", "grid").
    limiter: str


def occupancy(
    device: DeviceSpec,
    config: LaunchConfig,
    *,
    registers_per_thread: int = 16,
    shared_mem_per_block: int = 0,
) -> OccupancyResult:
    """Compute the theoretical occupancy of a launch on ``device``.

    The classic calculation: residency per SM is bounded by the thread
    limit, the block limit, the register file and shared memory; the actual
    number of active warps additionally depends on how many blocks the grid
    provides to feed the SMs.
    """
    threads_per_block = config.threads_per_block
    if threads_per_block > device.max_threads_per_block:
        raise ValueError(
            f"block of {threads_per_block} threads exceeds the device limit "
            f"of {device.max_threads_per_block}"
        )
    warps_per_block = _ceil_div(threads_per_block, device.warp_size)

    limits: dict[str, int] = {
        "threads": device.max_threads_per_mp // threads_per_block,
        "blocks": device.max_blocks_per_mp,
    }
    if registers_per_thread > 0:
        limits["registers"] = device.registers_per_mp // (registers_per_thread * threads_per_block)
    if shared_mem_per_block > 0:
        limits["shared"] = device.shared_mem_per_mp // shared_mem_per_block

    limiter = min(limits, key=lambda k: limits[k])
    blocks_per_mp = max(limits[limiter], 0)
    if blocks_per_mp == 0:
        # The launch cannot be scheduled at all (e.g. pathological shared
        # memory demand); report zero occupancy instead of raising so callers
        # can surface a clear diagnostic.
        return OccupancyResult(0, 0.0, 0.0, 0.0, limiter)

    warps_per_mp = float(blocks_per_mp * warps_per_block)
    max_warps = float(device.max_warps_per_mp)
    theoretical = min(warps_per_mp / max_warps, 1.0)

    # How many warps does *this* grid actually put on each SM?
    total_warps = config.num_blocks * warps_per_block
    resident_cap = warps_per_mp
    active_warps_per_mp = min(total_warps / device.multiprocessors, resident_cap)
    if config.num_blocks < device.multiprocessors:
        limiter = "grid"

    return OccupancyResult(
        blocks_per_mp=blocks_per_mp,
        warps_per_mp=warps_per_mp,
        occupancy=theoretical,
        active_warps_per_mp=active_warps_per_mp,
        limiter=limiter,
    )
