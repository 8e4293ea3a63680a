"""Canonical dtypes of the data that crosses the simulated PCIe bus.

Every byte-accounting site (the evaluators' transfer bookkeeping, the
analytic timing model, the per-iteration estimates) must agree on how wide a
fitness value or a candidate solution is; deriving the sizes from one shared
set of dtypes keeps the transfer model consistent with what the functional
simulator actually stores.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FITNESS_DTYPE",
    "SOLUTION_DTYPE",
    "DELTA_DTYPE",
    "REDUCED_INDEX_DTYPE",
    "REDUCED_PAIR_DTYPE",
    "TABU_STAMP_DTYPE",
    "FITNESS_BYTES",
    "SOLUTION_ENTRY_BYTES",
    "DELTA_PAIR_BYTES",
    "REDUCED_RESULT_BYTES",
    "TABU_STAMP_BYTES",
    "STOP_FLAG_BYTES",
    "PEER_PACKET_HEADER_BYTES",
    "TABU_NEVER",
]

#: Fitness values as written by the evaluation kernels and copied back to the
#: host (the paper stores them as a dense array in global memory).
FITNESS_DTYPE = np.dtype(np.float64)

#: Candidate solutions as uploaded to the device (int32, as in the paper's
#: kernels).
SOLUTION_DTYPE = np.dtype(np.int32)

#: One entry of a delta packet: a ``(replica, bit)`` pair of int32 values
#: describing one flipped bit of the device-resident solution block.
DELTA_DTYPE = np.dtype(np.int32)

#: Index half of the fused reduction's per-replica ``(index, fitness)`` result.
REDUCED_INDEX_DTYPE = np.dtype(np.int64)

#: One per-replica result of the fused neighborhood+reduction launch: the
#: best admissible move's flat index and its fitness (16 bytes).
REDUCED_PAIR_DTYPE = np.dtype(
    [("index", REDUCED_INDEX_DTYPE), ("fitness", np.float64)]
)

#: Bytes per fitness entry crossing PCIe (device -> host).
FITNESS_BYTES = FITNESS_DTYPE.itemsize

#: Bytes per solution entry crossing PCIe (host -> device).
SOLUTION_ENTRY_BYTES = SOLUTION_DTYPE.itemsize

#: Bytes per ``(replica, bit)`` delta pair (host -> device).
DELTA_PAIR_BYTES = 2 * DELTA_DTYPE.itemsize

#: Bytes per replica of the fused reduction result (device -> host): one
#: int64 best-move index plus one float64 best fitness — 16 bytes instead of
#: the ``FITNESS_BYTES * M`` of a full fitness download.
REDUCED_RESULT_BYTES = REDUCED_PAIR_DTYPE.itemsize

#: Per-move "iteration last applied" stamps of the device-resident tabu
#: memory (int64, matching the host-side tabu bookkeeping).
TABU_STAMP_DTYPE = np.dtype(np.int64)

#: Bytes per replica of the per-iteration tabu stamp upload (the replica's
#: current iteration number) when the tabu memory is device-resident: an
#: ``O(S)`` packet from which the reduction derives the admissibility mask.
TABU_STAMP_BYTES = TABU_STAMP_DTYPE.itemsize

#: Bytes per replica of the host's early-stop flag write into the persistent
#: kernel's control block (one byte per replica slot, each iteration).
STOP_FLAG_BYTES = 1

#: Fixed header of one peer-routed packet (destination replica range and
#: pair count, as two int64 words): the hub device prepends it to every
#: delta slice it forwards over a P2P link so the receiving device can
#: scatter without any host involvement.
PEER_PACKET_HEADER_BYTES = 16

#: Sentinel stamp for "move never applied" in the tabu memory (shared by the
#: host-side and device-resident encodings so trajectories stay identical).
TABU_NEVER = -(2**62)
