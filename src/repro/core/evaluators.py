"""Neighborhood evaluators: the execution back-ends of the local search.

All evaluators compute *exactly the same* fitness array for a given
(problem, neighborhood, solution) triple; they differ in how the work would
be executed and therefore in the **simulated time** they accumulate:

``SequentialEvaluator``
    A literal Python loop over neighbors (one ``delta_evaluate`` per move).
    This is the reference implementation used in tests and for very small
    neighborhoods; its simulated time uses the CPU host model.

``CPUEvaluator``
    The NumPy-vectorized batch evaluation.  Functionally identical, much
    faster in wall-clock terms; its *simulated* time still models the
    paper's sequential single-core CPU baseline (that is the platform being
    compared against).

``MultiGPUEvaluator``
    Partitions the flat index space across several simulated devices (the
    paper's multi-GPU perspective); elapsed simulated time is the
    cross-device makespan.

``GPUEvaluator``
    The paper's single simulated GPU, as the one-device pool: upload the
    current solutions, launch one thread per (solution, neighbor) pair,
    download the fitness array.  Simulated time comes from the device
    timing model.

A pool scores a step once on the host and prices it on a
:class:`~repro.gpu.scheduler.DeviceScheduler`.  A ``full`` step is one
upload -> launch -> download chain per device (``upload_batch``,
``launch_async``, ``download_batch``).  The host selects the next moves
from the downloaded fitnesses, so the next step's uploads start only once
every device has drained.  A one-device pool's clock adds the device's
transfers and kernel one after another; a larger pool's clock is the
cross-device makespan.  The pools also expose a **device-resident**
session API (see :class:`MultiGPUEvaluator`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..gpu.device import GTX_280, XEON_3GHZ, DeviceSpec, HostSpec
from ..gpu.dtypes import (
    DELTA_DTYPE,
    DELTA_PAIR_BYTES,
    FITNESS_DTYPE,
    PEER_PACKET_HEADER_BYTES,
    REDUCED_PAIR_DTYPE,
    REDUCED_RESULT_BYTES,
    SOLUTION_DTYPE,
    STOP_FLAG_BYTES,
    TABU_NEVER,
    TABU_STAMP_DTYPE,
)
from ..gpu.hierarchy import DEFAULT_BLOCK_SIZE
from ..gpu.interconnect import InterconnectTopology
from ..gpu.kernel import ExecutionMode, PersistentKernel
from ..gpu.multi_device import (
    build_contexts,
    partition_range,
    throughput_weights,
    weighted_partition_range,
)
from ..gpu.runtime import DeviceLoop, GPUContext, PersistentLaunchRecord
from ..gpu.scheduler import DeviceScheduler, ResidentStepPlan
from ..gpu.timing import HostTimingModel
from ..neighborhoods import Neighborhood
from ..problems import BinaryProblem, as_solution
from .kernels import build_batch_neighborhood_kernel, mapping_flops

__all__ = [
    "EvaluatorStats",
    "NeighborhoodEvaluator",
    "SequentialEvaluator",
    "CPUEvaluator",
    "GPUEvaluator",
    "MultiGPUEvaluator",
    "REDUCE_OPS",
    "full_step_time",
]

#: Fused on-device reduction operators of the device-resident pipeline.
REDUCE_OPS = ("argmin", "first-improvement")


def _fused_reduce(
    fitnesses: np.ndarray,
    op: str,
    admissible: np.ndarray | None = None,
    aspiration_fitness: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Functional body of the fused reduction epilogue.

    Returns per-replica ``(index, fitness)``; a replica with no selectable
    move gets ``(-1, inf)``.  :func:`_select_step` resolves the robust-tabu
    escape on top of it; a hill-climbing caller reads a local optimum off
    the result.
    """
    rows = np.arange(fitnesses.shape[0])
    if op == "argmin":
        if admissible is None and aspiration_fitness is None:
            indices = fitnesses.argmin(axis=1)
            return (
                indices.astype(np.int64, copy=False),
                fitnesses[rows, indices].astype(np.float64, copy=False),
            )
        if admissible is None:
            mask = np.ones(fitnesses.shape, dtype=bool)
        else:
            mask = np.asarray(admissible, dtype=bool)
        if aspiration_fitness is not None:
            mask = mask | (
                fitnesses < np.asarray(aspiration_fitness, dtype=np.float64)[:, None]
            )
        candidates = np.where(mask, fitnesses, np.inf)
        indices = candidates.argmin(axis=1)
        blocked = ~mask.any(axis=1)
        out_indices = np.where(blocked, -1, indices).astype(np.int64, copy=False)
        out_fitness = np.where(blocked, np.inf, fitnesses[rows, indices])
        return out_indices, out_fitness.astype(np.float64, copy=False)
    if op == "first-improvement":
        if thresholds is None:
            raise ValueError("first-improvement reduction needs per-replica thresholds")
        improving = fitnesses < np.asarray(thresholds, dtype=np.float64)[:, None]
        has_improving = improving.any(axis=1)
        indices = improving.argmax(axis=1)
        out_indices = np.where(has_improving, indices, -1).astype(np.int64, copy=False)
        out_fitness = np.where(has_improving, fitnesses[rows, indices], np.inf)
        return out_indices, out_fitness.astype(np.float64, copy=False)
    raise ValueError(f"unknown reduce op {op!r}; expected one of {REDUCE_OPS}")


def _select_step(
    fitnesses: np.ndarray,
    op: str,
    aspiration_fitness: np.ndarray | None,
    thresholds: np.ndarray | None,
    tabu: tuple[np.ndarray, np.ndarray, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule of one lockstep step over an ``(S, M)`` block.

    The one copy of the rule: the runner applies it to a downloaded fitness
    block (``full``/``delta``) and a pool next to its fused reduction
    (``reduced``/``persistent``), so every transfer mode selects the same
    moves.  ``tabu`` is ``None`` or ``(stamps, last, tenure)``: the rows'
    current iteration stamps, their ``(S, M)`` last-applied stamps before
    this step and the tenure.  A move is admissible once more than
    ``tenure`` iterations have passed since it was applied, or when it
    beats the row's ``aspiration_fitness``; a blocked row (every move tabu,
    none aspirated) falls back to its oldest move — the robust-tabu escape.
    Every rule is row by row, so a pool selects its whole block in one call
    and each device stores its own rows.
    """
    admissible = None
    if tabu is not None:
        stamps, last, tenure = tabu
        if tenure:
            admissible = (stamps[:, None] - last) > tenure
    indices, best = _fused_reduce(fitnesses, op, admissible, aspiration_fitness, thresholds)
    if tabu is not None:
        blocked = indices < 0
        if blocked.any():
            indices = np.where(blocked, last.argmin(axis=1), indices).astype(np.int64)
            best = np.where(
                blocked, fitnesses[np.arange(indices.size), indices], best
            ).astype(np.float64)
    return indices, best


@functools.lru_cache(maxsize=16)
def _full_range(size: int) -> np.ndarray:
    """The frozen ``0, 1, ..., size - 1`` indices of a whole-neighborhood call."""
    indices = np.arange(size, dtype=np.int64)
    indices.setflags(write=False)
    return indices


def _is_canonical_full(indices: np.ndarray, size: int) -> bool:
    """Whether ``indices`` is exactly ``0, 1, ..., size - 1`` in order.

    A mere *permutation* of the full range must NOT take the full-
    neighborhood fast path: the kernel writes fitnesses in canonical
    order, which would silently ignore the caller's requested ordering.
    """
    return indices.size == size and (
        indices is _full_range(size)
        or indices.size == 0
        or (indices[0] == 0 and bool(np.all(np.diff(indices) == 1)))
    )


def _score(problem, neighborhood, solutions: np.ndarray, indices=None) -> np.ndarray:
    """Score a whole ``(S, n)`` block in one host call, before any device prices it.

    The scores are host arithmetic whichever device "runs" them, so a step
    is scored once and each device's launch only lands its slice.
    """
    if indices is None or _is_canonical_full(indices, neighborhood.size):
        # The frozen full table: the fast scorers and the gain engine see
        # one table for the whole run.
        moves = neighborhood.move_table
    else:
        moves = neighborhood.moves(indices)
    return problem.evaluate_neighborhood_batch(solutions, moves)


def _in_row_order(downloaded: np.ndarray, grouped: np.ndarray | None) -> np.ndarray:
    """A fresh copy of a pool image's rows, put back in the step's row order."""
    if grouped is None:
        return downloaded.copy()
    out = np.empty_like(downloaded)
    out[grouped] = downloaded
    return out


def _check_per_row(num_solutions: int, **parts) -> None:
    """Each given per-replica argument must have one entry per requested replica."""
    for name, part in parts.items():
        if part is not None and np.shape(part)[:1] != (num_solutions,):
            raise ValueError(
                f"{name} must have one entry per replica ({num_solutions}), "
                f"got shape {np.shape(part)}"
            )


@dataclass
class EvaluatorStats:
    """Work and simulated time accumulated by one evaluator."""

    calls: int = 0
    evaluations: int = 0
    simulated_time: float = 0.0


class NeighborhoodEvaluator:
    """Evaluates all (or a slice of the) neighbors of a candidate solution.

    A backend overrides :meth:`_evaluate`, :meth:`_evaluate_many` or both;
    each defaults to the other.
    """

    #: Short platform label used by the harness ("cpu", "gpu", ...).
    platform: str = "abstract"

    #: Whether the backend implements the device-resident session API
    #: (``begin_search`` / ``apply_deltas`` / ``evaluate_resident``).
    supports_device_residency: bool = False

    def __init__(self, problem: BinaryProblem, neighborhood: Neighborhood) -> None:
        if neighborhood.n != problem.n:
            raise ValueError(
                f"neighborhood is defined over n={neighborhood.n} bits but the problem has n={problem.n}"
            )
        self.problem = problem
        self.neighborhood = neighborhood
        self.stats = EvaluatorStats()

    # ------------------------------------------------------------------
    def _evaluate(self, solution: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Platform-specific evaluation of the moves at the given flat indices.

        The default is the one-row case of :meth:`_evaluate_many`.
        """
        return self._evaluate_many(solution[None, :], indices)[0]

    def _evaluate_many(self, solutions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Platform-specific batched evaluation; default replays the scalar path.

        The fallback runs the single-solution path once per replica (so its
        simulated time is exactly ``S`` sequential explorations); backends
        with a native batched execution override it.
        """
        return np.stack([self._evaluate(solution, indices) for solution in solutions])

    def _check_indices(self, indices: np.ndarray | None) -> np.ndarray:
        if indices is None:
            return _full_range(self.neighborhood.size)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.neighborhood.size):
            raise IndexError("neighborhood index out of range")
        return indices

    def evaluate(self, solution: np.ndarray, indices: np.ndarray | None = None) -> np.ndarray:
        """Fitness of the neighbors at ``indices`` (default: the whole neighborhood)."""
        solution = as_solution(solution, self.problem.n)
        indices = self._check_indices(indices)
        fitnesses = self._evaluate(solution, indices)
        self.stats.calls += 1
        self.stats.evaluations += int(indices.size)
        return fitnesses

    def evaluate_many(
        self, solutions: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Neighborhood fitnesses of a whole ``(S, n)`` block of solutions.

        Returns an ``(S, M)`` matrix: row ``s`` is exactly what
        :meth:`evaluate` would return for ``solutions[s]``.  This is the
        entry point of the solution-parallel execution engine: backends that
        can batch (the CPU vectorized path, the GPU's single ``S x M``-thread
        launch) amortize per-call overheads — transfers, kernel launches,
        Python dispatch — across all replicas.
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim == 1:
            solutions = solutions[None, :]
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (S, {self.problem.n}) solution block, got {solutions.shape}"
            )
        # One reduction: int8 values outside {0, 1} read as unsigned exceed 1.
        if solutions.size and solutions.view(np.uint8).max() > 1:
            raise ValueError("solution block must contain only 0/1 values")
        indices = self._check_indices(indices)
        if solutions.shape[0] == 0:
            return np.empty((0, indices.size), dtype=np.float64)
        fitnesses = self._evaluate_many(solutions, indices)
        self.stats.calls += 1
        self.stats.evaluations += solutions.shape[0] * int(indices.size)
        return fitnesses

    # ------------------------------------------------------------------
    # Checkpoint API
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Checkpointable state of this evaluator (versioned by the runner).

        The base payload is the work counters; device-backed evaluators
        extend it with their timeline, interconnect and resident-session
        state so that a restored run continues *bit-identically* — same
        trajectories, same byte counters, same makespans.
        """
        return {
            "platform": self.platform,
            "stats": {
                "calls": self.stats.calls,
                "evaluations": self.stats.evaluations,
                "simulated_time": self.stats.simulated_time,
            },
        }

    def restore_state(self, snap: dict) -> None:
        """Install a :meth:`snapshot_state` payload into this fresh evaluator.

        The snapshot must come from an evaluator of the same platform: a
        device-backed one carries device state and clocks no other can
        continue.
        """
        if snap.get("platform") != self.platform:
            raise ValueError(
                f"checkpoint was taken on a {snap.get('platform')!r} evaluator, "
                f"this evaluator is {self.platform!r}"
            )
        stats = snap["stats"]
        self.stats.calls = int(stats["calls"])
        self.stats.evaluations = int(stats["evaluations"])
        self.stats.simulated_time = float(stats["simulated_time"])

    def close(self) -> None:
        """Release any persistent per-evaluator device buffers (no-op on CPU)."""

    def __enter__(self) -> "NeighborhoodEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(problem={self.problem.name!r}, "
            f"order={self.neighborhood.order}, size={self.neighborhood.size})"
        )


class _HostModelMixin:
    """Shared CPU-side simulated-time accounting."""

    def _price_full(self, solutions: np.ndarray, indices: np.ndarray, scores) -> np.ndarray:
        """Charge one batched ``full`` step over known ``scores``; returns them."""
        num_evaluations = solutions.shape[0] * indices.size
        cost = self.problem.cost_profile(self.neighborhood.order)
        flops = (cost["flops"] + mapping_flops(self.neighborhood.order)) * num_evaluations
        mem_bytes = cost["bytes"] * num_evaluations
        self.stats.simulated_time += self._host_model.evaluation_time(flops, mem_bytes)
        self.stats.simulated_time += self._host_model.iteration_overhead()
        return np.asarray(scores, dtype=np.float64)


class SequentialEvaluator(_HostModelMixin, NeighborhoodEvaluator):
    """Reference evaluator: a literal per-neighbor Python loop."""

    platform = "cpu-sequential"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        host: HostSpec = XEON_3GHZ,
        cores: int = 1,
    ) -> None:
        super().__init__(problem, neighborhood)
        self._host_model = HostTimingModel(host, cores_used=cores)

    def _evaluate(self, solution: np.ndarray, indices: np.ndarray) -> np.ndarray:
        mapping = self.neighborhood.mapping
        out = np.empty(indices.size, dtype=np.float64)
        for slot, flat in enumerate(indices):
            move = mapping.from_flat(int(flat))
            out[slot] = self.problem.delta_evaluate(solution, move)
        return self._price_full(solution[None, :], indices, out)


class CPUEvaluator(_HostModelMixin, NeighborhoodEvaluator):
    """Vectorized CPU evaluator (functional twin of the GPU kernel)."""

    platform = "cpu"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        host: HostSpec = XEON_3GHZ,
        cores: int = 1,
    ) -> None:
        super().__init__(problem, neighborhood)
        self._host_model = HostTimingModel(host, cores_used=cores)

    def _evaluate_many(self, solutions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        # One broadcast delta evaluation for the whole (S, n) block; the
        # modeled time still charges the sequential baseline for all S * M
        # evaluations (one per-call overhead instead of S — the batched
        # path's bookkeeping amortization).  Scoring through `_score` hands
        # the problem the frozen move table, which the gain engine of a
        # multi-row run serves (a rebuilt writable table is never offered);
        # a one-row `evaluate` goes through here too.
        return self._price_full(
            solutions, indices, _score(self.problem, self.neighborhood, solutions, indices)
        )


#: Kinds of a device slot's session buffers (named ``<kind>:<id(evaluator)>``).
_SESSION_BUFFERS = (
    "resident", "deltas", "reduction_packet", "resident_fitnesses", "reduced", "tabu",
)


def _reduction_packet(aspiration_fitness, thresholds, stamps) -> np.ndarray | None:
    """What the fused reduction's epilogue reads from the host, or ``None``.

    The ``O(S)`` per-replica iteration stamps of the device-resident tabu
    memory (the epilogue derives the admissibility mask from them) and the
    per-replica aspiration / improvement thresholds.
    """
    parts = []
    if stamps is not None:
        parts.append(stamps.view(np.uint8))
    if aspiration_fitness is not None:
        parts.append(np.asarray(aspiration_fitness, dtype=np.float64).view(np.uint8))
    if thresholds is not None:
        parts.append(np.asarray(thresholds, dtype=np.float64).view(np.uint8))
    return np.concatenate(parts) if parts else None


class _DeviceSlot:
    """One pool device's share of a resident session.

    The pool validates, flips, scores and selects each step once on the
    host.  A slot keeps what lives on its device for its replica range —
    its rows of the pool's host mirror, the staged ``(replica, bit)``
    deltas, the tabu stamps and an open persistent launch — and adds its
    chain to the step's plan.  Its fitness and ``reduced`` buffers are its
    slices of the pool's host images (:meth:`_bind`).  Row ids are local to
    the slot's range.  Its buffers carry the owning evaluator's id, so
    ``GPUContext.free_evaluator_buffers(evaluator)`` reclaims them too.
    """

    def __init__(
        self, context: GPUContext, kernel, block_size: int, num_moves: int, owner: int
    ) -> None:
        self.context = context
        self.owner = owner
        self.kernel = kernel
        self.block_size = block_size
        self.num_moves = num_moves
        #: Host mirror of the device-resident (R, n) block: a view of the pool's.
        self._resident: np.ndarray | None = None
        #: Host-staged (replica, bit) pairs, shipped as one delta packet by
        #: the next resident evaluation (one PCIe transaction, one latency).
        self._staged_deltas: list[np.ndarray] = []
        #: Simulated instant the host last synchronized with the device;
        #: host-issued operations cannot start before it.
        self._sync_time: float = 0.0
        #: The ``(R, M)`` "iteration last applied" tabu stamps, living in
        #: device global memory (``None``: the tabu memory is on the host).
        self._tabu_last_applied: np.ndarray | None = None
        #: Persistent launch of the current session: the whole iteration
        #: loop runs inside it.
        self._loop: DeviceLoop | None = None
        #: Summary of the last completed persistent launch.
        self.last_persistent_record: PersistentLaunchRecord | None = None
        #: Per buffer kind: the ``(image, start, stop)`` slice it is bound to.
        self._bound: dict[str, tuple] = {}

    def _buffer(self, kind: str) -> str:
        return f"{kind}:{self.owner}"

    def _bind(self, kind: str, image: np.ndarray, start: int, stop: int) -> None:
        """Make buffer ``kind`` the slice ``[start, stop)`` of a pool-wide host image.

        The buffer is (re)sized like any other, so device memory accounts
        its bytes; it is bound again only when the image or the slice moved.
        """
        bound = self._bound.get(kind)
        if bound is not None and bound[0] is image and bound[1] == start and bound[2] == stop:
            return
        self.context.memory.sized(self._buffer(kind), (stop - start,), image.dtype).data = (
            image[start:stop]
        )
        self._bound[kind] = (image, start, stop)

    def _looping(self) -> bool:
        return self._loop is not None and not self._loop.closed

    def open_persistent_loop(self) -> None:
        """Open the session's single persistent launch over the resident rows."""
        self.last_persistent_record = None
        self._loop = self.context.open_device_loop(
            PersistentKernel(self.kernel), block_size=self.block_size
        )

    def init_tabu(self, stamps=TABU_NEVER) -> None:
        """(Re)allocate the rows' device-resident tabu stamps and fill them."""
        shape = (self._resident.shape[0], self.num_moves)
        buf = self.context.memory.sized(self._buffer("tabu"), shape, TABU_STAMP_DTYPE)
        buf.data[...] = stamps
        self._tabu_last_applied = buf.data

    def note_delivery(self, time: float) -> None:
        """Order the next launch after a packet or rows that land at ``time``."""
        self._sync_time = max(self._sync_time, float(time))

    def _adopt_resident(
        self, solutions: np.ndarray, *, stamps: np.ndarray | None = None, arrival: float = 0.0
    ) -> None:
        """Install an ``(R, n)`` resident block whose transfer was already priced.

        Used after the session's upload, a migration and a restore: this
        only rebuilds the session state — device buffers, host mirror and,
        with ``stamps``, the device-resident tabu memory — without logging
        any traffic.  ``solutions``, a view of the pool's mirror, becomes the
        slot's.  ``arrival`` orders the next launch after the rows.
        """
        resident = self.context.memory.sized(
            self._buffer("resident"), solutions.shape, SOLUTION_DTYPE
        )
        resident.data[...] = solutions.astype(SOLUTION_DTYPE)
        self._resident = solutions
        if stamps is not None:
            self.init_tabu(stamps)
        self._staged_deltas = []
        self.note_delivery(arrival)

    def _delta_packet(self, rows: np.ndarray, whole: bool) -> tuple[str, np.ndarray] | None:
        """The pre-kernel ``(buffer, packet)`` of one resident evaluation, or ``None``.

        The staged ``(replica, bit)`` flips plus — unless the ``rows`` are
        the ``whole`` resident block — the id list: one staging buffer, one
        PCIe transaction, one latency.  Consumes the staged flips.
        """
        parts = [pairs.reshape(-1).view(np.uint8) for pairs in self._staged_deltas]
        self._staged_deltas = []
        if not whole:
            parts.append(rows.astype(SOLUTION_DTYPE).view(np.uint8))
        return (self._buffer("deltas"), np.concatenate(parts)) if parts else None

    def _iterate(self, rows: np.ndarray, scores: np.ndarray) -> float:
        """One on-device iteration of the open persistent launch; its device time.

        No kernel is launched and no delta/id packet is uploaded: the
        resident grid scatters the flips it selected itself, evaluates and
        reduces, all inside the one open launch.  The host's only traffic
        is the ``O(S)`` early-stop flag write and the 16 B/replica
        result-ring drain, both concurrent with the loop, so only the
        on-device work counts.
        """
        loop = self._loop
        self._staged_deltas = []
        loop.write_control(self._resident.shape[0] * STOP_FLAG_BYTES)
        # The loop body lands the scores (the kernel's trailing argument)
        # in the slot's slice of the pool's fitness image.
        fitnesses = self.context.memory.get(self._buffer("resident_fitnesses")).data
        added = loop.iterate(scores.shape, (None, fitnesses, scores), cost=self.kernel.cost)
        added += loop.reduce(scores.size)
        loop.drain_ring(rows.size * REDUCED_RESULT_BYTES)
        return added

    def end_search(self) -> PersistentLaunchRecord | None:
        """Drop the session's buffers and mirrors; returns a just-closed launch.

        Closing a persistent launch is the moment its single kernel launch
        (and its one amortized overhead) is charged and its per-stream loop
        intervals land on the timeline.
        """
        record = None
        if self._looping():
            record = self.last_persistent_record = self._loop.finish()
        self._loop = None
        for kind in _SESSION_BUFFERS:
            name = self._buffer(kind)
            if name in self.context.memory.allocations:
                self.context.free(name)
        self._resident = None
        self._staged_deltas = []
        self._tabu_last_applied = None
        self._bound = {}
        return record

    def snapshot(self) -> dict:
        """The context's accounting plus the open session, if any."""
        snap = {"context": self.context.snapshot_accounting()}
        if self._resident is not None:
            snap["session"] = {
                "resident": self._resident.copy(),
                "sync_time": self._sync_time,
                "staged_deltas": [pairs.copy() for pairs in self._staged_deltas],
                "stamps": (
                    None if self._tabu_last_applied is None else self._tabu_last_applied.copy()
                ),
                "loop": self._loop.snapshot() if self._looping() else None,
            }
        return snap

    def restore(self, snap: dict) -> None:
        """Install a :meth:`snapshot` into this slot (its session already ended).

        The resident block comes back through :meth:`_adopt_resident`: the
        restored counters already include the session's upload.  A
        snapshotted persistent launch is reopened and its progress
        accumulators overwritten in place.
        """
        self.context.restore_accounting(snap["context"])
        session = snap.get("session")
        if session is None:
            return
        stamps = session["stamps"]
        self._adopt_resident(
            np.asarray(session["resident"], dtype=np.int8),
            stamps=None if stamps is None else np.asarray(stamps, dtype=TABU_STAMP_DTYPE),
        )
        self._sync_time = float(session["sync_time"])
        self._staged_deltas = [
            np.asarray(pairs, dtype=DELTA_DTYPE).reshape(-1, 2)
            for pairs in session["staged_deltas"]
        ]
        if session["loop"] is not None:
            self.open_persistent_loop()
            self._loop.restore(session["loop"])


class MultiGPUEvaluator(NeighborhoodEvaluator):
    """Partitioned exploration across several concurrently-scheduled devices.

    The paper's multi-GPU perspective: each device evaluates one partition
    of the neighborhood, and a single GPU (:class:`GPUEvaluator`) is the
    one-device pool.  The pool, :attr:`pool`, is one
    :class:`~repro.gpu.scheduler.DeviceScheduler` over the device contexts
    (built by :func:`~repro.gpu.multi_device.build_contexts`): every device
    owns its own stream timeline and the per-device upload/launch/reduce/download
    chains are issued asynchronously, ordered only by events — so the
    elapsed simulated time of a step is the cross-device makespan, not a
    serialized host loop.  Heterogeneous pools are partitioned
    proportionally to each device's simulated throughput on the
    neighborhood kernel.

    The **device-resident** session API (:meth:`begin_search`,
    :meth:`apply_deltas`, :meth:`evaluate_resident`, :meth:`end_search`)
    uploads the solution block once per search, split into contiguous
    replica ranges, one per device; each iteration sends only the
    flipped-bit ``(replica, bit)`` deltas, and — with ``reduce="argmin"`` —
    a fused neighborhood+reduction launch returns only the per-replica best
    ``(index, fitness)`` pair, shrinking the per-iteration PCIe traffic from
    ``O(S·M)`` floats down to 16 bytes per replica.  Pools of several
    devices route the delta packets device-to-device over P2P links (one
    host upload to a hub device, peer forwards for the rest) and can
    migrate replicas between devices to rebalance load, all without
    changing any trajectory.  Each resident lockstep step (the delta route,
    then every device's packets, launch, reduction and download) is priced
    as one :class:`~repro.gpu.scheduler.ResidentStepPlan`; a ``full`` step
    runs one upload -> launch -> download chain per device and starts only
    once every device has drained the step before it.
    """

    platform = "multi-gpu"
    supports_device_residency = True

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        devices: int | list[DeviceSpec] = 2,
        block_size: int = DEFAULT_BLOCK_SIZE,
        mode: ExecutionMode = ExecutionMode.VECTORIZED,
        pinned: bool = False,
        peer_routing: bool = True,
        topology: InterconnectTopology | str | None = None,
        active_devices: list[int] | None = None,
    ) -> None:
        super().__init__(problem, neighborhood)
        self._attach(
            DeviceScheduler(build_contexts(devices, mode=mode, pinned=pinned, topology=topology)),
            block_size,
            peer_routing=peer_routing,
            active_devices=active_devices,
        )

    def _attach(
        self,
        pool: DeviceScheduler,
        block_size: int,
        *,
        use_texture_memory: bool = False,
        peer_routing: bool = True,
        active_devices: list[int] | None = None,
    ) -> None:
        """Drive ``pool``, one slot per device context."""
        #: The device pool: its contexts, their shared transfer engine and
        #: the host timeline, priced as one.
        self.pool = pool
        self.block_size = int(block_size)
        self.batch_kernel = build_batch_neighborhood_kernel(
            self.problem, self.neighborhood, use_texture=use_texture_memory
        )
        # Elastic fleet mask: every device is attached (its context, topology
        # port and peer links exist for the whole run) but only *active*
        # devices receive work.  ``fail_device`` / ``join_device`` flip the
        # mask mid-run; ``active_devices`` starts some devices dark so they
        # can join later.
        num_devices = len(pool.contexts)
        if active_devices is None:
            self._device_active = [True] * num_devices
        else:
            chosen = {int(index) for index in active_devices}
            if not chosen:
                raise ValueError("need at least one active device")
            bad = [index for index in chosen if not 0 <= index < num_devices]
            if bad:
                raise ValueError(
                    f"active device index out of range: {sorted(bad)} "
                    f"(pool has {num_devices} devices)"
                )
            self._device_active = [index in chosen for index in range(num_devices)]
        self._slots = [
            _DeviceSlot(
                context, self.batch_kernel, self.block_size, self.neighborhood.size, id(self)
            )
            for context in pool.contexts
        ]
        #: Whether resident-session delta packets take the hub-upload +
        #: peer-forward route instead of one host upload per device.  Only
        #: possible when the interconnect topology routes peer copies
        #: between every pair of devices in the pool.
        self.peer_routing = (
            bool(peer_routing)
            and self.num_devices > 1
            and self.pool.all_peer_capable
        )
        # Replica ranges [lo, hi) owned by each device in a resident session.
        self._replica_ranges: list[tuple[int, int]] | None = None
        #: Host mirror of the whole ``(R, n)`` resident block; each owning
        #: slot's mirror is the view of its range.
        self._mirror: np.ndarray | None = None
        #: Pool-wide host images of the step's fitness block and ``reduced``
        #: pairs, rows in device order; each device buffer is its slice.
        self._images: dict[str, np.ndarray] = {}
        #: ``(replica ranges, owners)`` of the last all-replica split.
        self._whole: tuple = (None, [])
        self._persistent = False
        self._resident_tenure: int | None = None
        #: Set by close(); a closed evaluator's device buffers are gone, so
        #: further evaluations would escape the device-memory model.
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "evaluator has been closed (its device buffers were freed); "
                "create a new evaluator instead of reusing it"
            )

    @property
    def num_devices(self) -> int:
        return len(self.pool.contexts)

    def _kernel_cost(self):
        """Cost profile used for throughput-proportional partitioning."""
        return self.batch_kernel.cost

    # ------------------------------------------------------------------
    # Elastic fleet: the active-device mask and its partitioner
    # ------------------------------------------------------------------
    @property
    def device_active(self) -> tuple[bool, ...]:
        """Which attached devices currently receive work."""
        return tuple(self._device_active)

    @property
    def num_active_devices(self) -> int:
        return sum(self._device_active)

    def _active_weights(self) -> list[float]:
        """Throughput weights with inactive devices masked to zero."""
        return [
            weight if active else 0.0
            for weight, active in zip(
                throughput_weights(
                    [ctx.device for ctx in self.pool.contexts], self._kernel_cost()
                ),
                self._device_active,
            )
        ]

    def _partitions(self, total: int):
        """Partition ``total`` flat indices across the *active* devices.

        A pool of identical devices, all active, takes the exact even split;
        otherwise the split is proportional to each device's simulated
        throughput on the neighborhood kernel, and inactive devices get
        empty slices.
        """
        contexts = self.pool.contexts
        first = contexts[0].device
        if all(self._device_active) and all(ctx.device == first for ctx in contexts):
            return partition_range(total, len(contexts))
        return weighted_partition_range(total, self._active_weights())

    def fail_device(self, index: int) -> int:
        """Simulate the death of an active device mid-run.

        The device stops receiving work immediately.  If a resident session
        is open, its replicas are recovered from the *host mirror* — the
        functional state never left the host, so the mirror doubles as an
        always-current checkpoint — and re-uploaded to the surviving devices
        under the weighted repartition; only the single h2d recovery leg is
        priced (there is no live source device to download from).  Returns
        the number of migrated replicas.  Trajectories are unchanged.

        Persistent sessions cannot lose a device: the launches are pinned to
        their devices for the whole run, so a failure there raises.
        """
        index = int(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range (pool has {self.num_devices})")
        if not self._device_active[index]:
            raise ValueError(f"device {index} is already inactive")
        if self.num_active_devices <= 1:
            raise RuntimeError("cannot fail the last active device")
        if self._replica_ranges is not None and self._persistent:
            raise RuntimeError(
                "persistent launches pin replicas to their devices for the whole "
                "run; a device failure is not recoverable in persistent mode"
            )
        self._device_active[index] = False
        if self._replica_ranges is None:
            return 0
        return self._repartition_resident(lost=index)

    def join_device(self, index: int) -> int:
        """Bring an attached-but-inactive device online mid-run.

        The weighted repartition immediately hands it a replica share (over
        the peer links, or the host round trip on pools without peer
        access).  Returns the number of migrated replicas.  Trajectories
        are unchanged.
        """
        index = int(index)
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range (pool has {self.num_devices})")
        if self._device_active[index]:
            raise ValueError(f"device {index} is already active")
        if self._replica_ranges is not None and self._persistent:
            raise RuntimeError(
                "persistent launches pin replicas to their devices for the whole "
                "run; a device cannot join a persistent session"
            )
        self._device_active[index] = True
        if self._replica_ranges is None:
            return 0
        return self._repartition_resident()

    def _evaluate_many(self, solutions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Score the block once on the host, then price it as a ``full`` step."""
        return self._price_full(
            solutions, indices, _score(self.problem, self.neighborhood, solutions, indices)
        )

    def _price_full(self, solutions: np.ndarray, indices: np.ndarray, scores) -> np.ndarray:
        """Partition the flat ``S x M`` (replica, neighbor) space across devices.

        Each device receives a contiguous slice of the flattened batch (it
        may span several replicas) sized by its simulated throughput,
        uploads only the solution rows that slice touches and runs upload
        -> launch -> download, its launch landing its slice of ``scores``.
        The uploads and the downloads are each priced as one engine
        arbitration, and the uploads wait until every device has drained
        the previous step: the host selects the next moves from these
        scores.  Returns the landed fitnesses.
        """
        self._check_open()
        num_indices = indices.size
        flat = scores.reshape(-1)
        chains = [
            (
                part.device_index,
                solutions[part.start // num_indices : (part.stop - 1) // num_indices + 1],
                # A device holding the whole block launches over its (S, M) shape.
                scores if part.size == flat.size else flat[part.start : part.stop],
            )
            for part in self._partitions(flat.size)
            if part.size > 0
        ]
        before = self._full_clock()
        tag = id(self)
        uploads = self.pool.upload_batch(
            [
                (device, f"solutions:{tag}:{device}", block.astype(SOLUTION_DTYPE))
                for device, block, _scores in chains
            ],
            not_before=self.pool.makespan,
        )
        downloads = []
        for (device, block, part), upload in zip(chains, uploads):
            context = self.pool.contexts[device]
            name = f"fitnesses:{tag}:{device}"
            out = context.memory.sized(name, (part.size,), FITNESS_DTYPE).data
            _record, done = context.launch_async(
                self.batch_kernel, part.shape, (block, out, part),
                wait_for=[upload], block_size=self.block_size,
            )
            downloads.append((device, name, done))
        landed = [data for data, _event in self.pool.download_batch(downloads)]
        self.stats.simulated_time += self._full_clock() - before
        # An empty index list gives no chain, and its scores are the result.
        out = np.concatenate(landed) if landed else flat
        return out.reshape(solutions.shape[0], num_indices)

    def _full_clock(self) -> float:
        """The clock a ``full`` step advances: the pool's makespan.

        One device adds its transfers and kernel one after another, the
        paper's serial sum; the makespan differs from it in the last bits.
        The single-GPU ``full`` cells of ``tests/core/data/resident_oracle.json``
        (keys ``gpu/.../full/...``) and perfbench's golden makespan pin it.
        """
        if self.num_devices == 1:
            return self.pool.contexts[0].stats.total_time
        return self.pool.makespan

    # ------------------------------------------------------------------
    # Device-resident session API (replica-partitioned across devices)
    # ------------------------------------------------------------------
    def _replica_count(self) -> int:
        """Rows of the resident session (the replica ranges tile ``[0, R)``)."""
        return max((hi for _index, _slot, _lo, hi in self._resident_parts()), default=0)

    def _split_rows(self, ids: np.ndarray):
        """Group validated global replica ids by the device owning them.

        Returns ``(owners, grouped)``.  ``owners`` holds, per device owning
        an id and in device order, ``(index, slot, positions, local,
        whole)``: where in ``ids`` the device's ids sit (in their original
        order), the ids relative to the device's range, and whether they
        are its whole range in order.  Strictly increasing ids (every
        lockstep step) are split with slices that tile ``ids`` in device
        order, and ``grouped`` is ``None``; other ids go through a stable
        sort, and ``grouped`` lists their positions in device order.
        """
        ascending = ids.size < 2 or bool((ids[1:] > ids[:-1]).all())
        if ascending and ids.size == self._replica_ranges[-1][1]:
            # Validated ids: exactly 0, 1, ..., R - 1.
            return self._whole_owners(), None
        order = None if ascending else np.argsort(ids, kind="stable")
        ranked = ids if order is None else ids[order]
        cuts = np.searchsorted(
            ranked, [lo for lo, _hi in self._replica_ranges] + [self._replica_ranges[-1][1]]
        ).tolist()
        owners = []
        for index, slot, lo, hi in self._resident_parts():
            first, last = cuts[index], cuts[index + 1]
            if first == last:
                continue
            whole = ascending and last - first == hi - lo
            if whole:
                positions, local = slice(first, last), _full_range(hi - lo)
            else:
                positions = slice(first, last) if order is None else np.sort(order[first:last])
                local = ids[positions] - lo
            owners.append((index, slot, positions, local, whole))
        grouped = None
        if order is not None:
            grouped = np.concatenate([positions for _i, _s, positions, _l, _w in owners])
        return owners, grouped

    def _whole_owners(self) -> list:
        """The owners of every replica in order, built once per replica layout."""
        ranges, owners = self._whole
        if ranges is not self._replica_ranges:
            owners = [
                (index, slot, slice(lo, hi), _full_range(hi - lo), True)
                for index, slot, lo, hi in self._resident_parts()
            ]
            self._whole = (self._replica_ranges, owners)
        return owners

    def _resident_parts(self):
        """Yield ``(index, slot, lo, hi)`` for devices owning a replica."""
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before resident operations")
        for index, (slot, (lo, hi)) in enumerate(zip(self._slots, self._replica_ranges)):
            if hi > lo:
                yield index, slot, lo, hi

    def begin_search(self, solutions: np.ndarray, *, persistent: bool = False) -> None:
        """Upload the ``(R, n)`` solution block once; it stays device-resident.

        The block is split into contiguous replica ranges, one per device
        (proportional to device throughput on a heterogeneous pool), and the
        slices leave the host as one interconnect arbitration batch.
        Subsequent iterations mutate the resident block through
        :meth:`apply_deltas` and evaluate it through
        :meth:`evaluate_resident`; it never crosses PCIe again.

        With ``persistent=True`` every owning device additionally opens a
        :class:`~repro.gpu.runtime.DeviceLoop`: the whole iteration loop
        runs inside one persistent launch per device (delta scatter,
        evaluation, fused reduction and tabu update all on-device), the
        host only drains the per-iteration result ring and writes
        early-stop flags, and each device's one kernel launch is charged
        when the session ends.
        """
        self._check_open()
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (R, {self.problem.n}) solution block, got {solutions.shape}"
            )
        if solutions.shape[0] == 0:
            raise ValueError("need at least one replica to start a resident search")
        self.end_search()
        parts = self._partitions(solutions.shape[0])
        self._replica_ranges = [(part.start, part.stop) for part in parts]
        self._persistent = bool(persistent)
        before = self.pool.makespan
        # On a shared uplink each replica slice sees its fair share of the
        # root complex instead of a private full-rate link.
        slices = list(self._resident_parts())
        events = self.pool.upload_batch(
            [
                (index, slot._buffer("resident"), solutions[lo:hi].astype(SOLUTION_DTYPE))
                for index, slot, lo, hi in slices
            ],
            sync=True,
        )
        self._mirror = solutions.copy()
        for (_index, slot, lo, hi), event in zip(slices, events):
            slot._adopt_resident(self._mirror[lo:hi], arrival=event.time)
            if persistent:
                slot.open_persistent_loop()
        self.stats.simulated_time += self.pool.makespan - before

    def init_tabu_memory(self, tenure: int) -> None:
        """Make the tabu memory device-resident for the current session.

        Allocates each device's ``(R, M)`` "iteration last applied" stamps
        in its global memory.  The admissibility mask is then computed next
        to the fused reduction, so the per-iteration tabu packet is just the
        ``O(S)`` per-replica iteration stamps, and the robust-tabu escape
        (fall back to the oldest move when every move is inadmissible)
        resolves on-device too.
        """
        parts = list(self._resident_parts())
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        for _index, slot, _lo, _hi in parts:
            slot.init_tabu()
        self._resident_tenure = int(tenure)

    def _tabu_access(self, rows: np.ndarray) -> np.ndarray:
        """Validated replica rows of a tabu-memory access."""
        if self._resident_tenure is None:
            raise RuntimeError("no device-resident tabu memory in this session")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        count = self._replica_count()
        if rows.size and (rows.min() < 0 or rows.max() >= count):
            raise IndexError(f"tabu row index out of range [0, {count})")
        return rows

    def read_tabu_rows(self, rows: np.ndarray) -> np.ndarray:
        """Copy out the device-resident tabu stamps of the given replica rows.

        The solve server uses this to suspend a preempted tenant: its
        ``last_applied`` stamps leave with the tenant and come back verbatim
        on resume, so the continued trajectory stays bit-identical.
        """
        rows = self._tabu_access(rows)
        out = np.empty((rows.size, self.neighborhood.size), dtype=TABU_STAMP_DTYPE)
        for _index, slot, positions, local, _whole in self._split_rows(rows)[0]:
            out[positions] = slot._tabu_last_applied[local]
        return out

    def write_tabu_rows(self, rows: np.ndarray, stamps: np.ndarray | None = None) -> None:
        """Overwrite replica rows of the device-resident tabu memory.

        ``stamps=None`` resets the rows to the "never applied" sentinel —
        what a fresh tenant needs when it takes over a replica slot.  The
        fill happens in device global memory (folded into the next launch),
        so nothing crosses PCIe and nothing is priced on the timeline.
        """
        rows = self._tabu_access(rows)
        if stamps is not None:
            stamps = np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
            if stamps.shape != (rows.size, self.neighborhood.size):
                raise ValueError(
                    f"expected a ({rows.size}, {self.neighborhood.size}) stamp block, "
                    f"got {stamps.shape}"
                )
        for _index, slot, positions, local, _whole in self._split_rows(rows)[0]:
            slot._tabu_last_applied[local] = TABU_NEVER if stamps is None else stamps[positions]

    def apply_deltas(self, replicas: np.ndarray, bits: np.ndarray) -> None:
        """Send only the flipped bits: ``(replica, bit)`` int32 pairs.

        ``O(S·k)`` bytes per iteration instead of re-uploading the whole
        ``(S, n)`` block.  Each pair goes to the device owning its replica.
        On one device the pairs are staged and cross PCIe as a single delta
        packet when the next resident evaluation is issued (the device folds
        the scatter into the evaluation launch).  With peer routing active
        (every device P2P-capable), the combined delta packet crosses PCIe
        **once** — to a hub device, device 0 — and each other device's
        slice is forwarded device-to-device over the peer link with a small
        routing header, the next evaluation launches ordered after the
        arrivals; the forwarded bytes are accounted as ``p2p_bytes`` only.
        The combined packet is built once, and each forward is a view of it:
        the device's pairs followed by its header.  Otherwise every device's
        slice is staged for its own host upload, each behind one host-side
        driver call.  Inside a persistent launch
        no packet moves at all: the resident grids scattered their own
        selections.  The route is priced as one
        :class:`~repro.gpu.scheduler.ResidentStepPlan`.
        """
        replicas = np.asarray(replicas, dtype=np.int64).ravel()
        bits = np.asarray(bits, dtype=np.int64).ravel()
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before apply_deltas")
        if replicas.shape != bits.shape:
            raise ValueError("replicas and bits must have the same length")
        total = self._replica_ranges[-1][1]
        if replicas.size and (replicas.min() < 0 or replicas.max() >= total):
            raise IndexError("delta replica index out of range")
        if bits.size and (bits.min() < 0 or bits.max() >= self.problem.n):
            raise IndexError("delta bit index out of range")
        resident_session = not self._persistent
        route_peer = self.peer_routing and resident_session and replicas.size > 0
        self._mirror[replicas, bits] ^= 1
        # Owners stage their slice of the (local replica, bit) pairs, unless
        # the grids scattered their own selections or the hub forwards them.
        stage = resident_session and not route_peer
        pairs = np.empty((replicas.size, 2), dtype=DELTA_DTYPE)
        pairs[:, 1] = bits
        owners, grouped = self._split_rows(replicas)
        for _index, slot, positions, local, _whole in owners:
            pairs[positions, 0] = local
            if stage:
                slot._staged_deltas.append(pairs[positions])
        if not resident_session or not owners or self.num_devices == 1:
            # One device prices its staged flips with the next evaluation's
            # packet, behind no driver call of its own: a ContinuousRunner
            # attach makes a second call before the step.  The pinned
            # `delta`/`reduced` churn cells of
            # tests/core/data/resident_oracle.json
            # (gpu/{ubqp/k1,ppp/k2}/tabu/dedicated/{delta,reduced}/pinned/churn)
            # pin this.
            return
        plan = ResidentStepPlan()
        hub = self._slots[0]
        if route_peer:
            plan.issues.append(("delta_hub", hub.context.device.pcie_latency))
            # The owners' pairs in device order, each peer's followed by its
            # routing header: one buffer whose slices are the forwards.
            raw = (pairs if grouped is None else pairs[grouped]).reshape(-1).view(np.uint8)
            header = np.zeros(PEER_PACKET_HEADER_BYTES, dtype=np.uint8)
            parts, spans, read, offset = [], [], 0, 0
            for index, slot, _positions, local, _whole in owners:
                size = local.size * DELTA_PAIR_BYTES
                parts.append(raw[read : read + size])
                read += size
                if slot is not hub:
                    parts.append(header)
                    size += header.size
                    spans.append((index, slot, offset, offset + size))
                offset += size
            packet = np.concatenate(parts)
            plan.forwards = [
                (index, slot._buffer("deltas"), packet[start:stop])
                for index, slot, start, stop in spans
            ]
            plan.hub = 0
            plan.hub_packet = (f"delta_hub:{id(self)}", packet)
            plan.hub_not_before = hub._sync_time
        else:
            # One host-issued packet per owning device: the driver calls
            # serialize on the host, which is exactly the per-device latency
            # wall the hub + peer-forward route amortizes.
            plan.issues = [
                (f"deltas:gpu{index}", slot.context.device.pcie_latency)
                for index, slot, _positions, _local, _whole in owners
            ]
        before = self.pool.makespan
        times = self.pool.price_resident_step(plan)
        if route_peer:
            if owners[0][1] is hub:
                hub.note_delivery(times.upload)
            for (index, _buffer, _payload), arrival in zip(plan.forwards, times.arrivals):
                self._slots[index].note_delivery(arrival)
        else:
            for (_index, slot, *_rest), issued in zip(owners, times.issues):
                slot.note_delivery(issued)
        self.stats.simulated_time += max(before, times.latest) - before

    def evaluate_resident(
        self,
        replica_ids: np.ndarray | None = None,
        *,
        reduce: str | None = None,
        aspiration_fitness: np.ndarray | None = None,
        thresholds: np.ndarray | None = None,
        tabu_iterations: np.ndarray | None = None,
    ):
        """Evaluate the full neighborhood of the resident block's replicas.

        Parameters
        ----------
        replica_ids:
            Rows of the resident block to evaluate (default: all).  The id
            list crosses PCIe (``O(S)`` int32), not the solutions.
        reduce:
            ``None`` downloads the full ``(S, M)`` fitness matrix (the
            "delta" transfer mode).  ``"argmin"`` / ``"first-improvement"``
            run the fused on-device reduction and download only the
            per-replica ``(index, fitness)`` pair — 16 bytes per replica.
        aspiration_fitness:
            Per-replica aspiration thresholds: a tabu move becomes
            admissible when strictly better (device-side comparison).
        thresholds:
            Per-replica current fitnesses for ``"first-improvement"``.
        tabu_iterations:
            Per-replica current iteration numbers for the **device-resident**
            tabu memory (:meth:`init_tabu_memory`).  The admissibility mask
            is then derived on-device from the resident ``last_applied``
            stamps — only these ``O(S)`` stamps cross PCIe — the robust-tabu
            escape resolves on-device, and the winning move's stamp is
            updated in place.  Both go through :func:`_select_step`, the
            rule the runner applies to a downloaded fitness block.

        Returns the fitness matrix (``reduce=None``) or an
        ``(indices, fitnesses)`` pair of per-replica arrays where a replica
        with no improving move (``"first-improvement"``) gets ``(-1, inf)``;
        under ``tabu_iterations`` a blocked replica carries its escape move.

        The rows are scored once, from the devices' resident host mirrors,
        and selected once over the whole block; each device lands and
        reduces its own rows, and the step — every device's packets,
        launch, reduction and download — is priced as one
        :class:`~repro.gpu.scheduler.ResidentStepPlan`.  During a
        persistent session the iteration runs inside the devices' open
        launches instead, so their stream clocks do not advance until the
        session ends; the step then costs the slowest device's on-device
        time.
        """
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before evaluate_resident")
        total = self._replica_ranges[-1][1]
        if replica_ids is None:
            rows = np.arange(total, dtype=np.int64)
        else:
            rows = np.asarray(replica_ids, dtype=np.int64).ravel()
            if rows.size and (rows.min() < 0 or rows.max() >= total):
                raise IndexError("replica id out of range")
        num_solutions, num_indices = rows.size, self.neighborhood.size
        if num_solutions == 0:
            raise ValueError("need at least one active replica")
        # Each device takes its rows' slice, so a longer array would
        # otherwise go unnoticed.
        _check_per_row(
            num_solutions, aspiration_fitness=aspiration_fitness,
            thresholds=thresholds, tabu_iterations=tabu_iterations,
        )
        if reduce is not None and reduce not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {reduce!r}; expected one of {REDUCE_OPS}")
        stamps = None
        if tabu_iterations is not None:
            if self._resident_tenure is None:
                raise RuntimeError(
                    "tabu_iterations needs a device-resident tabu memory; "
                    "call init_tabu_memory after begin_search"
                )
            if reduce != "argmin":
                raise ValueError("tabu_iterations requires reduce=\"argmin\"")
            stamps = np.asarray(tabu_iterations, dtype=TABU_STAMP_DTYPE).ravel()
            if stamps.shape != (num_solutions,):
                raise ValueError(
                    f"tabu_iterations must have one stamp per replica "
                    f"({num_solutions}), got {stamps.shape}"
                )
        if self._persistent and reduce is None:
            raise ValueError(
                "the persistent loop folds selection on-device; downloading the "
                "full fitness matrix would defeat it — use reduce=\"argmin\" or "
                "\"first-improvement\", or transfer_mode=\"delta\""
            )
        owners, grouped = self._split_rows(rows)
        scores = _score(self.problem, self.neighborhood, self._mirror[rows])
        select = (aspiration_fitness, thresholds, stamps)
        fitnesses = self._image("resident_fitnesses", owners, num_indices, FITNESS_DTYPE)
        if self._persistent:
            device_times = [
                slot._iterate(local, scores[positions])
                for _index, slot, positions, local, _whole in owners
            ]
            result = self._select(owners, grouped, scores, reduce, *select)
            self.stats.simulated_time += max(device_times)
        else:
            # One copy lands every device's rows.
            fitnesses.reshape(scores.shape)[...] = scores if grouped is None else scores[grouped]
            result = self._evaluate_step(owners, grouped, scores, reduce, select)
        self.stats.calls += 1
        self.stats.evaluations += num_solutions * num_indices
        return result

    def _image(self, kind: str, owners, per_row: int, dtype) -> np.ndarray:
        """The pool-wide host image of buffer ``kind``, ``per_row`` entries per row.

        The owners' rows follow each other in device order, and each owning
        device's ``kind`` buffer is its slice of the image.
        """
        size = sum(local.size for _index, _slot, _positions, local, _whole in owners) * per_row
        image = self._images.get(kind)
        if image is None or image.size != size:
            image = self._images[kind] = np.empty(size, dtype)
        start = 0
        for _index, slot, _positions, local, _whole in owners:
            stop = start + local.size * per_row
            slot._bind(kind, image, start, stop)
            start = stop
        return image

    def _select(self, owners, grouped, scores, reduce, aspiration_fitness, thresholds, stamps):
        """The fused selection over the whole block, stored in the ``reduced`` image.

        Each device writes its winners' tabu stamps in place.
        """
        tabu = None
        if stamps is not None:
            last = np.empty(scores.shape, dtype=TABU_STAMP_DTYPE)
            for _index, slot, positions, local, whole in owners:
                last[positions] = (
                    slot._tabu_last_applied if whole else slot._tabu_last_applied[local]
                )
            tabu = (stamps, last, self._resident_tenure)
        indices, best = _select_step(
            np.asarray(scores, dtype=FITNESS_DTYPE), reduce, aspiration_fitness, thresholds, tabu
        )
        if stamps is not None:
            for _index, slot, positions, local, _whole in owners:
                slot._tabu_last_applied[local, indices[positions]] = stamps[positions]
        reduced = self._image("reduced", owners, 1, REDUCED_PAIR_DTYPE)
        reduced["index"] = indices if grouped is None else indices[grouped]
        reduced["fitness"] = best if grouped is None else best[grouped]
        return indices, best

    def _evaluate_step(self, owners, grouped, scores, reduce, select):
        """One delta/reduced step over landed scores: select, price, download."""
        if reduce is None:
            reductions = [None] * len(owners)
            download = "resident_fitnesses"
        else:
            reductions = []
            for _index, slot, positions, _local, _whole in owners:
                packet = _reduction_packet(
                    *(None if part is None else part[positions] for part in select)
                )
                reductions.append(
                    None if packet is None else (slot._buffer("reduction_packet"), packet)
                )
            download = "reduced"
            self._select(owners, grouped, scores, reduce, *select)
        num_moves = scores.shape[1]
        plan = ResidentStepPlan(
            devices=[index for index, *_rest in owners],
            not_before=[slot._sync_time for _index, slot, *_rest in owners],
            packets=[slot._delta_packet(local, whole) for _i, slot, _p, local, whole in owners],
            shapes=[(local.size, num_moves) for _i, _s, _p, local, _w in owners],
            kernel=self.batch_kernel,
            block_size=self.block_size,
            reduce=None if reduce is None else f"FusedReduce<{reduce}>[{self.batch_kernel.name}]",
            reduction_packets=reductions,
            downloads=[slot._buffer(download) for _index, slot, *_rest in owners],
        )
        before = self.pool.makespan
        times = self.pool.price_resident_step(plan)
        for (_index, slot, *_rest), done in zip(owners, times.done):
            slot._sync_time = done
        self.stats.simulated_time += max(before, times.latest) - before
        # The downloads are the devices' slices of the images, in device order.
        if reduce is None:
            return _in_row_order(self._images["resident_fitnesses"].reshape(scores.shape), grouped)
        reduced = self._images["reduced"]
        return _in_row_order(reduced["index"], grouped), _in_row_order(reduced["fitness"], grouped)

    # ------------------------------------------------------------------
    # Replica migration (load rebalancing over the peer links)
    # ------------------------------------------------------------------
    def rebalance_resident(self, active: np.ndarray | None = None) -> int:
        """Migrate resident replicas between devices to rebalance load.

        Recomputes the contiguous ownership ranges so that the *active*
        replicas (all of them, when no mask is given) are split across the
        pool proportionally to device throughput, then ships every row that
        changes owner — its solution and, when the tabu memory is
        device-resident, its stamp row — directly over the P2P links (or
        through a host round trip on pools without peer access).  Purely a
        placement/timing operation: every replica's functional state is
        preserved exactly, so trajectories are unchanged.

        Returns the number of migrated replicas.
        """
        return self._repartition_resident(active)

    def _repartition_resident(
        self, active: np.ndarray | None = None, *, lost: int | None = None
    ) -> int:
        """Shared body of :meth:`rebalance_resident` / :meth:`fail_device` /
        :meth:`join_device`.

        ``lost`` marks a just-failed source device: its rows cannot leave it
        over a peer link or a d2h leg (the device is gone), so they are
        recovered from the exact host mirror and priced as a single h2d
        upload to each destination.
        """
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before rebalance_resident")
        if self._persistent:
            raise RuntimeError(
                "cannot migrate replicas while persistent launches are open; "
                "rebalancing applies to the delta/reduced transfer modes"
            )
        total = self._replica_ranges[-1][1]
        if active is None:
            active_mask = np.ones(total, dtype=bool)
        else:
            active_mask = np.asarray(active, dtype=bool).ravel()
            if active_mask.shape != (total,):
                raise ValueError(
                    f"active mask must cover all {total} replicas, got {active_mask.shape}"
                )
        active_pos = np.nonzero(active_mask)[0]
        if active_pos.size == 0:
            return 0
        weights = self._active_weights()
        shares = weighted_partition_range(active_pos.size, weights)
        bounds = [0]
        consumed = 0
        for i, share in enumerate(shares):
            consumed += share.size
            if i == len(shares) - 1 or consumed >= active_pos.size:
                bounds.append(total)
            elif share.size == 0 and consumed == 0:
                bounds.append(bounds[-1])
            else:
                bounds.append(int(active_pos[consumed - 1]) + 1)
        bounds = [min(b, total) for b in bounds]
        for i in range(1, len(bounds)):
            bounds[i] = max(bounds[i], bounds[i - 1])
        new_ranges = [
            (bounds[i], bounds[i + 1]) for i in range(self.num_devices)
        ]
        old_ranges = self._replica_ranges
        if new_ranges == old_ranges:
            return 0

        # Snapshot the session's functional state in global replica order.
        n, size = self.problem.n, self.neighborhood.size
        global_block = self._mirror
        tabu_resident = self._resident_tenure is not None
        global_tabu = (
            np.empty((total, size), dtype=TABU_STAMP_DTYPE) if tabu_resident else None
        )
        staged_chunks = []
        for slot, (lo, hi) in zip(self._slots, old_ranges):
            if hi <= lo:
                continue
            if tabu_resident:
                global_tabu[lo:hi] = slot._tabu_last_applied
            for pairs in slot._staged_deltas:
                shifted = pairs.astype(np.int64)
                shifted[:, 0] += lo
                staged_chunks.append(shifted)
        staged_global = (
            np.concatenate(staged_chunks)
            if staged_chunks
            else np.empty((0, 2), dtype=np.int64)
        )

        # Price the movement: one packet per (source, destination) pair.
        migrated = 0
        row_bytes = n * SOLUTION_DTYPE.itemsize + (
            size * TABU_STAMP_DTYPE.itemsize if tabu_resident else 0
        )
        arrivals: dict[int, float] = {}
        for src, (old_lo, old_hi) in enumerate(old_ranges):
            for dst, (new_lo, new_hi) in enumerate(new_ranges):
                if src == dst:
                    continue
                move_lo = max(old_lo, new_lo)
                move_hi = min(old_hi, new_hi)
                count = move_hi - move_lo
                if count <= 0:
                    continue
                migrated += count
                src_slot = self._slots[src]
                dst_slot = self._slots[dst]
                chunks = [
                    np.ascontiguousarray(
                        global_block[move_lo:move_hi].astype(SOLUTION_DTYPE)
                    ).reshape(-1).view(np.uint8)
                ]
                if tabu_resident:
                    chunks.append(
                        np.ascontiguousarray(global_tabu[move_lo:move_hi])
                        .reshape(-1)
                        .view(np.uint8)
                    )
                payload = np.concatenate(chunks)
                assert payload.nbytes == count * row_bytes
                if src == lost:
                    # The source device is dead: its rows are recovered from
                    # the exact host mirror, so the only priced leg is the
                    # h2d upload into each destination.
                    arrival_time = dst_slot.context.host_leg(
                        "h2d", payload.nbytes,
                        not_before=dst_slot._sync_time, label=f"recover:{src}->{dst}",
                    )
                    arrivals[dst] = max(arrivals.get(dst, 0.0), arrival_time)
                    continue
                start = max(src_slot._sync_time, dst_slot._sync_time)
                if src_slot.context.can_access_peer(dst_slot.context):
                    arrival = src_slot.context.copy_peer_async(
                        dst_slot.context,
                        f"migrate:{id(self)}:{src}:{dst}",
                        payload,
                        not_before=start,
                    )
                    arrival_time = arrival.time
                else:
                    # No peer link: the rows take the classic host round trip
                    # (device -> host -> device), each leg priced like any
                    # other host copy, so migrations contend on a shared
                    # uplink and stage on pinned contexts.
                    label = f"migrate:{src}->{dst}"
                    landed = src_slot.context.host_leg(
                        "d2h", payload.nbytes, not_before=start, label=label
                    )
                    arrival_time = dst_slot.context.host_leg(
                        "h2d", payload.nbytes, not_before=landed, label=label
                    )
                arrivals[dst] = max(arrivals.get(dst, 0.0), arrival_time)
                arrivals[src] = max(arrivals.get(src, 0.0), arrival_time)

        # Rebuild every device's session slice from the global snapshot.
        for index, (slot, (lo, hi)) in enumerate(zip(self._slots, new_ranges)):
            if hi <= lo:
                if slot._resident is not None:
                    slot.end_search()
                continue
            slot._adopt_resident(
                global_block[lo:hi],
                stamps=global_tabu[lo:hi] if tabu_resident else None,
                arrival=arrivals.get(index, 0.0),
            )
            mask = (staged_global[:, 0] >= lo) & (staged_global[:, 0] < hi)
            if mask.any():
                local = staged_global[mask].copy()
                local[:, 0] -= lo
                slot._staged_deltas = [local.astype(DELTA_DTYPE)]
        self._replica_ranges = new_ranges
        return migrated

    # -- checkpointing ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Everything a fresh evaluator needs to continue bit-identically.

        On top of the base work counters: the pool's interconnect engine and
        host timeline, every device's accounting (device stats + per-stream
        timeline) and resident session — solution mirror, staged deltas,
        sync point, device-resident tabu stamps and, in persistent mode,
        the open launch's accumulated progress — plus the elastic-fleet mask
        and the session's replica layout.
        """
        snap = super().snapshot_state()
        snap["engine"] = self.pool.engine.snapshot()
        snap["host_timeline"] = self.pool.host_timeline.snapshot()
        snap["devices"] = [slot.snapshot() for slot in self._slots]
        snap["device_active"] = list(self._device_active)
        snap["replica_ranges"] = (
            [list(r) for r in self._replica_ranges]
            if self._replica_ranges is not None
            else None
        )
        snap["persistent"] = self._persistent
        snap["resident_tenure"] = self._resident_tenure
        return snap

    def restore_state(self, snap: dict) -> None:
        """Install a :meth:`snapshot_state`, replacing any live session.

        No transfer is logged: the snapshotted counters already include the
        session's upload.
        """
        self._check_open()
        self.end_search()
        super().restore_state(snap)
        self.pool.engine.restore(snap["engine"])
        self.pool.host_timeline.restore(snap["host_timeline"])
        devices = snap["devices"]
        if len(devices) != len(self._slots):
            raise ValueError(
                f"checkpoint covers {len(devices)} devices, pool has {len(self._slots)}"
            )
        for slot, device_snap in zip(self._slots, devices):
            slot.restore(device_snap)
        self._device_active = [bool(flag) for flag in snap["device_active"]]
        ranges = snap["replica_ranges"]
        self._replica_ranges = (
            [(int(lo), int(hi)) for lo, hi in ranges] if ranges is not None else None
        )
        self._persistent = bool(snap["persistent"])
        tenure = snap["resident_tenure"]
        self._resident_tenure = int(tenure) if tenure is not None else None
        if self._replica_ranges is not None:
            # The ranges tile [0, R) in device order: one mirror, sliced.
            parts = list(self._resident_parts())
            self._mirror = np.concatenate([slot._resident for _index, slot, _lo, _hi in parts])
            for _index, slot, lo, hi in parts:
                slot._resident = self._mirror[lo:hi]

    def end_search(self) -> None:
        """Drop the resident session's device buffers and host mirrors.

        Persistent launches close here, concurrently: the pool pays the
        largest launch overhead once.
        """
        records = [slot.end_search() for slot in self._slots]
        overheads = [record.launch_overhead for record in records if record is not None]
        if overheads:
            self.stats.simulated_time += max(overheads)
        # Drop this evaluator's own pool-level buffers (the delta hub packet,
        # migration payloads and the `full` step's solutions and fitnesses,
        # all named with this evaluator's id; they are reallocated on demand).
        for context in self.pool.contexts:
            context.free_evaluator_buffers(self)
        self._replica_ranges = None
        self._mirror = None
        self._images = {}
        self._persistent = False
        self._resident_tenure = None

    def close(self) -> None:
        """Free every device buffer this evaluator owns.

        Long-lived contexts shared by many evaluators would otherwise
        accumulate them as simulated device-memory leaks.
        """
        self.end_search()
        self._closed = True


class GPUEvaluator(MultiGPUEvaluator):
    """Evaluator running the neighborhood kernel on one simulated GPU.

    The paper's setting, as the one-device pool: a ``full`` step uploads
    the solutions, launches one thread per (solution, neighbor) pair and
    downloads the fitness array, and its clock adds the device's
    transfers and kernel one after another.  ``context`` runs the evaluator
    on an existing :class:`~repro.gpu.runtime.GPUContext` (and its
    interconnect engine), which several evaluators may share.
    """

    platform = "gpu"

    def __init__(
        self,
        problem: BinaryProblem,
        neighborhood: Neighborhood,
        *,
        device: DeviceSpec = GTX_280,
        block_size: int = DEFAULT_BLOCK_SIZE,
        mode: ExecutionMode = ExecutionMode.VECTORIZED,
        context: GPUContext | None = None,
        use_texture_memory: bool = False,
        pinned: bool = False,
        topology: InterconnectTopology | str | None = None,
    ) -> None:
        NeighborhoodEvaluator.__init__(self, problem, neighborhood)
        if context is not None and topology is not None:
            raise ValueError("pass either an existing context or a topology, not both")
        if context is None:
            context = GPUContext(device, mode=mode, pinned=pinned, topology=topology)
        self._attach(DeviceScheduler([context]), block_size, use_texture_memory=use_texture_memory)

    # perfbench/tracer.py looks these two entry points up in this class's
    # own namespace; the aliases stay until its targets drop them.
    evaluate_resident = MultiGPUEvaluator.evaluate_resident
    apply_deltas = MultiGPUEvaluator.apply_deltas

    @property
    def context(self) -> GPUContext:
        """The simulated device."""
        return self.pool.contexts[0]

    @property
    def last_persistent_record(self) -> PersistentLaunchRecord | None:
        """Summary of the last completed persistent launch."""
        return self._slots[0].last_persistent_record


def full_step_time(evaluator: NeighborhoodEvaluator) -> float:
    """Simulated seconds of one ``full`` step of one solution on ``evaluator``.

    Prices the whole neighborhood of the all-zero solution once, over a
    zero score block, and returns what that adds to
    ``evaluator.stats.simulated_time``.  The price of a ``full`` step
    depends on neither the solution, its scores nor the step, so nothing is
    scored, and this is the per-iteration CPU or GPU time of the paper's
    tables.
    """
    size = evaluator.neighborhood.size
    before = evaluator.stats.simulated_time
    evaluator._price_full(
        np.zeros((1, evaluator.problem.n), dtype=np.int8), _full_range(size), np.zeros((1, size))
    )
    return evaluator.stats.simulated_time - before
