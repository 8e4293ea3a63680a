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

``GPUEvaluator``
    Runs the neighborhood kernel on a simulated device: upload the current
    solutions, launch one thread per (solution, neighbor) pair, download the
    fitness array.  Simulated time comes from the device timing model.

``MultiGPUEvaluator``
    Partitions the flat index space across several simulated devices (the
    paper's multi-GPU perspective); elapsed simulated time is the slowest
    partition.

Both GPU evaluators score a step once on the host and price it on a
:class:`~repro.gpu.scheduler.DeviceScheduler`, a single GPU as the
one-device case of a pool.  A ``full`` step is one upload -> launch ->
download chain per device (``upload_batch``, ``launch_async``,
``download_batch``).  The host selects the next moves from the downloaded
fitnesses, so the next step's uploads start only once every device has
drained.  ``GPUEvaluator``'s clock adds the device's transfers and kernel
one after another; the pool's clock is the cross-device makespan.

The GPU evaluators additionally expose a **device-resident** session API
(:meth:`GPUEvaluator.begin_search` / :meth:`GPUEvaluator.apply_deltas` /
:meth:`GPUEvaluator.evaluate_resident` / :meth:`GPUEvaluator.end_search`):
the solution block is uploaded once per search, each iteration sends only
the flipped-bit ``(replica, bit)`` deltas, and — with ``reduce="argmin"`` —
a fused neighborhood+reduction launch returns only the per-replica best
``(index, fitness)`` pair, shrinking the per-iteration PCIe traffic from
``O(S·M)`` floats down to 16 bytes per replica.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..gpu.device import GTX_280, XEON_3GHZ, DeviceSpec, HostSpec
from ..gpu.dtypes import (
    DELTA_DTYPE,
    FITNESS_BYTES,
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
from ..gpu.multi_device import MultiGPU, weighted_partition_range
from ..gpu.runtime import DeviceLoop, GPUContext, PersistentLaunchRecord
from ..gpu.scheduler import DeviceScheduler, ResidentStepPlan
from ..gpu.streams import COPY_STREAM, DOWNLOAD_STREAM
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
    move gets ``(-1, inf)`` (every admissibility decision the device cannot
    make — robust-tabu escapes, local-optimum stops — is left to the host).
    The selection semantics exactly match the host-side vectorized rules, so
    reduced-mode trajectories are bit-identical to full-mode ones.
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
    admissible: np.ndarray | None,
    aspiration_fitness: np.ndarray | None,
    thresholds: np.ndarray | None,
    tabu: tuple[np.ndarray, np.ndarray, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused selection of one resident step over an ``(S, M)`` block.

    ``tabu`` is ``None`` or, for a device-resident tabu memory,
    ``(stamps, last, tenure)``: the rows' current iteration stamps, their
    ``(S, M)`` last-applied stamps before this step and the tenure.  The
    admissibility mask then comes from the stamps, and a blocked row (every
    move tabu, none aspirated) falls back to its oldest move — the
    robust-tabu escape, resolved next to the reduction so no extra fitness
    fetch crosses PCIe.  Every rule is row by row, so a pool selects its
    whole block in one call and each device stores its own rows.
    """
    if tabu is not None:
        stamps, last, tenure = tabu
        if tenure == 0:
            admissible = np.ones(fitnesses.shape, dtype=bool)
        else:
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


def _sized_buffer(context: GPUContext, name: str, size: int, dtype=FITNESS_DTYPE) -> np.ndarray:
    """Device buffer ``name`` of ``size`` elements, reallocated when its size changes."""
    existing = context.memory.allocations.get(name)
    if existing is not None and existing.data.shape != (size,):
        context.free(name)
    if name not in context.memory.allocations:
        context.alloc(name, (size,), dtype)
    return context.memory.get(name).data


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


def _full_step(scheduler: DeviceScheduler, owner, chains) -> list[np.ndarray]:
    """Price one ``full`` step on ``scheduler``; returns each chain's download.

    ``chains`` lists ``(device, evaluator, block, scores)``: the pool device
    index, the evaluator owning that device's context, the solution rows it
    uploads and the scores its launch lands (their shape is the launch's
    work shape).  Every device runs upload -> launch -> download; the
    uploads and the downloads are each priced as one engine arbitration.
    The host selects the next moves from these scores, so the uploads wait
    until every device has drained the previous step.
    """
    tag = id(owner)
    uploads = scheduler.upload_batch(
        [
            (device, f"solutions:{tag}:{device}", block.astype(SOLUTION_DTYPE))
            for device, _evaluator, block, _scores in chains
        ],
        not_before=scheduler.makespan,
    )
    downloads = []
    for (device, evaluator, block, scores), upload in zip(chains, uploads):
        name = f"fitnesses:{tag}:{device}"
        out = _sized_buffer(evaluator.context, name, scores.size)
        _record, done = evaluator.context.launch_async(
            evaluator.batch_kernel,
            scores.shape,
            (block, out, scores),
            wait_for=[upload],
            block_size=evaluator.block_size,
        )
        downloads.append((device, name, done))
    return [data for data, _event in scheduler.download_batch(downloads)]


def _fetch_request(replicas, move_indices, num_moves: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``fetch_fitnesses`` request: one move in ``[0, M)`` per replica."""
    replicas = np.asarray(replicas, dtype=np.int64).ravel()
    move_indices = np.asarray(move_indices, dtype=np.int64).ravel()
    if move_indices.shape != replicas.shape:
        raise ValueError(
            f"need one move index per replica, got {move_indices.size} for "
            f"{replicas.size} replicas"
        )
    if move_indices.size and (move_indices.min() < 0 or move_indices.max() >= num_moves):
        raise IndexError(f"move index out of range [0, {num_moves})")
    return replicas, move_indices


def _check_per_row(num_solutions: int, **parts) -> None:
    """Each given per-replica argument must have one entry per requested replica."""
    for name, part in parts.items():
        if part is not None and np.shape(part)[:1] != (num_solutions,):
            raise ValueError(
                f"{name} must have one entry per replica ({num_solutions}), "
                f"got shape {np.shape(part)}"
            )


def _tabu_rows(rows, count: int) -> np.ndarray:
    """Replica row indices of a tabu-memory access, each in ``[0, count)``."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size and (rows.min() < 0 or rows.max() >= count):
        raise IndexError(f"tabu row index out of range [0, {count})")
    return rows


@dataclass
class EvaluatorStats:
    """Work and simulated time accumulated by one evaluator."""

    calls: int = 0
    evaluations: int = 0
    simulated_time: float = 0.0

    def reset(self) -> None:
        self.calls = 0
        self.evaluations = 0
        self.simulated_time = 0.0


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

    def reset_stats(self) -> None:
        self.stats.reset()

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
        """Install a :meth:`snapshot_state` payload into this fresh evaluator."""
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

    def _account_host_time(self, num_evaluations: int) -> None:
        cost = self.problem.cost_profile(self.neighborhood.order)
        flops = (cost["flops"] + mapping_flops(self.neighborhood.order)) * num_evaluations
        mem_bytes = cost["bytes"] * num_evaluations
        self.stats.simulated_time += self._host_model.evaluation_time(flops, mem_bytes)
        self.stats.simulated_time += self._host_model.iteration_overhead()


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
        self._account_host_time(indices.size)
        return out


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

    def _evaluate(self, solution: np.ndarray, indices: np.ndarray) -> np.ndarray:
        moves = self.neighborhood.moves(indices)
        fitnesses = self.problem.evaluate_neighborhood(solution, moves)
        self._account_host_time(indices.size)
        return np.asarray(fitnesses, dtype=np.float64)

    def _evaluate_many(self, solutions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        # One broadcast delta evaluation for the whole (S, n) block; the
        # modeled time still charges the sequential baseline for all S * M
        # evaluations (one per-call overhead instead of S — the batched
        # path's bookkeeping amortization).  Scoring through `_score` hands
        # the problem the frozen move table, which the gain engine of a
        # multi-row run serves (a rebuilt writable table is never offered).
        fitnesses = _score(self.problem, self.neighborhood, solutions, indices)
        self._account_host_time(solutions.shape[0] * indices.size)
        return np.asarray(fitnesses, dtype=np.float64)


class GPUEvaluator(NeighborhoodEvaluator):
    """Evaluator running the neighborhood kernel on one simulated GPU."""

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
        super().__init__(problem, neighborhood)
        if context is not None and topology is not None:
            raise ValueError("pass either an existing context or a topology, not both")
        self.context = (
            context
            if context is not None
            else GPUContext(device, mode=mode, pinned=pinned, topology=topology)
        )
        self.block_size = int(block_size)
        self.use_texture_memory = bool(use_texture_memory)
        self.batch_kernel = build_batch_neighborhood_kernel(
            problem, neighborhood, use_texture=self.use_texture_memory
        )
        # --- device-resident session state -----------------------------
        #: Host mirror of the device-resident (R, n) solution block.
        self._resident: np.ndarray | None = None
        #: Host-staged (replica, bit) pairs, shipped as one delta packet by
        #: the next resident evaluation (one PCIe transaction, one latency).
        self._staged_deltas: list[np.ndarray] = []
        #: Simulated instant the host last synchronized with the device;
        #: host-issued operations cannot start before it.
        self._sync_time: float = 0.0
        #: Fitness block and global replica ids of the last resident launch
        #: (still live in device memory — `fetch_fitnesses` reads from it).
        self._last_fitnesses: np.ndarray | None = None
        self._last_rows: np.ndarray | None = None
        #: Persistent launch of the current session (``transfer_mode=
        #: "persistent"``): the whole iteration loop runs inside one launch.
        self._loop: DeviceLoop | None = None
        #: Summary of the last completed persistent launch (for profiling
        #: and the invariant tests).
        self.last_persistent_record: PersistentLaunchRecord | None = None
        #: Device-resident tabu memory of the current session: the ``(R, M)``
        #: "iteration last applied" stamps, living in device global memory.
        self._tabu_last_applied: np.ndarray | None = None
        self._tabu_tenure: int = 0
        #: Set by close(); a closed evaluator's device buffers are gone, so
        #: further evaluations would escape the device-memory model.
        self._closed = False
        #: Prices each step as the one-device case of a pool: a ``full``
        #: step's chain, or a resident step's one-row plan.
        self._scheduler = DeviceScheduler([self.context])

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "evaluator has been closed (its device buffers were freed); "
                "create a new evaluator instead of reusing it"
            )

    def _evaluate_many(self, solutions: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Solution-parallel evaluation: one ``S x M``-thread launch.

        The ``(S, n)`` solution block crosses PCIe once and a single kernel
        launch covers every (replica, neighbor) pair, so the fixed transfer
        latency and launch overhead are paid once instead of ``S`` times —
        the core amortization of the batched execution engine.  The step is
        the one-device case of the pool's ``full`` step; the clock adds the
        device's work, transfers and kernel, one after another.
        """
        self._check_open()
        before = self.context.stats.total_time
        scores = _score(self.problem, self.neighborhood, solutions, indices)
        (data,) = _full_step(self._scheduler, self, [(0, self, solutions, scores)])
        self.stats.simulated_time += self.context.stats.total_time - before
        return data.reshape(scores.shape)

    # ------------------------------------------------------------------
    # Device-resident session API
    # ------------------------------------------------------------------
    supports_device_residency = True

    def _session_buffer(self, kind: str) -> str:
        return f"{kind}:{id(self)}"

    def begin_search(self, solutions: np.ndarray, *, persistent: bool = False) -> None:
        """Upload the ``(R, n)`` solution block once; it stays device-resident.

        Subsequent iterations mutate the resident block through
        :meth:`apply_deltas` and evaluate it through
        :meth:`evaluate_resident`; the block never crosses PCIe again.

        With ``persistent=True`` the session additionally opens a
        :class:`~repro.gpu.runtime.DeviceLoop`: the whole iteration loop runs
        inside one persistent launch (delta scatter, evaluation, fused
        reduction and tabu update all on-device), the host only drains the
        per-iteration result ring and writes early-stop flags, and exactly
        one kernel launch is charged when the session ends.
        """
        solutions = np.asarray(solutions, dtype=np.int8)
        if solutions.ndim != 2 or solutions.shape[1] != self.problem.n:
            raise ValueError(
                f"expected an (R, {self.problem.n}) solution block, got {solutions.shape}"
            )
        if solutions.shape[0] == 0:
            raise ValueError("need at least one replica to start a resident search")
        self._check_open()
        self.end_search()
        self._resident = solutions.copy()
        before = self.context.timeline.elapsed
        self.context.to_device(
            self._session_buffer("resident"), solutions.astype(SOLUTION_DTYPE)
        )
        self._sync_time = self.context.timeline.elapsed
        self.stats.simulated_time += self.context.timeline.elapsed - before
        if persistent:
            self.open_persistent_loop()

    def open_persistent_loop(self) -> None:
        """Open the session's single persistent launch (one per run).

        Split out of :meth:`begin_search` so the multi-GPU evaluator can
        batch the resident uploads of all devices through the interconnect
        engine first and open each device's loop once its slice has landed.
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before open_persistent_loop")
        self.last_persistent_record = None
        self._loop = self.context.open_device_loop(
            PersistentKernel(self.batch_kernel), block_size=self.block_size
        )

    def init_tabu_memory(self, tenure: int) -> None:
        """Make the tabu memory device-resident for the current session.

        Allocates the ``(R, M)`` "iteration last applied" stamps in device
        global memory.  The admissibility mask is then computed next to the
        fused reduction instead of on the host, so the per-iteration tabu
        packet shrinks from the ``O(S·M/8)`` bit-packed mask to the ``O(S)``
        per-replica iteration stamps — and the robust-tabu escape (fall back
        to the oldest move when every move is inadmissible) resolves
        on-device too, removing its extra host round trip.
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before init_tabu_memory")
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        name = self._session_buffer("tabu")
        if name in self.context.memory.allocations:
            self.context.free(name)
        buf = self.context.alloc(
            name, (self._resident.shape[0], self.neighborhood.size), TABU_STAMP_DTYPE
        )
        buf.data.fill(TABU_NEVER)
        self._tabu_last_applied = buf.data
        self._tabu_tenure = int(tenure)

    def read_tabu_rows(self, rows: np.ndarray) -> np.ndarray:
        """Copy out the device-resident tabu stamps of the given replica rows.

        The solve server uses this to suspend a preempted tenant: its
        ``last_applied`` stamps leave with the tenant and come back verbatim
        on resume, so the continued trajectory stays bit-identical.
        """
        if self._tabu_last_applied is None:
            raise RuntimeError("no device-resident tabu memory in this session")
        rows = _tabu_rows(rows, self._tabu_last_applied.shape[0])
        return self._tabu_last_applied[rows].copy()

    def write_tabu_rows(self, rows: np.ndarray, stamps: np.ndarray | None = None) -> None:
        """Overwrite replica rows of the device-resident tabu memory.

        ``stamps=None`` resets the rows to the "never applied" sentinel —
        what a fresh tenant needs when it takes over a replica slot.  The
        fill happens in device global memory (folded into the next launch),
        so nothing crosses PCIe and nothing is priced on the timeline.
        """
        if self._tabu_last_applied is None:
            raise RuntimeError("no device-resident tabu memory in this session")
        rows = _tabu_rows(rows, self._tabu_last_applied.shape[0])
        if stamps is None:
            self._tabu_last_applied[rows] = TABU_NEVER
            return
        stamps = np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        if stamps.shape != (rows.size, self.neighborhood.size):
            raise ValueError(
                f"expected a ({rows.size}, {self.neighborhood.size}) stamp block, "
                f"got {stamps.shape}"
            )
        self._tabu_last_applied[rows] = stamps

    def apply_deltas(
        self, replicas: np.ndarray, bits: np.ndarray, *, stage: bool = True
    ) -> None:
        """Send only the flipped bits: ``(replica, bit)`` int32 pairs.

        ``O(S·k)`` bytes per iteration instead of re-uploading the whole
        ``(S, n)`` block.  The pairs are staged host-side and cross PCIe as
        a single delta packet when the next resident evaluation is issued
        (the device folds the scatter into the evaluation launch).

        ``stage=False`` updates only the functional mirror and skips the
        host-side staging: the multi-GPU scheduler uses it when the packet
        reaches this device over a peer-to-peer link instead of PCIe (the
        arrival is then recorded through :meth:`note_peer_delivery`).
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before apply_deltas")
        replicas = np.asarray(replicas, dtype=np.int64).ravel()
        bits = np.asarray(bits, dtype=np.int64).ravel()
        if replicas.shape != bits.shape:
            raise ValueError("replicas and bits must have the same length")
        if replicas.size == 0:
            return
        if replicas.min() < 0 or replicas.max() >= self._resident.shape[0]:
            raise IndexError("delta replica index out of range")
        if bits.min() < 0 or bits.max() >= self.problem.n:
            raise IndexError("delta bit index out of range")
        self._flip(replicas, bits, stage)

    def _flip(self, replicas: np.ndarray, bits: np.ndarray, stage: bool) -> None:
        """Apply validated flips to the mirror and stage their delta packet."""
        self._resident[replicas, bits] ^= 1
        if self._loop is not None and not self._loop.closed:
            # Persistent launch: the winning move was selected by the
            # resident grid itself, which scatters the flips in-place — no
            # delta packet ever crosses PCIe.  Only the host mirror is kept
            # in sync here.
            return
        if not stage:
            return
        self._staged_deltas.append(np.stack([replicas, bits], axis=1).astype(DELTA_DTYPE))

    def note_peer_delivery(self, time: float) -> None:
        """Order the next resident launch after a peer-delivered packet.

        The multi-GPU delta router ships this device's packet over a P2P
        link (or through the hub upload, for the hub device itself); the
        next evaluation kernel must not start before the packet has landed.
        """
        self._sync_time = max(self._sync_time, float(time))

    def _adopt_resident(
        self,
        solutions: np.ndarray,
        *,
        tenure: int | None = None,
        stamps: np.ndarray | None = None,
        arrival: float = 0.0,
    ) -> None:
        """Install an ``(R, n)`` resident block that arrived over a peer link.

        Used by the multi-GPU rebalancer: the rows were already priced as
        device-to-device (or host round trip) transfers, so this only
        rebuilds the session state — device buffers, host mirrors, and the
        device-resident tabu memory — without logging any further PCIe
        traffic.  ``arrival`` orders the next launch after the migration.
        """
        self._check_open()
        solutions = np.asarray(solutions, dtype=np.int8)
        name = self._session_buffer("resident")
        existing = self.context.memory.allocations.get(name)
        if existing is not None and existing.data.shape != solutions.shape:
            self.context.free(name)
        if name not in self.context.memory.allocations:
            self.context.alloc(name, solutions.shape, SOLUTION_DTYPE)
        self.context.memory.get(name).data[...] = solutions.astype(SOLUTION_DTYPE)
        self._resident = solutions.copy()
        if tenure is not None:
            tabu_name = self._session_buffer("tabu")
            shape = (solutions.shape[0], self.neighborhood.size)
            tabu_existing = self.context.memory.allocations.get(tabu_name)
            if tabu_existing is not None and tabu_existing.data.shape != shape:
                self.context.free(tabu_name)
            if tabu_name not in self.context.memory.allocations:
                self.context.alloc(tabu_name, shape, TABU_STAMP_DTYPE)
            buf = self.context.memory.get(tabu_name)
            if stamps is not None:
                buf.data[...] = stamps
            else:
                buf.data.fill(TABU_NEVER)
            self._tabu_last_applied = buf.data
            self._tabu_tenure = int(tenure)
        self._staged_deltas = []
        self._last_fitnesses = None
        self._last_rows = None
        self.note_peer_delivery(arrival)

    def _tabu_block(self, rows: np.ndarray, whole: bool) -> np.ndarray:
        """The rows' last-applied tabu stamps (a view when ``whole``)."""
        last = self._tabu_last_applied
        return last if whole else last[rows]

    def _store_selection(self, rows, indices, best, stamps) -> None:
        """Write the winners' tabu stamps in place and stage the ``reduced`` buffer."""
        if stamps is not None:
            self._tabu_last_applied[rows, indices] = stamps
        reduced = _sized_buffer(
            self.context, self._session_buffer("reduced"), rows.size, REDUCED_PAIR_DTYPE
        )
        reduced["index"] = indices
        reduced["fitness"] = best

    def _fused_select(
        self, request, fitnesses, reduce, aspiration_fitness, thresholds
    ) -> tuple[np.ndarray, np.ndarray]:
        """The fused reduction of this device's rows, staged in the ``reduced`` buffer."""
        rows, whole, stamps, admissible = request
        tabu = None
        if stamps is not None:
            tabu = (stamps, self._tabu_block(rows, whole), self._tabu_tenure)
        indices, best = _select_step(
            fitnesses, reduce, admissible, aspiration_fitness, thresholds, tabu
        )
        self._store_selection(rows, indices, best, stamps)
        return indices, best

    def evaluate_resident(
        self,
        replica_ids: np.ndarray | None = None,
        *,
        reduce: str | None = None,
        admissible: np.ndarray | None = None,
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
        admissible:
            Optional ``(S, M)`` admissibility mask for ``"argmin"`` (the
            host-side tabu rule).  It is bit-packed and uploaded on the copy
            stream, overlapping the evaluation kernel, because only the
            reduction epilogue consumes it.
        aspiration_fitness:
            Per-replica aspiration thresholds: an inadmissible move becomes
            admissible when strictly better (device-side comparison).
        thresholds:
            Per-replica current fitnesses for ``"first-improvement"``.
        tabu_iterations:
            Per-replica current iteration numbers for the **device-resident**
            tabu memory (:meth:`init_tabu_memory`).  The admissibility mask
            is then derived on-device from the resident ``last_applied``
            stamps — only these ``O(S)`` stamps cross PCIe instead of the
            ``O(S·M/8)`` packed mask — the robust-tabu escape resolves
            on-device, and the winning move's stamp is updated in place.
            Mutually exclusive with ``admissible``.

        Returns the fitness matrix (``reduce=None``) or an
        ``(indices, fitnesses)`` pair of per-replica arrays where a blocked
        replica (no admissible / no improving move) gets ``(-1, inf)`` —
        except under ``tabu_iterations``, where blocked replicas already
        carry their escape move.
        """
        request = self._resident_request(replica_ids, reduce, admissible, tabu_iterations)
        rows, whole = request[0], request[1]
        _check_per_row(rows.size, aspiration_fitness=aspiration_fitness, thresholds=thresholds)
        scores = _score(
            self.problem, self.neighborhood, self._resident if whole else self._resident[rows]
        )
        return self._evaluate_resident(request, scores, reduce, aspiration_fitness, thresholds)

    def _evaluate_resident(self, request, scores, reduce, aspiration_fitness, thresholds):
        """:meth:`evaluate_resident` of a validated request with its rows scored.

        ``scores`` is the ``(S, M)`` fitness block of the requested rows:
        :meth:`evaluate_resident` scores it in one host call, and
        :class:`MultiGPUEvaluator` in one call for the whole pool.  The
        step then lands the scores and prices its transfers, launch and
        reduction as a one-row :class:`~repro.gpu.scheduler.ResidentStepPlan`
        (inside a persistent launch, as one iteration of the open loop).
        """
        if self._loop is not None and not self._loop.closed:
            return self._evaluate_persistent(
                request, scores, reduce, aspiration_fitness, thresholds
            )
        plan = self._step_plan(reduce)
        self._plan_row(plan, 0, request, scores, reduce, aspiration_fitness, thresholds)
        if reduce is not None:
            self._fused_select(
                request, self._last_fitnesses, reduce, aspiration_fitness, thresholds
            )
        data = self._priced_row(self._scheduler.price_resident_step(plan), 0)
        if reduce is None:
            return data.reshape(self._last_fitnesses.shape)
        return data["index"].astype(np.int64), data["fitness"].astype(np.float64)

    def _resident_request(self, replica_ids, reduce, admissible, tabu_iterations):
        """Validate one resident evaluation.

        Returns ``(rows, whole, stamps, admissible)``; ``whole`` says the
        rows are every resident replica in order (no id list to upload).
        """
        if self._resident is None:
            raise RuntimeError("begin_search must be called before evaluate_resident")
        replicas = self._resident.shape[0]
        if replica_ids is None:
            rows = np.arange(replicas, dtype=np.int64)
            whole = True
        else:
            rows = np.asarray(replica_ids, dtype=np.int64).ravel()
            if rows.size and (rows.min() < 0 or rows.max() >= replicas):
                raise IndexError("replica id out of range")
            whole = rows.size == replicas and np.array_equal(rows, np.arange(replicas))
        num_solutions, num_indices = rows.size, self.neighborhood.size
        if num_solutions == 0:
            raise ValueError("need at least one active replica")
        if reduce is not None and reduce not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {reduce!r}; expected one of {REDUCE_OPS}")
        stamps = None
        if tabu_iterations is not None:
            if self._tabu_last_applied is None:
                raise RuntimeError(
                    "tabu_iterations needs a device-resident tabu memory; "
                    "call init_tabu_memory after begin_search"
                )
            if admissible is not None:
                raise ValueError("pass either admissible or tabu_iterations, not both")
            if reduce != "argmin":
                raise ValueError("tabu_iterations requires reduce=\"argmin\"")
            stamps = np.asarray(tabu_iterations, dtype=TABU_STAMP_DTYPE).ravel()
            if stamps.shape != (num_solutions,):
                raise ValueError(
                    f"tabu_iterations must have one stamp per replica "
                    f"({num_solutions}), got {stamps.shape}"
                )
        if admissible is not None:
            admissible = np.asarray(admissible, dtype=bool)
            if admissible.shape != (num_solutions, num_indices):
                raise ValueError(
                    f"admissible mask must be ({num_solutions}, {num_indices}), "
                    f"got {admissible.shape}"
                )
        return rows, whole, stamps, admissible

    def _delta_packet(self, rows: np.ndarray, whole: bool) -> np.ndarray | None:
        """The pre-kernel packet of one resident evaluation, or ``None``.

        The staged ``(replica, bit)`` flips plus — unless the ``rows`` are
        the ``whole`` resident block — the id list: one staging buffer, one
        PCIe transaction, one latency.  Consumes the staged flips.
        """
        parts = [pairs.reshape(-1).view(np.uint8) for pairs in self._staged_deltas]
        self._staged_deltas = []
        if not whole:
            parts.append(rows.astype(SOLUTION_DTYPE).view(np.uint8))
        return np.concatenate(parts) if parts else None

    @staticmethod
    def _reduction_packet(
        admissible, stamps, aspiration_fitness, thresholds
    ) -> np.ndarray | None:
        """What the fused reduction's epilogue reads from the host, or ``None``.

        The bit-packed admissibility mask or — with the device-resident
        tabu memory — just the ``O(S)`` per-replica iteration stamps, plus
        per-replica aspiration / improvement thresholds.
        """
        parts = []
        if admissible is not None:
            parts.append(np.packbits(admissible, axis=1).reshape(-1))
        if stamps is not None:
            parts.append(stamps.view(np.uint8))
        if aspiration_fitness is not None:
            parts.append(np.asarray(aspiration_fitness, dtype=np.float64).view(np.uint8))
        if thresholds is not None:
            parts.append(np.asarray(thresholds, dtype=np.float64).view(np.uint8))
        return np.concatenate(parts) if parts else None

    def _step_plan(self, reduce: str | None) -> ResidentStepPlan:
        """An empty resident step plan for this evaluator's batch kernel."""
        return ResidentStepPlan(
            kernel=self.batch_kernel,
            block_size=self.block_size,
            reduce=(
                None if reduce is None
                else f"FusedReduce<{reduce}>[{self.batch_kernel.name}]"
            ),
        )

    def _plan_row(
        self, plan, device, request, scores, reduce, aspiration_fitness, thresholds
    ) -> None:
        """Add this evaluator's chain to ``plan`` as the row of pool device ``device``.

        Lands ``scores`` in the resident fitness buffer, builds the delta
        and reduction packets and picks the buffer the chain downloads; a
        ``reduce`` step's caller fills the ``reduced`` buffer before pricing.
        """
        rows, whole, stamps, admissible = request
        num_indices = self.neighborhood.size
        flat_name = self._session_buffer("resident_fitnesses")
        flat = _sized_buffer(self.context, flat_name, rows.size * num_indices)
        fitnesses = flat.reshape(rows.size, num_indices)
        fitnesses[...] = scores
        self._last_fitnesses = fitnesses
        self._last_rows = rows
        packet = self._delta_packet(rows, whole)
        plan.packets.append(None if packet is None else (self._session_buffer("deltas"), packet))
        if reduce is None:
            plan.reduction_packets.append(None)
            plan.downloads.append(flat_name)
        else:
            packet = self._reduction_packet(admissible, stamps, aspiration_fitness, thresholds)
            plan.reduction_packets.append(
                None if packet is None else (self._session_buffer("reduction_packet"), packet)
            )
            plan.downloads.append(self._session_buffer("reduced"))
        plan.devices.append(device)
        plan.not_before.append(self._sync_time)
        plan.shapes.append((rows.size, num_indices))

    def _priced_row(self, times, position: int) -> np.ndarray:
        """Settle row ``position`` of a priced step; returns its downloaded data."""
        self._sync_time = times.done[position]
        self.stats.simulated_time += times.elapsed_after[position] - times.elapsed_before[position]
        self.stats.calls += 1
        self.stats.evaluations += self._last_fitnesses.size
        return times.data[position]

    def _evaluate_persistent(self, request, scores, reduce, aspiration_fitness, thresholds):
        """One on-device iteration of the persistent launch.

        No kernel is launched and no delta/id packet is uploaded: the
        resident grid scatters the flips it selected itself, evaluates, and
        reduces, all inside the one open launch.  The host's only traffic is
        the ``O(S)`` early-stop flag write and the 16 B/replica result-ring
        drain, both concurrent with the loop; the per-replica bookkeeping
        the reduction needs (iteration counters, best-so-far aspiration
        fitness) already lives on the device.
        """
        if reduce is None:
            raise ValueError(
                "the persistent loop folds selection on-device; downloading the "
                "full fitness matrix would defeat it — use reduce=\"argmin\" or "
                "\"first-improvement\", or transfer_mode=\"delta\""
            )
        loop = self._loop
        rows = request[0]
        num_solutions, num_indices = rows.size, self.neighborhood.size
        flat_size = num_solutions * num_indices
        flat = _sized_buffer(
            self.context, self._session_buffer("resident_fitnesses"), flat_size
        )
        # Flips were applied on-device by the previous iteration's epilogue.
        self._staged_deltas = []
        loop.write_control(self._resident.shape[0] * STOP_FLAG_BYTES)
        # The loop body lands the scores (the kernel's trailing argument).
        added = loop.iterate(
            (num_solutions, num_indices), (None, flat, scores), cost=self.batch_kernel.cost
        )
        fitnesses = flat.reshape(num_solutions, num_indices)
        self._last_fitnesses = fitnesses
        self._last_rows = rows
        # The per-iteration result ring entry: 16 bytes per active replica,
        # drained by the host while the grid keeps looping.
        indices, best = self._fused_select(
            request, fitnesses, reduce, aspiration_fitness, thresholds
        )
        added += loop.reduce(flat_size)
        loop.drain_ring(num_solutions * REDUCED_RESULT_BYTES)
        # The ring drain and flag write hide under the resident loop; only
        # the on-device work advances the evaluator's clock.
        self.stats.simulated_time += added
        self.stats.calls += 1
        self.stats.evaluations += flat_size
        return indices.copy(), best.copy()

    def fetch_fitnesses(self, replicas: np.ndarray, move_indices: np.ndarray) -> np.ndarray:
        """Read single entries of the last evaluated fitness block.

        Used by the host for decisions the fused reduction cannot make (the
        robust-tabu escape to the oldest move): one fitness value per
        requested entry crosses PCIe — ``O(S)``, not ``O(S·M)``.
        """
        if self._last_fitnesses is None or self._last_rows is None:
            raise RuntimeError("no resident fitness block has been evaluated yet")
        replicas, move_indices = _fetch_request(
            replicas, move_indices, self.neighborhood.size
        )
        # Map global replica ids to rows of the last launch without assuming
        # the caller evaluated them in sorted order.
        order = np.argsort(self._last_rows, kind="stable")
        positions = np.searchsorted(self._last_rows[order], replicas)
        if positions.size and (
            positions.max() >= order.size
            or not np.array_equal(self._last_rows[order][positions], replicas)
        ):
            raise KeyError("replica was not part of the last resident evaluation")
        local = order[positions]
        values = self._last_fitnesses[local, move_indices].astype(np.float64)
        context = self.context
        before = context.timeline.elapsed
        nbytes = int(FITNESS_BYTES) * values.size
        start = context._issue_start(DOWNLOAD_STREAM, None, self._sync_time)
        grant = context.host_transfer_grant(
            "d2h", nbytes, start=start, label="fitnesses[fetch]"
        )
        context.stats.transfer_time += grant.duration
        context.stats.d2h_bytes += nbytes
        interval = context.timeline.schedule(
            "d2h",
            "fitnesses[fetch]",
            grant.duration,
            stream=DOWNLOAD_STREAM,
            not_before=self._sync_time,
        )
        self._sync_time = interval.end
        self.stats.simulated_time += context.timeline.elapsed - before
        return values

    def end_search(self) -> None:
        """Drop the resident session's device buffers and host mirrors.

        A persistent session's :class:`~repro.gpu.runtime.DeviceLoop` is
        closed first: that is the moment the single launch (and its one
        amortized overhead) is charged and the per-stream loop intervals
        land on the timeline.
        """
        if self._loop is not None:
            if not self._loop.closed:
                record = self._loop.finish()
                self.stats.simulated_time += record.launch_overhead
                self.last_persistent_record = record
            self._loop = None
        for kind in (
            "resident",
            "deltas",
            "reduction_packet",
            "resident_fitnesses",
            "reduced",
            "tabu",
        ):
            name = self._session_buffer(kind)
            if name in self.context.memory.allocations:
                self.context.free(name)
        self._resident = None
        self._staged_deltas = []
        self._last_fitnesses = None
        self._last_rows = None
        self._tabu_last_applied = None
        self._tabu_tenure = 0

    # ------------------------------------------------------------------
    # Checkpoint API
    # ------------------------------------------------------------------
    def snapshot_state(self, *, include_engine: bool = True) -> dict:
        """Everything a fresh evaluator needs to continue bit-identically.

        On top of the base work counters: the context's accounting (device
        stats + per-stream timeline), the interconnect engine's committed
        load (skipped with ``include_engine=False`` when the engine is
        pool-shared and snapshotted once by :class:`MultiGPUEvaluator`), and
        the resident session — solution mirror, staged deltas, sync point,
        device-resident tabu stamps and, in persistent mode, the open
        launch's accumulated progress.
        """
        snap = super().snapshot_state()
        snap["context"] = self.context.snapshot_accounting()
        if include_engine:
            snap["engine"] = self.context.engine.snapshot()
        if self._resident is not None:
            session = {
                "resident": self._resident.copy(),
                "sync_time": self._sync_time,
                "staged_deltas": [pairs.copy() for pairs in self._staged_deltas],
                "tenure": self._tabu_tenure,
                "stamps": (
                    self._tabu_last_applied.copy()
                    if self._tabu_last_applied is not None
                    else None
                ),
                "loop": (
                    self._loop.snapshot()
                    if self._loop is not None and not self._loop.closed
                    else None
                ),
            }
            snap["session"] = session
        return snap

    def restore_state(self, snap: dict) -> None:
        """Rebuild the snapshotted session without logging any transfers.

        The resident block is installed through the same warm path the
        rebalancer uses (:meth:`_adopt_resident`): the snapshotted counters
        already include the original ``begin_search`` upload, so re-charging
        it would double-count.  A snapshotted persistent launch is reopened
        and its progress accumulators overwritten in place.
        """
        self._check_open()
        self.end_search()
        super().restore_state(snap)
        context_snap = snap.get("context")
        if context_snap is not None:
            self.context.restore_accounting(context_snap)
        engine_snap = snap.get("engine")
        if engine_snap is not None:
            self.context.engine.restore(engine_snap)
        session = snap.get("session")
        if session is None:
            return
        stamps = session.get("stamps")
        if stamps is not None:
            stamps = np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        self._adopt_resident(
            np.asarray(session["resident"], dtype=np.int8),
            tenure=int(session["tenure"]) if stamps is not None else None,
            stamps=stamps,
        )
        self._sync_time = float(session["sync_time"])
        self._staged_deltas = [
            np.asarray(pairs, dtype=DELTA_DTYPE).reshape(-1, 2)
            for pairs in session["staged_deltas"]
        ]
        loop_state = session.get("loop")
        if loop_state is not None:
            self.open_persistent_loop()
            self._loop.restore(loop_state)

    def close(self) -> None:
        """Free every persistent device buffer owned by this evaluator.

        Long-lived contexts shared by many evaluators would otherwise
        accumulate the per-evaluator ``fitnesses:<id>`` / ``solutions:<id>``
        allocations as simulated device-memory leaks.
        """
        self.end_search()
        self.context.free_evaluator_buffers(self)
        self._closed = True

    @property
    def simulated_time(self) -> float:
        return self.stats.simulated_time


class MultiGPUEvaluator(NeighborhoodEvaluator):
    """Partitioned exploration across several concurrently-scheduled devices.

    The pool is driven by a :class:`~repro.gpu.scheduler.DeviceScheduler`:
    every device owns its own stream timeline and the per-device
    upload/launch/reduce/download chains are issued asynchronously, ordered
    only by events — so the elapsed simulated time of a step is the
    cross-device makespan, not a serialized host loop.  Heterogeneous pools
    are partitioned proportionally to each device's simulated throughput on
    the neighborhood kernel; resident sessions route flipped-bit delta
    packets device-to-device over P2P links (one host upload to a hub
    device, peer forwards for the rest) and can migrate replicas between
    devices to rebalance load, all without changing any trajectory.  Each
    resident lockstep step (the delta route, then every device's packets,
    launch, reduction and download) is priced as one
    :class:`~repro.gpu.scheduler.ResidentStepPlan`; a ``full`` step runs the
    chain a single :class:`GPUEvaluator` runs, once per device, and starts
    only once every device has drained the step before it.
    """

    platform = "multi-gpu"

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
        self.pool = MultiGPU(devices, mode=mode, pinned=pinned, topology=topology)
        self.scheduler = DeviceScheduler(self.pool.contexts, engine=self.pool.engine)
        self.block_size = int(block_size)
        # Elastic fleet mask: every device is attached (its context, topology
        # port and peer links exist for the whole run) but only *active*
        # devices receive work.  ``fail_device`` / ``join_device`` flip the
        # mask mid-run; ``active_devices`` starts some devices dark so they
        # can join later.
        if active_devices is None:
            self._device_active = [True] * self.pool.num_devices
        else:
            chosen = {int(index) for index in active_devices}
            if not chosen:
                raise ValueError("need at least one active device")
            bad = [index for index in chosen if not 0 <= index < self.pool.num_devices]
            if bad:
                raise ValueError(
                    f"active device index out of range: {sorted(bad)} "
                    f"(pool has {self.pool.num_devices} devices)"
                )
            self._device_active = [
                index in chosen for index in range(self.pool.num_devices)
            ]
        self._sub_evaluators = [
            GPUEvaluator(
                problem,
                neighborhood,
                block_size=block_size,
                context=ctx,
            )
            for ctx in self.pool.contexts
        ]
        #: Whether resident-session delta packets take the hub-upload +
        #: peer-forward route instead of one host upload per device.  Only
        #: possible when the interconnect topology routes peer copies
        #: between every pair of devices in the pool.
        self.peer_routing = (
            bool(peer_routing)
            and self.num_devices > 1
            and self.scheduler.all_peer_capable
        )
        # Replica ranges [lo, hi) owned by each device in a resident session.
        self._replica_ranges: list[tuple[int, int]] | None = None
        self._persistent = False
        self._resident_tenure: int | None = None

    @property
    def num_devices(self) -> int:
        return self.pool.num_devices

    def _kernel_cost(self):
        """Cost profile used for throughput-proportional partitioning."""
        return self._sub_evaluators[0].batch_kernel.cost

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
                self.pool.throughput_weights(self._kernel_cost()), self._device_active
            )
        ]

    def _partitions(self, total: int):
        """Partition ``total`` flat indices across the *active* devices.

        With every device active this is exactly the pool's partitioner
        (the homogeneous even split, bit-for-bit); with a partial fleet the
        masked weighted split hands inactive devices empty slices.
        """
        if all(self._device_active):
            return self.pool.partitions(total, self._kernel_cost())
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
        """Partition the flat ``S x M`` (replica, neighbor) space across devices.

        The block is scored once on the host.  Each device then receives a
        contiguous slice of the flattened batch (it may span several
        replicas) sized by its simulated throughput, uploads only the
        solution rows that slice touches and runs the ``full`` step's
        upload -> launch -> download chain; the chains of different devices
        overlap, so the step costs the cross-device makespan.
        """
        num_indices = indices.size
        scores = _score(self.problem, self.neighborhood, solutions, indices).reshape(-1)
        chains = [
            (
                part.device_index,
                evaluator,
                solutions[part.start // num_indices : (part.stop - 1) // num_indices + 1],
                scores[part.start : part.stop],
            )
            for evaluator, part in zip(self._sub_evaluators, self._partitions(scores.size))
            if part.size > 0
        ]
        before = self.scheduler.makespan
        downloads = _full_step(self.scheduler, self, chains)
        self.stats.simulated_time += self.scheduler.makespan - before
        # An empty index list gives no chain, and its scores are the result.
        out = np.concatenate(downloads) if downloads else scores
        return out.reshape(solutions.shape[0], num_indices)

    # ------------------------------------------------------------------
    # Device-resident session API (replica-partitioned across devices)
    # ------------------------------------------------------------------
    supports_device_residency = True

    def _replica_count(self) -> int:
        """Rows of the resident session (the replica ranges tile ``[0, R)``)."""
        return max((hi for _index, _evaluator, _lo, hi in self._resident_parts()), default=0)

    def _split_rows(self, ids: np.ndarray):
        """Group validated global replica ids by the device owning them.

        Yields ``(index, evaluator, positions, local, whole)``: where in
        ``ids`` the device's ids sit (in their original order), the ids
        relative to the device's range, and whether they are its whole
        range in order.  Strictly increasing ids (every lockstep step) are
        split with slices; others through a stable sort.
        """
        ascending = ids.size < 2 or bool((ids[1:] > ids[:-1]).all())
        order = None if ascending else np.argsort(ids, kind="stable")
        ranked = ids if order is None else ids[order]
        cuts = np.searchsorted(
            ranked, [lo for lo, _hi in self._replica_ranges] + [self._replica_ranges[-1][1]]
        ).tolist()
        for index, evaluator, lo, hi in self._resident_parts():
            first, last = cuts[index], cuts[index + 1]
            if first == last:
                continue
            if order is None:
                positions = slice(first, last)
            else:
                positions = np.sort(order[first:last])
            whole = ascending and last - first == hi - lo
            yield index, evaluator, positions, ids[positions] - lo, whole

    def _resident_parts(self):
        """Yield ``(index, evaluator, lo, hi)`` for devices owning a replica."""
        if self._replica_ranges is None:
            raise RuntimeError("begin_search must be called before resident operations")
        for index, (evaluator, (lo, hi)) in enumerate(
            zip(self._sub_evaluators, self._replica_ranges)
        ):
            if hi > lo:
                yield index, evaluator, lo, hi

    def begin_search(self, solutions: np.ndarray, *, persistent: bool = False) -> None:
        """Split the ``(R, n)`` block into contiguous replica ranges, one per device.

        A heterogeneous pool receives ranges proportional to device
        throughput.  With ``persistent=True`` every owning device opens its
        own persistent launch over its replica slice (one launch per device
        per run — the multi-GPU analogue of the single-launch invariant).
        """
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
        before = self.scheduler.makespan
        # The per-device resident uploads leave the host together, so they
        # are priced as one interconnect arbitration batch: on a shared
        # uplink each replica slice sees its fair share of the root complex
        # instead of a private full-rate link.
        slices = list(self._resident_parts())
        upload_items = []
        pre_elapsed = []
        for index, evaluator, lo, hi in slices:
            pre_elapsed.append(evaluator.context.timeline.elapsed)
            upload_items.append(
                (
                    index,
                    evaluator._session_buffer("resident"),
                    solutions[lo:hi].astype(SOLUTION_DTYPE),
                )
            )
        events = self.scheduler.upload_batch(upload_items, sync=True)
        for (_index, evaluator, lo, hi), event, elapsed_before in zip(
            slices, events, pre_elapsed
        ):
            evaluator._adopt_resident(solutions[lo:hi], arrival=event.time)
            evaluator.stats.simulated_time += event.time - elapsed_before
            if persistent:
                evaluator.open_persistent_loop()
        self.stats.simulated_time += self.scheduler.makespan - before

    def init_tabu_memory(self, tenure: int) -> None:
        """Allocate each device's slice of the resident tabu memory."""
        self._resident_tenure = int(tenure)
        for _index, evaluator, _lo, _hi in self._resident_parts():
            evaluator.init_tabu_memory(tenure)

    def read_tabu_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather tabu stamp rows from the devices owning each replica."""
        rows = _tabu_rows(rows, self._replica_count())
        out = np.empty((rows.size, self.neighborhood.size), dtype=TABU_STAMP_DTYPE)
        for _index, evaluator, positions, local, _whole in self._split_rows(rows):
            out[positions] = evaluator.read_tabu_rows(local)
        return out

    def write_tabu_rows(self, rows: np.ndarray, stamps: np.ndarray | None = None) -> None:
        """Scatter stamp rows (or the reset sentinel) to the owning devices."""
        rows = _tabu_rows(rows, self._replica_count())
        stamps_block = None if stamps is None else np.asarray(stamps, dtype=TABU_STAMP_DTYPE)
        if stamps_block is not None and stamps_block.shape != (
            rows.size,
            self.neighborhood.size,
        ):
            raise ValueError(
                f"expected a ({rows.size}, {self.neighborhood.size}) stamp block, "
                f"got {stamps_block.shape}"
            )
        for _index, evaluator, positions, local, _whole in self._split_rows(rows):
            evaluator.write_tabu_rows(
                local, None if stamps_block is None else stamps_block[positions]
            )

    def apply_deltas(self, replicas: np.ndarray, bits: np.ndarray) -> None:
        """Route each ``(replica, bit)`` pair to the device owning the replica.

        With peer routing active (every device P2P-capable), the combined
        delta packet crosses PCIe **once** — to a hub device, device 0 —
        and each other device's slice is forwarded device-to-device over the
        peer link with a small routing header, the next evaluation launches
        ordered after the arrivals.  The forwarded bytes are accounted as
        ``p2p_bytes`` only: they never revisit the host.  Otherwise every
        device's slice is staged for its own host upload (the seed
        behaviour), each behind one host-side driver call.  Inside a
        persistent launch no packet moves at all: the resident grids
        scattered their own selections.  The route is priced as one
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
        owners = []
        for index, evaluator, positions, local, _whole in self._split_rows(replicas):
            evaluator._flip(local, bits[positions], stage=not route_peer)
            owners.append((index, evaluator, local, bits[positions]))
        if not resident_session or not owners:
            return
        plan = ResidentStepPlan()
        hub = self._sub_evaluators[0]
        if route_peer:
            plan.issues.append(("delta_hub", hub.context.device.pcie_latency))
            chunks, header = [], np.zeros(PEER_PACKET_HEADER_BYTES, dtype=np.uint8)
            for index, evaluator, local, flipped in owners:
                pairs = np.stack([local, flipped], axis=1).astype(DELTA_DTYPE)
                chunks.append(pairs.reshape(-1).view(np.uint8))
                if evaluator is not hub:
                    plan.forwards.append(
                        (
                            index,
                            evaluator._session_buffer("deltas"),
                            np.concatenate([chunks[-1], header]),
                        )
                    )
            if plan.forwards:
                chunks.append(np.zeros(len(plan.forwards) * PEER_PACKET_HEADER_BYTES, np.uint8))
            plan.hub = 0
            plan.hub_packet = (f"delta_hub:{id(self)}", np.concatenate(chunks))
            plan.hub_not_before = hub._sync_time
        else:
            # One host-issued packet per owning device: the driver calls
            # serialize on the host, which is exactly the per-device latency
            # wall the hub + peer-forward route amortizes.
            plan.issues = [
                (f"deltas:gpu{index}", evaluator.context.device.pcie_latency)
                for index, evaluator, _local, _flipped in owners
            ]
        before = self.scheduler.makespan
        times = self.scheduler.price_resident_step(plan)
        if route_peer:
            if owners[0][1] is hub:
                hub.note_peer_delivery(times.upload)
            for (index, _buffer, _payload), arrival in zip(plan.forwards, times.arrivals):
                self._sub_evaluators[index].note_peer_delivery(arrival)
        else:
            for (_index, evaluator, _local, _flipped), issued in zip(owners, times.issues):
                evaluator.note_peer_delivery(issued)
        self.stats.simulated_time += max(before, times.latest) - before

    def evaluate_resident(
        self,
        replica_ids: np.ndarray | None = None,
        *,
        reduce: str | None = None,
        admissible: np.ndarray | None = None,
        aspiration_fitness: np.ndarray | None = None,
        thresholds: np.ndarray | None = None,
        tabu_iterations: np.ndarray | None = None,
    ):
        """Per-device resident evaluation; elapsed time is the pool makespan's.

        The active rows are scored once, from the devices' resident host
        mirrors; each device lands and reduces its own rows of
        that block, and the pool's step — every device's packets, launch,
        reduction and download — is priced as one
        :class:`~repro.gpu.scheduler.ResidentStepPlan`.  During a persistent
        session the sub-evaluators route the iteration through their open
        device loops instead, so the per-device stream clocks do not advance
        until the session ends; the elapsed contribution is then the slowest
        device's accumulated on-device time.
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
        # otherwise pass every device's own check.
        _check_per_row(
            num_solutions, admissible=admissible, aspiration_fitness=aspiration_fitness,
            thresholds=thresholds, tabu_iterations=tabu_iterations,
        )
        per_row = (admissible, aspiration_fitness, thresholds, tabu_iterations)
        block = np.empty((num_solutions, self.problem.n), dtype=np.int8)
        owners = list(self._split_rows(rows))
        for _index, evaluator, positions, local, whole in owners:
            block[positions] = evaluator._resident if whole else evaluator._resident[local]
        scores = _score(self.problem, self.neighborhood, block)
        if self._persistent:
            result = self._evaluate_persistent(owners, scores, reduce, per_row)
        else:
            result = self._evaluate_step(owners, scores, reduce, per_row)
        self.stats.calls += 1
        self.stats.evaluations += num_solutions * num_indices
        return result

    def _evaluate_step(self, owners, scores, reduce, per_row):
        """One delta/reduced step: land every device's rows, select, price.

        A ``reduced`` step's selection runs once over the whole block; each
        device then stores its rows' winners and tabu stamps.
        """
        num_indices = self.neighborhood.size
        plan = self._sub_evaluators[0]._step_plan(reduce)
        requests = []
        for index, evaluator, positions, local, whole in owners:
            admissible, aspiration_fitness, thresholds, tabu_iterations = (
                None if part is None else part[positions] for part in per_row
            )
            request = evaluator._resident_request(
                None if whole else local, reduce, admissible, tabu_iterations
            )
            evaluator._plan_row(
                plan, index, request, scores[positions], reduce, aspiration_fitness,
                thresholds,
            )
            requests.append(request)
        if reduce is not None:
            admissible, aspiration_fitness, thresholds, tabu_iterations = per_row
            tabu = None
            if tabu_iterations is not None:
                stamps = np.asarray(tabu_iterations, dtype=TABU_STAMP_DTYPE).ravel()
                last = np.empty(scores.shape, dtype=TABU_STAMP_DTYPE)
                for (_index, evaluator, positions, _local, _whole), (rows, whole, *_) in zip(
                    owners, requests
                ):
                    last[positions] = evaluator._tabu_block(rows, whole)
                tabu = (stamps, last, self._resident_tenure)
            indices, best = _select_step(
                np.asarray(scores, dtype=FITNESS_DTYPE), reduce, admissible,
                aspiration_fitness, thresholds, tabu,
            )
            for (_index, evaluator, positions, _local, _whole), request in zip(owners, requests):
                evaluator._store_selection(
                    request[0], indices[positions], best[positions], request[2]
                )
        before = self.scheduler.makespan
        times = self.scheduler.price_resident_step(plan)
        if reduce is None:
            result = np.empty((scores.shape[0], num_indices), dtype=np.float64)
        else:
            result = (
                np.empty(scores.shape[0], dtype=np.int64),
                np.empty(scores.shape[0], dtype=np.float64),
            )
        for position, (_index, evaluator, positions, local, _whole) in enumerate(owners):
            data = evaluator._priced_row(times, position)
            if reduce is None:
                result[positions] = data.reshape(local.size, num_indices)
            else:
                result[0][positions] = data["index"]
                result[1][positions] = data["fitness"]
        self.stats.simulated_time += max(before, times.latest) - before
        return result

    def _evaluate_persistent(self, owners, scores, reduce, per_row):
        """One iteration inside every device's open persistent launch.

        The stream clocks advance only at session end; the elapsed
        contribution is the slowest device's accumulated on-device time.
        """
        out_indices = np.empty(scores.shape[0], dtype=np.int64)
        out_best = np.empty(scores.shape[0], dtype=np.float64)
        per_device_times = []
        for _index, evaluator, positions, local, _whole in owners:
            before = evaluator.stats.simulated_time
            admissible, aspiration_fitness, thresholds, tabu_iterations = (
                None if part is None else part[positions] for part in per_row
            )
            out_indices[positions], out_best[positions] = evaluator._evaluate_resident(
                evaluator._resident_request(local, reduce, admissible, tabu_iterations),
                scores[positions],
                reduce,
                aspiration_fitness,
                thresholds,
            )
            per_device_times.append(evaluator.stats.simulated_time - before)
        self.stats.simulated_time += max(per_device_times) if per_device_times else 0.0
        return out_indices, out_best

    def fetch_fitnesses(self, replicas: np.ndarray, move_indices: np.ndarray) -> np.ndarray:
        """Route single-entry fitness reads to the devices owning the replicas."""
        replicas, move_indices = _fetch_request(
            replicas, move_indices, self.neighborhood.size
        )
        if replicas.size and (replicas.min() < 0 or replicas.max() >= self._replica_count()):
            raise KeyError("replica was not part of the last resident evaluation")
        out = np.empty(replicas.size, dtype=np.float64)
        before = self.scheduler.makespan
        for _index, evaluator, positions, local, _whole in self._split_rows(replicas):
            out[positions] = evaluator.fetch_fitnesses(local, move_indices[positions])
        self.stats.simulated_time += self.scheduler.makespan - before
        return out

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
        global_block = np.empty((total, n), dtype=np.int8)
        tabu_resident = self._resident_tenure is not None
        global_tabu = (
            np.empty((total, size), dtype=TABU_STAMP_DTYPE) if tabu_resident else None
        )
        staged_chunks = []
        for evaluator, (lo, hi) in zip(self._sub_evaluators, old_ranges):
            if hi <= lo:
                continue
            global_block[lo:hi] = evaluator._resident
            if tabu_resident:
                global_tabu[lo:hi] = evaluator._tabu_last_applied
            for pairs in evaluator._staged_deltas:
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
                src_sub = self._sub_evaluators[src]
                dst_sub = self._sub_evaluators[dst]
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
                    dst_context = dst_sub.context
                    start = dst_sub._sync_time
                    up_start = dst_context._issue_start(COPY_STREAM, None, start)
                    up = dst_context.host_transfer_grant(
                        "h2d", payload.nbytes,
                        start=up_start, label=f"recover:{src}->{dst}",
                    )
                    up_interval = dst_context.timeline.schedule(
                        "h2d", f"recover:{src}->{dst}", up.duration,
                        stream=COPY_STREAM, not_before=start,
                    )
                    dst_context.stats.transfer_time += up.duration
                    dst_context.stats.h2d_bytes += payload.nbytes
                    arrivals[dst] = max(arrivals.get(dst, 0.0), up_interval.end)
                    continue
                start = max(src_sub._sync_time, dst_sub._sync_time)
                if src_sub.context.can_access_peer(dst_sub.context):
                    arrival = src_sub.context.copy_peer_async(
                        dst_sub.context,
                        f"migrate:{id(self)}:{src}:{dst}",
                        payload,
                        not_before=start,
                    )
                    arrival_time = arrival.time
                else:
                    # No peer link: the rows take the classic host round trip
                    # (device -> host -> device), both legs routed through
                    # the interconnect engine so migrations contend on a
                    # shared uplink like any other host transfer.
                    src_context, dst_context = src_sub.context, dst_sub.context
                    down_start = src_context._issue_start(DOWNLOAD_STREAM, None, start)
                    down = src_context.host_transfer_grant(
                        "d2h", payload.nbytes,
                        start=down_start, label=f"migrate:{src}->{dst}",
                    )
                    interval = src_context.timeline.schedule(
                        "d2h", f"migrate:{src}->{dst}", down.duration,
                        stream=DOWNLOAD_STREAM, not_before=start,
                    )
                    src_context.stats.transfer_time += down.duration
                    src_context.stats.d2h_bytes += payload.nbytes
                    up_start = dst_context._issue_start(COPY_STREAM, None, interval.end)
                    up = dst_context.host_transfer_grant(
                        "h2d", payload.nbytes,
                        start=up_start, label=f"migrate:{src}->{dst}",
                    )
                    up_interval = dst_context.timeline.schedule(
                        "h2d", f"migrate:{src}->{dst}", up.duration,
                        stream=COPY_STREAM, not_before=interval.end,
                    )
                    dst_context.stats.transfer_time += up.duration
                    dst_context.stats.h2d_bytes += payload.nbytes
                    arrival_time = up_interval.end
                arrivals[dst] = max(arrivals.get(dst, 0.0), arrival_time)
                arrivals[src] = max(arrivals.get(src, 0.0), arrival_time)

        # Rebuild every device's session slice from the global snapshot.
        for index, (evaluator, (lo, hi)) in enumerate(
            zip(self._sub_evaluators, new_ranges)
        ):
            if hi <= lo:
                if evaluator._resident is not None:
                    evaluator.end_search()
                continue
            stamps = global_tabu[lo:hi] if tabu_resident else None
            evaluator._adopt_resident(
                global_block[lo:hi],
                tenure=self._resident_tenure,
                stamps=stamps,
                arrival=arrivals.get(index, 0.0),
            )
            mask = (staged_global[:, 0] >= lo) & (staged_global[:, 0] < hi)
            if mask.any():
                local = staged_global[mask].copy()
                local[:, 0] -= lo
                evaluator._staged_deltas = [local.astype(DELTA_DTYPE)]
        self._replica_ranges = new_ranges
        return migrated

    # -- checkpointing ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Checkpoint the pool: shared engine, host timeline, every device.

        Sub-evaluator snapshots exclude the shared :class:`TransferEngine`
        (it is captured once at pool level), and the pool additionally
        records the elastic-fleet mask plus the resident session layout.
        """
        snap = super().snapshot_state()
        snap["engine"] = self.pool.engine.snapshot()
        snap["host_timeline"] = self.scheduler.host_timeline.snapshot()
        snap["subs"] = [
            evaluator.snapshot_state(include_engine=False)
            for evaluator in self._sub_evaluators
        ]
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
        """Install a pool :meth:`snapshot_state`, replacing any live session."""
        self.end_search()
        super().restore_state(snap)
        self.pool.engine.restore(snap["engine"])
        self.scheduler.host_timeline.restore(snap["host_timeline"])
        subs = snap["subs"]
        if len(subs) != len(self._sub_evaluators):
            raise ValueError(
                f"checkpoint covers {len(subs)} devices, pool has "
                f"{len(self._sub_evaluators)}"
            )
        for evaluator, sub_snap in zip(self._sub_evaluators, subs):
            evaluator.restore_state(sub_snap)
        self._device_active = [bool(flag) for flag in snap["device_active"]]
        ranges = snap.get("replica_ranges")
        self._replica_ranges = (
            [(int(lo), int(hi)) for lo, hi in ranges] if ranges is not None else None
        )
        self._persistent = bool(snap.get("persistent", False))
        tenure = snap.get("resident_tenure")
        self._resident_tenure = int(tenure) if tenure is not None else None

    def end_search(self) -> None:
        closing = [
            evaluator
            for evaluator in self._sub_evaluators
            if evaluator._loop is not None and not evaluator._loop.closed
        ]
        for evaluator in self._sub_evaluators:
            evaluator.end_search()
        if closing:
            # The devices close their persistent launches concurrently: the
            # pool pays the largest launch overhead once.
            self.stats.simulated_time += max(
                evaluator.last_persistent_record.launch_overhead for evaluator in closing
            )
        # Drop this evaluator's own pool-level buffers (the delta hub packet,
        # migration payloads, and the per-device scratch slices — all named
        # with this evaluator's id, so the context's owner-based free covers
        # them; the scratch buffers are reallocated on demand).
        for context in self.pool.contexts:
            context.free_evaluator_buffers(self)
        self._replica_ranges = None
        self._persistent = False
        self._resident_tenure = None

    def close(self) -> None:
        """Release every sub-evaluator's persistent device buffers."""
        self.end_search()
        for evaluator in self._sub_evaluators:
            evaluator.close()
            evaluator.context.free_evaluator_buffers(self)
