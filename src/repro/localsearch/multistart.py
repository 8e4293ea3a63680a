"""Lockstep multi-start execution: many independent searches per evaluation.

The paper's experimental protocol runs 50 independent tabu-search trials per
instance; the serial harness replays them one after the other, paying the
per-iteration evaluation overhead (kernel launch, transfers, NumPy dispatch)
once per replica per iteration.  :class:`MultiStartRunner` instead advances
``R`` independent replicas *in lockstep*: each iteration performs exactly one
batched :meth:`~repro.core.evaluators.NeighborhoodEvaluator.evaluate_many`
call over the still-active replicas — on the GPU backend a single
``S x M``-thread launch — and applies a vectorized selection rule per
replica.

The per-replica state lives on the runner as one struct of arrays (one row
per replica: solutions, fitnesses, counters, accounting, budget/target,
stopping reason, history, tabu stamps) advanced by one private step.  The
closed :meth:`MultiStartRunner.run` and the slot-leasing
:class:`~repro.service.continuous.ContinuousRunner` both drive that step,
and checkpoints, suspend and resume all move rows through the one
:meth:`~MultiStartRunner.export_rows`/:meth:`~MultiStartRunner.import_rows`
pair.

This is the library's only search loop: the single searches
(:class:`~repro.localsearch.tabu.TabuSearch` and the hill climbers) are
one-row runs of it, so a replica follows bit-for-bit the same trajectory as
a standalone search with the same seed by definition.  Every replica's
selection goes through :func:`~repro.core.evaluators._select_step`, the one
copy of the selection rules: the runner applies it to the downloaded
fitness block (``full``/``delta``, with the tabu stamps on the host) and a
resident pool next to its fused reduction (``reduced``/``persistent``, with
the tabu stamps on the device).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.evaluators import NeighborhoodEvaluator, _select_step
from ..gpu.dtypes import TABU_NEVER
from ..gpu.faults import FaultEvent, FaultPlan
from ..problems.incremental import (
    attach_gain_engine,
    create_gain_engine,
    detach_gain_engine,
)
from .result import LSResult

__all__ = [
    "CHECKPOINT_VERSION",
    "MultiStartResult",
    "MultiStartRunner",
    "REDUCED_SELECTION_MODES",
    "TRANSFER_MODES",
    "check_transfer_mode",
]

#: How candidate data moves between host and (simulated) device each iteration:
#:
#: * ``"full"``    — upload the solutions, download every fitness (the seed
#:   behaviour, and the only possibility on the CPU backends);
#: * ``"delta"``   — the solution block stays device-resident, only the
#:   flipped-bit ``(replica, bit)`` pairs go up; the fitness matrix still
#:   comes down for host-side selection;
#: * ``"reduced"`` — delta uploads plus the fused neighborhood+reduction
#:   launch: only the per-replica best ``(index, fitness)`` pair comes down;
#: * ``"persistent"`` — the whole iteration loop runs inside **one**
#:   persistent launch per run: delta scatter, evaluation, fused reduction
#:   and tabu update all happen on-device, the host only drains a
#:   16 B/replica result ring and writes an ``O(S)`` early-stop flag, and
#:   the kernel launch overhead is paid once instead of once per iteration.
TRANSFER_MODES = ("full", "delta", "reduced", "persistent")

#: The modes whose per-iteration selection happens inside the fused
#: on-device reduction (the host sees only ``(index, fitness)`` pairs).
REDUCED_SELECTION_MODES = ("reduced", "persistent")


def check_transfer_mode(transfer_mode: str, evaluator: NeighborhoodEvaluator) -> str:
    """Validate ``transfer_mode`` against the evaluator's capabilities.

    Shared by every search driver (the lockstep runner and the single
    searches built on it, the solve server's runner and the VNS wrapper)
    so they all reject unknown modes and non-resident backends with the
    same error.
    """
    if transfer_mode not in TRANSFER_MODES:
        raise ValueError(
            f"unknown transfer_mode {transfer_mode!r}; expected one of {TRANSFER_MODES}"
        )
    if transfer_mode != "full" and not evaluator.supports_device_residency:
        raise ValueError(
            f"transfer_mode={transfer_mode!r} needs a device-resident evaluator "
            f"(got {type(evaluator).__name__}); use the GPU backends or \"full\""
        )
    return transfer_mode

#: Version tag written into every runner checkpoint.  Bumped whenever the
#: checkpoint layout changes; :meth:`MultiStartRunner.run` refuses to resume
#: from a different version instead of silently misreading it.  The rows are
#: one :meth:`MultiStartRunner.export_rows` payload (per-row histories,
#: budgets and targets, since version 2).  Version 3 snapshots a single GPU
#: as the one-device pool it is; versions 1 and 2 are not readable.
CHECKPOINT_VERSION = 3

#: Sentinel for "move never applied" in the host tabu memory (matches the
#: device-resident tabu memory).
_NEVER = TABU_NEVER

#: Per-row arrays of the lockstep state: attribute -> (dtype, whether a row
#: is a length-``n`` solution rather than one scalar).
_ROW_ARRAYS = {
    "current": (np.int8, True),
    "current_fitness": (np.float64, False),
    "initial_fitness": (np.float64, False),
    "best": (np.int8, True),
    "best_fitness": (np.float64, False),
    "iterations": (np.int64, False),
    "evaluations": (np.int64, False),
    "sim_share": (np.float64, False),
    "wall_share": (np.float64, False),
    "budgets": (np.int64, False),
    "targets": (np.float64, False),
    "active": (np.bool_, False),
}

#: Stopping reasons a row can carry while it is part of the batch.
_REASONS = ("max_iterations", "target_reached", "local_optimum")


def _check_array(state: dict, key: str, dtype, shape: tuple[int, ...]) -> None:
    value = state.get(key)
    if not isinstance(value, np.ndarray) or value.dtype != dtype or value.shape != shape:
        got = (
            f"{value.dtype} array of shape {value.shape}"
            if isinstance(value, np.ndarray)
            else repr(type(value).__name__)
        )
        raise ValueError(
            f"row state field {key!r} must be a {np.dtype(dtype)} array of shape "
            f"{shape}, got {got}"
        )


@dataclass
class MultiStartResult:
    """Per-replica results of one lockstep multi-start run."""

    #: One :class:`LSResult` per replica, in replica order.
    results: list[LSResult] = field(default_factory=list)
    #: Wall-clock time of the whole batched run.
    wall_time: float = 0.0
    #: Simulated time accumulated by the evaluator over the whole run (the
    #: batched launches are shared by all replicas — this is the elapsed
    #: simulated time of the multi-start, not a per-replica sum).
    simulated_time: float = 0.0
    #: Number of lockstep iterations executed (the longest replica's count).
    iterations: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[LSResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> LSResult:
        return self.results[index]

    @property
    def num_successes(self) -> int:
        return sum(r.success for r in self.results)

    @property
    def best(self) -> LSResult:
        """The replica that found the lowest fitness (ties: lowest index)."""
        if not self.results:
            raise ValueError("empty multi-start result")
        return min(self.results, key=lambda r: r.best_fitness)

    @property
    def best_fitness(self) -> float:
        return self.best.best_fitness

    def summary(self) -> str:
        return (
            f"{len(self.results)} replicas: best fitness {self.best_fitness:g}, "
            f"{self.num_successes} successes, {self.iterations} lockstep iterations"
        )


class MultiStartRunner:
    """Advance ``R`` independent local searches with one batched evaluation per step.

    Parameters
    ----------
    evaluator:
        Neighborhood evaluator (binds problem + neighborhood + platform).
        Any backend works; the GPU backend turns every lockstep iteration
        into a single ``S x M``-thread launch.
    algorithm:
        Vectorized selection rule: ``"tabu"`` (the paper's robust taboo
        search), ``"hill-climbing"`` (steepest descent) or
        ``"first-improvement"``.
    tenure:
        Tabu tenure; defaults to the paper's ``|N| / 6`` rule (floor 1).
    aspiration:
        Classic aspiration criterion for the tabu rule.
    max_iterations:
        Per-replica iteration cap; defaults to the paper's
        ``n(n-1)(n-2)/6``.
    target_fitness:
        A replica stops (reason ``"target_reached"``) once its best fitness
        is at or below this value.
    track_history:
        Record each replica's best fitness after every one of its
        iterations.
    transfer_mode:
        One of :data:`TRANSFER_MODES`.  ``"delta"`` keeps the solution
        block device-resident and uploads only flipped bits; ``"reduced"``
        additionally runs the fused on-device reduction so only
        ``(index, fitness)`` pairs come back — 16 bytes per replica
        instead of the whole fitness row; ``"persistent"`` folds the whole
        lockstep loop into a single persistent launch per run (the tabu
        memory lives on-device, the host drains a 16 B/replica result ring
        and writes ``O(S)`` early-stop flags, and the launch overhead is
        paid once).  All need a device-resident evaluator and follow
        bit-identical trajectories to ``"full"``.
    rebalance_every:
        Every this many lockstep iterations, ask a multi-device resident
        evaluator to migrate replicas between devices so the *still-active*
        replicas stay split proportionally to device throughput (replicas
        that stopped early otherwise leave their device underloaded while
        others stay full).  Purely a placement/timing optimization over the
        peer links — trajectories are bit-identical with or without it.
        Ignored in ``"full"`` mode (nothing is resident) and in
        ``"persistent"`` mode (the launches are pinned to their devices for
        the whole run).
    """

    ALGORITHMS = ("tabu", "hill-climbing", "first-improvement")

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        algorithm: str = "tabu",
        tenure: int | None = None,
        aspiration: bool = True,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
        rebalance_every: int | None = None,
    ) -> None:
        if algorithm not in self.ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {self.ALGORITHMS}"
            )
        if rebalance_every is not None and rebalance_every <= 0:
            raise ValueError(
                f"rebalance_every must be positive, got {rebalance_every}"
            )
        self.transfer_mode = check_transfer_mode(transfer_mode, evaluator)
        self.evaluator = evaluator
        self.problem = evaluator.problem
        self.neighborhood = evaluator.neighborhood
        self.algorithm = algorithm
        if max_iterations is None:
            n = self.problem.n
            max_iterations = n * (n - 1) * (n - 2) // 6
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        if tenure is None:
            tenure = max(1, self.neighborhood.size // 6)
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        self.tenure = int(tenure)
        self.aspiration = bool(aspiration)
        self.target_fitness = float(target_fitness)
        self.track_history = bool(track_history)
        self.rebalance_every = rebalance_every

        self._resident = self.transfer_mode != "full"
        self._reduced = self.transfer_mode in REDUCED_SELECTION_MODES
        # Selection in the fused reduction takes the tabu memory with it onto
        # the device: the host then never materializes the O(S·M) stamps.
        self._device_tabu = self._reduced and algorithm == "tabu"
        self._host_tabu = algorithm == "tabu" and not self._device_tabu
        self._rebalance = (
            rebalance_every if self._resident and self.transfer_mode != "persistent" else None
        )

    # ------------------------------------------------------------------
    def _initial_block(
        self,
        replicas: int | None,
        seeds: Sequence[int] | None,
        rng: np.random.Generator | int | None,
        initial_solutions: np.ndarray | None,
    ) -> np.ndarray:
        """Resolve the ``(R, n)`` block of starting points.

        With ``seeds``, replica ``r`` draws its start from
        ``np.random.default_rng(seeds[r])`` exactly like a standalone
        ``search.run(rng=seeds[r])`` — that is what makes the batched
        harness bit-compatible with one standalone search per trial.
        """
        if initial_solutions is not None:
            block = np.array(initial_solutions, dtype=np.int8)
            if block.ndim != 2 or block.shape[1] != self.problem.n:
                raise ValueError(
                    f"expected an (R, {self.problem.n}) block of initial solutions, "
                    f"got {block.shape}"
                )
            if replicas is not None and replicas != block.shape[0]:
                raise ValueError("replicas does not match the initial solution count")
            # One reduction: int8 values outside {0, 1} read as unsigned exceed 1.
            if block.size and block.view(np.uint8).max() > 1:
                raise ValueError("initial solutions must contain only 0/1 values")
        else:
            if seeds is not None:
                if replicas is not None and replicas != len(seeds):
                    raise ValueError("replicas does not match the number of seeds")
                streams = [np.random.default_rng(seed) for seed in seeds]
            else:
                if replicas is None:
                    raise ValueError("need replicas, seeds or initial_solutions")
                if replicas <= 0:
                    raise ValueError(f"replicas must be positive, got {replicas}")
                streams = np.random.default_rng(rng).spawn(replicas)
            block = np.array(
                [self.problem.random_solution(stream) for stream in streams], dtype=np.int8
            ).reshape(len(streams), self.problem.n)
        if not block.shape[0]:
            raise ValueError(
                "a replica group needs at least one replica; got no seeds or an "
                f"empty (0, {self.problem.n}) block of initial solutions"
            )
        return block

    # ------------------------------------------------------------------
    # Row state
    # ------------------------------------------------------------------
    def _open_rows(self, state: dict, *, session: dict | None = None) -> None:
        """Allocate the row state as a copy of ``state`` and open the session.

        In the resident transfer modes the start block ``state["current"]``
        crosses PCIe once, here (``"persistent"`` also opens the run's single
        persistent launch); afterwards only flipped-bit deltas go up.  With
        ``session`` — an evaluator :meth:`snapshot_state` payload — the
        checkpointed session is reinstalled instead, without a new upload.
        """
        for key in _ROW_ARRAYS:
            setattr(self, key, np.array(state[key]))
        self.reasons = np.array(state["reasons"], dtype=object)
        self.histories: list[list[float]] = [list(h) for h in state["histories"]]
        self.last_applied = np.array(state["last_applied"]) if self._host_tabu else None
        self.lockstep = 0
        self._stack = contextlib.ExitStack()
        try:
            # Incremental gain cache: the one batched evaluation per lockstep
            # iteration is served from persistent per-row gain state advanced
            # by the committed moves; the engine re-derives any row whose
            # solution changed outside a commit (new tenants, faults,
            # restores), so trajectories stay bit-identical to the recompute
            # path.  Gain state is derived data — never checkpointed.  It
            # pays from two rows up: at one row (the single searches) it
            # measured 0.96-1.22x the fast scorers' step time, no clear win.
            count = self.current.shape[0]
            self._gain_engine = (
                create_gain_engine(self.problem, rows_hint=count) if count > 1 else None
            )
            prev_engine = attach_gain_engine(self.problem, self._gain_engine)
            self._stack.callback(detach_gain_engine, self.problem, prev_engine)
            if session is not None:
                self.evaluator.restore_state(session)
            elif self._resident:
                self.evaluator.begin_search(
                    self.current, persistent=self.transfer_mode == "persistent"
                )
                if self._device_tabu:
                    self.evaluator.init_tabu_memory(self.tenure)
            if self._resident:
                self._stack.callback(self.evaluator.end_search)
        except BaseException:
            self._stack.close()
            raise

    def _close_rows(self) -> None:
        """End the resident session and detach the gain engine."""
        self._stack.close()
        self._gain_engine = None

    def _fresh_rows(self, block: np.ndarray, budgets, targets) -> dict:
        """The row state a standalone run starts from, for the starts in ``block``."""
        count = block.shape[0]
        fitness = np.asarray(self.problem.evaluate_batch(block), dtype=np.float64)
        return {
            "current": block,
            "current_fitness": fitness,
            "initial_fitness": fitness,
            "best": block,
            "best_fitness": fitness,
            "iterations": np.zeros(count, dtype=np.int64),
            "evaluations": np.zeros(count, dtype=np.int64),
            "sim_share": np.zeros(count, dtype=np.float64),
            "wall_share": np.zeros(count, dtype=np.float64),
            "budgets": np.full(count, budgets, dtype=np.int64),
            "targets": np.full(count, targets, dtype=np.float64),
            "active": np.ones(count, dtype=bool),
            "reasons": ["max_iterations"] * count,
            "histories": [[] for _ in range(count)],
            "last_applied": (
                np.broadcast_to(np.int64(_NEVER), (count, self.neighborhood.size))
                if self._host_tabu
                else None
            ),
        }

    def export_rows(self, rows) -> dict:
        """Copy out the host-side state of ``rows`` — what :meth:`import_rows` takes.

        Solutions, fitness/best/counter arrays, accrued accounting,
        budgets/targets, ``active``/``reasons``, per-row histories and the
        host tabu stamps (``None`` when tabu is off or device-resident).
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        state = {key: getattr(self, key)[rows] for key in _ROW_ARRAYS}
        state["reasons"] = [str(reason) for reason in self.reasons[rows]]
        state["histories"] = [list(self.histories[row]) for row in rows.tolist()]
        state["last_applied"] = (
            self.last_applied[rows] if self.last_applied is not None else None
        )
        return state

    def import_rows(self, rows, state: dict) -> None:
        """Validate an :meth:`export_rows` payload and install it into ``rows``.

        The resident solution copy is patched with a flipped-bit delta
        packet — the XOR difference against whatever the rows last held —
        priced like any other delta upload.  The gain engine's mirror check
        re-derives exactly the changed rows at the next evaluation.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        self._check_rows(state, rows.size)
        if self._resident:
            flipped, bits = np.nonzero(self.current[rows] ^ state["current"])
            if flipped.size:
                self.evaluator.apply_deltas(rows[flipped], bits)
        for key in _ROW_ARRAYS:
            getattr(self, key)[rows] = state[key]
        self.reasons[rows] = state["reasons"]
        for row, history in zip(rows.tolist(), state["histories"]):
            self.histories[row] = list(history)
        if self.last_applied is not None:
            self.last_applied[rows] = state["last_applied"]

    def _check_rows(self, state, count: int | None = None) -> int:
        """Validate an :meth:`export_rows` payload of ``count`` rows (default:
        the rows of its solution block) and return the row count; raises
        :class:`ValueError` naming the first field with a wrong type, dtype,
        shape or value.
        """
        if not isinstance(state, dict):
            raise ValueError(f"row state must be a dict, got {type(state).__name__}")
        if count is None:
            current = state.get("current")
            if not isinstance(current, np.ndarray) or current.ndim != 2:
                raise ValueError("row state has no (R, n) 'current' solution block")
            count = current.shape[0]
        n, size = self.problem.n, self.neighborhood.size
        for key, (dtype, solution) in _ROW_ARRAYS.items():
            _check_array(state, key, dtype, (count, n) if solution else (count,))
        if self._host_tabu:
            _check_array(state, "last_applied", np.int64, (count, size))
        elif state.get("last_applied") is not None:
            raise ValueError(
                "row state field 'last_applied' must be None: this runner keeps no "
                "host tabu stamps"
            )
        for key in ("current", "best"):
            if ((state[key] != 0) & (state[key] != 1)).any():
                raise ValueError(f"row state field {key!r} must hold 0/1 solutions")
        if (state["budgets"] < 0).any():
            raise ValueError("budgets must be non-negative")
        reasons, histories = state.get("reasons"), state.get("histories")
        if not (
            isinstance(reasons, list)
            and len(reasons) == count
            and all(reason in _REASONS for reason in reasons)
        ):
            raise ValueError(f"row state field 'reasons' must list {count} of {_REASONS}")
        if not (
            isinstance(histories, list)
            and len(histories) == count
            and all(
                isinstance(history, list) and all(isinstance(v, float) for v in history)
                for history in histories
            )
        ):
            raise ValueError(f"row state field 'histories' must hold {count} lists of floats")
        return count

    def _harvest(self, rows: np.ndarray) -> list[LSResult]:
        """One :class:`LSResult` per row, in ``rows`` order."""
        return [
            LSResult(
                best_solution=self.best[row].copy(),
                best_fitness=float(self.best_fitness[row]),
                iterations=int(self.iterations[row]),
                evaluations=int(self.evaluations[row]),
                success=self.problem.is_solution(float(self.best_fitness[row])),
                stopping_reason=str(self.reasons[row]),
                simulated_time=float(self.sim_share[row]),
                wall_time=float(self.wall_share[row]),
                initial_fitness=float(self.initial_fitness[row]),
                history=self.histories[row],
            )
            for row in rows.tolist()
        ]

    # ------------------------------------------------------------------
    # The lockstep step
    # ------------------------------------------------------------------
    def _retire(self) -> np.ndarray:
        """Stop the rows that are done and return them.

        Per-row stopping checks in the order of a single search: the target
        first, then the iteration budget.
        """
        reached = self.best_fitness <= self.targets
        finished = self.active & (reached | (self.iterations >= self.budgets))
        rows = finished.nonzero()[0]
        if rows.size:
            self.reasons[rows[reached[rows]]] = "target_reached"
            self.active[rows] = False
        return rows

    def _advance(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Advance every active row one lockstep iteration.

        Rebalance (placement only) → one batched evaluation + vectorized
        selection → apply the moves → account.  Returns ``(active_idx,
        stopped, sim_elapsed)``: the rows that evaluated, those among them
        that stopped at a local optimum, and the simulated seconds added.
        """
        if self._rebalance and self.lockstep and self.lockstep % self._rebalance == 0:
            # Timing/placement only: keep the still-active rows split
            # proportionally to device throughput.  Replica ids are global,
            # so trajectories and the gain engine's rows are unchanged.
            self.evaluator.rebalance_resident(active=self.active)
        self.lockstep += 1
        active_idx = self.active.nonzero()[0]
        # While every row is active (always, for a single search) the row
        # bookkeeping indexes with a slice: views instead of gathers.
        rows = slice(None) if active_idx.size == self.active.size else active_idx

        step_wall = time.perf_counter()
        step_sim = self.evaluator.stats.simulated_time
        if self._gain_engine is not None:
            self._gain_engine.expect(active_idx)
        move_idx, fitness, optima = self._select(active_idx, rows)
        sim_elapsed = self.evaluator.stats.simulated_time - step_sim
        self.sim_share[rows] += sim_elapsed / active_idx.size
        self.evaluations[rows] += self.neighborhood.size
        movers, mover_rows, stopped = active_idx, rows, active_idx[:0]
        # count_nonzero: the cheapest any() on these small per-step masks.
        if optima is not None and np.count_nonzero(optima):
            stopped = active_idx[optima]
            self.reasons[stopped] = "local_optimum"
            self.active[stopped] = False
            keep = ~optima
            movers, move_idx, fitness = active_idx[keep], move_idx[keep], fitness[keep]
            mover_rows = movers

        if movers.size:
            # Decoded from the table the evaluation kernels share.
            moves = self.neighborhood.move_table[move_idx]
            self.current[movers[:, None], moves] ^= 1
            if self._gain_engine is not None:
                self._gain_engine.commit(movers, moves)
            if self._resident:
                # Delta packet: one (replica, bit) pair per flipped bit (free
                # inside a persistent launch — the resident grid scattered
                # its own selection).
                self.evaluator.apply_deltas(
                    np.repeat(movers, moves.shape[1]), moves.reshape(-1)
                )
            self.current_fitness[mover_rows] = fitness
            if self.last_applied is not None:
                self.last_applied[movers, move_idx] = self.iterations[mover_rows]
            improved = fitness < self.best_fitness[mover_rows]
            if np.count_nonzero(improved):
                better = movers[improved]
                self.best[better] = self.current[better]
                self.best_fitness[better] = fitness[improved]
            self.iterations[mover_rows] += 1
            if self.track_history:
                history = self.best_fitness[mover_rows].tolist()
                for row, value in zip(movers.tolist(), history):
                    self.histories[row].append(value)
        self.wall_share[rows] += (time.perf_counter() - step_wall) / active_idx.size
        return active_idx, stopped, sim_elapsed

    def _select(
        self, active_idx: np.ndarray, rows
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Evaluate the active rows' neighborhoods and pick one move per row.

        ``rows`` indexes the active rows of the row state (``active_idx`` or,
        when every row is active, a full slice).

        Returns ``(indices, selected_fitness, stop_mask)``; ``stop_mask``
        marks rows at a local optimum (hill-climbing rules only, ``None``
        for tabu).  The rule is :func:`~repro.core.evaluators._select_step`,
        applied here to the downloaded fitness block (``full``/``delta``,
        with the host tabu stamps) or by the evaluator next to its fused
        reduction (``reduced``/``persistent``, where only ``(index,
        fitness)`` pairs come back and the tabu stamps live on the device),
        so every mode selects the same moves.
        """
        if self._reduced:
            def reduce(op, **kwargs):
                return self.evaluator.evaluate_resident(active_idx, reduce=op, **kwargs)
        else:
            fitnesses = (
                self.evaluator.evaluate_resident(active_idx)
                if self._resident
                else self.evaluator.evaluate_many(self.current[rows])
            )

            def reduce(op, *, aspiration_fitness=None, thresholds=None, tabu_iterations=None):
                tabu = None
                if tabu_iterations is not None:
                    tabu = (tabu_iterations, self.last_applied[rows], self.tenure)
                return _select_step(fitnesses, op, aspiration_fitness, thresholds, tabu)

        if self.algorithm == "hill-climbing":
            indices, selected = reduce("argmin")
            return indices, selected, selected >= self.current_fitness[rows]
        if self.algorithm == "first-improvement":
            indices, selected = reduce(
                "first-improvement", thresholds=self.current_fitness[rows]
            )
            return indices, selected, indices < 0
        indices, selected = reduce(
            "argmin",
            tabu_iterations=self.iterations[rows],
            aspiration_fitness=self.best_fitness[rows] if self.aspiration else None,
        )
        return indices, selected, None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_config(self, replicas: int) -> dict:
        """The runner parameters a checkpoint must match to be resumable."""
        return {
            "problem": self.problem.name,
            "n": self.problem.n,
            "neighborhood": self.neighborhood.size,
            "algorithm": self.algorithm,
            "tenure": self.tenure,
            "aspiration": self.aspiration,
            "max_iterations": self.max_iterations,
            "target_fitness": self.target_fitness,
            "track_history": self.track_history,
            "transfer_mode": self.transfer_mode,
            "replicas": replicas,
        }

    def _checkpoint(self) -> dict:
        """Every row plus the evaluator session, version-tagged."""
        rows = np.arange(self.current.shape[0])
        return {
            "version": CHECKPOINT_VERSION,
            "config": self._checkpoint_config(rows.size),
            "lockstep": self.lockstep,
            "state": self.export_rows(rows),
            "evaluator": self.evaluator.snapshot_state(),
        }

    def _check_checkpoint(self, ckpt) -> dict:
        """Validate a checkpoint against this runner; returns its row state."""
        version = ckpt.get("version") if isinstance(ckpt, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r}; this build writes "
                f"version {CHECKPOINT_VERSION} and reads no other, so restart the "
                "run to resume from a fresh checkpoint"
            )
        config = ckpt.get("config")
        replicas = config.get("replicas") if isinstance(config, dict) else None
        if not isinstance(replicas, int) or replicas <= 0:
            raise ValueError(f"checkpoint config has no valid replica count: {replicas!r}")
        expected = self._checkpoint_config(replicas)
        mismatched = [key for key in expected if config.get(key) != expected[key]]
        if mismatched:
            raise ValueError(
                "checkpoint does not match this runner's configuration; "
                f"differing keys: {mismatched}"
            )
        lockstep = ckpt.get("lockstep")
        if not isinstance(lockstep, int) or lockstep < 0:
            raise ValueError(f"checkpoint lockstep must be a non-negative int, got {lockstep!r}")
        if not isinstance(ckpt.get("evaluator"), dict):
            raise ValueError("checkpoint has no evaluator snapshot")
        self._check_rows(ckpt.get("state"), replicas)
        return ckpt["state"]

    # ------------------------------------------------------------------
    def _apply_fault(self, event: FaultEvent) -> None:
        """Apply one :class:`~repro.gpu.faults.FaultEvent` at a lockstep boundary.

        Fail/join only move replicas between devices; replica ids are
        global, so the gain engine's rows stay valid.
        """
        if event.kind == "fail":
            self.evaluator.fail_device(event.arg)
        elif event.kind == "join":
            self.evaluator.join_device(event.arg)
        else:  # flaky
            engine = getattr(getattr(self.evaluator, "pool", None), "engine", None)
            if engine is None:
                raise RuntimeError(
                    f"fault {event} needs a GPU evaluator with a transfer engine, "
                    f"got {type(self.evaluator).__name__}"
                )
            engine.inject_transfer_faults(retries=max(1, event.arg))

    def _check_fault_plan(self, plan: FaultPlan, fleet, start: int) -> None:
        """Replay the plan's fail/join events over a copy of the fleet mask.

        ``fleet`` is the device mask the run starts from (``None`` without a
        device pool; one device can neither fail nor take a join) and
        ``start`` the first lockstep the run executes.  Raises :class:`ValueError` naming the first event that
        could not apply, before anything is priced.  Events after the last
        iteration stay legal: a run can stop early.
        """
        events = [event for event in plan.device_events() if event.at >= start]
        if not events:
            return
        if fleet is None or len(fleet) == 1:
            raise ValueError(
                f"fault {events[0]} needs a multi-device evaluator, got "
                f"{type(self.evaluator).__name__}"
            )
        if self.transfer_mode == "persistent":
            raise ValueError(
                f"fault {events[0]}: persistent launches pin replicas to their "
                "devices for the whole run"
            )
        active = [bool(flag) for flag in fleet]
        for event in events:
            if not 0 <= event.arg < len(active):
                raise ValueError(
                    f"fault {event}: device index out of range (pool has {len(active)})"
                )
            if event.kind == "join":
                if active[event.arg]:
                    raise ValueError(f"fault {event}: device {event.arg} is already active")
            elif not active[event.arg]:
                raise ValueError(f"fault {event}: device {event.arg} is already inactive")
            elif sum(active) == 1:
                raise ValueError(f"fault {event}: cannot fail the last active device")
            active[event.arg] = event.kind == "join"

    # ------------------------------------------------------------------
    def run(
        self,
        replicas: int | None = None,
        *,
        seeds: Sequence[int] | None = None,
        rng: np.random.Generator | int | None = None,
        initial_solutions: np.ndarray | None = None,
        checkpoint_every: int | None = None,
        checkpoint_callback=None,
        fault_plan: FaultPlan | str | None = None,
        resume: dict | None = None,
    ) -> MultiStartResult:
        """Run all replicas to completion and return their per-replica results.

        ``checkpoint_every`` invokes ``checkpoint_callback(checkpoint)`` every
        that many lockstep iterations with a version-tagged dict capturing the
        full search state (every row's :meth:`export_rows` state + evaluator
        session/accounting); feed it to
        :func:`repro.harness.io.save_checkpoint` or keep it in memory.
        ``resume`` takes such a checkpoint and continues the run from it — the
        continuation is bit-identical to the uninterrupted run (trajectories,
        byte counters, makespans), assuming the evaluator is freshly
        constructed with the same spec.  ``fault_plan`` (a
        :class:`~repro.gpu.faults.FaultPlan` or its string syntax) injects
        failures at lockstep boundaries; see :mod:`repro.gpu.faults`.  Its
        fail/join events are checked against the fleet before the run
        starts.
        """
        start_wall = time.perf_counter()
        start_sim = self.evaluator.stats.simulated_time

        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ValueError(
                    f"checkpoint_every must be positive, got {checkpoint_every}"
                )
            if checkpoint_callback is None:
                raise ValueError("checkpoint_every requires a checkpoint_callback")
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        if resume is not None:
            if any(
                value is not None
                for value in (replicas, seeds, rng, initial_solutions)
            ):
                raise ValueError(
                    "resume is mutually exclusive with replicas/seeds/rng/"
                    "initial_solutions; the checkpoint carries the population"
                )
            state, session = self._check_checkpoint(resume), resume["evaluator"]
            fleet = session.get("device_active")
            start = resumed_at = resume["lockstep"]
        else:
            block = self._initial_block(replicas, seeds, rng, initial_solutions)
            state = self._fresh_rows(block, self.max_iterations, self.target_fitness)
            session, start, resumed_at = None, 0, -1
            fleet = getattr(self.evaluator, "device_active", None)
        if fault_plan is not None:
            self._check_fault_plan(fault_plan, fleet, start)
        self._open_rows(state, session=session)
        self.lockstep = start
        try:
            while True:
                self._retire()
                if not np.count_nonzero(self.active):
                    break
                # Checkpoint before same-boundary faults: a resumed run re-applies
                # the faults due at the checkpointed lockstep, replaying exactly
                # what the uninterrupted run did after taking the checkpoint.
                if (
                    checkpoint_every
                    and self.lockstep
                    and self.lockstep % checkpoint_every == 0
                    and self.lockstep != resumed_at
                ):
                    checkpoint_callback(self._checkpoint())
                if fault_plan is not None:
                    for event in fault_plan.due(self.lockstep):
                        self._apply_fault(event)
                self._advance()
        finally:
            self._close_rows()

        simulated_time = self.evaluator.stats.simulated_time - start_sim
        if self._resident:
            # The steps priced themselves into their rows' shares; what the
            # resident session priced outside them (open, close, rebalance
            # and fault migrations) is spread evenly over the rows, so the
            # per-row times add up to the run's.
            self.sim_share += (simulated_time - self.sim_share.sum()) / self.sim_share.size
        return MultiStartResult(
            results=self._harvest(np.arange(self.current.shape[0])),
            wall_time=time.perf_counter() - start_wall,
            simulated_time=simulated_time,
            iterations=self.lockstep,
        )


class _SingleSearch(MultiStartRunner):
    """One search from one start: a one-row :class:`MultiStartRunner` run.

    The base of :class:`~repro.localsearch.tabu.TabuSearch` and the hill
    climbers; they only fix the selection rule.
    """

    def run(
        self,
        initial_solution: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> LSResult:
        """Search from ``initial_solution`` (default: a random start drawn from ``rng``)."""
        if initial_solution is None:
            initial_solution = self.problem.random_solution(np.random.default_rng(rng))
        batch = super().run(
            initial_solutions=np.asarray(initial_solution, dtype=np.int8)[None, :]
        )
        # The lone row owns the whole run, setup and teardown included.
        result = batch.results[0]
        result.simulated_time, result.wall_time = batch.simulated_time, batch.wall_time
        return result
