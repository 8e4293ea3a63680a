"""Dynamic lockstep core: attach/detach replica rows in a live batch.

:class:`~repro.localsearch.multistart.MultiStartRunner` runs *closed*
workloads: the replica population is fixed at ``run()`` and the batch drains
to a straggler tail as replicas finish.  :class:`ContinuousRunner` keeps the
same lockstep step — one batched ``(S, n) -> (S, M)`` evaluation plus the
exact vectorized selection rules, inherited unchanged — but turns the batch
into a pool of ``capacity`` replica *slots* that tenants lease mid-flight:

* :meth:`attach` installs a tenant's replica group into free slots at a step
  boundary.  The start block is patched into the device-resident population
  as an ordinary flipped-bit delta packet (the XOR difference against
  whatever the slot last held), so admission is priced like any other
  delta upload and never re-uploads the whole population.  The incremental
  gain engine's self-healing mirror check re-derives exactly the mutated
  rows at the next evaluation, and the slot's tabu stamps are reset to the
  "never applied" sentinel — the state a standalone run starts from.
* :meth:`step` advances every active slot one lockstep iteration with the
  per-slot budgets/targets standing in for the runner's global stopping
  rule, and reports the slots that retired (budget, target or local
  optimum).
* :meth:`detach` harvests a retired group's
  :class:`~repro.localsearch.result.LSResult` records and frees the slots.
* :meth:`suspend`/:meth:`resume` move a live group out of and back into the
  batch (priority preemption).  A replica's trajectory is a pure function
  of its row state — solution, fitnesses, iteration counter, tabu stamps —
  all of which leave and return verbatim, so the resumed trajectory is
  bit-identical to an uninterrupted one.

Because selection and evaluation are exact row-wise vectorizations, a
tenant's trajectory is bit-identical to the same seeds/budget run standalone
and is never perturbed by other tenants joining or leaving — the property
the solve server's correctness rests on (``tests/service/test_continuous``).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..gpu.dtypes import TABU_NEVER
from ..localsearch.base import REDUCED_SELECTION_MODES
from ..localsearch.multistart import MultiStartRunner
from ..localsearch.result import LSResult
from ..problems.incremental import (
    attach_gain_engine,
    create_gain_engine,
    detach_gain_engine,
)

__all__ = ["CapacityError", "ContinuousRunner", "StepReport"]


class CapacityError(RuntimeError):
    """A replica group does not fit into the currently free slots."""


@dataclass
class StepReport:
    """What one :meth:`ContinuousRunner.step` boundary produced."""

    #: Whether a batched evaluation ran (False: every slot was already done).
    evaluated: bool = False
    #: Slots that retired this step, ready for :meth:`ContinuousRunner.detach`.
    retired: list[int] = field(default_factory=list)
    #: Simulated seconds the step's evaluation added.
    sim_elapsed: float = 0.0
    #: Fraction of the slot pool that evaluated this step.
    occupancy: float = 0.0


class ContinuousRunner(MultiStartRunner):
    """A lockstep batch of ``capacity`` replica slots with mid-flight churn.

    The runner reuses :class:`MultiStartRunner`'s selection rules, transfer
    modes and incremental gain engine; it replaces the
    closed ``run()`` loop with an ``open() -> attach/step/detach -> close()``
    session whose per-slot budgets and targets come from the tenants.
    ``max_iterations`` is meaningless here (every tenant brings its own
    budget), so it is pinned to 0.
    """

    def __init__(
        self,
        evaluator,
        *,
        capacity: int,
        algorithm: str = "tabu",
        tenure: int | None = None,
        aspiration: bool = True,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
        rebalance_every: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(
            evaluator,
            algorithm=algorithm,
            tenure=tenure,
            aspiration=aspiration,
            max_iterations=0,
            target_fitness=target_fitness,
            track_history=track_history,
            transfer_mode=transfer_mode,
            rebalance_every=rebalance_every,
        )
        self.capacity = int(capacity)
        self._open = False

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "ContinuousRunner":
        """Allocate the slot pool and open the device-resident session.

        In the resident transfer modes the whole ``(capacity, n)`` zero
        block crosses PCIe once, here; afterwards every tenant arrival and
        move is a flipped-bit delta.
        """
        if self._open:
            raise RuntimeError("runner is already open")
        capacity, n = self.capacity, self.problem.n
        size = self.neighborhood.size
        self.current = np.zeros((capacity, n), dtype=np.int8)
        self.current_fitness = np.zeros(capacity, dtype=np.float64)
        self.initial_fitness = np.zeros(capacity, dtype=np.float64)
        self.best = np.zeros((capacity, n), dtype=np.int8)
        self.best_fitness = np.zeros(capacity, dtype=np.float64)
        self.iterations = np.zeros(capacity, dtype=np.int64)
        self.evaluations = np.zeros(capacity, dtype=np.int64)
        self.sim_share = np.zeros(capacity, dtype=np.float64)
        self.wall_share = np.zeros(capacity, dtype=np.float64)
        self.budgets = np.zeros(capacity, dtype=np.int64)
        self.targets = np.zeros(capacity, dtype=np.float64)
        self.active = np.zeros(capacity, dtype=bool)
        self.leased = np.zeros(capacity, dtype=bool)
        self.reasons = np.array(["max_iterations"] * capacity, dtype=object)
        self.histories: list[list[float]] = [[] for _ in range(capacity)]
        self.lockstep = 0
        self.busy_time = 0.0
        self.occupancy_time = 0.0

        self._resident = self.transfer_mode != "full"
        self._reduced = self.transfer_mode in REDUCED_SELECTION_MODES
        self._device_tabu = (
            self._reduced
            and self.algorithm == "tabu"
            and hasattr(self.evaluator, "init_tabu_memory")
        )
        self.last_applied = (
            np.full((capacity, size), TABU_NEVER, dtype=np.int64)
            if self.algorithm == "tabu" and not self._device_tabu
            else None
        )
        self._stack = contextlib.ExitStack()
        try:
            self._gain_engine = create_gain_engine(self.problem, rows_hint=capacity)
            prev_engine = attach_gain_engine(self.problem, self._gain_engine)
            self._stack.callback(detach_gain_engine, self.problem, prev_engine)
            if self._resident:
                self.evaluator.begin_search(
                    self.current, persistent=self.transfer_mode == "persistent"
                )
                self._stack.callback(self.evaluator.end_search)
                if self._device_tabu:
                    self.evaluator.init_tabu_memory(self.tenure)
        except Exception:
            self._stack.close()
            raise
        self._open = True
        return self

    def close(self) -> None:
        """Tear down the resident session and gain engine."""
        if not self._open:
            return
        self._open = False
        self._stack.close()

    def __enter__(self) -> "ContinuousRunner":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if not self._open:
            raise RuntimeError("runner is not open; call open() first")

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Slots still searching (leased and not yet retired)."""
        return int(self.active.sum())

    @property
    def num_leased(self) -> int:
        """Slots held by a tenant (searching or retired-awaiting-detach)."""
        return int(self.leased.sum())

    @property
    def free_slots(self) -> int:
        return self.capacity - self.num_leased

    @property
    def mean_occupancy(self) -> float:
        """Simulated-time-weighted mean fraction of slots evaluating."""
        if self.busy_time <= 0.0:
            return 0.0
        return self.occupancy_time / self.busy_time

    # ------------------------------------------------------------------
    # Tenant churn
    # ------------------------------------------------------------------
    def attach(
        self,
        *,
        seeds=None,
        initial_solutions: np.ndarray | None = None,
        budgets,
        targets=None,
    ) -> np.ndarray:
        """Lease free slots to a new replica group; returns the slot indices.

        ``seeds`` draws replica ``r``'s start from
        ``np.random.default_rng(seeds[r])`` exactly like a standalone run —
        the bit-compatibility anchor.  ``budgets``/``targets`` broadcast
        over the group.  Raises :class:`CapacityError` when the group does
        not fit (the admission controller's signal to queue the job).
        """
        self._check_open()
        block = self._initial_block(None, seeds, None, initial_solutions)
        count = block.shape[0]
        free = np.nonzero(~self.leased)[0]
        if count > free.size:
            raise CapacityError(
                f"replica group needs {count} slots, only {free.size} free"
            )
        slots = free[:count]
        budget_block = np.broadcast_to(
            np.asarray(budgets, dtype=np.int64), (count,)
        ).copy()
        if (budget_block < 0).any():
            raise ValueError("budgets must be non-negative")
        target_block = (
            np.full(count, self.target_fitness, dtype=np.float64)
            if targets is None
            else np.broadcast_to(np.asarray(targets, dtype=np.float64), (count,)).copy()
        )
        self._install_rows(slots, block)
        fitness = np.asarray(self.problem.evaluate_batch(block), dtype=np.float64)
        self.current_fitness[slots] = fitness
        self.initial_fitness[slots] = fitness
        self.best[slots] = block
        self.best_fitness[slots] = fitness
        self.iterations[slots] = 0
        self.evaluations[slots] = 0
        self.sim_share[slots] = 0.0
        self.wall_share[slots] = 0.0
        self.budgets[slots] = budget_block
        self.targets[slots] = target_block
        self.reasons[slots] = "max_iterations"
        for slot in slots:
            self.histories[slot] = []
        # A fresh tenant starts from clean tabu state, exactly like a
        # standalone run's init: host stamps reset here, device-resident
        # stamps through the session's row fill.
        if self.last_applied is not None:
            self.last_applied[slots] = TABU_NEVER
        elif self._device_tabu:
            self.evaluator.write_tabu_rows(slots)
        self.leased[slots] = True
        self.active[slots] = True
        return slots

    def _install_rows(self, slots: np.ndarray, block: np.ndarray) -> None:
        """Patch ``block`` into the slot rows via a flipped-bit delta packet.

        The resident copy is brought in sync by XOR-ing in the difference
        against whatever the slots last held — priced as a normal delta
        upload, never a population re-upload.  The gain engine is *not*
        told: its self-healing mirror check re-derives exactly these rows
        at the next evaluation, which is the designed invalidation path for
        out-of-band row mutation.
        """
        if self._resident:
            rows, bits = np.nonzero(self.current[slots] ^ block)
            if rows.size:
                self.evaluator.apply_deltas(slots[rows], bits)
        self.current[slots] = block

    def detach(self, slots, *, cancel: bool = False) -> list[LSResult]:
        """Harvest retired slots' results and free them for the next tenant.

        ``cancel=True`` additionally allows detaching slots that are still
        searching (server shutdown); their results carry stopping reason
        ``"cancelled"``.
        """
        self._check_open()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        results: list[LSResult] = []
        for slot in slots.tolist():
            if not self.leased[slot]:
                raise ValueError(f"slot {slot} is not leased")
            if self.active[slot]:
                if not cancel:
                    raise RuntimeError(
                        f"slot {slot} is still searching; pass cancel=True to"
                        " cut it short"
                    )
                self.active[slot] = False
                self.reasons[slot] = "cancelled"
            results.append(
                LSResult(
                    best_solution=self.best[slot].copy(),
                    best_fitness=float(self.best_fitness[slot]),
                    iterations=int(self.iterations[slot]),
                    evaluations=int(self.evaluations[slot]),
                    success=self.problem.is_solution(float(self.best_fitness[slot])),
                    stopping_reason=str(self.reasons[slot]),
                    simulated_time=float(self.sim_share[slot]),
                    wall_time=float(self.wall_share[slot]),
                    initial_fitness=float(self.initial_fitness[slot]),
                    history=list(self.histories[slot]),
                )
            )
            self.leased[slot] = False
            self.histories[slot] = []
        return results

    def suspend(self, slots) -> dict:
        """Pull a live replica group out of the batch, returning its state.

        The returned dict is everything :meth:`resume` needs to continue
        the group bit-identically in any free slots later: solutions,
        fitness/best/counter arrays, accrued accounting and the tabu stamps
        (host- or device-resident).
        """
        self._check_open()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        for slot in slots.tolist():
            if not (self.leased[slot] and self.active[slot]):
                raise ValueError(f"slot {slot} is not actively searching")
        state = {
            "current": self.current[slots].copy(),
            "current_fitness": self.current_fitness[slots].copy(),
            "initial_fitness": self.initial_fitness[slots].copy(),
            "best": self.best[slots].copy(),
            "best_fitness": self.best_fitness[slots].copy(),
            "iterations": self.iterations[slots].copy(),
            "evaluations": self.evaluations[slots].copy(),
            "sim_share": self.sim_share[slots].copy(),
            "wall_share": self.wall_share[slots].copy(),
            "budgets": self.budgets[slots].copy(),
            "targets": self.targets[slots].copy(),
            "histories": [list(self.histories[slot]) for slot in slots.tolist()],
            "last_applied": (
                self.last_applied[slots].copy()
                if self.last_applied is not None
                else None
            ),
            "tabu_stamps": (
                self.evaluator.read_tabu_rows(slots) if self._device_tabu else None
            ),
        }
        self.active[slots] = False
        self.leased[slots] = False
        for slot in slots.tolist():
            self.histories[slot] = []
        return state

    def resume(self, state: dict) -> np.ndarray:
        """Re-admit a suspended group into free slots, restoring its state."""
        self._check_open()
        block = np.asarray(state["current"], dtype=np.int8)
        count = block.shape[0]
        free = np.nonzero(~self.leased)[0]
        if count > free.size:
            raise CapacityError(
                f"replica group needs {count} slots, only {free.size} free"
            )
        slots = free[:count]
        self._install_rows(slots, block)
        self.current_fitness[slots] = state["current_fitness"]
        self.initial_fitness[slots] = state["initial_fitness"]
        self.best[slots] = state["best"]
        self.best_fitness[slots] = state["best_fitness"]
        self.iterations[slots] = state["iterations"]
        self.evaluations[slots] = state["evaluations"]
        self.sim_share[slots] = state["sim_share"]
        self.wall_share[slots] = state["wall_share"]
        self.budgets[slots] = state["budgets"]
        self.targets[slots] = state["targets"]
        self.reasons[slots] = "max_iterations"
        for offset, slot in enumerate(slots.tolist()):
            self.histories[slot] = list(state["histories"][offset])
        if self.last_applied is not None:
            self.last_applied[slots] = state["last_applied"]
        elif self._device_tabu:
            self.evaluator.write_tabu_rows(slots, state["tabu_stamps"])
        self.leased[slots] = True
        self.active[slots] = True
        return slots

    # ------------------------------------------------------------------
    # The lockstep step boundary
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Advance every active slot one lockstep iteration.

        Semantics match one iteration of the closed runner's loop exactly —
        retire checks first (target takes precedence over the budget cap,
        like the scalar loop), then one batched evaluation + vectorized
        selection over the still-active slots, local optima retiring within
        the step.  Newly retired slots are reported for harvest.
        """
        self._check_open()
        report = StepReport()
        reached = self.active & (self.best_fitness <= self.targets)
        self.reasons[reached] = "target_reached"
        capped = self.active & ~reached & (self.iterations >= self.budgets)
        finished = reached | capped
        if finished.any():
            self.active &= ~finished
            report.retired.extend(np.nonzero(finished)[0].tolist())
        if not self.active.any():
            return report
        if (
            self._rebalance_enabled()
            and self.lockstep
            and self.lockstep % self.rebalance_every == 0
        ):
            # Placement/timing only — trajectories are unchanged; derived
            # gain state re-derives at the next evaluation.
            self.evaluator.rebalance_resident(active=self.active)
            if self._gain_engine is not None:
                self._gain_engine.invalidate_all()
        self.lockstep += 1
        active_idx = np.nonzero(self.active)[0]

        step_wall = time.perf_counter()
        step_sim = self.evaluator.stats.simulated_time
        if self._gain_engine is not None:
            self._gain_engine.expect(active_idx)
        sub_last = (
            self.last_applied[active_idx] if self.last_applied is not None else None
        )
        if self._reduced:
            indices, selected_fitness, optima = self._select_reduced(
                active_idx,
                self.current_fitness[active_idx],
                self.best_fitness[active_idx],
                self.iterations[active_idx],
                sub_last,
            )
        else:
            if self._resident:
                fitnesses = self.evaluator.evaluate_resident(active_idx)
            else:
                fitnesses = self.evaluator.evaluate_many(self.current[active_idx])
            indices, selected_fitness, optima = self._select(
                fitnesses,
                self.current_fitness[active_idx],
                self.best_fitness[active_idx],
                self.iterations[active_idx],
                sub_last,
            )
        sim_elapsed = self.evaluator.stats.simulated_time - step_sim
        self.sim_share[active_idx] += sim_elapsed / active_idx.size
        self.evaluations[active_idx] += self.neighborhood.size
        self.busy_time += sim_elapsed
        self.occupancy_time += sim_elapsed * (active_idx.size / self.capacity)

        if optima.any():
            stopped = active_idx[optima]
            self.reasons[stopped] = "local_optimum"
            self.active[stopped] = False
            report.retired.extend(stopped.tolist())

        movers = active_idx[~optima]
        if movers.size:
            move_idx = indices[~optima]
            moves = self.neighborhood.mapping.from_flat_batch(move_idx)
            self.current[movers[:, None], moves] ^= 1
            if self._gain_engine is not None:
                self._gain_engine.commit(movers, moves)
            if self._resident:
                self.evaluator.apply_deltas(
                    np.repeat(movers, moves.shape[1]), moves.reshape(-1)
                )
            self.current_fitness[movers] = selected_fitness[~optima]
            if self.last_applied is not None:
                self.last_applied[movers, move_idx] = self.iterations[movers]
            improved = self.current_fitness[movers] < self.best_fitness[movers]
            improved_rows = movers[improved]
            self.best[improved_rows] = self.current[improved_rows]
            self.best_fitness[improved_rows] = self.current_fitness[improved_rows]
            self.iterations[movers] += 1
            if self.track_history:
                for row, value in zip(
                    movers.tolist(), self.best_fitness[movers].tolist()
                ):
                    self.histories[row].append(value)
        self.wall_share[active_idx] += (
            time.perf_counter() - step_wall
        ) / active_idx.size
        report.evaluated = True
        report.sim_elapsed = sim_elapsed
        report.occupancy = active_idx.size / self.capacity
        return report

    def _rebalance_enabled(self) -> bool:
        return bool(
            self.rebalance_every
            and self._resident
            and self.transfer_mode != "persistent"
            and hasattr(self.evaluator, "rebalance_resident")
        )
