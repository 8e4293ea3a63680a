"""Slot leasing over the shared lockstep step: attach/detach rows mid-flight.

:class:`~repro.localsearch.multistart.MultiStartRunner` owns the lockstep
core: the per-row state, the step and the row serializer.  Its closed
``run()`` fixes the population up front.  :class:`ContinuousRunner` runs the
same step over a pool of ``capacity`` slots and only adds the leasing layer,
so tenants come and go at step boundaries:

* :meth:`attach` imports a fresh row state into free slots.  The start block
  reaches the device-resident population as a flipped-bit delta packet
  (the XOR difference against whatever the slot last held), so admission is
  priced like any other delta upload; the gain engine's mirror check
  re-derives exactly those rows, and the slots' tabu stamps are reset.
* :meth:`step` runs the shared retire check and step with per-slot
  budgets/targets, adds busy/occupancy accounting and reports the slots
  that retired (budget, target or local optimum).
* :meth:`detach` harvests a retired group's
  :class:`~repro.localsearch.result.LSResult` records and frees the slots.
* :meth:`suspend`/:meth:`resume` export a live group and import it back
  (priority preemption).  A replica's trajectory is a pure function of its
  row state, which leaves and returns verbatim, so the resumed trajectory is
  bit-identical to an uninterrupted one.

Because selection and evaluation are exact row-wise vectorizations, a
tenant's trajectory is bit-identical to the same seeds/budget run standalone
and is never perturbed by other tenants joining or leaving — the property
the solve server's correctness rests on (``tests/service/test_continuous``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.dtypes import TABU_STAMP_DTYPE
from ..localsearch.multistart import MultiStartRunner, _check_array
from ..localsearch.result import LSResult

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

    Takes :class:`MultiStartRunner`'s options except ``max_iterations``
    (every tenant brings its own budget) and replaces the closed ``run()``
    loop with an ``open() -> attach/step/detach -> close()`` session.
    """

    def __init__(self, evaluator, *, capacity: int, **options) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__(evaluator, max_iterations=0, **options)
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
        block = np.zeros((self.capacity, self.problem.n), dtype=np.int8)
        self._open_rows(self._fresh_rows(block, 0, self.target_fitness))
        self.active[:] = False  # no slot is leased yet
        self.leased = np.zeros(self.capacity, dtype=bool)
        self._num_leased = 0  # leased.sum(), kept by _lease and _free
        self.busy_time = 0.0
        self.occupancy_time = 0.0
        self._open = True
        return self

    def close(self) -> None:
        """Tear down the resident session and gain engine."""
        if not self._open:
            return
        self._open = False
        self._close_rows()

    def __enter__(self) -> "ContinuousRunner":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if not self._open:
            raise RuntimeError("runner is not open; call open() first")

    def _check_slots(self, slots) -> np.ndarray:
        """Leased ``slots`` as a flat index array; rejects anything else.

        Negative, out-of-range and repeated indices raise
        :class:`ValueError`, as do slots no tenant holds.
        """
        self._check_open()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if ((slots < 0) | (slots >= self.capacity)).any():
            raise ValueError(
                f"slot indices must lie in [0, {self.capacity}), got {slots.tolist()}"
            )
        if np.unique(slots).size != slots.size:
            raise ValueError(f"repeated slot indices: {slots.tolist()}")
        unleased = slots[~self.leased[slots]]
        if unleased.size:
            raise ValueError(f"slot {unleased[0]} is not leased")
        return slots

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
        return self._num_leased

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
    def _lease(self, state: dict, tabu_stamps=None) -> np.ndarray:
        """Import a group's row ``state`` into free slots and lease them.

        Device-resident tabu stamps are written alongside (``None`` resets
        them to "never applied", the state a standalone run starts from).
        """
        count = len(state["active"])
        free = np.nonzero(~self.leased)[0]
        if count > free.size:
            raise CapacityError(
                f"replica group needs {count} slots, only {free.size} free"
            )
        slots = free[:count]
        self.import_rows(slots, state)
        if self._device_tabu:
            self.evaluator.write_tabu_rows(slots, tabu_stamps)
        self.leased[slots] = True
        self._num_leased += count
        return slots

    def _free(self, slots: np.ndarray) -> None:
        """Release leased ``slots`` (checked distinct and leased)."""
        self.leased[slots] = False
        self._num_leased -= slots.size
        for slot in slots.tolist():
            self.histories[slot] = []

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
        targets = self.target_fitness if targets is None else targets
        return self._lease(self._fresh_rows(block, budgets, targets))

    def detach(self, slots, *, cancel: bool = False) -> list[LSResult]:
        """Harvest retired slots' results and free them for the next tenant.

        ``cancel=True`` additionally allows detaching slots that are still
        searching (server shutdown); their results carry stopping reason
        ``"cancelled"``.
        """
        slots = self._check_slots(slots)
        searching = slots[self.active[slots]]
        if searching.size and not cancel:
            raise RuntimeError(
                f"slot {searching[0]} is still searching; pass cancel=True to"
                " cut it short"
            )
        self.active[searching] = False
        self.reasons[searching] = "cancelled"
        results = self._harvest(slots)
        self._free(slots)
        return results

    def suspend(self, slots) -> dict:
        """Pull a live replica group out of the batch, returning its state.

        The returned dict is everything :meth:`resume` needs to continue
        the group bit-identically in any free slots later: the group's
        :meth:`export_rows` state plus, when the tabu memory is
        device-resident, its stamps (``"tabu_stamps"``).
        """
        slots = self._check_slots(slots)
        idle = slots[~self.active[slots]]
        if idle.size:
            raise ValueError(f"slot {idle[0]} is not actively searching")
        state = self.export_rows(slots)
        state["tabu_stamps"] = (
            self.evaluator.read_tabu_rows(slots) if self._device_tabu else None
        )
        self.active[slots] = False
        self._free(slots)
        return state

    def resume(self, state: dict) -> np.ndarray:
        """Re-admit a suspended group into free slots, restoring its state."""
        self._check_open()
        count = self._check_rows(state)
        if self._device_tabu:
            _check_array(
                state, "tabu_stamps", TABU_STAMP_DTYPE, (count, self.neighborhood.size)
            )
        return self._lease(state, state.get("tabu_stamps"))

    # ------------------------------------------------------------------
    # The lockstep step boundary
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Advance every active slot one lockstep iteration.

        The closed runner's retire check and step, plus busy/occupancy
        accounting; slots retired by the budget, the target or a local
        optimum are reported for harvest.
        """
        self._check_open()
        report = StepReport(retired=self._retire().tolist())
        if not self.active.any():
            return report
        active_idx, stopped, sim_elapsed = self._advance()
        occupancy = active_idx.size / self.capacity
        self.busy_time += sim_elapsed
        self.occupancy_time += sim_elapsed * occupancy
        report.retired.extend(stopped.tolist())
        report.evaluated = True
        report.sim_elapsed = sim_elapsed
        report.occupancy = occupancy
        return report
