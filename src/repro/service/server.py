"""Continuous-batching solve server over the lockstep replica batch.

:class:`SolveServer` replays an arrival trace of :class:`~.jobs.JobSpec`
requests against one :class:`~.continuous.ContinuousRunner` session — the
optimization analogue of an LLM inference server's continuous batching.  One
server binds one (problem, neighborhood) pair, the way an inference server
binds one model; jobs differ in replica count, budget, seeds, deadline,
priority and tenant.

The event loop runs on the *simulated* clock: each lockstep step advances
time by the evaluator's simulated delta, and when the batch is empty the
clock fast-forwards to the next arrival (the pool sits idle; nothing is
priced).  Scheduling is:

* **admission control** — arrivals whose replica group exceeds the fleet
  capacity outright, or that find the queue full, are rejected; queued jobs
  whose deadline passes before first admission expire;
* **priority + backfill** — the queue is served in (priority desc, arrival
  asc) order, and smaller jobs further back may backfill slots the head
  cannot use;
* **per-tenant fair-share** — a soft cap: while other tenants are waiting,
  a tenant already holding at least ``fair_share * capacity`` slots is
  passed over (jobs are atomic, so the cap may be exceeded by the job that
  crossed it — progress is always possible);
* **preemption** — when the highest-priority queued job cannot fit,
  strictly lower-priority running jobs are suspended (most recently
  admitted first) and re-queued with their full row state, resuming
  bit-identically later.  The fair-share bar is judged first, as it will
  stand after the suspension: a head it holds back suspends no one;
* **policy="drain"** — the run-to-completion baseline: a new batch is
  admitted only once the previous batch fully drained.  This is the
  straggler-tail behaviour the continuous policy exists to beat.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..localsearch.result import LSResult
from .continuous import ContinuousRunner
from .jobs import JobSpec

__all__ = [
    "JobRecord",
    "POLICIES",
    "ServiceReport",
    "SolveServer",
    "calibrate_step_time",
    "saturating_rate",
]

#: Batch scheduling policies: continuous tenant packing vs the
#: drain-and-refill (run-to-completion) baseline.
POLICIES = ("continuous", "drain")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass
class JobRecord:
    """Lifecycle and accounting of one job through the server."""

    spec: JobSpec
    #: One of :data:`~.jobs.JOB_STATUSES`.
    status: str = "queued"
    #: Simulated time of first admission into the batch (``None``: never ran).
    admitted: float | None = None
    #: Simulated time the last replica retired (``None``: did not complete).
    finished: float | None = None
    #: How many times the job was suspended mid-flight.
    preemptions: int = 0
    #: Per-replica results, harvested as the replicas retire.
    results: list[LSResult] = field(default_factory=list)
    #: Simulated-GPU seconds attributed to this job (sum of its replicas'
    #: shares of each batched launch).
    gpu_seconds: float = 0.0
    #: Total replica iterations the job consumed.
    iterations: int = 0

    @property
    def latency(self) -> float | None:
        """Arrival-to-completion time on the simulated clock."""
        if self.finished is None:
            return None
        return self.finished - self.spec.arrival

    @property
    def queue_wait(self) -> float | None:
        """Arrival-to-first-admission time."""
        if self.admitted is None:
            return None
        return self.admitted - self.spec.arrival

    @property
    def deadline_met(self) -> bool:
        """Completed within its deadline (no deadline: any completion)."""
        if self.status != "completed":
            return False
        if self.spec.deadline is None:
            return True
        latency = self.latency
        return latency is not None and latency <= self.spec.deadline


@dataclass
class ServiceReport:
    """What one trace replay produced, with the derived service metrics."""

    policy: str
    capacity: int
    #: Total simulated time from the first arrival's epoch to the last
    #: completion (idle gaps included).
    makespan: float
    #: Simulated time the batch spent evaluating (idle gaps excluded).
    busy_time: float
    #: Busy-time-weighted mean fraction of slots evaluating.
    mean_occupancy: float
    records: list[JobRecord]
    #: Lockstep steps the replay executed.
    steps: int

    def _count(self, status: str) -> int:
        return sum(record.status == status for record in self.records)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def rejected(self) -> int:
        return self._count("rejected")

    @property
    def expired(self) -> int:
        return self._count("expired")

    @property
    def preempted_jobs(self) -> int:
        return sum(record.preemptions > 0 for record in self.records)

    def latencies(self) -> list[float]:
        return [
            record.latency
            for record in self.records
            if record.status == "completed" and record.latency is not None
        ]

    def latency_percentile(self, q: float) -> float:
        values = self.latencies()
        if not values:
            return float("nan")
        return float(np.percentile(values, q))

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def goodput(self) -> float:
        """Deadline-met completions per simulated second."""
        if self.makespan <= 0.0:
            return 0.0
        met = sum(record.deadline_met for record in self.records)
        return met / self.makespan

    def summary_row(self, *, label: str | None = None, load: float | None = None) -> dict:
        """One row for :func:`repro.harness.format_service_table`."""
        return {
            "label": label or self.policy,
            "policy": self.policy,
            "load": load,
            "jobs": len(self.records),
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "preempted": self.preempted_jobs,
            "p50": self.p50_latency,
            "p99": self.p99_latency,
            "goodput": self.goodput,
            "occupancy": self.mean_occupancy,
            "makespan": self.makespan,
        }


class _QueueEntry:
    """A queued job, possibly carrying suspended mid-flight state."""

    __slots__ = ("spec", "record", "saved")

    def __init__(self, spec: JobSpec, record: JobRecord, saved: dict | None = None):
        self.spec = spec
        self.record = record
        self.saved = saved

    @property
    def need(self) -> int:
        """Replica slots the entry needs (suspended groups may have shrunk)."""
        if self.saved is not None:
            return int(self.saved["current"].shape[0])
        return self.spec.replicas


class SolveServer:
    """Replay solve-job traces through a continuously-running lockstep batch.

    Parameters mirror :class:`~.continuous.ContinuousRunner` where they
    configure the batch itself; the service knobs are:

    capacity:
        Replica slots in the live batch (env default
        ``REPRO_SERVICE_CAPACITY``, 32).
    max_queue:
        Arrivals finding this many jobs already queued are rejected (env
        default ``REPRO_SERVICE_MAX_QUEUE``, 128).
    policy:
        ``"continuous"`` (tenants join/leave mid-flight) or ``"drain"``
        (run-to-completion batches — the baseline).
    preemption:
        Allow suspending strictly lower-priority running jobs when the
        highest-priority queued job cannot fit.
    fair_share:
        Soft per-tenant slot cap as a fraction of capacity, applied only
        while other tenants are waiting; ``None`` disables it.
    """

    def __init__(
        self,
        evaluator,
        *,
        capacity: int | None = None,
        policy: str = "continuous",
        algorithm: str = "tabu",
        tenure: int | None = None,
        aspiration: bool = True,
        transfer_mode: str = "full",
        rebalance_every: int | None = None,
        track_history: bool = False,
        max_queue: int | None = None,
        preemption: bool = True,
        fair_share: float | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if capacity is None:
            capacity = _env_int("REPRO_SERVICE_CAPACITY", 32)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_queue is None:
            max_queue = _env_int("REPRO_SERVICE_MAX_QUEUE", 128)
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if fair_share is not None and not 0.0 < fair_share <= 1.0:
            raise ValueError(f"fair_share must be in (0, 1], got {fair_share}")
        self.evaluator = evaluator
        self.capacity = int(capacity)
        self.policy = policy
        self.max_queue = int(max_queue)
        self.preemption = bool(preemption)
        self.fair_share = fair_share
        self._runner_options = dict(
            algorithm=algorithm,
            tenure=tenure,
            aspiration=aspiration,
            transfer_mode=transfer_mode,
            rebalance_every=rebalance_every,
            track_history=track_history,
        )

    # ------------------------------------------------------------------
    def run_trace(self, jobs: Sequence[JobSpec]) -> ServiceReport:
        """Replay ``jobs`` (any order; sorted by arrival) to completion."""
        order = sorted(jobs, key=lambda spec: (spec.arrival, spec.job_id))
        records = {spec.job_id: JobRecord(spec=spec) for spec in order}
        if len(records) != len(order):
            raise ValueError("duplicate job_id in trace")

        pending = deque(order)
        queue: list[_QueueEntry] = []
        #: job_id -> {"record", "slots" (live set), "seq"}
        running: dict[str, dict] = {}
        slot_owner: dict[int, str] = {}
        admit_seq = 0
        # admit() ends at a fixpoint, and its outcome depends only on the
        # queue, the free slots, the running jobs and the tenants' holds.
        # Those move only on an enqueue (an arrival, or a suspended job
        # re-queued), a harvest (it frees slots and may empty the drain
        # batch) or an expiry (dropping an entry can make a new queue head
        # that may preempt, or lift the fair-share bar).  Between such
        # events a call would change nothing, so it is skipped.
        admission_due = False

        runner = ContinuousRunner(
            self.evaluator, capacity=self.capacity, **self._runner_options
        )
        runner.open()
        clock = 0.0
        idle_time = 0.0
        sim_base = self.evaluator.stats.simulated_time
        steps = 0
        fair_cap = (
            max(1, int(round(self.fair_share * self.capacity)))
            if self.fair_share is not None
            else None
        )

        def tenant_hold(tenant: str) -> int:
            return sum(
                len(state["slots"])
                for state in running.values()
                if state["record"].spec.tenant == tenant
            )

        def harvest(retired_slots: list[int]) -> None:
            nonlocal admission_due
            admission_due = True
            by_job: dict[str, list[int]] = {}
            for slot in retired_slots:
                by_job.setdefault(slot_owner.pop(slot), []).append(slot)
            for job_id, slots in by_job.items():
                state = running[job_id]
                record = state["record"]
                for result in runner.detach(np.asarray(slots, dtype=np.int64)):
                    record.results.append(result)
                    record.gpu_seconds += result.simulated_time
                    record.iterations += result.iterations
                state["slots"].difference_update(slots)
                if not state["slots"]:
                    del running[job_id]
                    record.status = "completed"
                    record.finished = clock

        def suspend_job(state: dict) -> None:
            nonlocal admission_due
            admission_due = True
            record = state["record"]
            slots = sorted(state["slots"])
            saved = runner.suspend(np.asarray(slots, dtype=np.int64))
            for slot in slots:
                del slot_owner[slot]
            del running[record.spec.job_id]
            record.status = "preempted"
            record.preemptions += 1
            queue.append(_QueueEntry(record.spec, record, saved))

        def preemption_victims(entry: _QueueEntry) -> list[dict] | None:
            """The lower-priority jobs to suspend so the queue head fits.

            ``None`` when suspending every lower-priority job would still
            not free enough slots.
            """
            victims = sorted(
                (
                    state
                    for state in running.values()
                    if state["record"].spec.priority < entry.spec.priority
                ),
                key=lambda state: (state["record"].spec.priority, -state["seq"]),
            )
            freeable = runner.free_slots
            chosen = []
            for state in victims:
                if freeable >= entry.need:
                    break
                freeable += len(state["slots"])
                chosen.append(state)
            return chosen if freeable >= entry.need else None

        def fair_barred(entry: _QueueEntry, victims: list[dict]) -> bool:
            """Whether the fair-share bar passes over ``entry``.

            The bar is judged as it will stand once ``victims`` are
            suspended and re-queued, before any of them is: a head it holds
            back must not suspend jobs, or a later pass re-admits them into
            the freed slots and the head suspends them again, forever.
            """
            if fair_cap is None:
                return False
            tenant = entry.spec.tenant
            hold = tenant_hold(tenant) - sum(
                len(state["slots"])
                for state in victims
                if state["record"].spec.tenant == tenant
            )
            waiting = {other.spec.tenant for other in queue}
            waiting.update(state["record"].spec.tenant for state in victims)
            return hold >= fair_cap and bool(waiting - {tenant})

        def admit() -> None:
            nonlocal admit_seq
            if not queue:
                return
            if self.policy == "drain" and running:
                return
            queue.sort(
                key=lambda e: (-e.spec.priority, e.spec.arrival, e.spec.job_id)
            )
            progressed = True
            while progressed and queue:
                progressed = False
                for entry in list(queue):
                    victims: list[dict] | None = []
                    if entry.need > runner.free_slots:
                        if not (self.preemption and entry is queue[0]):
                            continue
                        victims = preemption_victims(entry)
                        if victims is None:
                            continue
                    if fair_barred(entry, victims):
                        continue
                    for state in victims:
                        suspend_job(state)
                    spec = entry.spec
                    if entry.saved is not None:
                        slots = runner.resume(entry.saved)
                    else:
                        slots = runner.attach(
                            seeds=spec.resolved_seeds(),
                            budgets=spec.budget,
                            targets=spec.target_fitness,
                        )
                    record = entry.record
                    if record.admitted is None:
                        record.admitted = clock
                    record.status = "running"
                    running[spec.job_id] = {
                        "record": record,
                        "slots": set(slots.tolist()),
                        "seq": admit_seq,
                    }
                    admit_seq += 1
                    for slot in slots.tolist():
                        slot_owner[slot] = spec.job_id
                    queue.remove(entry)
                    progressed = True

        try:
            while pending or queue or running:
                while pending and pending[0].arrival <= clock + 1e-9:
                    spec = pending.popleft()
                    record = records[spec.job_id]
                    if spec.replicas > self.capacity or len(queue) >= self.max_queue:
                        record.status = "rejected"
                        continue
                    queue.append(_QueueEntry(spec, record))
                    admission_due = True
                kept = []
                for entry in queue:
                    deadline = entry.spec.deadline
                    if (
                        deadline is not None
                        and entry.record.admitted is None
                        and clock > entry.spec.arrival + deadline
                    ):
                        entry.record.status = "expired"
                        admission_due = True
                    else:
                        kept.append(entry)
                queue[:] = kept
                if admission_due:
                    admission_due = False
                    admit()
                if runner.num_active == 0:
                    # Batch empty and nothing admittable: fast-forward the
                    # idle pool to the next arrival.
                    if pending:
                        idle_time += max(0.0, pending[0].arrival - clock)
                        clock = idle_time + (
                            self.evaluator.stats.simulated_time - sim_base
                        )
                        continue
                    break
                report = runner.step()
                steps += 1
                clock = idle_time + (self.evaluator.stats.simulated_time - sim_base)
                if report.retired:
                    harvest(report.retired)
            makespan = clock
            busy_time = runner.busy_time
            mean_occupancy = runner.mean_occupancy
        finally:
            runner.close()
        return ServiceReport(
            policy=self.policy,
            capacity=self.capacity,
            makespan=makespan,
            busy_time=busy_time,
            mean_occupancy=mean_occupancy,
            records=[records[spec.job_id] for spec in order],
            steps=steps,
        )


# ----------------------------------------------------------------------
# Load calibration helpers (shared by the CLI and the benchmark)
# ----------------------------------------------------------------------
def calibrate_step_time(
    evaluator,
    *,
    capacity: int,
    steps: int = 5,
    seed: int = 0,
    **runner_options,
) -> float:
    """Mean simulated seconds per full-occupancy lockstep step.

    Opens a throwaway :class:`~.continuous.ContinuousRunner` session on
    ``evaluator``, runs a few steps with every slot leased and returns the
    mean step time.  The evaluator's cumulative counters advance; callers
    that measure via deltas (the server does) are unaffected.
    """
    runner = ContinuousRunner(evaluator, capacity=capacity, **runner_options)
    runner.open()
    try:
        slots = runner.attach(
            seeds=range(seed, seed + capacity), budgets=steps + 1
        )
        total = 0.0
        measured = 0
        for _ in range(steps):
            report = runner.step()
            if not report.evaluated:
                break
            total += report.sim_elapsed
            measured += 1
        runner.detach(slots, cancel=True)
    finally:
        runner.close()
    if measured == 0:
        raise RuntimeError("calibration ran no steps; increase the budgets")
    return total / measured


def saturating_rate(
    step_time: float,
    capacity: int,
    mean_job_work: float,
    *,
    load: float = 1.0,
) -> float:
    """Arrival rate offering ``load`` x the batch's replica-iteration capacity.

    One full-occupancy step advances ``capacity`` replica-iterations in
    ``step_time`` simulated seconds; a job consumes
    ``replicas * budget`` replica-iterations (``mean_job_work`` on average).
    ``load=1.0`` therefore offers exactly what the fleet can serve.
    """
    if step_time <= 0 or capacity <= 0 or mean_job_work <= 0:
        raise ValueError("step_time, capacity and mean_job_work must be positive")
    return load * capacity / (step_time * mean_job_work)
