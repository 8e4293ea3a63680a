"""The three benchmark workloads: input generators, set-up and one episode each.

Every generator takes the workload seed; the program under test receives
only the generated instance (a PPP matrix, a UBQP matrix) or the generated
job trace.  An *episode* is one fixed, deterministic unit of work on a
fresh evaluator; a run repeats the same episode until its time is up, so
every repetition must reproduce the same outputs and simulated counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import UBQP, PermutedPerceptronProblem
from repro.service import JobSpec, SolveServer, calibrate_step_time, saturating_rate

#: Arrivals per stratified block of the solve-server trace.
TRACE_BLOCK = 8


# ----------------------------------------------------------------------
# Seeded generators (independent of the program's own generators)
# ----------------------------------------------------------------------
def stream(seed: int, workload: str, purpose: str) -> np.random.Generator:
    """An independent random stream per (seed, workload, purpose)."""
    tags = [ord(ch) for ch in f"{workload}/{purpose}"]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def make_ppp(m: int, n: int, rng: np.random.Generator):
    """Planted PPP instance: epsilon-matrix ``A`` and the multiset ``S = |A V|``.

    Returns the problem and the raw inputs (kept for the output checks).
    """
    A = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    V = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
    Y = A.astype(np.int64) @ V
    A[Y < 0] *= -1
    S = np.abs(Y)
    return PermutedPerceptronProblem(A, S, secret=(V + 1) // 2), {"A": A.copy(), "S": S}


def make_ubqp(n: int, rng: np.random.Generator, density: float = 0.5):
    """Symmetric integer ``Q`` with weights in [-100, 100] at the given density.

    Returns the problem and the raw inputs (kept for the output checks).
    """
    upper = np.triu(rng.integers(-100, 101, size=(n, n)) * (rng.random((n, n)) < density))
    Q = upper + np.triu(upper, 1).T
    return UBQP(Q.astype(np.float64)), {"Q": Q}


def make_trace(
    schedule: np.random.Generator,
    jitter: np.random.Generator,
    num_jobs: int,
    rate: float,
    deadlines: dict[int, float],
) -> list[JobSpec]:
    """Open-loop Poisson arrivals: 1-8 replicas, 10-150 budgets, two classes.

    The schedule is stratified per block of ``TRACE_BLOCK`` consecutive
    arrivals: each block holds the exponential inter-arrival quantiles at
    ``(i + 0.5) / TRACE_BLOCK``, an even spread of replica counts and budgets, a
    quarter of high-priority jobs and every tenant equally often, shuffled
    by ``schedule``.  The seeded ``jitter`` stream moves every budget by at
    most one iteration and draws every job's search seeds.  Jobs run their
    whole budget (no fitness target).  The server's schedule is chaotic
    (one changed budget reorders later preemptions), so this keeps the
    offered work and the simulated results close between seeds while the
    instance and every trajectory change with the seed.
    """
    block = TRACE_BLOCK
    if num_jobs % block:
        raise ValueError(f"num_jobs must be a multiple of {block}")
    strata = (np.arange(block) + 0.5) / block
    gaps = -np.log1p(-strata) / rate
    replicas = 1 + (np.arange(block) * 8) // block
    budgets = np.round(10 + strata * 140).astype(np.int64)
    high = np.arange(block) < block // 4
    tenants = np.arange(block) % 4
    columns = [
        np.concatenate([schedule.permutation(values) for _ in range(num_jobs // block)])
        for values in (gaps, replicas, budgets, high, tenants)
    ]
    gaps, replicas, budgets, high, tenants = columns
    arrivals = np.cumsum(gaps)
    budgets = budgets + jitter.integers(-1, 2, size=num_jobs)
    seeds = jitter.integers(0, 2**31 - 1, size=num_jobs)
    return [
        JobSpec(
            job_id=f"job-{index:04d}",
            arrival=float(arrivals[index]),
            replicas=int(replicas[index]),
            budget=int(budgets[index]),
            seed=int(seeds[index]),
            deadline=deadlines[int(high[index])],
            priority=int(high[index]),
            tenant=f"tenant-{int(tenants[index])}",
            target_fitness=float("-inf"),
        )
        for index in range(num_jobs)
    ]


# ----------------------------------------------------------------------
# Episode outputs
# ----------------------------------------------------------------------
@dataclass
class Episode:
    """What one episode produced, for the metrics and the output checks."""

    #: Replica-iterations completed.
    replica_iters: int
    #: ``(best_fitness, iterations, stopping_reason, best_solution)`` per
    #: replica (batch) or per harvested job replica (serve).
    replicas: list[tuple[float, int, str, np.ndarray]]
    #: Exact simulated counters (``DeviceStats`` / ``TransferEngine``).
    counters: dict
    #: Simulated makespan (seconds).
    makespan: float
    #: Simulated latency of every completed unit (job or replica), seconds.
    latencies: list[float]
    #: Deadline-met completions.
    goodput_count: int
    #: Lockstep steps of the closed runner (0 for the server).
    steps: int = 0
    #: Serve only: per-job ``(job_id, status, latency, queue_wait,
    #: preemptions)`` rows and the service counters.
    jobs: list[tuple] = field(default_factory=list)
    service: dict = field(default_factory=dict)


def device_counters(evaluator) -> dict:
    """Exact simulated counters summed over the evaluator's device contexts."""
    if hasattr(evaluator, "pool"):
        contexts = list(evaluator.pool.contexts)
    else:
        contexts = [evaluator.context]
    engine = contexts[0].engine
    return {
        "kernel_launches": sum(ctx.stats.kernel_launches for ctx in contexts),
        "h2d_bytes": sum(ctx.stats.h2d_bytes for ctx in contexts),
        "d2h_bytes": sum(ctx.stats.d2h_bytes for ctx in contexts),
        "p2p_bytes": sum(ctx.stats.p2p_bytes for ctx in contexts),
        "kernel_sim_s": sum(ctx.stats.kernel_time for ctx in contexts),
        "transfer_sim_s": sum(
            ctx.stats.transfer_time + ctx.stats.p2p_time for ctx in contexts
        ),
        "uplink_busy_sim_s": engine.uplink_busy(),
        "contention_stall_sim_s": engine.total_stall,
        "makespan_sim_s": evaluator.stats.simulated_time,
    }


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Workload:
    """Base class: ``setup`` builds inputs once, ``episode`` runs them once."""

    name = ""

    def __init__(self, seed: int, *, small: bool = False) -> None:
        self.seed = int(seed)
        self.small = small
        self.problem = None
        self.instance: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def make_evaluator(self):
        raise NotImplementedError

    def episode(self, on_evaluator) -> Episode:
        raise NotImplementedError

    def warm(self) -> None:
        """First-call scorer and move-table builds, on a throwaway evaluator."""
        evaluator = self.make_evaluator()
        try:
            evaluator.evaluate_many(self.problem.random_solution(0)[None, :])
        finally:
            evaluator.close()


class _BatchWorkload(Workload):
    """A closed lockstep multi-start run (``MultiStartRunner.run``)."""

    runner_options: dict = {}

    def fault_plan(self) -> str | None:
        return None

    def episode(self, on_evaluator) -> Episode:
        evaluator = self.make_evaluator()
        try:
            on_evaluator(evaluator)
            runner = MultiStartRunner(
                evaluator,
                max_iterations=self.iterations,
                target_fitness=self.target,
                **self.runner_options,
            )
            result = runner.run(seeds=self.replica_seeds, fault_plan=self.fault_plan())
            counters = device_counters(evaluator)
        finally:
            evaluator.close()
        replicas = [
            (r.best_fitness, r.iterations, r.stopping_reason, r.best_solution)
            for r in result
        ]
        # A closed batch hands every replica back when ``run`` returns, so
        # each replica's latency is the batch makespan.
        return Episode(
            replica_iters=sum(r.iterations for r in result),
            replicas=replicas,
            counters=counters,
            makespan=result.simulated_time,
            latencies=[result.simulated_time] * len(replicas),
            goodput_count=len(replicas),
            steps=result.iterations,
        )


class PPPProtocol(_BatchWorkload):
    """The paper's protocol: 50 lockstep tabu replicas, host-side selection."""

    name = "ppp-protocol"
    runner_options = {"transfer_mode": "full"}

    def setup(self) -> None:
        size = 25 if self.small else 73
        self.problem, self.instance = make_ppp(
            size, size, stream(self.seed, self.name, "instance")
        )
        self.neighborhood = KHammingNeighborhood(size, 1 if self.small else 2)
        self.replica_seeds = (
            stream(self.seed, self.name, "replicas")
            .integers(0, 2**31 - 1, size=6 if self.small else 50)
            .tolist()
        )
        # The run length varies by one iteration with the seed, so the
        # simulated figures differ (slightly) between seeds.
        self.iterations = (8 if self.small else 120) + int(
            stream(self.seed, self.name, "length").integers(0, 2)
        )
        # No fitness target: every replica runs to the cap, so the work (and
        # the simulated time) does not depend on how many replicas succeed.
        self.target = float("-inf")
        self.warm()

    def make_evaluator(self):
        return GPUEvaluator(self.problem, self.neighborhood)


class FleetChurn(_BatchWorkload):
    """8 GPUs, shared uplink, delta mode, one device fails and rejoins."""

    name = "fleet-churn"
    runner_options = {"transfer_mode": "delta", "rebalance_every": 5}
    devices = 8

    def setup(self) -> None:
        n = 24 if self.small else 96
        self.problem, self.instance = make_ubqp(n, stream(self.seed, self.name, "instance"))
        self.neighborhood = KHammingNeighborhood(n, 1)
        self.replica_seeds = (
            stream(self.seed, self.name, "replicas")
            .integers(0, 2**31 - 1, size=16 if self.small else 64)
            .tolist()
        )
        rng = stream(self.seed, self.name, "length")
        self.iterations = (30 if self.small else 600) + int(rng.integers(0, 2))
        self.dead_device = int(rng.integers(0, self.devices))
        self.fail_at = self.iterations // 3 + int(rng.integers(0, 2))
        self.join_at = 2 * self.iterations // 3 + int(rng.integers(0, 2))
        # No fitness target: every replica runs to the iteration cap.
        self.target = float("-inf")
        self.warm()

    def fault_plan(self) -> str:
        return (
            f"fail:{self.dead_device}@{self.fail_at},"
            f"join:{self.dead_device}@{self.join_at}"
        )

    def make_evaluator(self):
        return MultiGPUEvaluator(
            self.problem,
            self.neighborhood,
            devices=self.devices,
            topology="shared",
            peer_routing=True,
        )


class ServePoisson(Workload):
    """Open-loop Poisson tenants through the continuous-batching solve server."""

    name = "serve-poisson"
    devices = 4
    capacity = 64
    load = 1.5
    transfer_mode = "reduced"

    def setup(self) -> None:
        self.problem, self.instance = make_ppp(31, 31, stream(self.seed, self.name, "instance"))
        self.neighborhood = KHammingNeighborhood(31, 1)
        self.warm()
        calibrator = self.make_evaluator()
        try:
            step_time = calibrate_step_time(
                calibrator, capacity=self.capacity, transfer_mode=self.transfer_mode
            )
        finally:
            calibrator.close()
        mean_job_work = 4.5 * 80.0  # mean replicas x mean budget of the trace
        rate = saturating_rate(step_time, self.capacity, mean_job_work, load=self.load)
        num_jobs = 24 if self.small else 240
        # Deadlines: the high class must finish within half the offered
        # trace span, the low class within twice it, each plus twice the
        # longest job's run time on an uncontended batch.
        span = num_jobs / rate
        floor = 2 * 150 * step_time
        self.jobs = make_trace(
            stream(0, self.name, "schedule"),
            stream(self.seed, self.name, "jitter"),
            num_jobs,
            rate,
            {1: 0.5 * span + floor, 0: 2.0 * span + floor},
        )
        # Explicit limits: never read from the REPRO_SERVICE_* defaults.
        self.max_queue = num_jobs

    def make_evaluator(self):
        return MultiGPUEvaluator(self.problem, self.neighborhood, devices=self.devices)

    def episode(self, on_evaluator) -> Episode:
        evaluator = self.make_evaluator()
        try:
            on_evaluator(evaluator)
            server = SolveServer(
                evaluator,
                capacity=self.capacity,
                max_queue=self.max_queue,
                policy="continuous",
                transfer_mode=self.transfer_mode,
            )
            report = server.run_trace(self.jobs)
            counters = device_counters(evaluator)
        finally:
            evaluator.close()
        replicas = [
            (r.best_fitness, r.iterations, r.stopping_reason, r.best_solution)
            for record in report.records
            for r in record.results
        ]
        jobs = [
            (
                record.spec.job_id,
                record.status,
                record.latency,
                record.queue_wait,
                record.preemptions,
            )
            for record in report.records
        ]
        waits = [record.queue_wait for record in report.records if record.queue_wait is not None]
        return Episode(
            replica_iters=sum(record.iterations for record in report.records),
            replicas=replicas,
            counters=counters,
            makespan=report.makespan,
            latencies=report.latencies(),
            goodput_count=sum(record.deadline_met for record in report.records),
            jobs=jobs,
            service={
                "jobs": len(report.records),
                "completed": report.completed,
                "rejected": report.rejected,
                "expired": report.expired,
                "deadline_missed": report.completed
                - sum(record.deadline_met for record in report.records),
                "preemptions": sum(record.preemptions for record in report.records),
                "queue_waits": waits,
                "attaches": sum(record.admitted is not None for record in report.records),
                "occupancy": report.mean_occupancy,
                "steps": report.steps,
            },
        )


REGISTRY = {cls.name: cls for cls in (PPPProtocol, FleetChurn, ServePoisson)}


def timed_setup(name: str, seed: int, *, small: bool = False) -> tuple[Workload, float]:
    """Build the workload from scratch; returns it with the set-up wall time."""
    start = time.perf_counter()
    workload = REGISTRY[name](seed, small=small)
    workload.setup()
    return workload, time.perf_counter() - start
