"""Solve-job specifications, arrival traces and per-job accounting.

A :class:`JobSpec` is what a client submits to the solve server: how many
lockstep replicas it wants, each replica's iteration budget, an optional
deadline, a priority and a tenant identity for fair-share.  Traces — lists
of specs ordered by arrival time — are what the server replays; the
open-loop Poisson generator below produces them and the JSON round-trip
stores them, so a recorded workload can be replayed bit-identically through
``repro serve --trace``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "JOB_STATUSES",
    "JobSpec",
    "TRACE_VERSION",
    "load_trace",
    "poisson_trace",
    "save_trace",
]

#: Version tag written into every trace file; :func:`load_trace` refuses a
#: different version instead of silently misreading the jobs.
TRACE_VERSION = 1

#: Lifecycle of a job inside the server:
#:
#: * ``queued``    — admitted to the queue, waiting for replica slots;
#: * ``running``   — its replica group is resident in the lockstep batch;
#: * ``preempted`` — suspended mid-flight to make room for a higher
#:   priority job (its full row state left with it; it resumes verbatim);
#: * ``completed`` — every replica retired (budget, target or local optimum);
#: * ``rejected``  — refused at arrival (queue full or the replica group
#:   exceeds the fleet's capacity outright);
#: * ``expired``   — its deadline passed while it was still waiting.
JOB_STATUSES = (
    "queued",
    "running",
    "preempted",
    "completed",
    "rejected",
    "expired",
)


@dataclass(frozen=True)
class JobSpec:
    """One client solve request, as submitted to the server queue."""

    #: Unique identifier within a trace.
    job_id: str
    #: Arrival time on the simulated clock (seconds).
    arrival: float
    #: Lockstep replica slots the job asks for (its multi-start width).
    replicas: int
    #: Per-replica iteration budget (the job's ``max_iterations``).
    budget: int
    #: Base seed; replica ``r`` starts from ``np.random.default_rng(seed + r)``
    #: unless :attr:`seeds` pins the per-replica seeds explicitly.
    seed: int = 0
    #: Explicit per-replica seeds (length :attr:`replicas`), overriding
    #: the ``seed + r`` derivation.
    seeds: tuple[int, ...] | None = None
    #: Relative deadline in simulated seconds (``None``: no deadline).  A
    #: queued job past its deadline is dropped (``expired``); a finished job
    #: past it still completes but does not count toward goodput.
    deadline: float | None = None
    #: Larger values are served first; strictly lower-priority running jobs
    #: may be preempted to make room.
    priority: int = 0
    #: Fair-share identity: the scheduler soft-caps the replica slots any
    #: one tenant holds while other tenants are waiting.
    tenant: str = "default"
    #: A replica retires early once its best fitness reaches this value.
    target_fitness: float = 0.0

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.budget < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")
        if not (math.isfinite(self.arrival) and self.arrival >= 0):
            raise ValueError(f"arrival must be finite and non-negative, got {self.arrival}")
        if self.deadline is not None and not (
            math.isfinite(self.deadline) and self.deadline > 0
        ):
            raise ValueError(f"deadline must be finite and positive, got {self.deadline}")
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
            if len(self.seeds) != self.replicas:
                raise ValueError(
                    f"seeds has {len(self.seeds)} entries for {self.replicas} replicas"
                )

    def resolved_seeds(self) -> tuple[int, ...]:
        """The per-replica seeds this job's replica group starts from."""
        if self.seeds is not None:
            return self.seeds
        return tuple(self.seed + r for r in range(self.replicas))

    def to_dict(self) -> dict:
        data = {
            "job_id": self.job_id,
            "arrival": self.arrival,
            "replicas": self.replicas,
            "budget": self.budget,
            "seed": self.seed,
            "priority": self.priority,
            "tenant": self.tenant,
            "target_fitness": self.target_fitness,
        }
        if self.seeds is not None:
            data["seeds"] = list(self.seeds)
        if self.deadline is not None:
            data["deadline"] = self.deadline
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        seeds = data.get("seeds")
        return cls(
            job_id=str(data["job_id"]),
            arrival=float(data["arrival"]),
            replicas=int(data["replicas"]),
            budget=int(data["budget"]),
            seed=int(data.get("seed", 0)),
            seeds=tuple(int(s) for s in seeds) if seeds is not None else None,
            deadline=(
                float(data["deadline"]) if data.get("deadline") is not None else None
            ),
            priority=int(data.get("priority", 0)),
            tenant=str(data.get("tenant", "default")),
            target_fitness=float(data.get("target_fitness", 0.0)),
        )


def poisson_trace(
    num_jobs: int,
    rate: float,
    *,
    rng: np.random.Generator | int | None = None,
    replicas: tuple[int, int] = (1, 4),
    budget: tuple[int, int] = (20, 120),
    deadline: float | tuple[float, float] | None = None,
    priorities: Sequence[int] = (0,),
    tenants: int = 1,
    target_fitness: float = 0.0,
) -> list[JobSpec]:
    """Open-loop Poisson arrivals: ``num_jobs`` specs at ``rate`` jobs/second.

    Inter-arrival gaps are exponential with mean ``1/rate``; replica counts
    and budgets are drawn uniformly from their inclusive ranges, priorities
    uniformly from ``priorities`` and tenants round-robin-free (uniform) over
    ``tenants`` identities.  The same ``rng`` seed reproduces the same trace
    exactly — that is what makes a recorded benchmark workload replayable.
    """
    if num_jobs <= 0:
        raise ValueError(f"num_jobs must be positive, got {num_jobs}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    stream = np.random.default_rng(rng)
    arrivals = np.cumsum(stream.exponential(1.0 / rate, size=num_jobs))
    jobs: list[JobSpec] = []
    for index in range(num_jobs):
        if deadline is None:
            job_deadline = None
        elif isinstance(deadline, tuple):
            job_deadline = float(stream.uniform(deadline[0], deadline[1]))
        else:
            job_deadline = float(deadline)
        jobs.append(
            JobSpec(
                job_id=f"job-{index:04d}",
                arrival=float(arrivals[index]),
                replicas=int(stream.integers(replicas[0], replicas[1] + 1)),
                budget=int(stream.integers(budget[0], budget[1] + 1)),
                seed=int(stream.integers(0, 2**31 - 1)),
                deadline=job_deadline,
                priority=int(priorities[int(stream.integers(len(priorities)))]),
                tenant=f"tenant-{int(stream.integers(tenants))}",
                target_fitness=target_fitness,
            )
        )
    return jobs


def save_trace(path, jobs: Sequence[JobSpec], *, problem: dict | None = None) -> None:
    """Write a trace (and an optional problem-spec header) as JSON."""
    payload = {
        "version": TRACE_VERSION,
        "problem": problem,
        "jobs": [job.to_dict() for job in jobs],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


#: Keys every job object of a trace file must carry.
_REQUIRED_JOB_KEYS = ("job_id", "arrival", "replicas", "budget")


def load_trace(path) -> tuple[dict, list[JobSpec]]:
    """Read a trace written by :func:`save_trace`; returns ``(problem, jobs)``.

    A malformed file raises :class:`ValueError`; errors in one job name its
    index in the ``jobs`` list.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"trace must be a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version!r}; this build reads "
            f"version {TRACE_VERSION}"
        )
    entries = payload.get("jobs")
    if not isinstance(entries, list):
        raise ValueError(f"trace 'jobs' must be a list, got {type(entries).__name__}")
    jobs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"trace job {index} must be an object")
        missing = [key for key in _REQUIRED_JOB_KEYS if key not in entry]
        if missing:
            raise ValueError(f"trace job {index} is missing {', '.join(missing)}")
        try:
            jobs.append(JobSpec.from_dict(entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace job {index}: {exc}") from None
    return payload.get("problem") or {}, jobs
