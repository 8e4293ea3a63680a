"""Recorded admission outcomes of solve-server trace replays.

Each *cell* replays one Poisson trace through a :class:`~repro.service.SolveServer`
and records, for every job, ``(job_id, status, admitted, finished,
preemptions, iterations)`` as a SHA-256 digest, next to the step count, the
makespan and the status tallies (the tallies make a mismatch readable).
The cells cover both policies (``continuous``, ``drain``), preemption on and
off, ``fair_share`` ``None`` and 0.5, and traces at 2.5x the calibrated
capacity that overflow a short queue and let queued jobs expire; two cells
run the four-GPU ``reduced`` pool the ``serve-poisson`` benchmark runs.
Preemption together with ``fair_share`` runs on traces at 0.8x capacity;
``test_server.py::TestFairShareWithPreemption`` replays overloaded ones in
a subprocess with a timeout.

Floats are recorded with :meth:`float.hex`, so the comparison is exact.
``test_admission_oracle.py`` replays every cell against the recorded file;
regenerate the file only when a change is meant to move an admission::

    PYTHONPATH=src python tests/service/admission_oracle.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.core import CPUEvaluator, MultiGPUEvaluator
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import SolveServer, calibrate_step_time, poisson_trace, saturating_rate

FIXTURE = Path(__file__).with_name("data") / "admission_oracle.json"

POLICIES = ("continuous", "drain")
PREEMPTION = (True, False)
FAIR_SHARE = (None, 0.5)
#: (trace seed, offered load) of the overloaded and the light traces.
OVERLOADED = ((1, 2.5), (2, 2.5), (4, 2.5))
LIGHT = ((3, 0.8), (5, 0.8))
CAPACITY = 8
JOBS = 40
MAX_QUEUE = 6


def cells() -> list[dict]:
    def cell(evaluator, trace, policy, preemption, fair_share):
        seed, load = trace
        return {"evaluator": evaluator, "trace": seed, "load": load, "policy": policy,
                "preemption": preemption, "fair_share": fair_share}

    grid = [
        cell("cpu", trace, policy, preemption, fair_share)
        for trace, policy, preemption, fair_share in itertools.product(
            OVERLOADED, POLICIES, PREEMPTION, FAIR_SHARE
        )
        if not (preemption and fair_share is not None)
    ]
    grid += [
        cell("cpu", trace, policy, True, fair_share)
        for trace, policy, fair_share in itertools.product(LIGHT, POLICIES, FAIR_SHARE)
    ]
    grid += [cell("multi-gpu", OVERLOADED[0], "continuous", True, None)]
    grid += [cell("multi-gpu", LIGHT[0], "continuous", True, 0.5)]
    return grid


def cell_key(cell: dict) -> str:
    return (
        f"{cell['evaluator']}/trace{cell['trace']}-load{cell['load']}/{cell['policy']}"
        f"/preempt-{'on' if cell['preemption'] else 'off'}/fair-{cell['fair_share']}"
    )


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _make(evaluator: str):
    problem = PermutedPerceptronProblem.generate(17, 17, rng=5)
    neighborhood = KHammingNeighborhood(problem.n, 1)
    if evaluator == "cpu":
        return CPUEvaluator(problem, neighborhood), "full"
    return MultiGPUEvaluator(problem, neighborhood, devices=4), "reduced"


def _trace(evaluator: str, trace: int, load: float):
    """Arrivals at ``load`` x the calibrated capacity, three priorities,
    three tenants and deadlines short enough that some queued jobs expire."""
    calibrator, mode = _make(evaluator)
    try:
        step_time = calibrate_step_time(calibrator, capacity=CAPACITY, transfer_mode=mode)
    finally:
        calibrator.close()
    rate = saturating_rate(step_time, CAPACITY, 2.5 * 25.0, load=load)
    return poisson_trace(
        JOBS,
        rate,
        rng=trace,
        replicas=(1, 4),
        budget=(5, 45),
        deadline=(20 * step_time, 120 * step_time),
        priorities=(0, 1, 2),
        tenants=3,
        target_fitness=float("-inf"),
    )


def run_cell(cell: dict) -> dict:
    jobs = _trace(cell["evaluator"], cell["trace"], cell["load"])
    evaluator, mode = _make(cell["evaluator"])
    try:
        server = SolveServer(
            evaluator,
            capacity=CAPACITY,
            max_queue=MAX_QUEUE,
            policy=cell["policy"],
            preemption=cell["preemption"],
            fair_share=cell["fair_share"],
            transfer_mode=mode,
        )
        report = server.run_trace(jobs)
    finally:
        evaluator.close()
    rows = [
        [
            record.spec.job_id,
            record.status,
            _hex(record.admitted),
            _hex(record.finished),
            record.preemptions,
            record.iterations,
        ]
        for record in report.records
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    statuses: dict[str, int] = {}
    for record in report.records:
        statuses[record.status] = statuses.get(record.status, 0) + 1
    return {
        "jobs": digest,
        "steps": report.steps,
        "makespan": _hex(report.makespan),
        "statuses": dict(sorted(statuses.items())),
        "preemptions": sum(record.preemptions for record in report.records),
    }


def main() -> None:
    recorded = {cell_key(cell): run_cell(cell) for cell in cells()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cells": recorded}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cells to {FIXTURE}")


if __name__ == "__main__":
    main()
