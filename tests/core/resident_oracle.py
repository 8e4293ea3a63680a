"""Recorded simulated counters of multi-GPU resident lockstep runs.

Each *cell* runs a short tabu (or hill-climbing) lockstep search on a
:class:`~repro.core.MultiGPUEvaluator` in ``delta`` or ``reduced`` transfer
mode and records every simulated counter the run leaves behind:

- every :class:`~repro.gpu.runtime.DeviceStats` field of every device;
- bytes, transactions and busy time of every interconnect link, the
  engine's total and per-device contention stall and its retry tallies;
- a digest of every stream's interval columns: each device's streams, the
  interconnect lanes and the host timeline;
- the per-row ``LSResult.simulated_time``, the run's simulated time and the
  pool makespan.

Floats are recorded with :meth:`float.hex`, so the comparison is exact.
``test_resident_oracle.py`` replays every cell and compares it with the
recorded file; regenerate the file only when a change is meant to move the
simulated counters::

    PYTHONPATH=src python tests/core/resident_oracle.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from pathlib import Path

from repro.core import MultiGPUEvaluator
from repro.gpu.runtime import DeviceStats
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import UBQP, PermutedPerceptronProblem

FIXTURE = Path(__file__).with_name("data") / "resident_oracle.json"

TOPOLOGIES = ("dedicated", "shared", "switched", "nvlink")
DEVICES = (2, 4, 8)
MODES = ("delta", "reduced")
PLANS = ("none", "churn", "flaky")
PROBLEMS = ("ubqp", "ppp")
ITERATIONS = 10
REPLICAS = 11

#: Buffer names carry the owning evaluator's ``id()``; the digest drops it.
_OBJECT_ID = re.compile(r"\d{6,}")

STATS_FIELDS = [
    name for name in DeviceStats.__dataclass_fields__ if name != "launch_records"
]


def cells() -> list[dict]:
    """The recorded matrix, plus a few hill-climbing cells (other packets)."""
    grid = [
        {
            "topology": topology,
            "devices": devices,
            "mode": mode,
            "pinned": pinned,
            "plan": plan,
            "problem": problem,
            "algorithm": "tabu",
        }
        for topology, devices, mode, pinned, plan, problem in itertools.product(
            TOPOLOGIES, DEVICES, MODES, (False, True), PLANS, PROBLEMS
        )
    ]
    extra = [
        {
            "topology": topology,
            "devices": 4,
            "mode": "reduced",
            "pinned": False,
            "plan": "churn",
            "problem": "ppp",
            "algorithm": algorithm,
        }
        for topology, algorithm in itertools.product(
            TOPOLOGIES, ("hill-climbing", "first-improvement")
        )
    ]
    return grid + extra


def cell_key(cell: dict) -> str:
    return (
        f"{cell['problem']}/{cell['algorithm']}/{cell['topology']}/"
        f"d{cell['devices']}/{cell['mode']}/"
        f"{'pinned' if cell['pinned'] else 'pageable'}/{cell['plan']}"
    )


def _problem(name: str):
    if name == "ubqp":
        return UBQP.random(12, rng=3), 1
    return PermutedPerceptronProblem.generate(16, 16, rng=5), 2


def _hex(value: float) -> str:
    return float(value).hex()


def _value(value):
    return _hex(value) if isinstance(value, float) else int(value)


def _stream_digest(stream) -> str:
    digest = hashlib.sha256()
    for kind, name, start, end in zip(
        stream._kinds, stream._names, stream._starts, stream._ends
    ):
        digest.update(
            f"{kind}|{_OBJECT_ID.sub('#', name)}|{_hex(start)}|{_hex(end)};".encode()
        )
    digest.update(f"cursor={_hex(stream.cursor)};busy={_hex(stream.busy_time)}".encode())
    return digest.hexdigest()[:20]


def _timeline_digests(prefix: str, timeline) -> dict:
    return {
        f"{prefix}:{name}": _stream_digest(stream)
        for name, stream in sorted(timeline.streams.items())
    }


def run_cell(cell: dict) -> dict:
    """Run one cell and return its recorded counters."""
    problem, order = _problem(cell["problem"])
    neighborhood = KHammingNeighborhood(problem.n, order)
    devices = cell["devices"]
    evaluator = MultiGPUEvaluator(
        problem,
        neighborhood,
        devices=devices,
        pinned=cell["pinned"],
        topology=cell["topology"],
    )
    options = {}
    fault_plan = None
    if cell["plan"] == "churn":
        options["rebalance_every"] = 3
        fault_plan = f"fail:{devices - 1}@3,join:{devices - 1}@6"
    elif cell["plan"] == "flaky":
        fault_plan = "flaky:2@4"
    runner = MultiStartRunner(
        evaluator,
        algorithm=cell["algorithm"],
        max_iterations=ITERATIONS,
        transfer_mode=cell["mode"],
        **options,
    )
    try:
        result = runner.run(seeds=list(range(REPLICAS)), fault_plan=fault_plan)
        engine = evaluator.pool.engine
        record = {
            # One list per device, in ``STATS_FIELDS`` order.
            "stats": [
                [_value(getattr(context.stats, name)) for name in STATS_FIELDS]
                for context in evaluator.pool.contexts
            ],
            # ``[bytes, transactions, busy time]`` per link that carried traffic.
            "links": {
                name: [
                    _hex(engine.link_bytes(name)),
                    engine.link_transfers(name),
                    _hex(engine.link_busy(name)),
                ]
                for name in sorted(engine.topology.links)
                if engine.link_transfers(name)
            },
            "total_stall": _hex(engine.total_stall),
            "stall_by_device": {
                device: _hex(value)
                for device, value in sorted(engine.stall_by_device.items())
            },
            "retried_transfers": engine.retried_transfers,
            "retry_time": _hex(engine.retry_time),
            "streams": {
                **{
                    key: value
                    for index, context in enumerate(evaluator.pool.contexts)
                    for key, value in _timeline_digests(
                        f"gpu{index}", context.timeline
                    ).items()
                },
                **_timeline_digests("interconnect", engine.timeline),
                **_timeline_digests("host", evaluator.scheduler.host_timeline),
            },
            "row_simulated_time": [_hex(r.simulated_time) for r in result],
            "best_fitness": [_hex(r.best_fitness) for r in result],
            "iterations": [int(r.iterations) for r in result],
            "simulated_time": _hex(result.simulated_time),
            "makespan": _hex(evaluator.scheduler.makespan),
        }
    finally:
        evaluator.close()
    return record


def main() -> None:
    records = {cell_key(cell): run_cell(cell) for cell in cells()}
    lines = [json.dumps({"stats_fields": STATS_FIELDS})[:-1] + ', "cells": {']
    lines += [
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True, separators=(',', ':'))},"
        for key, record in sorted(records.items())
    ]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}}")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(records)} cells to {FIXTURE}")


if __name__ == "__main__":
    main()
