"""Recorded simulated counters of resident lockstep runs.

Each *cell* runs a short tabu (or hill-climbing) lockstep search and
records every simulated counter the run leaves behind.  The multi-GPU
cells run a :class:`~repro.core.MultiGPUEvaluator` in ``delta`` or
``reduced`` mode; the single-GPU cells (keys starting ``gpu/``) run a
:class:`~repro.core.GPUEvaluator` in ``full``, ``delta``, ``reduced`` or
``persistent`` mode, as a closed :class:`MultiStartRunner` run or (the
resident modes) as a :class:`~repro.service.ContinuousRunner` session whose
tenants attach, suspend, resume and detach.  A cell records:

- every :class:`~repro.gpu.runtime.DeviceStats` field of every device;
- bytes, transactions and busy time of every interconnect link, the
  engine's total and per-device contention stall and its retry tallies;
- a digest of every stream's interval columns: each device's streams, the
  interconnect lanes and the host timeline.  A ``full`` cell digests the
  ``(kind, start, end)`` columns of all of a timeline's streams together,
  so the digest does not depend on which stream or label an operation
  lands on;
- the per-row ``LSResult.simulated_time``, the run's simulated time and the
  pool makespan (the device's elapsed time on one GPU).

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

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.gpu.runtime import DeviceStats
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import UBQP, PermutedPerceptronProblem
from repro.service import ContinuousRunner

FIXTURE = Path(__file__).with_name("data") / "resident_oracle.json"

TOPOLOGIES = ("dedicated", "shared", "switched", "nvlink")
DEVICES = (2, 4, 8)
MODES = ("delta", "reduced")
PLANS = ("none", "churn", "flaky")
PROBLEMS = ("ubqp", "ppp")
ITERATIONS = 10
REPLICAS = 11

GPU_TOPOLOGIES = ("dedicated", "shared")
GPU_MODES = ("delta", "reduced", "persistent")
GPU_PLANS = ("none", "flaky")
ORDERS = (1, 2, 3)
ALGORITHMS = ("tabu", "hill-climbing", "first-improvement")

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
    return grid + extra + gpu_cells()


def gpu_cells() -> list[dict]:
    """Single-GPU runs: closed lockstep runs plus a few churn sessions."""
    closed = [
        {
            "evaluator": "gpu",
            "topology": topology,
            "mode": mode,
            "pinned": pinned,
            "plan": plan,
            "problem": problem,
            "order": order,
            "algorithm": algorithm,
        }
        for problem, order, mode, pinned, algorithm, topology, plan in itertools.product(
            PROBLEMS, ORDERS, ("full", *GPU_MODES), (False, True), ALGORITHMS,
            GPU_TOPOLOGIES, GPU_PLANS,
        )
    ]
    churn = [
        {
            "evaluator": "gpu",
            "topology": topology,
            "mode": mode,
            "pinned": pinned,
            "plan": "churn",
            "problem": problem,
            "order": order,
            "algorithm": "tabu",
        }
        for (problem, order), mode, pinned, topology in itertools.product(
            (("ubqp", 1), ("ppp", 2)), GPU_MODES, (False, True), GPU_TOPOLOGIES[:1]
        )
    ]
    return closed + churn


def cell_key(cell: dict) -> str:
    if cell.get("evaluator") == "gpu":
        return (
            f"gpu/{cell['problem']}/k{cell['order']}/{cell['algorithm']}/"
            f"{cell['topology']}/{cell['mode']}/"
            f"{'pinned' if cell['pinned'] else 'pageable'}/{cell['plan']}"
        )
    return (
        f"{cell['problem']}/{cell['algorithm']}/{cell['topology']}/"
        f"d{cell['devices']}/{cell['mode']}/"
        f"{'pinned' if cell['pinned'] else 'pageable'}/{cell['plan']}"
    )


def _problem(name: str):
    if name == "ubqp":
        return UBQP.random(12, rng=3), 1
    return PermutedPerceptronProblem.generate(16, 16, rng=5), 2


def _counters(contexts, engine, host_timeline, *, merged: bool = False) -> dict:
    """Every device, link and stream counter the run left behind.

    ``merged`` digests each timeline as one set of ``(kind, start, end)``
    intervals instead of stream by stream.
    """
    digests = _merged_digest if merged else _timeline_digests
    return {
        # One list per device, in ``STATS_FIELDS`` order.
        "stats": [
            [_value(getattr(context.stats, name)) for name in STATS_FIELDS]
            for context in contexts
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
                for index, context in enumerate(contexts)
                for key, value in digests(f"gpu{index}", context.timeline).items()
            },
            **digests("interconnect", engine.timeline),
            **({} if host_timeline is None else digests("host", host_timeline)),
        },
    }


def _rows(results) -> dict:
    return {
        "row_simulated_time": [_hex(r.simulated_time) for r in results],
        "best_fitness": [_hex(r.best_fitness) for r in results],
        "iterations": [int(r.iterations) for r in results],
    }


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


def _merged_digest(prefix: str, timeline) -> dict:
    intervals = sorted(
        (start, end, kind)
        for stream in timeline.streams.values()
        for kind, start, end in zip(stream._kinds, stream._starts, stream._ends)
    )
    digest = hashlib.sha256()
    for start, end, kind in intervals:
        digest.update(f"{kind}|{_hex(start)}|{_hex(end)};".encode())
    return {prefix: digest.hexdigest()[:20]} if intervals else {}


def run_cell(cell: dict) -> dict:
    """Run one cell and return its recorded counters."""
    if cell.get("evaluator") == "gpu":
        return _run_gpu_cell(cell)
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
    if cell["problem"] == "ubqp":
        # As in the single-GPU cells: keep the rows running past step one.
        options["target_fitness"] = float("-inf")
    runner = MultiStartRunner(
        evaluator,
        algorithm=cell["algorithm"],
        max_iterations=ITERATIONS,
        transfer_mode=cell["mode"],
        **options,
    )
    try:
        result = runner.run(seeds=list(range(REPLICAS)), fault_plan=fault_plan)
        record = {
            **_counters(
                evaluator.pool.contexts, evaluator.pool.engine,
                evaluator.pool.host_timeline,
            ),
            **_rows(result),
            "simulated_time": _hex(result.simulated_time),
            "makespan": _hex(evaluator.pool.makespan),
        }
    finally:
        evaluator.close()
    return record


def _run_gpu_cell(cell: dict) -> dict:
    problem, _order = _problem(cell["problem"])
    evaluator = GPUEvaluator(
        problem,
        KHammingNeighborhood(problem.n, cell["order"]),
        pinned=cell["pinned"],
        topology=cell["topology"],
    )
    options = {"algorithm": cell["algorithm"], "transfer_mode": cell["mode"]}
    if cell["problem"] == "ubqp":
        # Random UBQP fitnesses start below the default target of 0, which
        # would retire every row before its first step.
        options["target_fitness"] = float("-inf")
    try:
        if cell["plan"] == "churn":
            results, steps = _churn(ContinuousRunner(evaluator, capacity=8, **options))
            extra = {"steps": steps}
        else:
            runner = MultiStartRunner(evaluator, max_iterations=ITERATIONS, **options)
            results = runner.run(
                seeds=list(range(REPLICAS)),
                fault_plan="flaky:0@4" if cell["plan"] == "flaky" else None,
            )
            extra = {"run_simulated_time": _hex(results.simulated_time)}
        record = {
            **_counters(
                [evaluator.context], evaluator.context.engine, None,
                merged=cell["mode"] == "full",
            ),
            **_rows(results),
            **extra,
            "simulated_time": _hex(evaluator.stats.simulated_time),
            "makespan": _hex(evaluator.context.timeline.elapsed),
        }
    finally:
        evaluator.close()
    return record


def _churn(runner: ContinuousRunner) -> tuple[list, list[str]]:
    """Tenants attach, get suspended and resumed, and detach mid-flight."""
    results, steps = [], []

    def step() -> None:
        report = runner.step()
        steps.append(_hex(report.sim_elapsed))
        if report.retired:
            results.extend(runner.detach(report.retired))

    with runner:
        runner.attach(seeds=[0, 1, 2], budgets=9)
        step()
        runner.attach(seeds=[3, 4], budgets=7)
        step()
        step()
        parked = runner.suspend(runner.active.nonzero()[0][:2])
        step()
        runner.attach(seeds=[5, 6, 7], budgets=4)
        step()
        runner.resume(parked)
        for _ in range(ITERATIONS * 3):
            if not runner.num_leased:
                break
            step()
    return results, steps


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
