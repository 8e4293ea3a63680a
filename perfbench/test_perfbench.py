"""Self-test of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

A tiny configuration of every workload runs end to end, traced and
untraced; span self times add up to the traced root spans; a perturbed
golden value is reported as a failure; the printed metric names match
``BENCHMARK.json``; the default-path guard and the missing-sources guard
refuse to run.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REGISTRY, timed_setup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _clean_env() -> dict:
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def _run(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=_clean_env() if env is None else env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(REGISTRY) == list(run.WORKLOADS)
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_end_to_end(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--small")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for name in run.END_TO_END if not trace else ():
        assert line["metrics"][name]["value"] > 0, name


def test_held_out_seed_is_checked_through_the_canary():
    done = _run("--workload", "fleet-churn", "--seed", "987", "--seconds", "0.2", "--small")
    assert done.returncode == 0, done.stderr
    record = json.loads((ROOT / ".perfbench_out" / "fleet-churn-seed987-trace0.json").read_text())
    assert record["checks"]["golden_seed"] == 0
    assert record["checks"]["mismatch"] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_span_self_times_sum_to_the_root_spans(workload):
    bench, _ = timed_setup(workload, 0, small=True)
    tracer = Tracer()
    tracer.record = []
    with tracer:
        bench.episode(lambda evaluator: None)
    assert not tracer.missing
    assert sum(tracer.self_ns.values()) == tracer.root_ns > 0
    spans = {span_id: (parent, start, end) for span_id, parent, _, start, end in tracer.record}
    roots = [end - start for parent, start, end in spans.values() if parent == 0]
    assert sum(roots) == tracer.root_ns
    for parent, start, end in spans.values():
        if parent:
            assert spans[parent][1] <= start <= end <= spans[parent][2]


def test_perturbed_golden_value_is_a_failure(monkeypatch):
    bench, _ = timed_setup("ppp-protocol", 0, small=True)
    episode = bench.episode(lambda evaluator: None)
    good = checks.load_golden()
    verdict = run.run_checks("ppp-protocol", 0, bench, episode, True, True)
    assert verdict["failed"] == 0 and verdict["mismatch"] == []

    for perturb in (
        lambda entry: entry["fitness"].__setitem__(0, entry["fitness"][0] + 1.0),
        lambda entry: entry["counters"].__setitem__("h2d_bytes", entry["counters"]["h2d_bytes"] + 1),
    ):
        bad = copy.deepcopy(good)
        perturb(bad["small"]["ppp-protocol"]["0"])
        monkeypatch.setattr(checks, "load_golden", lambda bad=bad: bad)
        verdict = run.run_checks("ppp-protocol", 0, bench, episode, True, True)
        assert verdict["failed"] == verdict["attempted"] > 0
        assert verdict["mismatch"]


def test_wrong_reported_fitness_fails_recomputation():
    bench, _ = timed_setup("fleet-churn", 0, small=True)
    episode = bench.episode(lambda evaluator: None)
    assert checks.recompute_failures(bench, episode) == 0
    fitness, iterations, reason, solution = episode.replicas[0]
    episode.replicas[0] = (fitness - 1.0, iterations, reason, solution)
    assert checks.recompute_failures(bench, episode) == 1


def test_repro_variables_are_refused():
    env = dict(_clean_env(), REPRO_PPP_FAST="0")
    done = _run("--workload", "ppp-protocol", "--seconds", "0.2", "--small", env=env)
    assert done.returncode == 2
    assert "REPRO_PPP_FAST" in done.stderr
    assert "{" not in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "ppp-protocol", "--seconds", "0.2", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
