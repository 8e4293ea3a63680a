"""Smoke tests of ``tools/ab.py``, the same-process A/B of the perfbench workloads."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


def _has_head() -> bool:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return False
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True
    )
    return done.returncode == 0


def _load_ab():
    spec = importlib.util.spec_from_file_location("_ab_tool", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a commit")
def test_a_a_run_agrees_on_every_simulated_figure():
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(AB), "--base", "HEAD", "--workload", "fleet-churn",
         "--pairs", "2", "--seed", "0", "--small"],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["mismatches"] == []
    ratio = report["replica_iters_per_s"]["ratio"]
    assert ratio["pairs"] == 2
    assert ratio["ci95"][0] <= ratio["median"] <= ratio["ci95"][1]
    assert len(report["environment"]["base"]) == 40


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a commit")
def test_a_a_run_of_every_workload_reports_each():
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(AB), "--base", "HEAD", "--workload", "all",
         "--pairs", "1", "--seed", "0", "--small"],
        capture_output=True, text=True, timeout=900, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert [r["workload"] for r in report["reports"]] == [
        "ppp-protocol", "fleet-churn", "serve-poisson"
    ]
    for workload in report["reports"]:
        assert workload["mismatches"] == []
        assert workload["replica_iters_per_s"]["ratio"]["pairs"] == 1
    assert done.stdout.count("simulated counters, makespan, latencies: identical") == 3
    assert len(report["environment"]["base"]) == 40


def test_differences_names_each_disagreement():
    ab = _load_ab()
    base = SimpleNamespace(
        counters={"h2d_bytes": 10, "makespan_sim_s": 1.0}, makespan=1.0,
        latencies=[1.0], replica_iters=4,
    )
    assert ab.differences(base, base) == []
    other = SimpleNamespace(
        counters={"h2d_bytes": 11, "makespan_sim_s": 1.0}, makespan=1.0 + 2**-52,
        latencies=[1.0], replica_iters=4,
    )
    found = ab.differences(base, other)
    assert len(found) == 2
    assert found[0].startswith("counter h2d_bytes") and found[1].startswith("makespan")
