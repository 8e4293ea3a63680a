"""Output checks: episode digests, the golden file and independent recomputation."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_VERSION = 1

#: Weight of the sign term of the Knudsen-Meier PPP objective.
PPP_SIGN_WEIGHT = 30


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:32]


def episode_record(episode) -> dict:
    """Everything that must repeat exactly, in golden-file form.

    Per-replica lists are kept verbatim for the closed batches; the solve
    server's (much longer) per-replica and per-job lists enter as digests.
    """
    fitness = [fit for fit, _, _, _ in episode.replicas]
    iterations = [its for _, its, _, _ in episode.replicas]
    reasons = [reason for _, _, reason, _ in episode.replicas]
    solutions = b"".join(
        np.asarray(sol, dtype=np.int8).tobytes() for *_, sol in episode.replicas
    )
    record = {
        "replicas": len(episode.replicas),
        "replicas_sha": _sha([fitness, iterations, reasons]),
        "best_sha": hashlib.sha256(solutions).hexdigest()[:32],
        "reasons": dict(sorted(Counter(reasons).items())),
        "replica_iters": episode.replica_iters,
        "steps": episode.steps,
        "counters": dict(episode.counters),
        "makespan": episode.makespan,
        "latencies_sha": _sha(episode.latencies),
        "goodput_count": episode.goodput_count,
    }
    if episode.jobs:
        record["jobs_sha"] = _sha([list(row) for row in episode.jobs])
        record["service"] = {
            key: value for key, value in episode.service.items() if key != "queue_waits"
        }
    else:
        record["fitness"] = fitness
        record["iterations"] = iterations
    return record


def compare(expected: dict, got: dict) -> list[str]:
    """One line per golden key the episode does not reproduce."""
    bad = []
    for key, want in expected.items():
        have = got.get(key)
        if have == want:
            continue
        if isinstance(want, list) and isinstance(have, list) and len(want) == len(have):
            differing = sum(a != b for a, b in zip(want, have))
            bad.append(f"{key}: {differing} of {len(want)} replicas differ")
        elif isinstance(want, dict) and isinstance(have, dict):
            keys = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
            bad.append(f"{key}: {', '.join(keys)} differ")
        else:
            bad.append(f"{key}: expected {want!r}, got {have!r}")
    return bad


# ----------------------------------------------------------------------
# Golden file
# ----------------------------------------------------------------------
def load_golden(path: Path = GOLDEN_PATH) -> dict:
    if not path.exists():
        return {"version": GOLDEN_VERSION, "full": {}, "small": {}}
    data = json.loads(path.read_text())
    if data.get("version") != GOLDEN_VERSION:
        raise ValueError(f"golden file {path} has version {data.get('version')!r}")
    return data


def save_golden(data: dict, path: Path = GOLDEN_PATH) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Independent recomputation of every reported best fitness
# ----------------------------------------------------------------------
def reference_fitness(instance: dict, solution: np.ndarray) -> float:
    """The objective, recomputed from the generated inputs alone."""
    x = np.asarray(solution, dtype=np.int64)
    if "Q" in instance:
        Q = instance["Q"]
        return float(x @ Q @ x)
    A, S = instance["A"], instance["S"]
    n = A.shape[1]
    Y = A.astype(np.int64) @ (2 * x - 1)
    sign = PPP_SIGN_WEIGHT * int((np.abs(Y) - Y).sum())
    hist = np.bincount(np.clip(Y, 0, n), minlength=n + 1)[1:]
    target = np.bincount(S, minlength=n + 1)[1:]
    return float(sign + int(np.abs(hist - target).sum()))


def recompute_failures(workload, episode) -> int:
    """Replicas whose reported best fitness disagrees with a fresh evaluation."""
    failed = 0
    for fitness, _its, _reason, solution in episode.replicas:
        by_program = workload.problem.evaluate(solution)
        by_reference = reference_fitness(workload.instance, solution)
        if not (fitness == by_program == by_reference):
            failed += 1
    return failed
