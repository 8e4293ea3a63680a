#!/usr/bin/env python3
"""The benchmark of the GPU local-search stack: three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload ppp-protocol --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing instrumented but
the step clock; ``--trace 1`` alternates untraced and traced episodes and
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (environment stamp, percentiles, sample counts, checks) and the
traced spans are written under ``.perfbench_out/``.  See
``perfbench/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("ppp-protocol", "fleet-churn", "serve-poisson")

#: End-to-end metrics (measured with tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "replica_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_makespan_ms": "ms",
    "sim_goodput_per_s": "1/s",
    "sim_latency_mean_ms": "ms",
    "sim_latency_tail_ms": "ms",
}

#: Reported next to them but not gated: on a shared host these swing with
#: other tenants' load (see README.md, "Why these metrics").
REPORTED = {
    "step_wall_p10_ms": "ms",
    "step_wall_p50_ms": "ms",
    "step_wall_tail_ms": "ms",
    "sim_latency_p50_ms": "ms",
    "failed_share": "ratio",
}

#: Per-layer metrics (traced pass): name -> unit.  Times are per episode.
PER_LAYER = {
    "problems.incremental.try_evaluate_s": "s",
    "problems.incremental.commit_s": "s",
    "problems.incremental.served_share": "ratio",
    "problems.score_self_s": "s",
    "problems.score_calls": "count",
    "problems.scored_elements": "count",
    "problems.fastpath.cache_hit_rate": "ratio",
    "core.evaluate_self_s": "s",
    "core.evaluate_calls": "count",
    "core.apply_deltas_s": "s",
    "core.rebalance_s": "s",
    "core.fault_s": "s",
    "gpu.runtime.self_s": "s",
    "gpu.runtime.calls": "count",
    "gpu.interconnect.self_s": "s",
    "gpu.interconnect.calls": "count",
    "gpu.scheduler.self_s": "s",
    "gpu.kernel_launches": "count",
    "gpu.h2d_bytes": "B",
    "gpu.d2h_bytes": "B",
    "gpu.p2p_bytes": "B",
    "gpu.kernel_sim_ms": "ms",
    "gpu.transfer_sim_ms": "ms",
    "gpu.interconnect.uplink_busy_sim_ms": "ms",
    "gpu.interconnect.contention_stall_sim_ms": "ms",
    "localsearch.self_s": "s",
    "localsearch.steps": "count",
    "service.scheduler_self_s": "s",
    "service.step_self_s": "s",
    "service.attach_s": "s",
    "service.suspend_resume_s": "s",
    "service.detach_s": "s",
    "service.attaches": "count",
    "service.preemptions": "count",
    "service.rejected": "count",
    "service.expired": "count",
    "service.sim_queue_wait_p50_ms": "ms",
    "service.sim_queue_wait_tail_ms": "ms",
    "service.sim_occupancy": "ratio",
    "localsearch.wall_share": "ratio",
    "service.wall_share": "ratio",
    "core.wall_share": "ratio",
    "gpu.runtime.wall_share": "ratio",
    "gpu.interconnect.wall_share": "ratio",
    "gpu.scheduler.wall_share": "ratio",
    "problems.wall_share": "ratio",
    "problems.incremental.wall_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 7
#: Every run measures at least this many untraced (and, traced, this many
#: traced) episodes, whatever ``--seconds`` says.
MIN_EPISODES = 2
#: Percentiles a tail may be reported at: the highest with >= 10 samples
#: beyond it is used.  Step tails count only the samples every run is
#: guaranteed (MIN_EPISODES episodes), so the rung does not depend on how
#: fast the machine is.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
#: Seeds recorded in the golden file; the first is the canary for others.
GOLDEN_SEEDS = tuple(range(0, 21))
SMALL_GOLDEN_SEEDS = (0, 1, 2)
#: At most this many span records are written out per run.
MAX_SPAN_RECORDS = 200_000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def die(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def check_environment() -> None:
    """Refuse to measure anything but the program's default code path."""
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        die(
            "REPRO_* variables select non-default code paths; unset "
            + ", ".join(overrides)
            + " to measure the default path"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        die(f"program sources not found under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        from scipy.linalg.blas import sgemm  # noqa: F401
        sgemm_ok = True
    except ImportError:
        sgemm_ok = False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "scipy_sgemm": sgemm_ok,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values, guaranteed: int | None = None) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` at the highest usable rung.

    The rung is chosen on ``guaranteed`` samples (default: all of them).
    """
    count = len(values)
    if count == 0:
        return 0.0, 0.0, 0
    basis = count if guaranteed is None else min(count, guaranteed)
    usable = [q for q in TAIL_LADDER if basis * (1.0 - q / 100.0) >= 10.0]
    q = usable[-1] if usable else 100.0
    return q, float(np.percentile(values, q)), int(count * (1.0 - q / 100.0))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def instrument_steps(evaluator, marks: list) -> None:
    """Timestamp every top-level evaluator call (the lockstep step clock)."""
    for name in ("evaluate_many", "evaluate_resident"):
        method = getattr(evaluator, name, None)
        if method is None:
            continue

        def clocked(*args, _method=method, **kwargs):
            marks.append(time.perf_counter())
            return _method(*args, **kwargs)

        setattr(evaluator, name, clocked)


def run_checks(name, seed, workload, reference, episodes_agree, small) -> dict:
    """Verify the reference episode: recomputation, repetition, golden file.

    A golden mismatch or an episode that did not repeat fails every output;
    otherwise each output whose best fitness fails recomputation fails.  A
    seed without a golden entry is checked through the canary (the lowest
    golden seed), run once more after the measurement.
    """
    from checks import compare, episode_record, load_golden, recompute_failures
    from workloads import timed_setup

    record = episode_record(reference)
    outputs = len(reference.replicas)
    recompute_failed = recompute_failures(workload, reference)
    golden = load_golden()["small" if small else "full"].get(name, {})
    golden_seed = seed if str(seed) in golden else min(map(int, golden), default=None)
    if golden_seed is None:
        mismatch = ["golden file has no entry for this workload"]
    else:
        checked = record
        if golden_seed != seed:
            canary, _ = timed_setup(name, golden_seed, small=small)
            canary_episode = canary.episode(lambda evaluator: None)
            recompute_failed += recompute_failures(canary, canary_episode)
            checked = episode_record(canary_episode)
        mismatch = compare(golden[str(golden_seed)], checked)
    if not episodes_agree:
        mismatch.append("episodes did not repeat exactly")
    failed = outputs if mismatch else min(outputs, recompute_failed)
    attempted = outputs
    service = reference.service
    if service:
        # The solve server's unit is the job: refusals, expiries and missed
        # deadlines count against it too.
        attempted = service["jobs"]
        failed = min(
            attempted,
            service["rejected"] + service["expired"] + service["deadline_missed"] + failed,
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "outputs_checked": outputs,
        "recompute_failed": recompute_failed,
        "golden_seed": golden_seed,
        "mismatch": mismatch,
        "record": record,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    from repro.problems import cache_stats

    from checks import episode_record
    from tracer import Tracer
    from workloads import timed_setup

    setups = []
    for _ in range(SETUP_REPEATS):
        workload, setup_wall = timed_setup(name, seed, small=small)
        setups.append(setup_wall)

    tracer = Tracer() if trace else None
    plain = {"wall": 0.0, "iters": 0, "episodes": 0, "intervals": [], "rates": []}
    traced = {"wall": 0.0, "iters": 0, "episodes": 0}
    reference = reference_record = spans = None
    episodes_agree = True
    cache_before = cache_stats()
    deadline = time.perf_counter() + seconds
    while True:
        traced_turn = trace and plain["episodes"] > traced["episodes"]
        marks: list[float] = []
        if traced_turn:
            tracer.record = [] if spans is None else None
            tracer.install()
        start = time.perf_counter()
        try:
            episode = workload.episode(lambda evaluator: instrument_steps(evaluator, marks))
        finally:
            wall = time.perf_counter() - start
            if traced_turn:
                tracer.uninstall()
        bucket = traced if traced_turn else plain
        bucket["wall"] += wall
        bucket["iters"] += episode.replica_iters
        bucket["episodes"] += 1
        if traced_turn:
            if spans is None:
                spans, tracer.record = tracer.record, None
        else:
            plain["intervals"].extend(b - a for a, b in zip(marks, marks[1:]))
            plain["rates"].append(episode.replica_iters / wall)
            steps_per_episode = len(marks) - 1
            if plain["episodes"] == MIN_EPISODES:
                # Read at a fixed point of the run, so the figure does not
                # depend on how many episodes the machine fits in.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reference is None:
            reference, reference_record = episode, episode_record(episode)
        elif episode_record(episode) != reference_record:
            episodes_agree = False
        enough = plain["episodes"] >= MIN_EPISODES and (
            not trace or traced["episodes"] >= MIN_EPISODES
        )
        if enough and time.perf_counter() >= deadline:
            break
    cache_after = cache_stats()

    checks = run_checks(name, seed, workload, reference, episodes_agree, small)
    intervals = np.asarray(plain["intervals"])
    step_q, step_tail, step_beyond = tail(intervals, MIN_EPISODES * steps_per_episode)
    latencies = np.asarray(reference.latencies)
    lat_q, lat_tail, lat_beyond = tail(latencies)
    end_to_end = {
        "setup_s": median(setups),
        "replica_iters_per_s": plain["iters"] / plain["wall"],
        "peak_rss_mb": peak_rss_mb,
        "sim_makespan_ms": reference.makespan * 1e3,
        "sim_goodput_per_s": reference.goodput_count / reference.makespan,
        "sim_latency_mean_ms": float(latencies.mean()) * 1e3,
        "sim_latency_tail_ms": lat_tail * 1e3,
    }
    reported = {
        "step_wall_p10_ms": float(np.percentile(intervals, 10)) * 1e3,
        "step_wall_p50_ms": median(intervals) * 1e3,
        "step_wall_tail_ms": step_tail * 1e3,
        "sim_latency_p50_ms": median(latencies) * 1e3,
        "failed_share": checks["failed"] / checks["attempted"],
    }
    samples = {
        "setup_s": {"runs": setups},
        "replica_iters_per_s": {"episodes": plain["episodes"], "wall_s": plain["wall"],
                                "per_episode": plain["rates"]},
        "step_wall": {
            "steps": int(intervals.size),
            "tail_percentile": step_q,
            "beyond_tail": step_beyond,
            "deciles_ms": (np.percentile(intervals, np.arange(0, 101, 10)) * 1e3).tolist(),
        },
        "sim_latency": {"units": int(latencies.size), "tail_percentile": lat_q,
                        "beyond_tail": lat_beyond},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "environment": env_stamp(),
        "end_to_end": end_to_end,
        "reported": reported,
        "samples": samples,
        "checks": {key: value for key, value in checks.items() if key != "record"},
        "golden_record": checks["record"],
    }
    if trace:
        record["per_layer"] = layer_metrics(
            tracer, traced, plain, reference, cache_before, cache_after
        )
        record["trace_missing_targets"] = tracer.missing
        record["traced_episodes"] = traced["episodes"]
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        span_path.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": spans[:MAX_SPAN_RECORDS],
        }))
        record["spans_file"] = str(span_path.relative_to(ROOT))
    return record


def layer_metrics(tracer, traced, plain, reference, cache_before, cache_after) -> dict:
    episodes = traced["episodes"]
    wall_ns = traced["wall"] * 1e9

    def per_episode_s(name: str) -> float:
        return tracer.self_ns.get(name, 0) / 1e9 / episodes

    layer_ns = tracer.layer_self_ns()
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    counters = reference.counters
    service = reference.service
    waits = [wait * 1e3 for wait in service.get("queue_waits", [])]
    metrics = {
        "problems.incremental.try_evaluate_s": per_episode_s("problems.incremental.try_evaluate"),
        "problems.incremental.commit_s": per_episode_s("problems.incremental.commit"),
        "problems.incremental.served_share": (
            tracer.try_served / tracer.try_attempted if tracer.try_attempted else 0.0
        ),
        "problems.score_self_s": per_episode_s("problems.score"),
        "problems.score_calls": tracer.outer_calls.get("problems.score", 0) / episodes,
        "problems.scored_elements": tracer.scored_elements / episodes,
        "problems.fastpath.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.evaluate_self_s": per_episode_s("core.evaluate"),
        "core.evaluate_calls": tracer.outer_calls.get("core.evaluate", 0) / episodes,
        "core.apply_deltas_s": per_episode_s("core.apply_deltas"),
        "core.rebalance_s": per_episode_s("core.rebalance"),
        "core.fault_s": per_episode_s("core.fault"),
        "gpu.runtime.self_s": per_episode_s("gpu.runtime"),
        "gpu.runtime.calls": tracer.calls.get("gpu.runtime", 0) / episodes,
        "gpu.interconnect.self_s": per_episode_s("gpu.interconnect"),
        "gpu.interconnect.calls": tracer.calls.get("gpu.interconnect", 0) / episodes,
        "gpu.scheduler.self_s": per_episode_s("gpu.scheduler"),
        "gpu.kernel_launches": counters["kernel_launches"],
        "gpu.h2d_bytes": counters["h2d_bytes"],
        "gpu.d2h_bytes": counters["d2h_bytes"],
        "gpu.p2p_bytes": counters["p2p_bytes"],
        "gpu.kernel_sim_ms": counters["kernel_sim_s"] * 1e3,
        "gpu.transfer_sim_ms": counters["transfer_sim_s"] * 1e3,
        "gpu.interconnect.uplink_busy_sim_ms": counters["uplink_busy_sim_s"] * 1e3,
        "gpu.interconnect.contention_stall_sim_ms": counters["contention_stall_sim_s"] * 1e3,
        "localsearch.self_s": per_episode_s("localsearch.run"),
        "localsearch.steps": reference.steps,
        "service.scheduler_self_s": per_episode_s("service.scheduler"),
        "service.step_self_s": per_episode_s("service.step"),
        "service.attach_s": per_episode_s("service.attach"),
        "service.suspend_resume_s": per_episode_s("service.suspend_resume"),
        "service.detach_s": per_episode_s("service.detach"),
        "service.attaches": service.get("attaches", 0),
        "service.preemptions": service.get("preemptions", 0),
        "service.rejected": service.get("rejected", 0),
        "service.expired": service.get("expired", 0),
        "service.sim_queue_wait_p50_ms": median(waits),
        "service.sim_queue_wait_tail_ms": tail(waits)[1],
        "service.sim_occupancy": service.get("occupancy", 0.0),
    }
    for layer, self_ns in layer_ns.items():
        metrics[f"{layer}.wall_share"] = self_ns / wall_ns
    metrics["trace.overhead_share"] = 1.0 - (
        (traced["iters"] / traced["wall"]) / (plain["iters"] / plain["wall"])
    )
    metrics["trace.unattributed_share"] = 1.0 - tracer.root_ns / wall_ns
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def result_line(record: dict) -> dict:
    table = PER_LAYER if record["trace"] else END_TO_END
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    checks = record["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in table.items()
        },
    }


def print_summary(record: dict) -> None:
    checks = record["checks"]
    samples = record["samples"]
    env = record["environment"]
    print(f"== {record['workload']} seed {record['seed']} "
          f"({'traced' if record['trace'] else 'untraced'}, {record['seconds']:g} s) ==")
    print(f"   env: {env['nproc']} cpus, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']['name']} {env['blas']['version']}, "
          f"sgemm {'yes' if env['scipy_sgemm'] else 'no'}, threads {env['thread_env']}, "
          f"git {env['git_sha'] or 'unknown'}{' (dirty)' if env['git_dirty'] else ''}")
    notes = {
        "replica_iters_per_s": f"{samples['replica_iters_per_s']['episodes']} untraced episodes",
        "step_wall_tail_ms": (f"p{samples['step_wall']['tail_percentile']:g} of "
                              f"{samples['step_wall']['steps']} steps"),
        "sim_latency_tail_ms": (f"p{samples['sim_latency']['tail_percentile']:g} of "
                                f"{samples['sim_latency']['units']}"),
        "failed_share": (f"{checks['failed']}/{checks['attempted']}, checks "
                         f"{'PASS' if checks['failed'] == 0 else 'FAIL'}: recompute "
                         f"failures {checks['recompute_failed']}, golden seed "
                         f"{checks['golden_seed']}, mismatch {checks['mismatch'] or 'none'}"),
    }
    rows = [(name, unit, record["end_to_end"][name], "") for name, unit in END_TO_END.items()]
    rows += [(name, unit, record["reported"][name], "reported")
             for name, unit in REPORTED.items()]
    for name, unit, value, kind in rows:
        note = "; ".join(part for part in (kind, notes.get(name, "")) if part)
        print(f"   {name:<22} {value:>14.6g} {unit:<6}{f'  ({note})' if note else ''}")
    if record["trace"]:
        print(f"   per layer ({record['traced_episodes']} traced episodes, per episode):")
        for name, unit in PER_LAYER.items():
            print(f"     {name:<42} {record['per_layer'][name]:>14.6g} {unit}")
        if record["trace_missing_targets"]:
            print(f"   warning: untraced (missing) targets: {record['trace_missing_targets']}")


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print_summary(record)
    print(f"   record: {path.relative_to(ROOT)}")
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (separate peak-RSS), one table."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--small"] if args.small else [])
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            status = 1
    return status


def write_golden(args) -> int:
    """Record the reference outputs of the golden seeds (after a deliberate change)."""
    from checks import episode_record, load_golden, recompute_failures, save_golden
    from workloads import timed_setup

    golden = load_golden()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for config, seeds in (("full", GOLDEN_SEEDS), ("small", SMALL_GOLDEN_SEEDS)):
        for name in names:
            entries = golden[config].setdefault(name, {})
            for seed in seeds:
                workload, _ = timed_setup(name, seed, small=config == "small")
                episode = workload.episode(lambda evaluator: None)
                if recompute_failures(workload, episode):
                    die(f"{name} seed {seed}: reported fitness fails recomputation")
                entries[str(seed)] = episode_record(episode)
                print(f"golden {config} {name} seed {seed}: {entries[str(seed)]['replicas_sha']}")
    save_golden(golden)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny configuration of each workload (self-test)")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record golden.json from the current program")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    check_environment()
    if args.write_golden:
        return write_golden(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
