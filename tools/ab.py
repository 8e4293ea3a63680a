#!/usr/bin/env python3
"""Same-process A/B of perfbench workloads on two source trees.

Usage, from the repository root::

    python3 tools/ab.py --base HEAD~1 --workload fleet-churn --pairs 10 --seed 3
    python3 tools/ab.py --base HEAD --workload serve-poisson --pairs 2 --small   # A/A
    python3 tools/ab.py --base HEAD~1 --workload all --pairs 10 --seed 3

Side A is ``REV``'s ``src/repro``, extracted with ``git archive`` into a
temporary directory and imported as the package ``repro_base``; side B is
the working tree's ``src/repro``, imported as ``repro``.  ``src/`` has only
relative imports, so both trees live in one process.
``perfbench/workloads.py`` is loaded once per tree: the second load sees
the ``repro_base`` modules under their ``repro`` names in ``sys.modules``,
and the working tree's modules are put back right after.

The script interleaves ``timed_setup`` calls on the two trees, then
warms each side with one episode and runs whole episodes in pairs,
alternating which side goes first.  For the set-up wall time and for
``replica_iters_per_s`` it prints each side's median and quartiles, the
median B/A ratio with a seeded bootstrap 95% interval, and the number of
pairs B won.  The last line of standard output is one JSON object with
the same figures and the environment stamp.  ``--workload all`` A/Bs the
three workloads in turn, both trees loaded once, prints one block per
workload and ends with one JSON object holding one report per workload
under ``"reports"``.  The exit status is 1 when any pair's simulated
counters, makespan or latencies differ between the sides, and 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
WORKLOADS = ("ppp-protocol", "fleet-churn", "serve-poisson")
#: Package name of side A's tree.
BASE_PACKAGE = "repro_base"
#: Interleaved ``timed_setup`` calls per side (perfbench's SETUP_REPEATS).
SETUPS = 7
#: Bootstrap resamples of the median ratio.
RESAMPLES = 2000


def _git(*args: str, text: bool = True):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=text)
    if done.returncode != 0:
        err = done.stderr if text else done.stderr.decode(errors="replace")
        raise SystemExit(f"ab: git {' '.join(args)} failed: {err.strip()}")
    return done.stdout


def extract(rev: str, into: Path) -> Path:
    """Write ``rev``'s ``src/repro`` under ``into``; returns the package dir."""
    archive = _git("archive", "--format=tar", rev, "src/repro", text=False)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return into / "src" / "repro"


def _tree_modules(package: str) -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == package or name.startswith(package + ".")
    }


def import_tree(package_dir: Path, package: str) -> None:
    """Import every module of the tree at ``package_dir`` as ``package``.

    Importing them all up front keeps a lazy relative import inside a
    function body inside the same tree.
    """
    spec = importlib.util.spec_from_file_location(
        package, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    for info in pkgutil.walk_packages(module.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


@contextmanager
def aliased(package: str):
    """Show ``package``'s modules under their ``repro`` names while active."""
    saved = _tree_modules("repro")
    for name in saved:
        del sys.modules[name]
    for name, module in _tree_modules(package).items():
        sys.modules["repro" + name[len(package):]] = module
    try:
        yield
    finally:
        for name in _tree_modules("repro"):
            del sys.modules[name]
        sys.modules.update(saved)


def load_workloads(module_name: str):
    spec = importlib.util.spec_from_file_location(module_name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def differences(a, b) -> list[str]:
    """What two episodes disagree on among counters, makespan and latencies."""
    found = [
        f"counter {key}: {a.counters.get(key)!r} != {b.counters.get(key)!r}"
        for key in sorted(set(a.counters) | set(b.counters))
        if a.counters.get(key) != b.counters.get(key)
    ]
    if a.makespan != b.makespan:
        found.append(f"makespan: {a.makespan!r} != {b.makespan!r}")
    if a.latencies != b.latencies:
        found.append("latencies differ")
    if a.replica_iters != b.replica_iters:
        found.append(f"replica_iters: {a.replica_iters} != {b.replica_iters}")
    return found


def summary(values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def ratio_summary(ratios, seed: int, higher_is_better: bool) -> dict:
    """Median of the per-pair B/A ratios with a seeded bootstrap 95% interval."""
    ratios = np.asarray(ratios, dtype=np.float64)
    rng = np.random.default_rng(seed)
    resampled = np.median(rng.choice(ratios, size=(RESAMPLES, ratios.size)), axis=1)
    low, high = np.percentile(resampled, [2.5, 97.5])
    return {
        "median": float(np.median(ratios)),
        "ci95": [float(low), float(high)],
        "wins": int(((ratios > 1.0) if higher_is_better else (ratios < 1.0)).sum()),
        "pairs": int(ratios.size),
    }


def env_stamp(base_rev: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    dirty = _git("status", "--porcelain", "--untracked-files=no").strip()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "base": _git("rev-parse", base_rev).strip(),
        "head": _git("rev-parse", "HEAD").strip(),
        "head_dirty": bool(dirty),
    }


def ab(sides: dict, workload: str, args, stamp: dict) -> dict:
    """A/B one workload on the loaded trees; returns its report."""
    # One untimed set-up per side first: the first call on a tree pays
    # its one-time costs (lazy imports, first scorer builds).
    for side in "AB":
        sides[side].timed_setup(workload, args.seed, small=args.small)
    setups = {"A": [], "B": []}
    workloads = {}
    for turn in range(SETUPS):
        for side in ("AB" if turn % 2 == 0 else "BA"):
            workloads[side], wall = sides[side].timed_setup(
                workload, args.seed, small=args.small
            )
            setups[side].append(wall)

    def episode(side):
        gc.collect()
        start = time.perf_counter()
        result = workloads[side].episode(lambda evaluator: None)
        return result, time.perf_counter() - start

    reference, _ = episode("A")
    mismatches = [f"warm-up: {line}" for line in differences(reference, episode("B")[0])]
    rates = {"A": [], "B": []}
    for index in range(args.pairs):
        for side in ("AB" if index % 2 == 0 else "BA"):
            result, wall = episode(side)
            rates[side].append(result.replica_iters / wall)
            mismatches += [
                f"pair {index} side {side}: {line}"
                for line in differences(reference, result)
            ]
    return {
        "workload": workload,
        "seed": args.seed,
        "small": args.small,
        "environment": stamp,
        "setup_s": {
            "A": summary(setups["A"]),
            "B": summary(setups["B"]),
            "ratio": ratio_summary(np.divide(setups["B"], setups["A"]), args.seed, False),
        },
        "replica_iters_per_s": {
            "A": summary(rates["A"]),
            "B": summary(rates["B"]),
            "ratio": ratio_summary(np.divide(rates["B"], rates["A"]), args.seed, True),
        },
        "mismatches": mismatches,
    }


def print_block(report: dict) -> None:
    stamp = report["environment"]
    print(f"== {report['workload']} seed {report['seed']}"
          f"{' (small)' if report['small'] else ''}: "
          f"A = {stamp['base'][:12]}, B = working tree of {stamp['head'][:12]}"
          f"{' (dirty)' if stamp['head_dirty'] else ''} ==")
    print(f"   env: {stamp['nproc']} cpus, {stamp['machine']}, python {stamp['python']}, "
          f"numpy {stamp['numpy']}, blas {stamp['blas']}")
    for metric, better in (("setup_s", "lower"), ("replica_iters_per_s", "higher")):
        block = report[metric]
        print(f"   {metric} ({better} is better)")
        for side in "AB":
            q = block[side]
            print(f"     {side}: median {q['median']:.6g}  IQR [{q['q1']:.6g}, {q['q3']:.6g}]")
        r = block["ratio"]
        print(f"     B/A: median {r['median']:.4f}  95% CI [{r['ci95'][0]:.4f}, "
              f"{r['ci95'][1]:.4f}]  B better in {r['wins']}/{r['pairs']} pairs")
    mismatches = report["mismatches"]
    print(f"   simulated counters, makespan, latencies: "
          f"{'identical' if not mismatches else f'{len(mismatches)} MISMATCHES'}")
    for line in mismatches[:20]:
        print(f"     {line}")


def run(args) -> int:
    stamp = env_stamp(args.base)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        import_tree(extract(args.base, Path(scratch)), BASE_PACKAGE)
        with aliased(BASE_PACKAGE):
            side_a = load_workloads("_ab_workloads_a")
        side_b = load_workloads("_ab_workloads_b")
        sides = {"A": side_a, "B": side_b}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = []
        for name in names:
            report = ab(sides, name, args, stamp)
            print_block(report)
            reports.append(report)
    if args.workload == "all":
        print(json.dumps({
            "workload": "all", "seed": args.seed, "small": args.small,
            "environment": stamp, "reports": reports,
        }))
    else:
        print(json.dumps(reports[0]))
    return 1 if any(report["mismatches"] for report in reports) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of side A")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--pairs", type=int, default=10, help="timed episode pairs")
    parser.add_argument("--seed", type=int, default=3, help="workload seed")
    parser.add_argument("--small", action="store_true", help="the self-test configuration")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    overrides = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if overrides:
        parser.error("REPRO_* variables select non-default code paths; unset "
                     + ", ".join(overrides))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
