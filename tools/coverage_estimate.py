"""Line-coverage estimate of ``src/repro`` without pytest-cov.

Runs the whole test suite once, in this process, under ``sys.settrace``
(and ``threading.settrace`` for worker threads), and records every line
executed in a file under ``src/repro``.  The executable lines of a file are
the line numbers of its module code object and of every nested code object
(``co_lines``), minus the statements marked ``# pragma: no cover`` together
with every line of the block such a statement opens.

With ``--entry`` it runs the program's entry points instead of the suite:
the CI "Examples smoke" commands (read from ``.github/workflows/ci.yml``),
one ``--small`` episode of each perfbench workload, every ``python -m
repro`` subcommand at a small size and ``pytest benchmarks``.  It then
prints the line reach and every function whose body none of them enters;
those are the candidates for deletion.

Usage, from the repository root::

    python tools/coverage_estimate.py            # the tier-1 suite (tests/)
    python tools/coverage_estimate.py --files    # plus one line per file
    python tools/coverage_estimate.py -- tests/service -x
    python tools/coverage_estimate.py --entry    # entry-point reach
    python tools/coverage_estimate.py --entry --fail-under 83.5

Arguments after ``--`` go to pytest unchanged.  ``--fail-under PCT`` exits 1
when the printed figure (coverage or entry reach) is below ``PCT``.  The figure is close to, but
not the same as, pytest-cov's: the two tools count some lines (``else:``,
decorators, docstrings) differently.  Compare two trees with this script,
not this script against CI.  The run takes several times as long as the
plain suite.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
import threading
import traceback
from functools import partial
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
PERFBENCH_WORKLOADS = ("ppp-protocol", "fleet-churn", "serve-poisson")
PRAGMA = "pragma: no cover"


def _code_lines(code) -> set[int]:
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _excluded_lines(source: str, tree: ast.AST) -> set[int]:
    """Lines of every statement (and the block it opens) marked no-cover."""
    marked = {
        number for number, text in enumerate(source.splitlines(), 1) if PRAGMA in text
    }
    excluded = set(marked)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno in marked:
            excluded.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    return excluded


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _excluded_lines(source, ast.parse(source))


def unentered_functions(path: Path, hit_lines: set[int]) -> list[tuple[int, str, int]]:
    """``(line, qualified name, body lines)`` of each function never entered.

    A function counts as entered when any executable line of its body ran.
    Its ``def`` line and signature do not count: they run when the
    enclosing scope defines the function.  Functions with no executable
    body line (all marked no-cover) are skipped, and so are the functions
    nested in one never entered: its body lines include theirs.
    """
    executable = executable_lines(path)
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                body = executable & set(range(child.body[0].lineno, child.end_lineno + 1))
                if body and not body & hit_lines:
                    found.append((child.lineno, name, len(body)))
                else:
                    visit(child, f"{name}.")

    visit(ast.parse(path.read_text()), "")
    return sorted(found)


@contextlib.contextmanager
def tracing() -> Iterator[dict[str, set[int]]]:
    """Record, per file, the lines under ``src/repro`` that run in the block."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        filename = frame.f_code.co_filename
        keep = wanted.get(filename)
        if keep is None:
            keep = wanted[filename] = filename.startswith(prefix)
            if keep:
                hits.setdefault(filename, set())
        if not keep:
            return None
        hits[filename].add(frame.f_lineno)
        return local

    # The suite also runs ``python -m repro`` in subprocesses (not traced).
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; returns its exit code and the hit lines."""
    import pytest

    with tracing() as hits:
        status = pytest.main(pytest_args)
    return int(status), hits


def ci_example_commands(workflow: Path = CI_WORKFLOW) -> list[list[str]]:
    """The ``python examples/...`` command lines of the CI workflow, as argv lists."""
    commands = [
        shlex.split(line.strip())[1:]
        for line in workflow.read_text().splitlines()
        if line.strip().startswith("python examples/")
    ]
    if not commands:
        raise SystemExit(f"no 'python examples/...' command in {workflow}")
    return commands


def _run_example(argv: list[str]) -> int:
    saved = sys.argv
    sys.argv = list(argv)
    try:
        runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.argv = saved
    return 0


def _run_perfbench_episode(name: str, traced: bool) -> int:
    """One ``--small`` episode of a perfbench workload; returns its failed replicas."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from checks import episode_record, recompute_failures
    from tracer import Tracer
    from workloads import timed_setup

    workload, _wall = timed_setup(name, 0, small=True)
    with Tracer() if traced else contextlib.nullcontext():
        episode = workload.episode(lambda evaluator: None)
    episode_record(episode)
    return recompute_failures(workload, episode)


def _cli_commands(scratch: Path) -> list[list[str]]:
    """Every ``python -m repro`` subcommand at a small size."""
    checkpoint, trace = str(scratch / "checkpoint.json"), str(scratch / "trace.json")
    small = ["--m", "15", "--n", "15"]
    return [
        ["tables", "--scale", "smoke"],
        ["experiment", *small, "--k", "1", "--trials", "3", "--iterations", "10"],
        ["experiment", *small, "--k", "2", "--trials", "3", "--iterations", "10",
         "--evaluator", "gpu", "--transfer-mode", "reduced", "--pinned",
         "--topology", "shared"],
        ["experiment", *small, "--k", "1", "--trials", "3", "--iterations", "10",
         "--evaluator", "multi-gpu", "--devices", "2", "--transfer-mode", "delta",
         "--fault-plan", "flaky:1@2,fail:1@4,join:1@6",
         "--checkpoint-every", "2", "--checkpoint-path", checkpoint],
        ["experiment", *small, "--k", "1", "--trials", "3", "--iterations", "10",
         "--evaluator", "multi-gpu", "--devices", "2", "--transfer-mode", "delta",
         "--restore", checkpoint],
        ["figure8", "--scale", "smoke", "--points", "2"],
        ["solve", *small, "--k", "1", "--iterations", "20", "--platform", "cpu"],
        ["solve", *small, "--k", "2", "--iterations", "20", "--texture"],
        ["solve", *small, "--k", "2", "--iterations", "20", "--platform", "multi-gpu",
         "--transfer-mode", "delta", "--topology", "switched"],
        ["solve", *small, "--k", "1", "--iterations", "20", "--transfer-mode",
         "persistent", "--topology", "nvlink"],
        ["serve", *small, "--devices", "2", "--capacity", "8", "--trace-jobs", "12",
         "--save-trace", trace],
        ["serve", "--trace", trace, "--evaluator", "gpu", "--capacity", "4",
         "--policy", "continuous"],
        ["devices"],
        ["devices", "--topology", "shared"],
        ["mapping", "--n", "6", "--k", "3"],
    ]


def run_entries() -> tuple[int, dict[str, set[int]]]:
    """Run every entry point under the tracer; returns 1 if any failed."""
    import pytest

    failed = 0
    with tempfile.TemporaryDirectory() as scratch, tracing() as hits:
        from repro.cli import main as cli_main

        # (label, entry point, the statuses that count as success); the
        # first perfbench episode runs under perfbench's own span tracer.
        entries = [
            (f"perfbench {name} --small", partial(_run_perfbench_episode, name, not index), {0})
            for index, name in enumerate(PERFBENCH_WORKLOADS)
        ]
        for argv in _cli_commands(Path(scratch)):
            label = f"repro {shlex.join(argv)}".replace(scratch, "<tmp>")
            # ``solve`` exits 1 when the search stops short of fitness 0.
            ok = {0, 1} if argv[0] == "solve" else {0}
            entries.append((label, partial(cli_main, argv), ok))
        entries += [
            (f"python {shlex.join(argv)}", partial(_run_example, argv), {0})
            for argv in ci_example_commands()
        ]
        benches = ["-q", "-p", "no:cacheprovider", "--benchmark-disable", str(ROOT / "benchmarks")]
        entries.append(("pytest benchmarks", partial(pytest.main, benches), {0}))

        for label, run, ok in entries:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    status = int(run())
                except Exception:  # reported with its traceback; the next entry runs
                    status = "exception"
                    traceback.print_exc(file=out)
            if status not in ok:
                failed = 1
                print(out.getvalue()[-2000:], end="")
            print(f"entry {'ok  ' if status in ok else 'FAIL'} {label} (status {status})")
    return failed, hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", action="store_true", help="print one line per file")
    parser.add_argument("--entry", action="store_true",
                        help="run the entry points instead of the suite and list "
                             "the functions none of them enters")
    parser.add_argument("--fail-under", type=float, default=None, metavar="PCT",
                        help="exit 1 when the printed figure is below PCT percent")
    parser.add_argument("pytest_args", nargs="*", help="arguments passed to pytest")
    args = parser.parse_args(argv)
    if args.entry:
        status, hits = run_entries()
    else:
        pytest_args = args.pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        status, hits = run_suite(pytest_args)

    total = covered = 0
    rows = []
    unentered = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        done = lines & hits.get(str(path), set())
        total += len(lines)
        covered += len(done)
        rows.append((os.path.relpath(path, ROOT), len(done), len(lines)))
        if args.entry:
            unentered.extend(
                (os.path.relpath(path, ROOT), *function)
                for function in unentered_functions(path, done)
            )
    if args.files:
        for name, done, size in rows:
            share = 100.0 * done / size if size else 100.0
            print(f"{share:7.2f}%  {done:5d}/{size:<5d} {name}")
    for name, line, function, size in unentered:
        print(f"unentered  {name}:{line} {function} ({size} lines)")
    share = 100.0 * covered / total if total else 100.0
    if args.entry:
        body = sum(size for *_rest, size in unentered)
        print(f"entry reach: {share:.2f}% ({covered}/{total} lines); "
              f"{len(unentered)} functions never entered ({body} body lines)")
    else:
        print(f"coverage: {share:.2f}% ({covered}/{total} lines)")
    if args.fail_under is not None and round(share, 2) < args.fail_under:
        print(f"FAIL: {share:.2f}% is below --fail-under {args.fail_under:.2f}%")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
