"""Line-coverage estimate of ``src/repro`` without pytest-cov.

Runs the whole test suite once, in this process, under ``sys.settrace``
(and ``threading.settrace`` for worker threads), and records every line
executed in a file under ``src/repro``.  The executable lines of a file are
the line numbers of its module code object and of every nested code object
(``co_lines``), minus the statements marked ``# pragma: no cover`` together
with every line of the block such a statement opens.

Usage, from the repository root::

    python tools/coverage_estimate.py            # the tier-1 suite (tests/)
    python tools/coverage_estimate.py --files    # plus one line per file
    python tools/coverage_estimate.py -- tests/service -x

Arguments after ``--`` go to pytest unchanged.  The figure is close to, but
not the same as, pytest-cov's: the two tools count some lines (``else:``,
decorators, docstrings) differently.  Compare two trees with this script,
not this script against CI.  The run takes several times as long as the
plain suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
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


def run_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; returns its exit code and the hit lines."""
    import pytest

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
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", action="store_true", help="print one line per file")
    parser.add_argument("pytest_args", nargs="*", help="arguments passed to pytest")
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, hits = run_suite(pytest_args)

    total = covered = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        done = lines & hits.get(str(path), set())
        total += len(lines)
        covered += len(done)
        rows.append((path.relative_to(ROOT), len(done), len(lines)))
    if args.files:
        for name, done, size in rows:
            share = 100.0 * done / size if size else 100.0
            print(f"{share:7.2f}%  {done:5d}/{size:<5d} {name}")
    share = 100.0 * covered / total if total else 100.0
    print(f"coverage: {share:.2f}% ({covered}/{total} lines)")
    return status


if __name__ == "__main__":
    sys.exit(main())
