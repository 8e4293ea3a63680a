"""Tests of ``tools/coverage_estimate.py``'s function listing for ``--entry``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "coverage_estimate.py"

FIXTURE = '''\
def called():
    return 1  # hit


def skipped():
    return 2


def defaults(
    value=len("abc"),  # default: runs when the module defines the function
):
    return value


class Box:
    def method(self):
        """Docstring."""
        return 3  # hit

    @property
    def unused(self):
        total = 0
        return total


def outer():
    def inner():
        return 4  # hit
    return inner  # hit


def never():
    def nested():
        return 5
    return nested


def excluded():  # pragma: no cover
    return 6
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("_coverage_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(marker: str) -> set[int]:
    return {
        number for number, text in enumerate(FIXTURE.splitlines(), 1) if marker in text
    }


def test_names_exactly_the_functions_not_entered(tmp_path):
    tool = _load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    # What importing the module runs: the ``def`` and ``class`` statements,
    # a decorator and a default expression.  Then the bodies an entry point ran.
    module_lines = {1, 5, 9, 10, 15, 16, 20, 21, 26, 32, 38}
    hits = module_lines | _lines("# hit")

    found = tool.unentered_functions(path, hits)

    # ``never.nested`` goes unnamed: ``never``'s body lines include it.
    assert [name for _line, name, _size in found] == ["skipped", "defaults", "Box.unused", "never"]
    assert [(line, size) for line, _name, size in found] == [(5, 1), (9, 1), (21, 2), (32, 3)]


def test_a_hit_body_line_marks_the_function_entered(tmp_path):
    tool = _load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    everything = tool.executable_lines(path)

    assert tool.unentered_functions(path, everything) == []
    names = [name for _line, name, _size in tool.unentered_functions(path, set())]
    assert names == ["called", "skipped", "defaults", "Box.method", "Box.unused", "outer", "never"]


def test_ci_example_commands_are_read_from_the_workflow(tmp_path):
    tool = _load_tool()
    workflow = tmp_path / "ci.yml"
    workflow.write_text(
        "      - name: Examples smoke\n"
        "        run: |\n"
        "          export PYTHONPATH=src\n"
        "          python examples/quickstart.py\n"
        "          python examples/profile_kernels.py --order 1 --iterations 5\n"
    )

    assert tool.ci_example_commands(workflow) == [
        ["examples/quickstart.py"],
        ["examples/profile_kernels.py", "--order", "1", "--iterations", "5"],
    ]


def test_fail_under_compares_the_printed_figure(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    hits = {1, 5, 9, 10, 15, 16, 20, 21, 26, 32, 38} | _lines("# hit")
    # The suite run is replaced by the fixture's hit lines: nothing is traced.
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    monkeypatch.setattr(tool, "run_suite", lambda _args: (0, {str(path): hits}))
    lines = tool.executable_lines(path)
    printed = round(100.0 * len(lines & hits) / len(lines), 2)

    assert tool.main(["--fail-under", f"{printed:.2f}"]) == 0
    assert f"coverage: {printed:.2f}%" in capsys.readouterr().out
    assert tool.main(["--fail-under", f"{printed + 0.01:.2f}"]) == 1
    assert "is below --fail-under" in capsys.readouterr().out
    assert tool.main([]) == 0
