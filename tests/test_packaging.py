"""Packaging-level smoke tests: public API surface, module entry point, metadata."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        ["mappings", "neighborhoods", "problems", "gpu", "core", "localsearch", "harness"],
    )
    def test_subpackage_all_exports_resolve(self, module):
        import importlib

        mod = importlib.import_module(f"repro.{module}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"repro.{module}.{name}"

    def test_one_liner_workflow(self):
        # The README's quickstart, condensed: the library must be usable in a
        # handful of lines end to end.
        from repro import CPUEvaluator, KHammingNeighborhood, PermutedPerceptronProblem, TabuSearch

        problem = PermutedPerceptronProblem.generate(15, 15, rng=0)
        result = TabuSearch(
            CPUEvaluator(problem, KHammingNeighborhood(15, 2)), max_iterations=50
        ).run(rng=0)
        assert result.iterations <= 50


class TestRelativeImports:
    def test_no_module_imports_repro_absolutely(self):
        # The package must load under another top-level name (a second copy
        # of the tree side by side), so it reaches itself only through
        # relative imports.
        root = Path(repro.__file__).parent
        absolute = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                absolute += [
                    f"{path.relative_to(root)}:{node.lineno} {name}"
                    for name in names
                    if name == "repro" or name.startswith("repro.")
                ]
        assert not absolute


class TestModuleEntryPoint:
    def test_python_dash_m_repro_devices(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "devices"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "GTX 280" in completed.stdout

    def test_python_dash_m_repro_help(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        for command in ("tables", "figure8", "solve", "devices", "mapping"):
            assert command in completed.stdout
