"""The package runs on the standard library alone."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tcaco").glob("*.py"))


def absolute_imports(path):
    """Top-level module name of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
