"""The package runs on the standard library alone, and everything it
defines has a reader."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tcaco").glob("*.py"))
# the code that may read what the package defines; the tests do not count
READERS = [*SOURCES, *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


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


def definitions(path):
    """Name of every top-level function, class and constant in ``path``, and
    of every method of its top-level classes; dunder names are called by
    the language, not read."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (m.name for m in node.body if isinstance(m, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def read_names(path):
    """Every name ``path`` loads, as a name or an attribute, imports, or
    lists in ``__all__``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))


def test_every_definition_has_a_reader():
    read = {name for path in READERS for name in read_names(path)}
    unread = {(path.name, name) for path in SOURCES for name in definitions(path)
              if name not in read and not (name.startswith("__") and name.endswith("__"))}
    assert not unread
