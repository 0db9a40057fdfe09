"""Every name a module of ``dqopt`` imports is used there or exported, and every export exists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dqopt").glob("*.py"))


def exported_names(tree: ast.Module) -> list[str]:
    """The ``__all__`` list a module's syntax tree assigns, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads and ``__all__`` omits."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported_names(tree))
    return sorted(imported - used)


def export_faults(module, names: list[str]) -> list[str]:
    """Each name ``names`` lists more than once, then each that ``module`` lacks."""
    twice = sorted({name for name in names if names.count(name) > 1})
    return [f"{name} listed twice" for name in twice] + [
        f"{name} missing" for name in names if not hasattr(module, name)
    ]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math"]
    assert unused_imports("from x import a, b as c\n__all__ = ['a']\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_export_check_finds_a_repeated_or_missing_name():
    module = types.SimpleNamespace(a=1, b=2)
    assert export_faults(module, ["a", "b"]) == []
    assert export_faults(module, ["a", "c", "a"]) == ["a listed twice", "c missing"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_exported_name_exists_once(path):
    names = exported_names(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module("dqopt" if path.stem == "__init__" else f"dqopt.{path.stem}")
    assert export_faults(module, names) == []
