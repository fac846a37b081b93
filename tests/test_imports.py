"""Every module under src/cmvqa uses each name it imports.

A static check with `ast`: an imported name must appear somewhere in the
module as a name, as the base of an attribute access, or inside a quoted
annotation.  Names a module lists in `__all__` are re-exports and exempt, as
are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

import cmvqa

PACKAGE = Path(cmvqa.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = _imported(tree)
    unused = set(imported) - _used(tree) - _exported(tree)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "from typing import Dict, Optional\n\nx: Dict = {}\n"
    assert unused_imports(source) == ["Optional (line 1)"]


def test_check_exempts_exports_future_and_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "from .a import exported, quoted\n"
        "__all__ = ['exported']\n"
        "def f() -> 'quoted':\n"
        "    pass\n"
    )
    assert unused_imports(source) == []
