"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import nat64scope

PACKAGE = Path(nat64scope.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _annotation_names(node):
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source):
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {item.value for item in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import_and_only_that():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import NamedTuple, Optional\n"
        "from .model import IPAddress, Hop\n"
        "from . import catalogs as cat\n"
        "__all__ = ['Hop']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(cat.DATA, 'x')\n"
    )
    assert unused_imports(source) == [(3, "NamedTuple"), (4, "IPAddress")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
