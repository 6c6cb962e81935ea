"""Every name a module imports is used in that module.

The scan covers the package, the tests and the demos. A name listed in
``__all__``, or imported on a line marked ``# noqa: F401``, counts as
used.
"""

import ast
import re
from pathlib import Path

import pytest

import nat64scope

PACKAGE = Path(nat64scope.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))

_NOQA = re.compile(r"#\s*noqa:[\sA-Z0-9,]*\bF401\b")


def _annotation_names(node):
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source):
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if not _NOQA.search(lines[alias.lineno - 1]):
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
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


def test_the_scan_honours_noqa_on_the_line_of_the_name():
    source = (
        "import os  # noqa: F401\n"
        "import sys  # noqa: E501\n"
        "from typing import (\n"
        "    Dict,  # noqa: E501, F401\n"
        "    List,\n"
        ")\n"
    )
    assert unused_imports(source) == [(2, "sys"), (5, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(REPO)))
def test_script_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
