"""Every name a module imports is used by that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere in the module, in a quoted annotation, or in ``__all__``.
``from __future__`` imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "diagsim").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = _names(tree)
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _names(ast.parse(ann.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_and_honours_exports():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from a.b import c, d\n"
              "import x.y\n"
              "__all__ = ['d']\n"
              "def f(v: 'c') -> None:\n"
              "    return x.y\n")
    assert unused_imports(source) == ["np", "os"]
