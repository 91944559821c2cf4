"""Every name a module imports is used by that module, and every private
module-level function or class of the package is named by the package.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere in the module, in a quoted annotation, or in ``__all__``.
``from __future__`` imports bind no name and are skipped.  A function or
class defined at the top of a ``src/diagsim`` module with a leading
underscore must appear as a name or attribute in some ``src/diagsim``
module other than as its own definition; tests and the benchmark do not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "diagsim").rglob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").rglob("*.py"))


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


def unnamed_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each private top-level function or class no module names."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}:{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
        named |= _names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(d for d in defined if d.partition(":")[2] not in named)


def test_no_unnamed_private_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    assert unnamed_private_definitions(sources) == []


def test_guard_sees_unnamed_private_definitions():
    sources = {"a": ("def _used(): pass\n"
                     "def _dead(): pass\n"
                     "class _Gone: pass\n"
                     "def _named_by_b(): pass\n"
                     "def __getattr__(name): pass\n"
                     "def public(): return _used\n"),
               "b": "import a\nx = a._named_by_b\n"}
    assert unnamed_private_definitions(sources) == ["a:_Gone", "a:_dead"]
