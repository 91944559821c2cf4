"""Every name a module imports is used by that module, every private
module-level function or class of the package is named by the package, and
every public one is named by the package or the benchmark.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere in the module, in a quoted annotation, or in ``__all__``.
``from __future__`` imports bind no name and are skipped.  A function or
class defined at the top of a ``src/diagsim`` module with a leading
underscore must appear as a name or attribute in some ``src/diagsim``
module other than as its own definition; tests and the benchmark do not count.
A public top-level function or class, or a public method, must appear as a
name, an attribute or a string in ``src/diagsim`` or in the benchmark outside
its tests; a string counts when it is a name or a dotted name, as ``__all__``
entries and the tracer's span targets are.  Tests do not count.  Names are
matched bare, not by their owner, so a test-only method whose name some other
object's attribute shares (a ``get`` beside ``dict.get`` calls) passes
unseen: the guard finds test-only names, it does not prove there are none.
No ``src/diagsim`` module imports or reads an underscore name of another
one: what a module shares is public.
Only ``cli._shared_parser`` may be memoized with ``functools.cache`` or
``lru_cache``: a cache that outlives a call carries results across runs in
one process, as the benchmark's passes are.
A fresh ``import diagsim.cli`` leaves ``scipy.io`` unloaded: only the Matrix
Market reader and writer use it, and it is about a tenth of the import's time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "diagsim").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(tree) -> set[str]:
    """Names, attributes, and each part of a string that is a (dotted) name."""
    named = _names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                named |= set(parts)
    return named


def unnamed_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each private top-level function or class no module names."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}:{node.name}" for node in tree.body
                    if isinstance(node, DEFINITIONS)
                    and node.name.startswith("_") and not node.name.endswith("__")]
        named |= _names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(d for d in defined if d.partition(":")[2] not in named)


def unnamed_public_definitions(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module:name of each public top-level function or class of sources, and
    module:Class.method of each public method, that neither sources nor
    readers name."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if not node.name.startswith("_"):
                defined.append((f"{module}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}:{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, DEFINITIONS)
                            and not item.name.startswith("_")]
        named |= _named(tree)
    for source in readers.values():
        named |= _named(ast.parse(source))
    return sorted(label for label, name in defined if name not in named)


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_names(sources: dict[str, str]) -> list[str]:
    """module:line owner._name of each underscore name of another package
    module that a module imports from it or reads off it; sources are keyed
    by file path, and a package module is named by its file's stem."""
    stems = {Path(module).stem for module in sources}
    found = []
    for module, source in sources.items():
        aliases = {}  # local name -> the package module it is bound to
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            owner = (node.module or "").rpartition(".")[2]
            if owner in stems and owner != Path(module).stem:
                found += [f"{module}:{node.lineno} {owner}.{a.name}"
                          for a in node.names if _private(a.name)]
            elif node.level or node.module == "diagsim":  # from . import diagio
                aliases |= {a.asname or a.name: a.name for a in node.names if a.name in stems}
        found += [f"{module}:{node.lineno} {aliases[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases
                  and _private(node.attr)]
    return sorted(found)


def test_no_module_uses_another_modules_private_names():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    assert foreign_private_names(sources) == []


def test_guard_sees_foreign_private_names():
    sources = {"pkg/io.py": "def _write(): pass\n_TABLE = {}\ndef write(): _write()\n",
               "pkg/cli.py": ("from . import io as files\n"
                              "from .io import _TABLE, write\n"
                              "import argparse\n"
                              "def run(p):\n"
                              "    files._write(); files.write(); p._actions\n"
                              "    return files.__name__, _TABLE, write\n")}
    assert foreign_private_names(sources) == ["pkg/cli.py:2 io._TABLE",
                                              "pkg/cli.py:5 io._write"]


def test_no_unnamed_public_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in BENCH}
    assert unnamed_public_definitions(sources, readers) == []


def test_guard_sees_unnamed_public_definitions():
    sources = {"a": ("def used(): pass\n"
                     "def dead(): pass\n"
                     "class Gone:\n"
                     "    def method(self): pass\n"
                     "    def _private(self): pass\n"
                     "class Kept:\n"
                     "    def spanned(self): pass\n"
                     "    @property\n"
                     "    def read(self): pass\n"
                     "class _Hidden:\n"
                     "    def step(self): pass\n"
                     "def bench_only(): pass\n"
                     "def exported(): pass\n"
                     "def caller(k): return used() + k.read + _Hidden\n"
                     "__all__ = ['exported']\n"),
               "b": "import a\nx = a.caller\n"}
    readers = {"bench": "SPANS = [('a', 'Kept.spanned'), ('a', 'bench_only')]\n"}
    assert unnamed_public_definitions(sources, readers) == [
        "a:Gone", "a:Gone.method", "a:_Hidden.step", "a:dead"]
    # tests are not readers: a name only a test reaches is flagged
    assert "a:bench_only" in unnamed_public_definitions(sources, {})


def test_public_guard_cannot_see_a_method_whose_name_another_object_uses():
    # known blind spot: names are matched bare, so counters.get(...) names a
    # test-only Matrix.get as well
    sources = {"a": ("class Matrix:\n"
                     "    def get(self, i): pass\n"
                     "def total(counters): return counters.get('x') + Matrix\n"),
               "b": "import a\nx = a.total\n"}
    assert unnamed_public_definitions(sources, {}) == []


MEMOIZERS = {"cache", "lru_cache"}


def _memoizer(node) -> bool:
    """Whether node is functools.cache or functools.lru_cache, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return (isinstance(node, ast.Attribute) and node.attr in MEMOIZERS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def memoized(sources: dict[str, str]) -> list[str]:
    """module:function of each function functools memoizes, and module:line of
    each other use of a functools memoizer, its import by name included."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _memoizer(dec):
                        found.append(f"{module}:{node.name}")
                        decorators |= {id(n) for n in ast.walk(dec)}
        for node in ast.walk(tree):
            imported = (isinstance(node, ast.ImportFrom) and node.module == "functools"
                        and any(a.name in MEMOIZERS for a in node.names))
            if imported or (_memoizer(node) and id(node) not in decorators):
                found.append(f"{module}:{node.lineno}")
    return sorted(set(found))


def test_only_the_shared_parser_is_memoized():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    assert memoized(sources) == ["src/diagsim/cli.py:_shared_parser"]


def test_guard_sees_memoizers():
    sources = {"a": ("import functools\n"
                     "from functools import lru_cache as lc, reduce\n"
                     "@functools.cache\n"
                     "def parser(): pass\n"
                     "class K:\n"
                     "    @functools.lru_cache(maxsize=8)\n"
                     "    def plan(self): pass\n"
                     "run = functools.lru_cache(None)(len)\n"
                     "cache = {}\n"
                     "def f(cache): return cache\n")}
    assert memoized(sources) == ["a:2", "a:8", "a:parser", "a:plan"]


def test_cli_import_leaves_scipy_io_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, diagsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.io')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout == "[]\n"
