"""Static rules on the source, read from its syntax trees.

No linter is a dependency of the project, so each rule reads the syntax
trees of the stdlib `ast`, each file parsed once (`support.syntax_tree`):

- No module of src/quadtwist except `__init__`, no test module and no demo
  imports a name it never reads.  `__init__`'s imports are the package's
  public names.
- Every module-level private def or class of src/quadtwist is read in
  src/quadtwist outside its own body, as a plain name or as an attribute.
  A private helper that only tests call is code the library does not need.
- src/quadtwist runs the same instructions under `python -O`.  `-O` strips
  `assert` statements, makes `__debug__` False and sets
  `sys.flags.optimize`; a module that has none of the three cannot behave
  differently with it, so every certificate check holds with asserts
  stripped.  Two tests run the library under `-O` end to end as well:
  `test_twist.py::test_stable_twist_rechecks_under_optimize` and
  `test_type_gate.py::test_sweep_under_python_O`.

Each rule is a function of syntax trees, with a test that it finds what it
looks for.
"""

import ast

import pytest

from support import (
    DEMOS,
    ROOT,
    SRC,
    TESTS,
    read_names,
    reads_outside_own_def,
    syntax_tree,
)

# module name -> syntax tree, for every module of src/quadtwist
PACKAGE = {p.stem: syntax_tree(p) for p in sorted(SRC.glob("*.py"))}
IMPORTERS = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
             + sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py")))


def unused_imports(tree):
    """The names the imports of tree bind and tree never reads, sorted."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - read_names(tree)[0])


def unread_private_defs(trees):
    """`module:name` of each private def or class in trees, a dict of
    module name to syntax tree, that no module reads, sorted."""
    read = set().union(*map(reads_outside_own_def, trees.values()))
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read)


def debug_only_code(trees):
    """`module:line: what` of each assert, load of `__debug__` and read of
    `sys.flags` in trees, a dict of module name to syntax tree, sorted."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                what = "assert"
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                what = "__debug__"
            elif isinstance(node, ast.Attribute) and node.attr == "flags" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "sys":
                what = "sys.flags"
            elif isinstance(node, ast.ImportFrom) and node.module == "sys" \
                    and any(a.name == "flags" for a in node.names):
                what = "sys.flags"
            else:
                continue
            found.append(f"{module}:{node.lineno}: {what}")
    return sorted(found)


def test_sources_found():
    assert {"__init__", "quadfield", "twist", "cli", "geodesic"} <= set(PACKAGE)
    names = {p.name for p in IMPORTERS}
    assert {"cli.py", "support.py", "01_wr_twists.py"} <= names
    assert "__init__.py" not in names


def _importer_id(path):
    """A module of src/quadtwist by its file name, any other file by its
    path in the repo."""
    return path.name if path.parent == SRC else str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", IMPORTERS, ids=_importer_id)
def test_no_unused_import(path):
    assert unused_imports(syntax_tree(path)) == []


def test_every_private_def_is_read_in_src():
    assert unread_private_defs(PACKAGE) == []


def test_src_has_no_debug_only_code():
    assert debug_only_code(PACKAGE) == []


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .geodesic import sample_at, sample_orbit\n"
              "from .ideals import CanonicalIdeal\n"
              "def f(I: 'CanonicalIdeal') -> None:\n"
              "    return sample_orbit(I, os.path.sep)\n")
    assert unused_imports(ast.parse(source)) == ["math", "sample_at"]
    # a name stored over is not read
    assert unused_imports(ast.parse("import math\nmath = 1\n")) == ["math"]


def test_checker_finds_unread_defs():
    sources = {
        "a": ("def _used(n):\n    return _used(n - 1) if n else 0\n"
              "def _only_recursive(n):\n    return _only_recursive(n)\n"
              "class _Unused:\n    pass\n"
              "def public():\n    return b._helper() + _used(3)\n"),
        "b": ("def _helper():\n    return 1\n"
              "def __dunder__():\n    return 0\n"),
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert unread_private_defs(trees) == ["a:_Unused", "a:_only_recursive"]


def test_checker_finds_debug_only_code():
    sources = {
        "a": ('"""An assert in a docstring is text."""\n'
              "import sys\n"
              "def f(x):\n"
              "    assert x > 0, 'x'\n"
              "    if __debug__:\n"
              "        return sys.flags.optimize\n"
              "    return x.flags, sys.argv\n"),
        "b": ("from sys import flags\n"
              "from os import sep\n"),
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert debug_only_code(trees) == [
        "a:4: assert", "a:5: __debug__", "a:6: sys.flags", "b:1: sys.flags"]
