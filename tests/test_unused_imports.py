"""No module of src/quadtwist except __init__ imports a name it never uses.

No linter is a dependency of the project, so this reads each module's syntax
tree with the stdlib `ast`: every name an import binds must occur as a name
in the module, or inside a string annotation.  `__init__` is exempt, since
its imports are the package's public names.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadtwist"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source):
    """The names imported by source and never used in it, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"quadfield.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .geodesic import sample_at, sample_orbit\n"
              "from .ideals import CanonicalIdeal\n"
              "def f(I: 'CanonicalIdeal') -> None:\n"
              "    return sample_orbit(I, os.path.sep)\n")
    assert unused_imports(source) == ["math", "sample_at"]
