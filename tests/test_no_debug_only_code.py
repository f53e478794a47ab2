"""src/quadtwist runs the same instructions under `python -O`.

`-O` strips `assert` statements, makes `__debug__` False and sets
`sys.flags.optimize`; a module that has none of the three cannot behave
differently with it, so every certificate check holds with asserts stripped.  Like
`test_unused_private_defs`, this reads the syntax trees with the stdlib `ast`.
Two tests run the library under `-O` end to end as well:
`test_twist.py::test_stable_twist_rechecks_under_optimize` and
`test_type_gate.py::test_sweep_under_python_O`.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadtwist"


def debug_only_code(sources):
    """`module:line: what` of each assert, load of `__debug__` and read of
    `sys.flags` in sources, a dict of module name to source text, sorted."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
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


def test_src_has_no_debug_only_code():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"quadfield", "twist", "cli"} <= set(sources)
    assert debug_only_code(sources) == []


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
    assert debug_only_code(sources) == [
        "a:4: assert", "a:5: __debug__", "a:6: sys.flags", "b:1: sys.flags"]
