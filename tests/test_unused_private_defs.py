"""Every module-level private def or class of src/quadtwist has a reader in
src/quadtwist outside its own body.

A private helper that only tests call is code the library does not need.
Like `test_unused_imports`, this reads the syntax trees with the stdlib
`ast`: a reader is a load of the name, as a plain name or as an attribute,
anywhere in the package except inside the definition itself, so recursion
does not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadtwist"


def _private_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _reads(tree, name, skip=None):
    """Whether tree loads `name`, outside the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name \
                and isinstance(node.ctx, ast.Load):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def unread_private_defs(sources):
    """`module:name` of each private def or class in sources, a dict of
    module name to source text, that no module reads, sorted."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return sorted(
        f"{module}:{d.name}"
        for module, tree in trees.items() for d in _private_defs(tree)
        if not any(_reads(other, d.name, skip=d) for other in trees.values()))


def test_every_private_def_is_read_in_src():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"quadfield", "geodesic"} <= set(sources)
    assert unread_private_defs(sources) == []


def test_checker_finds_unread_defs():
    sources = {
        "a": ("def _used(n):\n    return _used(n - 1) if n else 0\n"
              "def _only_recursive(n):\n    return _only_recursive(n)\n"
              "class _Unused:\n    pass\n"
              "def public():\n    return b._helper() + _used(3)\n"),
        "b": ("def _helper():\n    return 1\n"
              "def __dunder__():\n    return 0\n"),
    }
    assert unread_private_defs(sources) == ["a:_Unused", "a:_only_recursive"]
