"""What the tier-1 modules share: the repo's paths, one parse of each source
file, one rule for the names a syntax tree reads, one way to run code in a
child interpreter, and the power and the float embeddings of a field
element.

pytest collects only `test_*.py`, so this module holds no tests.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import quadtwist

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadtwist"
TESTS = ROOT / "tests"
DEMOS = ROOT / "demos"
PERFBENCH = ROOT / "perfbench"

# the directory that holds the imported package, which a child interpreter
# imports too
PACKAGE_PATH = pathlib.Path(quadtwist.__file__).resolve().parent.parent


@functools.cache
def syntax_tree(path):
    """The syntax tree of the source file at path, parsed once per run."""
    return ast.parse(path.read_text(), str(path))


def read_names(tree):
    """The names tree reads, as two sets: the plain names (the id of each
    ast.Name load) and the attributes (the attr of each ast.Attribute
    load).  A string annotation reads what the expression it holds reads."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        # an argument's or an assignment's annotation, or a def's return one
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if annotation is not None:
            stack.extend(ast.parse(c.value, mode="eval")
                         for c in ast.walk(annotation)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str))
    return names, attrs


def reads_outside_own_def(tree):
    """The names and attributes read in the module tree, except where a
    top-level def or class reads its own name: recursion is no reader."""
    return set().union(*(set().union(*read_names(top))
                         - {getattr(top, "name", None)} for top in tree.body))


def run_python(*args, flags=(), path=(), **run_kwargs):
    """subprocess.run of this interpreter with flags on args.  PYTHONPATH
    holds the directory of the imported quadtwist first, then the
    directories path, then the entries the tests inherited."""
    entries = [PACKAGE_PATH, *path]
    if os.environ.get("PYTHONPATH"):
        entries.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, entries)))
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          **run_kwargs)


def power(z, k):
    """z^k for a QuadElem z and an int k, spelled as README's "Removed
    names" row for `z ** k`: repeated *, on z.inverse() when k < 0.  A
    bool or any other non-int k is a TypeError, so True is not read as 1."""
    if type(k) is not int:
        raise TypeError(f"exponent must be an int, not {type(k).__name__}")
    base = z.inverse() if k < 0 else z
    out = quadtwist.QuadElem(z.D, 1)
    for _ in range(abs(k)):
        out = out * base
    return out


def embedding(z, i):
    """sigma_i(z) as a float for a QuadElem z and i = 1 or 2, spelled as
    README's "Removed names" row for `z.embed(i)`.  Any other i is refused,
    so 0 or -1 is not read as sigma_2, nor True as sigma_1."""
    if type(i) is not int:
        raise TypeError(
            f"embedding index must be an int, not {type(i).__name__}")
    if i not in (1, 2):
        raise ValueError(f"embedding index must be 1 or 2, not {i}")
    return float(quadtwist.Surd(z.p, z.q if i == 1 else -z.q, z.D, z.d))
