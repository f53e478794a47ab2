"""The public surface of quadtwist.

Every name `quadtwist.__all__` exports is read somewhere other than its own
definition: in a module of the package other than `__init__`, in a demo or
in the benchmark harness under perfbench/, where a `tracer.TARGETS` entry
counts as a read; the exports that only the harness reads are pinned.  And
every name the harness reaches resolves, so that a deletion in src/ cannot
break the harness unseen.  perfbench/ is only read: its tracer runs from
its source text, with no bytecode cache written there.
"""

import ast
from types import ModuleType

import pytest

import quadtwist
import quadtwist.cli  # noqa: F401  binds every submodule, as the harness's import does
from support import DEMOS, PERFBENCH, SRC, reads_outside_own_def, syntax_tree

PACKAGE_USERS = ([p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
                 + sorted(DEMOS.glob("*.py")))
USERS = PACKAGE_USERS + sorted(PERFBENCH.glob("*.py"))

tracer = ModuleType("tracer")
exec(compile((PERFBENCH / "tracer.py").read_text(), str(PERFBENCH / "tracer.py"),
             "exec"), vars(tracer))


def test_users_found():
    assert {p.name for p in USERS} >= {"cli.py", "01_wr_twists.py", "workloads.py"}


def test_every_export_is_used():
    used = set().union(*(reads_outside_own_def(syntax_tree(p)) for p in USERS))
    for target in tracer.TARGETS:
        used.update(target.split(".")[1:])
    assert [name for name in quadtwist.__all__ if name not in used] == []


def test_harness_only_names():
    # the public names that no module of the package and no demo reads,
    # kept for perfbench/ alone; module-level twist.intersect_interval_lists
    # is one too, a tracer target outside __all__
    used = set().union(*(reads_outside_own_def(syntax_tree(p))
                         for p in PACKAGE_USERS))
    assert {name for name in quadtwist.__all__ if name not in used} == {
        "hermite_thickness_sq", "similarity_point", "validate_canonical"}
    assert "intersect_interval_lists" not in used
    assert "twist.intersect_interval_lists" in tracer.TARGETS


def test_all_is_the_public_names_init_binds():
    tree = syntax_tree(SRC / "__init__.py")
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    public = [name for name in bound if not name.startswith("_")]
    assert quadtwist.__all__ == public
    assert not any(isinstance(getattr(quadtwist, name), ModuleType)
                   for name in quadtwist.__all__)


def test_checker_sees_reads_only():
    tree = ast.parse("import math\n"
                     "def f(x):\n    return f(x) + g.h(math.pi)\n"
                     "class C:\n    k = C\n    def m(self):\n        self.w = 1\n"
                     "y = C\n")
    assert reads_outside_own_def(tree) == {"x", "g", "h", "math", "pi", "self", "C"}


@pytest.mark.parametrize("target", tracer.TARGETS)
def test_tracer_target_resolves(target):
    tracer._resolve(target)


def _harness_reads():
    """The dotted names perfbench/*.py reads on quadtwist: each name that an
    import of quadtwist binds, and each attribute chain on such a name."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = syntax_tree(path)
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # `import quadtwist.x` binds quadtwist; `... as y` binds y
                roots.update((a.asname, a.name) if a.asname else
                             ("quadtwist", "quadtwist") for a in node.names
                             if a.name.split(".")[0] == "quadtwist")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "quadtwist"):
                roots.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        reads.update(roots.values())
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in roots:
                reads.add(".".join([roots[node.id], *chain]))
    return reads


def test_harness_reads_resolve():
    reads = _harness_reads()
    assert {"quadtwist.validate_canonical", "quadtwist.QuadElem.of",
            "quadtwist.cli.main"} <= reads

    def resolves(dotted):
        obj = quadtwist
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert sorted(r for r in reads if not resolves(r)) == []
