"""Every public name of the package has a user outside the tests.

A public module-level function, class or constant, or a public method,
must be referenced by package code outside its own definition, or be
named in the benchmark's sources (bench/tracing.py names the layers it
wraps by string).  A check that only the tests call belongs with the
tests (tests/oracles.py).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kamcocycle").glob("*.py"))
BENCH = "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))

# the paper's smallness condition and strip bound, kept for the hand-over
# of the scheme to the theorem (ROADMAP item 2)
EXEMPT = {"check_condepsilon", "rn_lower_bound"}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(name, node) of the public module-level functions, classes and
    constants, and of the public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and _public(target.id):
                yield target.id, node


def _names(node):
    """The names and attribute names node uses, its own Store targets
    included (each definition's count is taken off the total)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_public_names():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    total = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            outside = total[name] - Counter(_names(node))[name]
            if not outside and not re.search(rf"\b{name}\b", BENCH):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_guard_sees_every_kind_of_definition():
    tree = ast.parse("A = 1\nB: int = 2\ndef f(): pass\nclass C:\n"
                     "    def m(self): pass\n    def _h(self): pass\n")
    assert [name for name, _ in _definitions(tree)] == ["A", "B", "f", "C", "C.m"]


def test_every_public_name_has_a_user_outside_the_tests():
    unused = [name for name in unused_public_names()
              if name.rsplit(".", 1)[-1] not in EXEMPT]
    assert not unused, f"used only by tests (move them to tests/oracles.py): {unused}"
