"""No module of qalt imports a name it never uses, and no private name
is left behind that nothing reads.

Each module is parsed with ast; every name an import binds must be read
somewhere in the module. __init__.py is exempt, since its imports are
the package's re-exports, and so are __future__ imports.

A private name (one leading underscore, not a dunder) bound at module
level or in a class body must be read somewhere in src/qalt outside its
own definition, as a bare name or as an attribute.

A public name, one in qalt.__all__, must be read the same way in
src/qalt, or in the benchmark's code under perfbench/, which also names
the functions it wraps as strings. Code that only the tests read
belongs with them, in tests/oracles.py.

A Diagram's port arrays are read in diagram.py, and outside it only
where its module docstring says: bracket.py reads _mate. Inside it,
Diagram._fill alone writes the fields, and the marks are set only where
the module notes say.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import qalt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qalt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0]
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _reads(node) -> Counter:
    """Names read under node, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _bindings(scope):
    """(name, statement) for each name bound in the body of scope, a
    module or a class."""
    for stmt in scope.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif (isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            yield name, stmt


def _private_bindings(tree):
    """(name, statement) for each private name bound at module level or
    in a top-level class body."""
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for name, stmt in _bindings(scope):
            if name.startswith("_") and not name.endswith("__"):
                yield name, stmt


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    reads = sum((_reads(t) for t in trees.values()), Counter())
    unread = ["%s: %s" % (module, name)
              for module, tree in sorted(trees.items())
              for name, stmt in _private_bindings(tree)
              if reads[name] == _reads(stmt)[name]]
    assert unread == []


def test_every_public_name_is_read_outside_the_tests():
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    reads = sum((_reads(t) for t in trees), Counter())
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        reads += _reads(tree)
        reads.update(n.value for n in ast.walk(tree)
                     if isinstance(n, ast.Constant)
                     and isinstance(n.value, str))
    definitions = dict(b for tree in trees for b in _bindings(tree))
    unread = [name for name in qalt.__all__
              if reads[name] == _reads(definitions[name])[name]]
    assert unread == []


# Diagram's port arrays and the marks it keeps beside them
PORT_FIELDS = ("_mate", "_fin", "_flat", "_starts", "_walk_numbered",
               "_fixpoint", "_pieces", "_alternating", "_planar")


def test_port_layout_is_read_where_diagram_says():
    reads = {(path.name, node.attr)
             for path in SRC.glob("*.py") if path.name != "diagram.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in PORT_FIELDS}
    assert reads == {("bracket.py", "_mate")}


# the functions of diagram.py that write each of Diagram's fields:
# _fill writes them all, and the marks are set where the module notes
# name, or passed from parent to child by canonical, smooth and the
# splice whose over-only result __init__ builds
FIELD_WRITERS = {
    **dict.fromkeys(("crossings", "free_loops", "component_count", "_flat",
                     "_mate", "_fin", "_starts", "_walk_numbered"),
                    {"_fill"}),
    "_fixpoint": {"_fill", "simplify", "canonical", "smooth"},
    "_pieces": {"_fill", "shadow_pieces", "canonical", "smooth"},
    "_alternating": {"_fill", "is_alternating", "canonical", "smooth"},
    "_planar": {"_fill", "_planar_faces", "_splice"},
}


def test_diagram_fields_have_one_writer():
    tree = ast.parse((SRC / "diagram.py").read_text())
    writers = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and not isinstance(node.ctx, ast.Load)):
                    writers.setdefault(node.attr, set()).add(func.name)
    assert set(FIELD_WRITERS) == set(qalt.Diagram.__slots__)
    assert writers == FIELD_WRITERS
