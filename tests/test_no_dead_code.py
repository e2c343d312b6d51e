"""No dead code under ``src/``: every imported name is used, every
private definition is referenced from somewhere other than itself, and
every public one from ``src/`` too, but for one named exception.

Checked on the syntax trees of ``src/ccontrol/*.py``, with no linter."""

import ast
import pathlib
import re

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" /
                  "ccontrol").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text()) for path in SOURCES}


def _references(tree):
    """The names a tree uses, with the node that uses each.  A name in a
    string that is not a docstring counts: generated code names the
    functions it calls."""
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(n, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in docstrings:
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node


def _private_defs(tree):
    """Module-level and class-level functions and classes whose names
    begin with one underscore and are not dunder names."""
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    node.name.startswith("_") and \
                    not node.name.endswith("__"):
                yield node


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_imported_name_is_used(name):
    tree = TREES[name]
    used = {ref for ref, _ in _references(tree)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [b for b in bound if b not in used]
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_definition_is_referenced():
    refs = {}
    for tree in TREES.values():
        for ref, node in _references(tree):
            refs.setdefault(ref, []).append(node)
    dead = []
    for name, tree in TREES.items():
        for node in _private_defs(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(id(r) not in own for r in refs.get(node.name, ())):
                dead.append(f"{name}:{node.lineno} {node.name}")
    assert not dead, f"private definitions no code refers to: {dead}"


# the term core's reference renaming, which the bench harness
# microbenchmarks; it goes once the search loop's renaming replaces it
CALLED_FROM_OUTSIDE_SRC = ["terms.py rename_apart"]


def test_every_public_definition_is_referenced_from_src():
    refs = {}
    for tree in TREES.values():
        for ref, node in _references(tree):
            refs.setdefault(ref, []).append(node)
    dead = []
    for name, tree in TREES.items():
        scopes = [tree] + [n for n in tree.body
                           if isinstance(n, ast.ClassDef)]
        for node in (n for scope in scopes for n in scope.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                own = {id(n) for n in ast.walk(node)}
                if not any(id(r) not in own
                           for r in refs.get(node.name, ())):
                    dead.append(f"{name} {node.name}")
    assert dead == CALLED_FROM_OUTSIDE_SRC, \
        f"public definitions no code under src/ refers to: {dead}"
