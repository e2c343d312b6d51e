"""No dead code under ``src/``: every imported name is used, every
private definition is referenced from somewhere other than itself, every
public one from ``src/`` too, and every defaulted parameter is passed by
some call under ``src/``, but for named exceptions.

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


# defaulted parameters that only code outside src/ passes: the bench
# harness times each interpreter variant (ROADMAP items 1 and 17), and the
# tests unify without the occurs check and run the CLI on their own argv
PASSED_FROM_OUTSIDE_SRC = ["cli.py main argv", "metaint.py mi_run variant",
                           "pd.py specialize_encoded variant",
                           "terms.py unify occurs_check"]


def _defaulted(tree):
    """(callee name, defaulted parameters with their positions, the
    position of the first argument a call passes) of each function of
    ``tree`` that has a default: an ``__init__`` is called by its class's
    name, and a method's ``self`` is passed by the call's receiver."""
    scopes = [(tree, None)] + [(n, n.name) for n in tree.body
                               if isinstance(n, ast.ClassDef)]
    for scope, cls in scopes:
        for node in scope.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            params = [(p.arg, i) for i, p in enumerate(positional)
                      if i >= len(positional) - len(a.defaults)]
            params += [(k.arg, None) for k, d in zip(a.kwonlyargs,
                                                     a.kw_defaults)
                       if d is not None]
            if not params:
                continue
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            name = cls if node.name == "__init__" else node.name
            yield name, params, int(method)


def _passes(call, param, position, first) -> bool:
    """Whether ``call`` passes ``param``, by keyword, by position (its
    first argument being at ``first``) or through ``*`` or ``**``."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position - first


def test_every_defaulted_parameter_is_passed_from_src():
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unpassed = []
    for name, tree in TREES.items():
        for callee, params, first in _defaulted(tree):
            for param, position in params:
                if not any(_passes(call, param, position, first)
                           for call in calls.get(callee, ())):
                    unpassed.append(f"{name} {callee} {param}")
    assert unpassed == PASSED_FROM_OUTSIDE_SRC, \
        f"defaulted parameters no call under src/ passes: {unpassed}"


def _imported_modules(tree):
    """The last component of each module that ``tree`` imports from, or
    imports, or whose submodules it imports with ``from . import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else \
                [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        yield from (name.rpartition(".")[2] for name in names)


def test_the_specializer_takes_each_state_s_pattern_as_data():
    """``pd.py`` knows nothing of the analysis: each state's goal-list
    pattern comes from ``StateTables.goal_patterns``, and it matches a
    call against it by the walk that direct synthesis calls too."""
    assert not {"analysis", "absdom"} & set(_imported_modules(TREES["pd.py"]))
    for name in ("pd.py", "synthesis.py"):
        assert "match_template" in {ref for ref, _ in
                                    _references(TREES[name])}, name
