"""Terms, parsing, printing, substitution, and unification."""

import ast
import copy
import pathlib
import pickle
import random
import traceback

import pytest

from ccontrol.absdom import (AVar, MVar, abstract_name, parse_aconj,
                            print_aconj)
from ccontrol.engine import solve
from ccontrol.metaint import encode_as_logic_program
from ccontrol.multi import pattern_name
from ccontrol.policy import parse_policy
from ccontrol.terms import (Atom, Clause, Const, FreshNames, ParseError,
                            Program, Struct, Substitution, Var, _Lexer,
                            _MAX_NESTING, _Parser, _shape,
                            list_parts, mklist, parse_atom,
                            parse_goal, parse_program, parse_term,
                            print_atom, print_program, print_term,
                            rename_apart, replace_vars, resolve_in,
                            substitute, term_vars, unify)

from conftest import CORPUS_NAMES, corpus_text
from oracles import (atoms_like, check_unify_against_brute_force,
                     random_term, reference_print_term, reference_replace_vars,
                     reference_resolve_in, reference_substitute,
                     reference_tokens, resolve)


# --- parsing and printing -------------------------------------------------

def test_parse_print_round_trip():
    text = ("app([],L,L).\n"
            "app([X|Xs],Y,[X|Zs]) :- app(Xs,Y,Zs).\n")
    prog = parse_program(text)
    assert print_program(prog) == text
    assert parse_program(print_program(prog)).clauses == prog.clauses


def test_parse_leq_infix_and_prefix():
    c = parse_program("ord([X,Y|Z]) :- X =< Y, ord([Y|Z]).").clauses[0]
    assert c.body[0] == Atom("=<", (Var("X"), Var("Y")))
    # the reified prefix form round-trips as a term
    t = parse_term("f(=<(A,B))")
    assert t == Struct("f", (Struct("=<", (Var("A"), Var("B"))),))
    assert parse_term(print_term(t)) == t


def test_parse_lists():
    assert parse_term("[]") == Const("[]")
    assert parse_term("[1,2]") == mklist([Const(1), Const(2)])
    assert parse_term("[X|Xs]") == mklist([Var("X")], Var("Xs"))
    items, tail = list_parts(parse_term("[a,b|T]"))
    assert items == [Const("a"), Const("b")] and tail == Var("T")


def test_parse_goal_conjunction():
    goal = parse_goal("p(X) , q(X,1)")
    assert goal == (Atom("p", (Var("X"),)),
                    Atom("q", (Var("X"), Const(1))))


def test_parse_error_reports_location():
    with pytest.raises(ParseError):
        parse_program("p(X) :- .")
    with pytest.raises(ParseError):
        parse_atom("[1,2]")


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "f(a) g", "trailing input 'g' at line 1, column 6"),
    (parse_atom, "p(X) .", "trailing input '.' at line 1, column 6"),
    (parse_goal, "p(X), q(Y) ]", "trailing input ']' at line 1, column 12"),
    (parse_aconj, "p(a1) , q(g1) )",
     "trailing input ')' at line 1, column 15"),
])
def test_trailing_input_is_reported_at_its_token(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "p(", "unexpected end of input at line 1, column 3"),
    (parse_term, "[a", "expected ']', found end of input at line 1, column 3"),
    (parse_goal, "p(X), q([a|T]",
     "expected ')', found end of input at line 1, column 14"),
    (parse_program, "p(X) :- q(X)",
     "expected '.', found end of input at line 1, column 13"),
])
def test_end_of_input_is_named_in_parse_errors(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("names, text, variables", [
    (abstract_name, "p(a1,[g2|x],a,ma1) , b12 , g1 =< 3",
     {"a1": "AVar", "g2": "AVar", "g1": "AVar"}),
    (pattern_name, "a1(ma1,f(mg2),a10) , a1 , q(m1,mg)",
     {"ma1": "MVar", "mg2": "MVar", "a10": "AVar"}),
])
def test_abstract_notation_is_read_in_one_pass(names, text, variables):
    # a bare name in an argument goes through ``names``; a predicate name,
    # also of an atom without arguments, stays a name
    parser = _Parser(text, names)
    conj = parser.finish(tuple(parser.parse_body()))
    assert print_aconj(conj) == text
    assert {str(v): type(v).__name__ for v in term_vars(conj)} == variables
    assert conj[1] == Atom(text.split(" , ")[1])


@pytest.mark.parametrize("parse, text, message", [
    (parse_policy, "entry: p(g1).\npreprior: q(a1) <\n  r(f(Y)).",
     "concrete variable Y in abstract notation at line 3, column 7"),
    (parse_aconj, "p(a1) , multi((q(ma1)), init{ma1=X}, consec{}, "
     "final{}, id=1)",
     "concrete variable X in abstract notation at line 1, column 34"),
])
def test_variable_in_abstract_notation_is_reported_at_its_token(
        parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def _scan(scan, text):
    """What a lexer makes of ``text``: its tokens and where the text ends,
    or the message of the error it raises."""
    try:
        return scan(text)
    except ParseError as err:
        return str(err)


def _lexer_tokens(text):
    lexer = _Lexer(text)
    return lexer.tokens, (lexer.line, lexer.col)


def test_lexer_matches_the_character_loop_reference():
    # every corpus file, token for token with its location, and seeded
    # random texts, whose errors must carry the same message
    texts = [corpus_text(name, suffix) for name in CORPUS_NAMES
             for suffix in (".lp", ".policy", ".queries")]
    for text in texts:
        tokens, end = _lexer_tokens(text)
        assert (tokens, end) == reference_tokens(text)
        assert len(tokens) > 20
    alphabet = list(" \t\r\n%()[]{}|,<=;./:->_aZz09xY\u00e9\u00c9\u01c5"
                    "\u4e2d\u0663\f@") + ["-1", " 12", "foo", "Bar"]
    rng = random.Random(21)
    for _ in range(3000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 30)))
        assert _scan(_lexer_tokens, text) == _scan(reference_tokens, text), \
            repr(text)


@pytest.mark.parametrize("text, message", [
    ("p(a) :- q(b),\n  r(@).", "unexpected character '@' at line 2, column 5"),
    ("p(X) % a comment\n\t - 1", "unexpected character '-' at line 2, column 3"),
    ("\u4e2d(a)", "unexpected character '\u4e2d' at line 1, column 1"),
    ("p(\u01c5)", "unexpected character '\u01c5' at line 1, column 3"),
    # a digit that ``int`` cannot read: once a ValueError
    ("p(1\u00b2)", "unexpected character '\u00b2' at line 1, column 4"),
])
def test_unexpected_character_is_reported_at_its_location(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


def test_print_atom_leq_is_infix():
    assert print_atom(Atom("=<", (Const(1), Const(2)))) == "1 =< 2"


# --- term objects ---------------------------------------------------------

def _nested(depth, innermost):
    t = Const(innermost)
    for _ in range(depth):
        t = Struct("s", (t,))
    return t


def test_equality_of_deep_terms_does_not_recurse():
    x, y = _nested(5000, "z"), _nested(5000, "z")
    assert x == y and not x != y
    assert Atom("p", (x, Var("X"))) == Atom("p", (y, Var("X")))
    other = _nested(5000, "o")
    assert x != other and not x == other
    assert Atom("p", (x,)) != Atom("p", (other,))
    assert x != _nested(4999, "z") and x != Struct("t", x.args)


def test_terms_pickle_and_copy():
    mixed = Atom("p", (AVar("a", 1), Struct("f", (MVar("g", 2), Const(3))),
                       Var("X")))
    for term in (Const(7), Const("a"), parse_term("f(X,[a,2|T])"), mixed):
        for again in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
            assert again == term and hash(again) == hash(term)
            assert again is not term
            assert repr(again) == repr(term)
    again = copy.deepcopy(mixed)
    assert [a.__class__ for a in again.args] == [AVar, Struct, Var]
    assert again.args[1].args[0].__class__ is MVar
    assert pickle.loads(pickle.dumps(Const(7))).name.__class__ is int


def test_terms_equal_only_their_own_class_and_hash_their_fields():
    x = Var("X")
    assert Struct("f", (x,)) != Atom("f", (x,))
    assert Atom("f", (x,)) != Struct("f", (x,))
    assert Const(1) != Const("1") and Const("f") != Atom("f")
    assert Struct("f", (x,)) == Struct("f", (Var("X"),))
    args = (x, Const(1))
    assert hash(Struct("f", args)) == hash(("f", args))
    assert hash(Atom("p", args)) == hash(("p", args))
    assert hash(Const("a")) == hash(("a",))
    assert hash(parse_term("f(X,g(a))")) == hash(parse_term("f(X,g(a))"))
    with pytest.raises(AssertionError):
        Struct("f", ())
    for term in (Const(1), Struct("f", args), Atom("p", args), Atom("q")):
        assert not hasattr(term, "__dict__")


def _field_assignments(tree):
    """The nodes of ``tree`` that assign, delete or ``setattr`` a field
    named as a term's, each with the names of the class and the function
    it is in."""
    fields = {"functor", "args", "pred"}

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            function = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and t.attr in fields:
                    yield t, cls, function
        if isinstance(node, ast.Call) and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant) and \
                node.args[1].value in fields and \
                getattr(node.func, "attr", getattr(node.func, "id", None)) \
                in ("setattr", "__setattr__"):
            yield node, cls, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls, function)

    yield from visit(tree, None, None)


def test_term_fields_are_assigned_only_by_their_constructors():
    """Terms are immutable by convention: under ``src/`` only the
    ``__init__`` of ``Struct`` and ``Atom`` sets ``functor``, ``args`` or
    ``pred``, and only on ``self``."""
    src = pathlib.Path(__file__).parent.parent / "src" / "ccontrol"
    offending, allowed = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node, cls, function in _field_assignments(tree):
            where = f"{path.name}:{node.lineno}"
            if path.name == "terms.py" and cls in ("Struct", "Atom") and \
                    function == "__init__" and \
                    isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                allowed.append(where)
            else:
                offending.append(where)
    assert len(allowed) == 4
    assert not offending, f"term fields assigned outside __init__: {offending}"


# --- substitution and renaming -------------------------------------------

def test_variables_equal_by_name_and_only_each_other():
    x = Var("X")
    assert x == Var("X") and hash(x) == hash(Var("X"))
    assert x != Var("Y") and not x == Var("Y")
    assert x != "X" and "X" != x and not x == "X" and not "X" == x
    assert x != Const("X") and Const("X") != x and not x == Const("X")
    assert x.name == "X" and type(x.name) is str
    assert repr(x) == str(x) == print_term(x) == "X"
    assert repr(parse_term("f(X,[Y|T])")) == "f(X,[Y|T])"
    assert repr(Substitution({x: parse_term("g(Y)")})) == "{X=g(Y)}"
    table = {x: 1}
    assert table[parse_term("X")] == 1 and "X" not in table
    assert term_vars(parse_term("f(X,g(X,Y))")) == [x, Var("Y")]


def test_substitution_application_walks_chains():
    s = Substitution({Var("X"): Var("Y"), Var("Y"): Const("c")})
    assert s.apply(Struct("f", (Var("X"),))) == Struct("f", (Const("c"),))


def test_rename_apart_freshens_all_vars():
    c = parse_program("p(X,Y) :- q(X), r(Y,X).").clauses[0]
    rc = rename_apart(c, FreshNames())
    vs = term_vars((rc.head,) + rc.body)
    assert len(vs) == 2
    assert not set(vs) & set(term_vars((c.head,) + c.body))


def test_rename_apart_with_overlapping_names():
    # clause variables already named like the fresh ones must not collapse
    head = Atom("p", (Var("_V1"), Var("_V2")))
    c = Clause(head, (), 1)
    rc = rename_apart(c, FreshNames())
    a, b = rc.head.args
    assert a != b


# --- one rebuild walk; printing and reading without recursion ------------

def _random_term(rng, depth, pool):
    """A random term of ``random_term``'s, or now and then a list of them
    with a variable or ``[]`` as its tail."""
    if rng.random() < 0.2:
        items = [random_term(rng, depth - 1, pool)
                 for _ in range(rng.randint(1, 3))]
        tail = Var(rng.choice(pool)) if pool and rng.random() < 0.5 \
            else Const("[]")
        return mklist(items, tail)
    return random_term(rng, depth, pool)


def _random_store(rng, names):
    """Triangular bindings over ``names``: each variable bound, or not, to
    a term over the variables after it, or to one of them."""
    store = {}
    for i, name in enumerate(names):
        later = names[i + 1:]
        roll = rng.random()
        if roll < 0.15 and later:
            store[Var(name)] = Var(rng.choice(later))
        elif roll < 0.6:
            store[Var(name)] = _random_term(rng, 3, later)
    return store


def _kept(x, y, moved):
    """Whether each part of ``x`` in which no variable of ``moved`` occurs
    comes back in ``y``, the rebuilt ``x``, as the same object."""
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if moved.isdisjoint(term_vars(x)):
            if x is not y:
                return False
        elif isinstance(x, (Struct, Atom)):
            stack.extend(zip(x.args, y.args))
        elif isinstance(x, tuple):
            stack.extend(zip(x, y))
    return True


def test_rebuild_walk_matches_the_recursive_references(corpus):
    """``substitute`` and ``replace_vars`` against the recursive functions
    they replace, on random terms under random triangular stores, some
    made cyclic, and on every clause of the corpus programs, their classic
    outputs, encoded interpreters and residual programs; ``print_term``
    against its recursive reference and ``parse_term``."""
    rng = random.Random(20)
    names = ["X", "Y", "Z", "L", "_V1", "_V2"]
    cases = []
    for _ in range(600):
        store = _random_store(rng, names)
        unbound = [n for n in names if Var(n) not in store]
        if unbound and rng.random() < 0.3:   # a binding back, maybe a cycle
            store[Var(unbound[-1])] = Struct("f", (_random_term(rng, 2, names),
                                                   Var(rng.choice(names))))
        term = Atom("p", tuple(_random_term(rng, 3, names)
                               for _ in range(rng.randint(1, 3))))
        cases.append((term, store))
    programs = []
    for name in CORPUS_NAMES:
        entry = corpus(name)
        programs += [entry.program, entry.classic.program,
                     encode_as_logic_program(entry.tables),
                     entry.futamura.program]
    for clause in [c for p in programs for c in p.clauses]:
        variables = [v.name for v in clause.variables]
        rng.shuffle(variables)
        cases.append(((clause.head,) + clause.body,
                      _random_store(rng, variables)))
    cyclic = 0
    for term, store in cases:
        got = _outcome(substitute, term, store)
        assert got == _outcome(reference_substitute, term, store), term
        if got == "cyclic":
            cyclic += 1
            continue
        assert _kept(term, got, set(store))
        assert substitute(term, {}) is term
        renamed = replace_vars(term, lambda v: store.get(v, v))
        assert renamed == \
            reference_replace_vars(term, lambda v: store.get(v, v))
        assert _kept(term, renamed, set(store))
        for atom in got if isinstance(got, tuple) else (got,):
            for t in atom.args:
                assert print_term(t) == reference_print_term(t)
                assert parse_term(print_term(t)) == t
    assert len(cases) > 1000 and 10 < cyclic < 200


def test_deep_terms_are_rebuilt_printed_and_read():
    x, deep = Var("X"), _nested(5000, "z")
    text = "s(" * 5000 + "z" + ")" * 5000
    assert print_term(deep) == repr(deep) == text
    assert repr(Atom("p", (deep,))) == f"p({text})"
    assert parse_term(text) == deep
    assert parse_term(f"[{text}|{text}]") == mklist([deep], deep)
    open_ = parse_term(text.replace("z", "X"))
    assert substitute(open_, {x: Const("z")}) == deep
    assert substitute(deep, {x: Const("z")}) is deep
    assert replace_vars(open_, {x: Const("z")}.__getitem__) == deep
    # a chain of 5,000 bindings, each one level deep
    chain = {Var(f"_V{i}"): Struct("s", (Var(f"_V{i + 1}"),))
             for i in range(5000)}
    chain[Var("_V5000")] = Const("z")
    assert substitute(Var("_V0"), chain) == deep
    # closed into a cycle at its far end, it is refused, not walked
    chain[Var("_V5000")] = Struct("f", (Var("_V0"),))
    with pytest.raises(RecursionError):
        substitute(Var("_V0"), chain)


def test_term_walks_do_not_recurse():
    """``substitute``, ``replace_vars``, their walk, ``print_term`` and
    ``_Parser.parse_term`` keep explicit stacks: none of them calls itself
    or another of them, bar the two that hand over to the walk.  No
    function of the head-code generator reaches itself, and nothing under
    ``src/`` raises the host's recursion limit."""
    src = pathlib.Path(__file__).parent.parent / "src"
    tree = ast.parse((src / "ccontrol" / "terms.py").read_text())
    parser = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    walks = {"substitute", "replace_vars", "_rebuild", "print_term",
             "parse_term"}
    calls = {}
    for node in tree.body + parser.body:
        if isinstance(node, ast.FunctionDef) and node.name in walks and \
                (node.name == "parse_term") == (node in parser.body):
            calls[node.name] = walks & {
                getattr(c.func, "attr", getattr(c.func, "id", None))
                for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert calls == {"substitute": {"_rebuild"}, "replace_vars": {"_rebuild"},
                     "_rebuild": set(), "print_term": set(),
                     "parse_term": set()}
    # the head-code generator: its functions and those nested in them
    generator = [n for n in tree.body if isinstance(n, ast.FunctionDef) and
                 n.name in ("_head_code", "_shape", "_node_vars", "_factory")]
    functions = {n.name: n for f in generator for n in ast.walk(f)
                 if isinstance(n, ast.FunctionDef)}
    assert {"_shape", "_factory", "decide", "build"} <= set(functions)
    calls = {name: set(functions) & {
                 getattr(c.func, "id", None)
                 for c in ast.walk(f) if isinstance(c, ast.Call)}
             for name, f in functions.items()}
    for name in calls:
        met, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in met:
                met.add(callee)
                todo.extend(calls[callee])
        assert name not in met, name
    for path in src.rglob("*.py"):
        assert "setrecursionlimit" not in path.read_text(), path


def test_a_long_head_list_nests_no_deeper_than_the_bound():
    # past ``_MAX_NESTING`` the rest of the list is one template, so a
    # list of 100 variables and one of 5,000 have code of the same size
    def clause(n):
        items = ",".join(f"X{i}" for i in range(n))
        return parse_program(f"p([{items}]).").clauses[0]

    long = clause(5000)
    (head, body), _, nvars = _shape(long)
    assert body == () and nvars == 5000
    deepest, stack = 0, [(node, 1) for node in head]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if node.__class__ is tuple and node[0] == "s":
            stack.extend((arg, depth + 1) for arg in node[2])
        elif node.__class__ is tuple and node[0] == "t":
            assert node[2] == tuple(range(_MAX_NESTING - 1, 5000))
    assert deepest == _MAX_NESTING
    code = long.head_code[2].__code__.co_code
    assert clause(100).head_code[2].__code__.co_code == code
    body, made = resolve_in(parse_atom("p(L)"), long, FreshNames(), {})
    assert body == () and made == [
        (Var("L"), mklist([Var(f"_V{i}") for i in range(1, 5001)]))]


# --- unification ----------------------------------------------------------

def test_unify_basic():
    mgu = unify(parse_term("f(X,c)"), parse_term("f(d,Y)"))
    assert mgu.apply(Var("X")) == Const("d")
    assert mgu.apply(Var("Y")) == Const("c")
    assert unify(parse_term("f(X)"), parse_term("g(X)")) is None
    assert unify(parse_term("f(X,X)"), parse_term("f(a,b)")) is None


def test_unify_aliasing():
    mgu = unify(parse_term("f(X,X)"), parse_term("f(Y,c)"))
    assert mgu.apply(Var("X")) == Const("c")
    assert mgu.apply(Var("Y")) == Const("c")


def test_unify_occurs_check():
    assert unify(Var("X"), parse_term("f(X)")) is None
    assert unify(Var("X"), parse_term("f(X)"), occurs_check=False) \
        is not None


def test_unify_against_brute_force_oracle():
    failures = check_unify_against_brute_force(cases=1000, seed=0)
    assert not failures, failures[:3]


# --- the resolution step --------------------------------------------------

def _nest(functor, depth, inner):
    return f"{functor}(" * depth + inner + ")" * depth


# clauses that bind a variable before a structure holding it, and clauses
# with templates: structures met ``_MAX_NESTING`` deep, each renamed whole
# and unified as one pair
HAND_WRITTEN = parse_program(
    "p(f(A),A).\nq([X|T],T,X).\nr(g(h(A,B)),B,A).\n"
    f"l([{','.join(f'X{i}' for i in range(40))}]).\n"
    f"q({_nest('s', 30, 'X')},X).\nq2(X,{_nest('s', 30, 'X')}).\n"
    f"u({_nest('f', 20, 'A')},g(A)).\n"
    f"w({_nest('f', 20, 'A')},{_nest('g', 20, 'h(A,B)')},B).\n"
    f"x({_nest('f', 17, 'g(A,B)')},B) :- y(A).\n"
    f"k({_nest('s', 30, 'z')},X).\n"
    f"r(X,Y) :- t([{','.join(map(str, range(40)))}|X],"
    f"{_nest('f', 20, 'Y')}).\n")


def _bound_apart(rng, head, pool):
    """``head`` with each of its variables bound to a structure, so that
    each first occurrence meets a goal term that is not a variable and
    each later occurrence is unified with that term."""
    binding = {v: Struct("f", (random_term(rng, 1, pool),))
               for v in term_vars(head)}
    return replace_vars(head, binding.__getitem__)


def _copying_resolve(atom, clause, fresh, rest, occurs_check):
    """The resolution step as rename_apart, unify and apply: the reference
    for ``resolve``."""
    rc = rename_apart(clause, fresh)
    mgu = unify(atom, rc.head, occurs_check=occurs_check)
    if mgu is None:
        return None
    return mgu.apply(rc.body), mgu.apply(rest)


def _fused_resolve(atom, clause, fresh, rest, occurs_check):
    res = resolve(atom, clause, fresh, occurs_check)
    if res is None:
        return None
    body, mgu = res
    return body, mgu.apply(rest)


def _outcome(step, *args):
    try:
        return step(*args)
    except RecursionError:       # a cyclic binding, without occurs check
        return "cyclic"


def test_resolve_matches_rename_unify_apply(corpus):
    # every clause of the corpus programs, their classic and futamura
    # outputs, their encoded interpreters and the hand-written clauses,
    # templates among them, against atoms mostly unifiable with its head,
    # against its head with every variable bound to a structure and
    # against the atoms of a random other clause; the variable pool
    # overlaps clause variables, and both are named like fresh names,
    # which are kept apart from the goals' variables, as the engine keeps
    # them (a first occurrence skips the occurs check)
    rng = random.Random(6)
    pool = ["X", "Y", "L", "_V1", "_V3", "_V8"]
    clauses = list(HAND_WRITTEN.clauses)
    for name in CORPUS_NAMES:
        entry = corpus(name)
        for program in (entry.program, entry.classic.program,
                        encode_as_logic_program(entry.tables),
                        entry.futamura.program):
            clauses += program.clauses
    tried = unified = 0
    for occurs_check in (True, False):
        fresh_a, fresh_b = FreshNames(), FreshNames()
        for fresh in (fresh_a, fresh_b):
            fresh.skip_past(map(Var, pool))
            fresh.skip_past(term_vars([c.head for c in clauses]))
        for clause in clauses:
            other = rng.choice(clauses)
            for atom in list(atoms_like(rng, clause.head, 3, pool)) + \
                    [_bound_apart(rng, clause.head, pool)] + \
                    list(atoms_like(rng, other.head, 1, pool)):
                rest = (Atom("r", (Var("X"), Var("_V3"),
                                   atom.args[0] if atom.args else Var("Y"))),)
                want = _outcome(_copying_resolve, atom, clause, fresh_a,
                                rest, occurs_check)
                got = _outcome(_fused_resolve, atom, clause, fresh_b, rest,
                               occurs_check)
                assert got == want, (atom, clause)
                assert fresh_a.n == fresh_b.n
                tried += 1
                unified += want is not None
    assert tried > 4000 and 0.2 < unified / tried < 0.9


def test_resolve_in_a_store_matches_resolve_of_the_instance(corpus):
    # the engine's form: the atom's variables bound in a store, unresolved;
    # it must give what resolving the instantiated atom gives, and leave
    # the store as it found it; fresh names are kept apart from the goals'
    # variables and the clauses' head variables, as the engine keeps them
    rng = random.Random(7)
    pool = ["X", "Y", "L", "_V1", "_V3", "_V8"]
    clauses = [c for name in CORPUS_NAMES
               for c in corpus(name).classic.program.clauses]
    tried = unified = 0
    for occurs_check in (True, False):
        fresh_a, fresh_b = FreshNames(), FreshNames()
        for fresh in (fresh_a, fresh_b):
            fresh.skip_past(map(Var, pool))
            fresh.skip_past(term_vars([c.head for c in clauses]))
        for clause in clauses:
            other = rng.choice(clauses)
            for atom in list(atoms_like(rng, clause.head, 3, pool)) + \
                    list(atoms_like(rng, other.head, 1, pool)):
                store = {Var("X"): random_term(rng, 2, ["Y", "_V3"]),
                         Var("L"): Var("X")}
                before = dict(store)
                rest = (Atom("r", (Var("L"), Var("_V1"), Var("Y"))),)
                want = _outcome(_fused_resolve, substitute(atom, store),
                                clause, fresh_a, substitute(rest, store),
                                occurs_check)
                res = resolve_in(atom, clause, fresh_b, store, occurs_check)
                assert list(store.items()) == list(before.items())
                got = None if res is None else _outcome(
                    lambda body, b: (substitute(body, b), substitute(rest, b)),
                    res[0], {**store, **dict(res[1])})
                assert got == want, (atom, clause)
                assert fresh_a.n == fresh_b.n
                tried += 1
                unified += want is not None
    assert tried > 500 and 0.2 < unified / tried < 0.9


def test_resolve_occurs_check():
    clause = parse_program("p(X,f(X)).").clauses[0]
    atom = parse_atom("p(Y,Y)")
    fresh = FreshNames()
    assert resolve(atom, clause, fresh) is None
    assert fresh.n == 1
    # without the check the unifier binds a variable to a term holding it
    body, mgu = resolve(atom, clause, fresh, occurs_check=False)
    assert fresh.n == 2 and body == ()
    assert mgu.bindings[Var("_V2")] == Struct("f", (Var("_V2"),))


SAME = parse_program("p(A,A).").clauses[0]
# without the check: the bindings resolve and resolve_in make, in the order
# made, when the second occurrence of A meets a term holding X; the first
# occurrence binds only a goal variable, and holds f(X) as it is
CYCLIC = {"p(f(X),X)": [(Var("X"), Var("_V1")),
                        (Var("_V1"), parse_term("f(X)"))],
          "p(X,f(X))": [(Var("X"), parse_term("f(X)"))]}


@pytest.mark.parametrize("query", sorted(CYCLIC))
def test_a_second_occurrence_is_occurs_checked(query):
    # the first occurrence of A binds without the check, whichever argument
    # it meets first; the second must still fail on the term holding X
    atom = parse_atom(query)
    store = {}
    assert resolve(atom, SAME, FreshNames()) is None
    assert resolve_in(atom, SAME, FreshNames(), store) is None
    assert store == {}
    body, mgu = resolve(atom, SAME, FreshNames(), occurs_check=False)
    assert body == () and list(mgu.bindings.items()) == CYCLIC[query]
    body, made = resolve_in(atom, SAME, FreshNames(), store,
                            occurs_check=False)
    assert body == () and made[::-1] == CYCLIC[query] and store == {}


def _mismatching_first(rng, atom, pool):
    """``atom`` with a first argument whose principal functor is not the
    one it had: the atoms the first-argument pre-check rejects."""
    first = atom.args[0]
    while True:
        t = random_term(rng, 2, [])
        if not isinstance(first, (Const, Struct)) or type(t) is not \
                type(first) or (t.name != first.name if isinstance(t, Const)
                                else (t.functor, len(t.args)) !=
                                (first.functor, len(first.args))):
            break
    return Atom(atom.pred, (t,) + atom.args[1:])


def test_generated_head_code_matches_the_work_list_reference(corpus):
    # every clause of the naive, classic, encoded and futamura programs
    # against atoms mostly unifiable with its head, atoms of another
    # clause's head, atoms whose first argument has another principal
    # functor and atoms of one variable, in an empty store or one with
    # bound goal variables: the
    # generated code must make the reference's bindings, in its order,
    # build its body, name as it names and leave the store as it was
    rng = random.Random(14)
    pool = ["X", "Y", "L", "_V1", "_V3", "_V8"]
    clauses = list(HAND_WRITTEN.clauses)
    for name in CORPUS_NAMES:
        entry = corpus(name)
        for program in (entry.program, entry.classic.program,
                        encode_as_logic_program(entry.tables),
                        entry.futamura.program):
            clauses += program.clauses
    tried = unified = 0
    for occurs_check in (True, False):
        # the goals' variables are kept apart from the fresh names, as
        # the engine keeps them
        fresh_a, fresh_b = FreshNames(), FreshNames()
        fresh_a.skip_past(map(Var, pool))
        fresh_b.skip_past(map(Var, pool))
        for clause in clauses:
            other = rng.choice(clauses)
            atoms = list(atoms_like(rng, clause.head, 3, pool)) + \
                list(atoms_like(rng, other.head, 1, pool))
            if clause.head.args:
                atoms.append(_mismatching_first(rng, atoms[0], pool))
                # one goal variable everywhere: a clause variable met
                # again inside a structure built for it must fail the
                # occurs check
                atoms.append(Atom(clause.head.pred,
                                  (Var("X"),) * len(clause.head.args)))
            for atom in atoms:
                store = {}
                if rng.random() < 0.5:
                    store = {Var("X"): random_term(rng, 2, ["Y", "_V3"]),
                             Var("L"): Var("X")}
                before = list(store.items())
                store_a, store_b = dict(store), dict(store)
                want = reference_resolve_in(atom, clause, fresh_a, store_a,
                                            occurs_check)
                got = resolve_in(atom, clause, fresh_b, store_b,
                                 occurs_check)
                assert got == want, (atom, clause, occurs_check)
                assert fresh_a.n == fresh_b.n
                assert list(store_b.items()) == before
                assert list(store_a.items()) == before
                tried += 1
                unified += want is not None
    assert tried > 8000 and 0.1 < unified / tried < 0.9


class _CountingStore(dict):
    def __setitem__(self, key, value):
        self.writes = getattr(self, "writes", 0) + 1
        super().__setitem__(key, value)


def test_the_pre_check_binds_nothing_and_skipped_clauses_take_their_names():
    program = parse_program("p(a,X,Y).\np(f(Z),Z,W) :- q(W).\np(U,V,U).\n")
    atom = parse_atom("p(b,K,M)")
    fresh, fresh_ref = FreshNames(), FreshNames()
    for clause in program.clauses[:2]:
        store = _CountingStore()
        assert resolve_in(atom, clause, fresh, store) is None
        assert getattr(store, "writes", 0) == 0 and store == {}
        # the work-list reference unifies the last arguments first
        ref_store = _CountingStore()
        assert reference_resolve_in(atom, clause, fresh_ref, ref_store) \
            is None
        assert ref_store.writes == 2 and ref_store == {}
    assert fresh.n == fresh_ref.n == 4
    body, made = resolve_in(atom, program.clauses[2], fresh, {})
    assert fresh.n == 6 and body == ()
    assert made[::-1] == [(Var("M"), Var("_V5")), (Var("K"), Var("_V6")),
                          (Var("_V5"), Const("b"))]


def test_a_first_occurrence_holds_a_goal_term_and_binds_nothing():
    # as the WAM's ``get_variable``: X and Y hold the goal's own terms,
    # which the body reuses, and only the goal variable C is bound
    clause = parse_program("p(X,Y,Z) :- q(Z,Y,X).").clauses[0]
    atom = parse_atom("p(f(a),g(B),C)")
    store = _CountingStore()
    body, made = resolve_in(atom, clause, FreshNames(), store)
    assert store.writes == 1 and store == {}
    assert made == [(Var("C"), Var("_V3"))]
    assert body == (parse_atom("q(_V3,g(B),f(a))"),)
    assert body[0].args[1] is atom.args[1]
    assert body[0].args[2] is atom.args[0]


class _RefusingStore(dict):
    def __setitem__(self, key, value):
        raise LookupError("the store refuses a binding")


def test_an_error_raised_in_head_code_has_a_traceback_that_formats():
    clause = parse_program("p(X,f(X)).").clauses[0]
    try:
        resolve_in(parse_atom("p(A,B)"), clause, FreshNames(),
                   _RefusingStore())
    except LookupError:
        text = traceback.format_exc()
    assert "<clause shape>" in text
    assert "LookupError: the store refuses a binding" in text


def test_programs_pickle_and_copy_after_a_run(corpus):
    program = corpus("queens").classic.program
    goal = parse_goal("queens([1,2,3,4],Q)")
    result = solve(program, goal)
    assert result.answers
    for again in (pickle.loads(pickle.dumps(program)),
                  copy.deepcopy(program)):
        assert again == program
        assert solve(again, goal).answers == result.answers


def test_solver_without_occurs_check_answers_like_with_it(corpus):
    for name in ("permsort", "zigzag", "countdown"):
        entry = corpus(name)
        for goal in entry.queries:
            checked = solve(entry.program, goal)
            unchecked = solve(entry.program, goal, occurs_check=False)
            assert (unchecked.answers, unchecked.inference_count) == \
                (checked.answers, checked.inference_count), goal


# --- programs -------------------------------------------------------------

def test_clauses_for_is_textual_order_per_predicate():
    text = ("p(1).\nq(a).\np(2) :- q(X).\nq(b).\np(3).\n")
    prog = parse_program(text)
    assert [c.id for c in prog.clauses_for("p", 1)] == [1, 3, 5]
    assert [c.id for c in prog.clauses_for("q", 1)] == [2, 4]
    assert len(prog.clauses_for("p", 2)) == 0
    assert len(prog.clauses_for("r", 0)) == 0
    assert prog.predicates == {("p", 1), ("q", 1)}
    # the index takes no part in equality, hashing or printing
    again = Program(tuple(parse_program(text).clauses))
    assert again == prog and hash(again) == hash(prog)
    assert Program(prog.clauses[::-1]) != prog
    assert print_program(prog) == text
