"""Terms, parsing, printing, substitution, and unification."""

import copy
import pickle
import random

import pytest

from ccontrol.absdom import abstract_name, parse_aconj, print_aconj
from ccontrol.engine import solve
from ccontrol.metaint import encode_as_logic_program
from ccontrol.multi import pattern_name
from ccontrol.policy import parse_policy
from ccontrol.terms import (Atom, Clause, Const, FreshNames, ParseError,
                            Program, Struct, Substitution, Var, _Parser,
                            is_closed_list, list_parts, mklist, parse_atom,
                            parse_goal, parse_program, parse_term,
                            print_atom, print_program, print_term,
                            rename_apart, resolve_in, substitute,
                            term_vars, unify)

from conftest import CORPUS_NAMES
from oracles import (atoms_like, check_unify_against_brute_force,
                     random_term, reference_resolve_in, resolve)


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
    assert is_closed_list(parse_term("[a,b]"))
    assert not is_closed_list(parse_term("[a|T]"))


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


def test_print_atom_leq_is_infix():
    assert print_atom(Atom("=<", (Const(1), Const(2)))) == "1 =< 2"


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
    # every clause of the corpus programs, their classic outputs and their
    # encoded interpreters, against atoms mostly unifiable with its head
    # and against the atoms of a random other clause; the variable pool
    # overlaps clause variables and fresh names
    rng = random.Random(6)
    pool = ["X", "Y", "L", "_V1", "_V3", "_V8"]
    clauses = []
    for name in CORPUS_NAMES:
        entry = corpus(name)
        for program in (entry.program, entry.classic.program,
                        encode_as_logic_program(entry.tables)):
            clauses += program.clauses
    tried = unified = 0
    for occurs_check in (True, False):
        fresh_a, fresh_b = FreshNames(), FreshNames()
        for clause in clauses:
            other = rng.choice(clauses)
            for atom in list(atoms_like(rng, clause.head, 3, pool)) + \
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
    # the store as it found it
    rng = random.Random(7)
    pool = ["X", "Y", "L", "_V1", "_V3", "_V8"]
    clauses = [c for name in CORPUS_NAMES
               for c in corpus(name).classic.program.clauses]
    tried = unified = 0
    for occurs_check in (True, False):
        fresh_a, fresh_b = FreshNames(), FreshNames()
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
# made, when the second occurrence of A meets a term holding X
CYCLIC = {"p(f(X),X)": [(Var("X"), Var("_V1")),
                        (Var("_V1"), parse_term("f(X)"))],
          "p(X,f(X))": [(Var("_V1"), parse_term("f(X)")),
                        (Var("X"), parse_term("f(X)"))]}


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
    # and clauses that bind a variable before a structure holding it
    clauses = list(parse_program("p(f(A),A).\nq([X|T],T,X).\n"
                                 "r(g(h(A,B)),B,A).\n").clauses)
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
