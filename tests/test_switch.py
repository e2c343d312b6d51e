"""The first-argument switch: ``terms.resolve_all`` resolves only the
clauses that a goal's first argument lets match, and names, binds and
counts as resolving every clause of the predicate in turn does."""

import copy
import pickle
import random

from ccontrol.metaint import encode_as_logic_program
from ccontrol.pd import specialize_encoded
from ccontrol.terms import (Atom, Const, FreshNames, Struct, Var,
                            _principal, parse_program, replace_vars,
                            resolve_all, take_back)

from conftest import CORPUS_NAMES
from oracles import (atoms_like, random_term, reference_resolve_all,
                     reference_resolve_in)

POOL = ["X", "Y", "L", "_V1", "_V3", "_V8"]

# variable-first, name-first, integer-first, structure-first and list-first
# clauses, interleaved
MIXED = parse_program(
    "m(a,X) :- q(X).\n"
    "m(Y,b).\n"
    "m(1,c).\n"
    "m(f(Z),Z).\n"
    "m(a,d).\n"
    "m(W,W) :- q(W).\n"
    "m(f(a),e).\n"
    "m(g(U,V),U) :- q(V).\n"
    "m(1,f).\n"
    "m([H|T],H) :- q(T).\n"
    "m([],nil).\n"
    "m(2,g).\n"
    "q(z).\n")


def _first_arguments(rng, clauses):
    """Terms to put first in a goal: an instance of each of a few heads'
    first arguments, a constant and a structure that no head has, and an
    unbound variable."""
    heads = [c.head.args[0] for c in clauses]
    out = [Const("zz"), Const(7), Struct("h", (Var("Y"),)), Var("X")]
    for t in rng.sample(heads, min(6, len(heads))):
        # over variables that the store leaves unbound, so it is acyclic
        out.append(replace_vars(t, lambda v: random_term(
            rng, 1, ["X", "Y", "_V1"])))
    return out


def _goals(rng, clauses):
    """(atom, store) pairs whose first argument is each of
    ``_first_arguments``: as it is and, when it is not a variable, as a
    variable bound to it in the store, directly and through a second
    variable; and a variable bound to an unbound one."""
    pred = clauses[0].head.pred

    def rest():
        head = rng.choice(clauses).head
        return next(atoms_like(rng, head, 1, POOL)).args[1:]

    for first in _first_arguments(rng, clauses):
        args = rest()
        yield Atom(pred, (first,) + args), {}
        if not isinstance(first, Var):
            yield Atom(pred, (Var("L"),) + args), {Var("L"): first}
            yield Atom(pred, (Var("L"),) + args), {Var("L"): Var("_V8"),
                                                   Var("_V8"): first}
    # a variable bound to an unbound one
    yield Atom(pred, (Var("L"),) + rest()), {Var("L"): Var("X")}


def _last_candidate_unifies(atom, switch, store, occurs_check):
    """Whether the last clause the switch lets ``atom``'s first argument
    match has a head that unifies with ``atom`` on ``store``."""
    x = atom.args[0]
    while isinstance(x, Var) and x in store:
        x = store[x]
    key = _principal(x)
    candidates = switch.every if key is None \
        else switch.by_key.get(key, switch.unkeyed)
    if not candidates:
        return False
    fresh = FreshNames()
    fresh.skip_past(map(Var, POOL))
    return reference_resolve_in(atom, candidates[-1][0], fresh,
                                dict(store), occurs_check) is not None


def _check(program, rng, counts):
    """Every predicate of ``program`` with a first argument, with and
    without the occurs check, against the reference applied clause by
    clause.  A sole success is left on the store exactly when it is the
    last candidate the switch tries; its bindings, taken back, are the
    reference's all the same."""
    for pred, arity in sorted(program.predicates):
        if not arity:
            continue
        switch = program.switch_for((pred, arity))
        goals = list(_goals(rng, switch.clauses))
        for occurs_check in (True, False):
            fresh_a, fresh_b = FreshNames(), FreshNames()
            fresh_a.skip_past(map(Var, POOL))
            fresh_b.skip_past(map(Var, POOL))
            for atom, store in goals:
                rest = (Atom("r", (Var("X"), Var("_V1"))),)
                before = list(store.items())
                store_a, store_b = dict(store), dict(store)
                want = reference_resolve_all(
                    atom, switch.clauses, rest, "state", fresh_a,
                    store_a, occurs_check)
                got = resolve_all(atom, switch, rest, "state", fresh_b,
                                  store_b, occurs_check)
                left = take_back(store_b, len(before))
                if len(want) == 1 and _last_candidate_unifies(
                        atom, switch, store, occurs_check):
                    [(body, state, made)] = got
                    assert made == (), (atom, store, pred)
                    got = [(body, state, left)]
                    counts["left"] += 1
                else:
                    assert left == [], (atom, store, pred)
                # the bodies, the ordered bindings and so every fresh
                # name in them
                assert got == want, (atom, store, pred)
                assert fresh_a.n == fresh_b.n
                assert list(store_b.items()) == before
                counts["goals"] += 1
                counts["successors"] += len(want)
                counts["clauses"] += len(switch.clauses)


def test_the_switch_matches_the_reference_on_every_corpus_predicate(corpus):
    rng = random.Random(17)
    counts = {"goals": 0, "successors": 0, "clauses": 0, "left": 0}
    for name in CORPUS_NAMES:
        entry = corpus(name)
        for program in (entry.program, entry.classic.program,
                        encode_as_logic_program(entry.tables),
                        entry.futamura.program):
            _check(program, rng, counts)
    assert counts["goals"] > 5000
    assert 0.02 < counts["successors"] / counts["clauses"] < 0.5
    assert counts["left"] > 5000


def test_the_switch_matches_the_reference_on_mixed_first_arguments():
    rng = random.Random(3)
    counts = {"goals": 0, "successors": 0, "clauses": 0, "left": 0}
    for _ in range(20):
        _check(MIXED, rng, counts)
    assert counts["successors"] > 500
    assert counts["left"] > 200


def test_the_switch_lists_candidates_in_textual_order():
    switch = MIXED.switch_for(("m", 2))

    def ids(entries):
        return [c.id for c, _ in entries]

    assert ids(switch.every) == list(range(1, 13))
    assert ids(switch.unkeyed) == [2, 6]
    assert {key: ids(entries) for key, entries in switch.by_key.items()} \
        == {"a": [1, 2, 5, 6], 1: [2, 3, 6, 9], ("f", 1): [2, 4, 6, 7],
            ("g", 2): [2, 6, 8], (".", 2): [2, 6, 10], "[]": [2, 6, 11],
            2: [2, 6, 12]}
    # offsets count the variables of the clauses before
    assert [o for _, o in switch.every][:4] == [0, 1, 2, 2]
    assert switch.total == 8


def test_the_switch_skips_clauses_by_their_variable_counts():
    # p(b,...) matches the variable-first clause alone; the two clauses
    # before it take their names all the same
    program = parse_program("p(a,X,Y).\np(f(Z),Z,W) :- q(W).\np(U,V,U).\n")
    atom = Atom("p", (Const("b"), Var("K"), Var("M")))
    fresh = FreshNames()
    store = {}
    # the sole candidate's bindings stay on the store
    [(body, state, made)] = resolve_all(atom, program.switch_for(("p", 3)),
                                        (), None, fresh, store)
    assert fresh.n == 6 and body == () and made == ()
    assert list(store.items()) == [(Var("M"), Var("_V5")),
                                   (Var("K"), Var("_V6")),
                                   (Var("_V5"), Const("b"))]


# one variable-first clause between two that a constant first argument picks
STAYS = parse_program("s(a,X,1).\ns(Y,f(Y),2).\ns(a,Z,3).\n")


def _resolve_s(second, third):
    store = {}
    succ = resolve_all(Atom("s", (Const("a"), second, third)),
                       STAYS.switch_for(("s", 3)), (), None, FreshNames(),
                       store)
    return succ, store


def test_a_sole_success_of_the_last_candidate_stays_on_the_store():
    [(body, _, made)], store = _resolve_s(Var("K"), Const(3))
    assert body == () and made == ()
    assert list(store.items()) == [(Var("K"), Var("_V3"))]


def test_two_successes_leave_the_store_as_found():
    succ, store = _resolve_s(Var("K"), Var("N"))
    assert store == {}
    assert [made[::-1] for _, _, made in succ] == [
        [(Var("N"), Const(1)), (Var("K"), Var("_V1"))],
        [(Var("N"), Const(2)), (Var("K"), Struct("f", (Var("_V2"),))),
         (Var("_V2"), Const("a"))],
        [(Var("N"), Const(3)), (Var("K"), Var("_V3"))]]


def test_a_sole_success_ahead_of_a_failing_candidate_carries_its_bindings():
    [(body, _, made)], store = _resolve_s(Var("K"), Const(1))
    assert store == {} and body == ()
    assert made[::-1] == [(Var("K"), Var("_V1"))]


def test_copies_rebuild_the_switches_from_the_clauses(corpus):
    # equality, hashing, pickling and copying depend on the clauses alone
    residual = specialize_encoded(corpus("permsort").tables).program
    for again in (pickle.loads(pickle.dumps(residual)),
                  copy.deepcopy(residual)):
        assert again == residual and hash(again) == hash(residual)
        assert again.predicates == residual.predicates
        for pred in residual.predicates:
            assert again.switch_for(pred).clauses == \
                residual.switch_for(pred).clauses
