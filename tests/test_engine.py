"""Left-to-right resolution engine and its builtin table."""

import itertools
import random

import pytest

from ccontrol.engine import (BUILTINS, EngineError, Limits, ModeError,
                             answer_set, solve)
from ccontrol.terms import (NIL, Atom, Const, Struct, Var, mklist, parse_atom,
                            parse_goal, parse_program, print_term, substitute)

from conftest import corpus_text
from oracles import reference_evaluate

APPEND = parse_program(
    "app([],L,L).\n"
    "app([X|Xs],Y,[X|Zs]) :- app(Xs,Y,Zs).\n")


def answers_of(result, var):
    return [print_term(sub.bindings[Var(var)]) for sub in result.answers]


def test_all_answers_in_clause_order():
    res = solve(APPEND, parse_goal("app(X,Y,[1,2])"))
    assert res.exhausted
    assert [(print_term(s.bindings[Var("X")]),
             print_term(s.bindings[Var("Y")])) for s in res.answers] == \
        [("[]", "[1,2]"), ("[1]", "[2]"), ("[1,2]", "[]")]


def test_ground_query_has_empty_answer():
    res = solve(APPEND, parse_goal("app([1],[2],[1,2])"))
    assert len(res.answers) == 1 and not res.answers[0].bindings


def test_inference_count_charges_resolutions_not_failures():
    prog = parse_program("p :- q(b).\np :- q(a).\nq(a).\n")
    res = solve(prog, parse_goal("p"))
    # two successful resolutions of p plus one of q(a); the failing
    # head match of q(b) against q(a) is free
    assert res.inference_count == 3
    assert len(res.answers) == 1


def test_builtin_counts_one_inference():
    res = solve(APPEND, parse_goal("plus(1,2,X)"))
    assert res.inference_count == 1
    assert answers_of(res, "X") == ["3"]


def test_arithmetic_modes():
    assert answers_of(solve(APPEND, parse_goal("plus(X,3,5)")), "X") == ["2"]
    assert answers_of(solve(APPEND, parse_goal("plus(2,X,5)")), "X") == ["3"]
    assert answers_of(solve(APPEND, parse_goal("minus(5,2,X)")), "X") == ["3"]
    assert answers_of(solve(APPEND, parse_goal("minus(X,2,3)")), "X") == ["5"]


def test_arithmetic_stays_in_the_naturals():
    # a negative result fails finitely instead of leaving the domain
    res = solve(APPEND, parse_goal("minus(2,5,X)"))
    assert res.answers == [] and res.exhausted
    res = solve(APPEND, parse_goal("plus(X,5,2)"))
    assert res.answers == [] and res.exhausted


def test_arithmetic_needs_two_known_arguments():
    with pytest.raises(ModeError):
        solve(APPEND, parse_goal("plus(X,Y,5)"))


def test_select_builtin_enumerates():
    res = solve(APPEND, parse_goal("select(X,[1,2,3],R)"))
    assert answers_of(res, "X") == ["1", "2", "3"]
    assert answers_of(res, "R") == ["[2,3]", "[1,3]", "[1,2]"]


def test_comparison_and_divisibility():
    assert solve(APPEND, parse_goal("=<(1,2)")).answers
    assert not solve(APPEND, parse_goal("=<(3,2)")).answers
    assert solve(APPEND, parse_goal("divides(3,9)")).answers
    assert not solve(APPEND, parse_goal("divides(3,10)")).answers
    assert solve(APPEND, parse_goal("does_not_divide(3,10)")).answers
    assert solve(APPEND, parse_goal("noattack(1,3,1)")).answers
    assert not solve(APPEND, parse_goal("noattack(1,2,1)")).answers


def test_unknown_predicate_is_an_error():
    with pytest.raises(EngineError):
        solve(APPEND, parse_goal("nosuch(X)"))


def test_max_inferences_truncates():
    loop = parse_program("p :- p.\n")
    res = solve(loop, parse_goal("p"), limits=Limits(max_inferences=100))
    assert not res.exhausted and res.answers == []


def test_max_depth_truncates():
    loop = parse_program("p :- p.\n")
    res = solve(loop, parse_goal("p"), limits=Limits(max_depth=10))
    assert not res.exhausted and res.answers == []


def test_max_answers_stops_early():
    res = solve(APPEND, parse_goal("app(X,Y,[1,2,3])"),
                limits=Limits(max_answers=2))
    assert len(res.answers) == 2 and not res.exhausted


def test_call_wrapper_invokes_inner_atom():
    prog = parse_program("q(1).\nrun(G) :- call(G).\n")
    res = solve(prog, parse_goal("run(q(X))"))
    assert answers_of(res, "X") == ["1"]


def test_call_does_not_capture_the_callers_variables():
    prog = parse_program("t(Y) :- q(Z), call(r(Z,Y)).\n"
                         "q(g(A,B)).\n"
                         "r(g(C,D),h(C,D)).\n")
    res = solve(prog, parse_goal("t(Y)"))
    assert len(res.answers) == 1 and res.exhausted
    y = res.answers[0].bindings[Var("Y")]
    assert y.functor == "h" and all(isinstance(a, Var) for a in y.args)
    assert y.args[0] != y.args[1]
    # the same count as the goal without the call wrapper
    assert res.inference_count == \
        solve(prog, parse_goal("q(Z) , r(Z,Y)")).inference_count + 1


def test_call_honours_max_answers():
    prog = parse_program("t(X) :- call(m(X)).\nm(1).\nm(2).\n")
    res = solve(prog, parse_goal("t(X)"), limits=Limits(max_answers=1))
    assert answers_of(res, "X") == ["1"] and not res.exhausted
    res = solve(prog, parse_goal("t(X)"))
    assert answers_of(res, "X") == ["1", "2"] and res.exhausted
    assert res.inference_count == 3


def test_call_shares_the_inference_budget():
    prog = parse_program("t :- call(loop).\nloop :- loop.\n")
    res = solve(prog, parse_goal("t"), limits=Limits(max_inferences=50))
    assert not res.exhausted and res.answers == []
    assert res.inference_count == 51


def test_occurs_check_prevents_cyclic_answers():
    prog = parse_program("eq(Z,Z).\nf_of(X,f(X)).\n")
    res = solve(prog, parse_goal("f_of(X,Y) , eq(X,Y)"))
    assert res.answers == [] and res.exhausted


def test_cyclic_terms_unify_without_the_occurs_check():
    # without the check, bindings stay cyclic in the store; unifying two
    # cyclic terms must end rather than walk them forever
    prog = parse_program("eq(Z,Z).\n"
                         "p :- eq(X,f(X)), eq(Y,f(Y)), eq(X,Y).\n")
    res = solve(prog, parse_goal("p"), occurs_check=False)
    assert len(res.answers) == 1 and res.inference_count == 4
    assert solve(prog, parse_goal("p")).answers == []


# --- builtins on the binding store ----------------------------------------

POOL = (Var("X"), Var("Y"), Var("Z"))


def _some_term(rng, depth=1):
    """A small integer, atom, structure or list, or a variable of POOL."""
    r = rng.random()
    if r < 0.3 or not depth:
        return Const(rng.randint(0, 4))
    if r < 0.6:
        return rng.choice(POOL)
    if r < 0.67:
        return Const("c")
    if r < 0.8:
        return Struct("f", (_some_term(rng, depth - 1),))
    return mklist([_some_term(rng, depth - 1)
                   for _ in range(rng.randint(0, 2))])


def _some_list(rng):
    """A list of up to four elements, its tail now and then left open."""
    tail = rng.choice(POOL) if rng.random() < 0.15 else Const(NIL)
    return mklist([_some_term(rng) for _ in range(rng.randint(0, 4))], tail)


def _some_number(rng):
    """Mostly an integer; otherwise an unbound or a non-integer argument."""
    if rng.random() < 0.75:
        return Const(rng.randint(0, 6))
    return _some_term(rng)


def _builtin_args(rng, pred, arity):
    if pred != "select":
        return [_some_number(rng) for _ in range(arity)]
    rest = rng.choice((rng.choice(POOL), _some_term(rng), _some_list(rng),
                       mklist([_some_term(rng)], rng.choice(POOL)),
                       mklist(rng.choices(POOL, k=rng.randint(1, 3)))))
    return [_some_term(rng), _some_list(rng), rest]


def _hidden(t, store, rng, names):
    """A term that ``store`` resolves to ``t``: each part, a list's tails
    among them, is reached through a chain of up to two variables bound
    here, so a list's spine is bound cell by cell."""
    if isinstance(t, Struct):
        t = Struct(t.functor,
                   tuple(_hidden(a, store, rng, names) for a in t.args))
    for _ in range(rng.choice((0, 0, 1, 2))):
        v = Var(f"_H{next(names)}")
        store[v] = t
        t = v
    return t


# where the order of select/3's two unifications shows in which variables
# are bound: X = Y is solved before the remainder binds Y or Z
SELECT_ORDER = ("select(X,[Y,Z],[X])", "select(X,[Y,Z],[Y])",
                "select(f(X),[f(Y),Z],[X])")


def _builtin_calls(rng):
    """(pred, argument tuple) of the hand-written calls, then 800 seeded
    calls of each builtin."""
    for text in SELECT_ORDER:
        yield "select", parse_atom(text).args
    for (pred, arity), _ in itertools.product(sorted(BUILTINS), range(800)):
        yield pred, _builtin_args(rng, pred, arity)


def test_builtins_on_the_store_match_the_rebuilding_ones():
    # every builtin on arguments read through variable chains: the same
    # outputs in the same order, binding the same variables to the same
    # instances, or the same mode error, and the store left as it was
    rng = random.Random(23)
    names = itertools.count(1)
    kinds = {pred: set() for pred, _ in BUILTINS}
    for pred, args in _builtin_calls(rng):
        store = {}
        atom = Atom(pred, tuple(_hidden(a, store, rng, names) for a in args))
        before = list(store.items())
        try:
            want = reference_evaluate(atom, store)
        except ModeError as e:
            with pytest.raises(ModeError) as got:
                BUILTINS.evaluate(atom, store)
            assert str(got.value) == str(e)
            assert list(store.items()) == before
            kinds[pred].add("error")
            continue
        outs = BUILTINS.evaluate(atom, store)
        assert list(store.items()) == before
        assert len(outs) == len(want), atom
        resolved = substitute(atom.args, store)
        for out, theta in zip(outs, want):
            assert {v for v, _ in out} == set(theta.bindings), atom
            assert substitute(atom.args, {**store, **dict(out)}) == \
                theta.apply(resolved), atom
        kinds[pred].add(("none", "one", "many")[min(len(outs), 2)])
        kinds[pred].update("binds" for out in outs if out)
    assert kinds["select"] == {"error", "none", "one", "many", "binds"}
    for pred in ("plus", "minus"):
        assert kinds[pred] == {"error", "none", "one", "binds"}, pred
    for pred in ("=<", "divides", "does_not_divide", "noattack"):
        assert kinds[pred] == {"error", "none", "one"}, pred


# --- fresh names ------------------------------------------------------------

CAPTURE = parse_program("p(X) :- q(X,Y).\n"
                        "q(a,b).\n"
                        "t(A).\n")


def test_query_variables_named_like_fresh_ones_are_not_captured():
    # the first clause's variables would be renamed _V1 and _V2
    for query, var in (("p(_V2)", "_V2"), ("p(Z)", "Z")):
        res = solve(CAPTURE, parse_goal(query))
        assert answers_of(res, var) == ["a"] and res.inference_count == 2
    # A would be renamed _V1; bound to f(_V1) without an occurs check
    # it would be a cyclic term
    res = solve(CAPTURE, parse_goal("t(f(_V1))"))
    assert len(res.answers) == 1 and not res.answers[0].bindings
    assert res.inference_count == 1 and res.exhausted


def test_fresh_names_start_past_the_query_variables_only():
    prog = parse_program("p(X) :- q(X,Y).\nq(W,W).\n")
    # p's clause takes _V1 and _V2, q's clause _V3
    assert answers_of(solve(prog, parse_goal("p(Z)")), "Z") == ["_V3"]
    # _V2 and _V10 raise the count to 10; _V and _Vx name no fresh name
    res = solve(prog, parse_goal("p(_V2) , p(_V10) , p(_V) , p(_Vx)"))
    assert [print_term(res.answers[0].bindings[Var(v)])
            for v in ("_V2", "_V10", "_V", "_Vx")] == \
        ["_V13", "_V16", "_V19", "_V22"]


def test_every_construction_keeps_fresh_names_apart_from_the_query(corpus):
    e = corpus("permsort")
    for run in (e.run_naive, e.run_mi, e.run_classic, e.run_futamura):
        named = run(parse_goal("permsort([3,1,2],_V3)"))
        plain = run(parse_goal("permsort([3,1,2],S)"))
        assert answers_of(named, "_V3") == answers_of(plain, "S") == \
            ["[1,2,3]"]
        assert named.inference_count == plain.inference_count


def test_a_growing_stream_costs_linear_time():
    # the naive primes program binds clause variables, at their first
    # occurrence, to the ever longer integer list; an occurs check there
    # made the run quadratic in its budget
    prog = parse_program(corpus_text("primes", ".lp"))
    res = solve(prog, parse_goal("primes(3,[3,5,7])"),
                limits=Limits(max_inferences=20000))
    assert res.inference_count == 20001 and res.exhausted is False
    assert res.answers == []


# --- the truncation contract ----------------------------------------------

Q4 = [(("Q", "[2,4,1,3]"),)]
S4 = [(("S", "[1,2,3,4]"),)]
TRUNCATING = {"max_answers=1": Limits(max_answers=1),
              "max_inferences=50": Limits(max_inferences=50),
              "max_depth=12": Limits(max_depth=12)}
# (answer set, inference count, exhausted) of naive, mi_run, classic and
# futamura, taken from the engine that instantiated the whole goal after
# every step.  A step counts every clause whose head unifies when it is
# expanded, so a run cut short still counts the alternatives it never
# tried: lazy choice points would lower the max_answers counts.
TRUNCATED = {
    ("queens", "queens([1,2,3,4],Q)", "max_answers=1"):
        [(Q4, 148, False), (Q4, 87, False), (Q4, 174, False),
         (Q4, 175, False)],
    ("queens", "queens([1,2,3,4],Q)", "max_inferences=50"):
        [([], 51, False)] * 4,
    ("queens", "queens([1,2,3,4],Q)", "max_depth=12"):
        [([], 277, False), ([], 149, False), ([], 87, False),
         ([], 87, False)],
    ("permsort", "permsort([4,2,3,1],S)", "max_answers=1"):
        [(S4, 170, False), (S4, 77, False), (S4, 115, False),
         (S4, 116, False)],
    ("permsort", "permsort([4,2,3,1],S)", "max_inferences=50"):
        [([], 51, False)] * 4,
    ("permsort", "permsort([4,2,3,1],S)", "max_depth=12"):
        [(S4, 188, True), (S4, 89, True), ([], 111, False),
         ([], 111, False)],
}


@pytest.mark.parametrize("entry,query,limit", sorted(TRUNCATED))
def test_truncated_runs_keep_their_answers_and_counts(corpus, entry, query,
                                                      limit):
    e = corpus(entry)
    goal = parse_goal(query)
    got = [(answer_set(r), r.inference_count, r.exhausted)
           for r in (run(goal, TRUNCATING[limit])
                     for run in (e.run_naive, e.run_mi, e.run_classic,
                                 e.run_futamura))]
    assert got == TRUNCATED[entry, query, limit]
