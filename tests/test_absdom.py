"""Abstract domain: terms, canonical forms, instances, widening."""

import copy
import random

from ccontrol.absdom import (AVar, FreshAVars, MVar, abstract_instance,
                             abstract_unify_with_clause, avar_occurrences,
                             canonicalize, full_eval_output, is_ground,
                             parse_aconj, print_aconj, widen_depth_k)
from ccontrol.terms import (Atom, Const, Struct, Var, parse_program,
                            parse_term, print_atom, print_term, unify)

from oracles import (aterm_depth, check_widen_monotone, equivalent,
                     parse_aatom, parse_aterm, random_term, strict_instance)


def test_parse_print_round_trip():
    for text in ("a1", "g2", "f(a1,g1)", "[g1|a1]", "f(a1,[g1|a2])"):
        assert print_term(parse_aterm(text)) == text
    assert print_atom(parse_aatom("perm(g1,a1)")) == "perm(g1,a1)"
    conj = parse_aconj("perm(g1,a1) , ord(a1)")
    assert print_aconj(conj) == "perm(g1,a1) , ord(a1)"


def test_abstract_variables_are_variables_apart_from_concrete_ones():
    g1, mg1 = AVar("g", 1), MVar("g", 1)
    assert (g1.kind, g1.index, mg1.kind, mg1.local) == ("g", 1, "g", 1)
    assert [print_term(v) for v in (g1, AVar("a", 2), mg1)] == \
        ["g1", "a2", "mg1"]
    assert g1 == AVar("g", 1) and hash(g1) == hash(AVar("g", 1))
    assert g1 != Var("g1") and Var("g1") != g1 and mg1 != Var("mg1")
    assert len({g1, Var("g1"), mg1, Var("mg1")}) == 4
    assert copy.deepcopy((g1, mg1)) == (g1, mg1)
    # the concrete unifier binds them like any variable
    assert unify(g1, Const("c")).apply(g1) == Const("c")
    assert unify(Var("g1"), g1).bindings == {Var("g1"): g1}


def test_canonicalize_renumbers_per_kind():
    x = parse_aconj("p(g7,a9) , q(a9,g2)")
    assert print_aconj(canonicalize(x)) == "p(g1,a1) , q(a1,g2)"


def test_equivalence_is_renaming():
    assert equivalent(parse_aatom("p(a3,a3)"), parse_aatom("p(a1,a1)"))
    assert not equivalent(parse_aatom("p(a1,a2)"), parse_aatom("p(a1,a1)"))
    assert not equivalent(parse_aatom("p(a1)"), parse_aatom("p(g1)"))


def test_instance_respects_groundness_and_aliasing():
    # ground covers less than any
    assert abstract_instance(parse_aterm("g1"), parse_aterm("a1")) is not None
    assert abstract_instance(parse_aterm("a1"), parse_aterm("g1")) is None
    assert strict_instance(parse_aatom("p(g1)"), parse_aatom("p(a1)"))
    # aliasing in the more general side forces equality
    assert abstract_instance(parse_aatom("p(a1,a2)"),
                             parse_aatom("p(a3,a3)")) is None
    assert abstract_instance(parse_aatom("p(f(g1),f(g1))"),
                             parse_aatom("p(a1,a1)")) is not None


def test_member_groundness_and_aliasing():
    assert abstract_instance(parse_term("f(c)"), parse_aterm("g1")) \
        is not None
    assert abstract_instance(parse_term("f(X)"), parse_aterm("g1")) is None
    assert abstract_instance(parse_term("f(X)"), parse_aterm("a1")) \
        is not None


def test_abstract_unify_with_clause():
    clause = parse_program("ord([X,Y|Z]) :- =<(X,Y), ord([Y|Z]).").clauses[0]
    a = parse_aatom("ord(a1)")
    body, theta = abstract_unify_with_clause(a, clause, FreshAVars.above(a))
    assert print_aconj(body) == "a2 =< a3 , ord([a3|a4])"
    assert print_term(theta.apply(parse_aterm("a1"))) == "[a2,a3|a4]"


def test_abstract_unify_failure():
    clause = parse_program("p(f(X)).").clauses[0]
    a = parse_aatom("p(h(a1))")
    assert abstract_unify_with_clause(a, clause, FreshAVars.above(a)) is None


def test_full_eval_output():
    from ccontrol.absdom import ASub
    pattern = parse_aatom("plus(g1,g2,a1)")
    out = ASub({AVar("a", 1): AVar("g", 3)})
    a = parse_aatom("plus(g5,g6,a7)")
    theta = full_eval_output(a, pattern, out, FreshAVars.above(a))
    assert theta is not None
    assert print_term(theta.apply(AVar("a", 7))).startswith("g")


def test_widen_depth_k_caps_depth():
    t = parse_aterm("f(f(f(f(g1))))")
    w = widen_depth_k(t, 2)
    assert aterm_depth(w) <= 2
    assert abstract_instance(t, w) is not None


def test_widen_depth_k_draws_fresh_variables_above_the_whole_conjunction():
    # widening one atom must not capture a variable of another conjunct
    conj = parse_aconj("acc(g1,s(s(s(g2))),a1) , link(g3,a1,a2)")
    w = widen_depth_k(conj, 2)
    assert print_aconj(w) == "acc(g1,s(s(g4)),a1) , link(g3,a1,a2)"
    assert abstract_instance(conj, w) is not None


def test_instance_matches_multi_constraints():
    y = parse_aconj("p(a1) , multi((q(mg1,ma1,ma2)), init{ma1=a1}, "
                    "consec{ma1=ma2}, final{}, id=1)")
    x = parse_aconj("p(s(g1)) , multi((q(mg1,ma1,ma2)), init{ma1=s(g1)}, "
                    "consec{ma1=ma2}, final{}, id=1)")
    cover = abstract_instance(x, y)
    assert cover is not None
    assert print_term(cover.apply(AVar("a", 1))) == "s(g1)"
    # the multi's constraint must cover what the atom's variable covers
    assert abstract_instance(parse_aconj(
        "p(s(g1)) , multi((q(mg1,ma1,ma2)), init{ma1=g2}, "
        "consec{ma1=ma2}, final{}, id=1)"), y) is None
    # an unconstrained multi is not an instance of a constrained one
    assert abstract_instance(parse_aconj(
        "p(s(g1)) , multi((q(mg1,ma1,ma2)), init{}, consec{ma1=ma2}, "
        "final{}, id=1)"), y) is None


def _nested(depth, innermost):
    t = innermost
    for _ in range(depth):
        t = Struct("s", (t,))
    return t


def test_walks_of_a_deep_abstract_term_do_not_recurse():
    # s^5000 of a variable, far deeper than the host's recursion limit:
    # every walk of the domain runs on an explicit stack
    a1, a2, g1, z = AVar("a", 1), AVar("a", 2), AVar("g", 1), Const("z")
    assert avar_occurrences(Atom("p", (_nested(5000, a1), a2, a1))) == \
        [a1, a2, a1]
    assert is_ground(_nested(5000, g1)) and is_ground(_nested(5000, z))
    assert not is_ground(_nested(5000, a1))
    assert not is_ground(_nested(5000, Var("X")))
    assert abstract_instance(_nested(5000, z), _nested(5000, g1)).pairs == \
        {g1: z}
    assert abstract_instance(_nested(5000, a2), _nested(5000, g1)) is None
    assert abstract_instance(_nested(4999, z), _nested(5000, a1)) is None
    assert abstract_instance(Atom("p", (_nested(5000, z), z)),
                             Atom("p", (_nested(5000, a1), a1))).pairs == \
        {a1: z}
    # a clause whose head is 5,000 deep, unified through the store
    clause = parse_program(f"p({'s(' * 5000}X{')' * 5000}).").clauses[0]
    a = Atom("p", (a1,))
    body, theta = abstract_unify_with_clause(a, clause, FreshAVars.above(a))
    assert body == () and theta.pairs == {a1: _nested(5000, a2)}


def test_widen_monotone_on_random_terms():
    # 200 seeded cases: members survive widening
    rng = random.Random(1)
    aterms = []
    for _ in range(200):
        ct = random_term(rng, 3, [])
        from oracles import aatom_from_atom
        from ccontrol.terms import Atom
        aterms.append(aatom_from_atom(Atom("w", (ct,))).args[0])
    failures = check_widen_monotone(aterms, k=2, seed=2)
    assert not failures, failures[:3]
