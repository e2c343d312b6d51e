"""Selection policies and the derived instantiation order."""

import pytest

from ccontrol.absdom import FULLEVAL, UNFOLD, parse_aconj
from ccontrol.policy import (NoMinimumError, PolicyError, derive_order,
                             parse_policy, select_conjunct)

from conftest import CORPUS_NAMES, corpus_text
from oracles import is_complete, order_lt, parse_aatom, select_atom

PERMSORT = corpus_text("permsort", ".policy")


def test_parse_corpus_policies():
    for name in CORPUS_NAMES:
        policy = parse_policy(corpus_text(name, ".policy"))
        assert policy.entry.pred == name


def test_parse_policy_parts():
    policy = parse_policy(PERMSORT)
    assert len(policy.preprior) == 2
    assert [d.link for d in policy.fulleval] == [("select", 3), ("=<", 2)]
    assert policy.fulleval[0].outputs[0].pairs


def test_policy_requires_entry():
    with pytest.raises(PolicyError):
        parse_policy("preprior: p(a1) < q(a1).")


def test_rule_referencing_unknown_set():
    with pytest.raises(PolicyError):
        parse_policy("entry: p(a1).\nrule: instances_first(Nope).")


def test_derived_order_from_preprior_and_instantiation():
    policy = parse_policy(PERMSORT)
    atoms = [parse_aatom(s) for s in
             ("perm(g1,a1)", "ord(a1)", "ord([g1|a1])", "ord([g1,g2|a1])")]
    order = derive_order(policy, atoms)
    assert order_lt(order, atoms[0], atoms[2])      # preprior pair
    assert order_lt(order, atoms[3], atoms[0])      # preprior pair
    assert order_lt(order, atoms[2], atoms[1])      # strict instance first
    assert order_lt(order, atoms[3], atoms[1])      # transitive closure
    assert not order_lt(order, atoms[1], atoms[1])  # irreflexive


def test_fulleval_has_priority():
    policy = parse_policy(PERMSORT)
    atoms = [parse_aatom("select(a1,[g1|g2],a2)"), parse_aatom("perm(g1,a1)")]
    order = derive_order(policy, atoms)
    assert order_lt(order, atoms[0], atoms[1])


def test_cyclic_preprior_is_rejected():
    policy = parse_policy("entry: p(a1).\n"
                          "preprior: p(a1) < q(a1).\n"
                          "preprior: q(a1) < p(a1).\n")
    atoms = [parse_aatom("p(a1)"), parse_aatom("q(a1)")]
    with pytest.raises(PolicyError):
        derive_order(policy, atoms)


def test_select_atom_marks():
    policy = parse_policy(PERMSORT)
    conj = parse_aconj("perm(g1,a1) , ord(a1)")
    pos, atom, mark = select_atom(policy, conj)
    assert (pos, mark) == (0, UNFOLD)
    conj = parse_aconj("select(a1,[g1|g2],a2) , perm(g1,a1)")
    pos, atom, mark = select_atom(policy, conj)
    assert (pos, mark) == (0, FULLEVAL)


def test_select_conjunct_asks_for_case_split():
    policy = parse_policy(corpus_text("primes", ".policy"))
    conj = parse_aconj(
        "integers(g1,a1) , "
        "multi((filter(mg1,ma1,ma2)), init{ma1=a1}, consec{ma1=ma2}, "
        "final{ma2=a2}, id=1) , sift(a2,a3) , length(a3,g2)")
    pos, mark = select_conjunct(policy, conj)
    assert mark in ("split", UNFOLD, FULLEVAL)
    if mark == "split":
        from ccontrol.multi import Multi
        assert isinstance(conj[pos], Multi)


def test_no_minimum_error_names_multi_positions_as_fresh_variables():
    # the virtual first instance of a multi leaves unconstrained positions
    # as throwaway variables; the message shows them as fresh variables
    # above the conjunction, one per position of each multi
    policy = parse_policy("entry: start(a1,a2).\n"
                          "preprior: down(a1) < link(a2,a3).\n")
    conj = parse_aconj(
        "down(a1) , "
        "multi((link(ma1,ma2)), init{ma1=s(a1)}, consec{ma1=ma2}, final{}, "
        "id=1) , "
        "multi((link(ma1,ma2)), init{ma1=f(a1)}, consec{ma1=ma2}, final{}, "
        "id=2)")
    with pytest.raises(NoMinimumError) as err:
        select_conjunct(policy, conj)
    assert str(err.value) == ("no minimal atom in down(a1) , "
                              "link(s(a1),a2) , link(f(a1),a3)")


def test_completeness_error_uses_policy_notation():
    from ccontrol.analysis import (AnalysisOptions, CompletenessError,
                                   analyze)
    from ccontrol.terms import parse_program
    program = parse_program(
        "start(N,R) :- down(N), link(N,M), link(M,K), link(K,R).\n"
        "down(z).\n"
        "down(s(X)) :- down(X).\n"
        "link(X,f(X)).\n")
    policy = parse_policy("entry: start(a1,a2).\n"
                          "preprior: down(a1) < link(a2,a3).\n")
    with pytest.raises(CompletenessError) as err:
        analyze(program, policy, AnalysisOptions(depth_k=2))
    assert "no minimal atom in down(a1) , link(s(a1),a2))" in str(err.value)


def test_is_complete_on_corpus_states():
    for name in CORPUS_NAMES:
        from ccontrol.analysis import analyze
        from ccontrol.terms import parse_program
        program = parse_program(corpus_text(name, ".lp"))
        policy = parse_policy(corpus_text(name, ".policy"))
        graph = analyze(program, policy)
        nonempty = [c for c in graph.states.values() if c]
        ok, witness = is_complete(policy, nonempty)
        assert ok, witness
