"""Selection policies and the derived instantiation order."""

import collections
import hashlib
import itertools
import re

import pytest

from ccontrol import policy as policy_module
from ccontrol.absdom import FULLEVAL, UNFOLD, canonicalize, parse_aconj
from ccontrol.analysis import AnalysisOptions, analyze, render_graph
from ccontrol.policy import (NoMinimumError, PolicyError, _effective_atoms,
                             derive_order, parse_policy, select_conjunct)
from ccontrol.terms import ParseError, parse_program

from conftest import CORPUS_NAMES, corpus_text
from oracles import (is_complete, order_lt, ordered_copies, parse_aatom,
                     reference_derive_order, reference_select_conjunct,
                     select_atom)
from test_metaint import _via_user_tables
from test_synthesis import WIDENED

PERMSORT = corpus_text("permsort", ".policy")


def test_parse_corpus_policies():
    for name in CORPUS_NAMES:
        policy = parse_policy(corpus_text(name, ".policy"))
        assert policy.entry.pred == name


def test_parse_policy_parts():
    policy = parse_policy(PERMSORT)
    assert len(policy.preprior) == 2
    assert [d.link for d in policy.fulleval] == [("select", 3), ("=<", 2)]
    assert policy.fulleval[0].output.pairs


def test_policy_requires_entry():
    with pytest.raises(PolicyError):
        parse_policy("preprior: p(a1) < q(a1).")


def test_rule_referencing_unknown_set():
    with pytest.raises(PolicyError):
        parse_policy("entry: p(a1).\nrule: instances_first(Nope).")


@pytest.mark.parametrize("decl, message", [
    ("q(g1,a1) -> { a1=g2 } via user r/2",
     "link user r/2 is not the pattern's own predicate q/2 at line 2, "
     "column 42"),
    ("le(g1,g2) -> { } via builtin =</2",
     "link builtin =</2 is not the pattern's own predicate le/2 at line 2, "
     "column 40"),
    ("le(g1,g2) -> { } via builtin le/2",
     "link builtin le/2 names no builtin at line 2, column 40"),
], ids=["user-other", "builtin-other", "builtin-unknown"])
def test_a_link_other_than_its_own_builtin_or_user_predicate_is_refused(
        decl, message):
    # a link to another predicate made classic call the link while the
    # interpreters ran the atom itself
    with pytest.raises(ParseError) as err:
        parse_policy(f"entry: t(g1,a1).\nfulleval: {decl}.\n")
    assert str(err.value) == message


@pytest.mark.parametrize("entry, decl", [
    ("q(a1)", "q(a1) -> { } via user q/1"),
    ("q(g1)", "q(a1) -> { a1=g1 } via user q/1"),
    ("select(a1,[g1|g2],a2)",
     "select(a1,[g1|g2],a2) -> { } via builtin select/3"),
], ids=["user", "user-instance", "builtin"])
def test_a_fully_evaluated_entry_is_refused(entry, decl):
    # classic named its entry wrapper after the support copy, or a builtin
    with pytest.raises(PolicyError) as err:
        parse_policy(f"entry: {entry}.\nfulleval: {decl}.\n")
    assert str(err.value) == f"the entry pattern {entry} is fully evaluated"


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


def test_reflexive_preprior_is_rejected():
    # both sides of the pair are one class, renamed apart
    with pytest.raises(PolicyError) as err:
        parse_policy("entry: p(a1).\npreprior: p(a1) < p(a2).\n")
    assert str(err.value) == "selection order is reflexive at p(a1)"


# --- the derived order against the reference ------------------------------

# a set with both rule templates over it (never_before drops the last
# preprior pair), and a two-class cycle; each is ranked over every
# conjunction of two and of three atoms of its pool
HAND_WRITTEN = [
    ("entry: p(a1,a2).\n"
     "set S = { p(a1,a2), q(a1), r(a1,a2) }.\n"
     "rule: never_before(q(a1)) over S.\n"
     "rule: instances_first(S).\n"
     "preprior: p(a1,a2) < r(a1,a2).\n"
     "preprior: q([g1|a1]) < p(g1,a1).\n"
     "preprior: r(a1,a2) < q(a1).\n",
     ["p(g1,a1)", "p(a1,a2)", "q(a1)", "q([g1|a1])", "r(a1,a2)",
      "r(g1,g2)", "s(a1)"]),
    ("entry: p(a1).\n"
     "preprior: p(a1) < q(a1).\n"
     "preprior: q(a1) < p(a1).\n",
     ["p(a1)", "q(a1)", "p(g1)", "r(a1)"]),
]


def _outcome(select, policy, conj):
    try:
        return select(policy, conj)
    except PolicyError as e:
        return e


def _cycle(message):
    """The two classes a cycle message names, in either order."""
    m = re.fullmatch(r"selection order is cyclic: (.+) < (.+) < (.+)",
                     message)
    assert m and m[1] == m[3] and m[1] != m[2], message
    return {m[1], m[2]}


def _check_against_reference(policy, conj):
    """Select in ``conj`` and derive its order both ways; returns the
    selection, or the error it raised."""
    expected = _outcome(reference_select_conjunct, policy, conj)
    selected = _outcome(select_conjunct, policy, conj)
    if isinstance(expected, PolicyError):
        assert type(selected) is type(expected), (conj, selected)
        if isinstance(expected, NoMinimumError):
            assert str(selected) == str(expected)
        else:
            assert _cycle(str(selected)) == _cycle(str(expected))
    else:
        assert selected == expected, conj
    atoms = [a for _, a in _effective_atoms(conj)]
    try:
        classes, less = reference_derive_order(policy, atoms)
        expected = {(classes[i], classes[j]) for i, j in less}
    except PolicyError as e:
        expected = type(e)
    try:
        order = derive_order(policy, atoms)
        got = {(order.classes[i], order.classes[j]) for i, j in order.less}
    except PolicyError as e:
        got = type(e)
    assert got == expected, conj
    return selected


def test_selection_matches_the_reference_on_reachable_states(corpus):
    graphs = [(corpus(name).graph, corpus(name).policy)
              for name in CORPUS_NAMES]
    for lp, policy_text, k in WIDENED.values():
        policy = parse_policy(policy_text)
        graphs.append((analyze(parse_program(lp), policy,
                               AnalysisOptions(depth_k=k)), policy))
    _, tables = _via_user_tables()
    graphs.append((tables.graph, tables.policy))
    checked = 0
    for graph, policy in graphs:
        for conj in graph.states.values():
            if conj:
                assert isinstance(_check_against_reference(policy, conj),
                                  tuple)
                checked += 1
    assert checked == 172


def test_selection_matches_the_reference_on_hand_written_policies():
    outcomes = []
    for text, pool in HAND_WRITTEN:
        policy = parse_policy(text)
        for n in (2, 3):
            for atoms in itertools.permutations(pool, n):
                conj = parse_aconj(" , ".join(atoms))
                outcomes.append(_check_against_reference(policy, conj))
    kinds = {type(o) for o in outcomes}
    assert {tuple, NoMinimumError, PolicyError} <= kinds
    cycles = {str(o) for o in outcomes if type(o) is PolicyError}
    assert {frozenset(_cycle(m)) for m in cycles} == \
        {frozenset({"p(a1)", "q(a1)"})}


def test_selection_matches_the_reference_on_the_ordered_copies_family():
    # the family's policies name 5 classes per pair of ord/1 copies, and
    # each state adds its own few
    checked = 0
    for k in range(1, 5):
        program, text = ordered_copies(k)
        policy = parse_policy(text)
        for conj in analyze(parse_program(program), policy).states.values():
            if conj:
                assert isinstance(_check_against_reference(policy, conj),
                                  tuple)
                checked += 1
    assert checked == 60


def test_a_cycle_among_the_policy_classes_is_reported_at_the_first_selection():
    # the policy's own order is derived lazily: the cycle is not a parse
    # error, and a state that ranks no atom of it still reports it
    policy = parse_policy("entry: e(a1).\n"
                          "preprior: p(a1) < q(a1).\n"
                          "preprior: q(a1) < p(a1).\n")
    message = "selection order is cyclic: p(a1) < q(a1) < p(a1)"
    with pytest.raises(PolicyError) as err:
        select_conjunct(policy, parse_aconj("s(a1)"))
    assert str(err.value) == message
    with pytest.raises(PolicyError) as err:
        derive_order(policy, [parse_aatom("s(a1)")])
    assert str(err.value) == message
    with pytest.raises(PolicyError) as err:
        analyze(parse_program("e(X) :- s(X).\ns(a).\n"), policy)
    assert str(err.value) == message


def test_a_cycle_of_three_classes_reports_its_lowest_pair():
    # ranked classes are numbered first, so q(a1) is 0, p(g1) 1, p(a1) 2
    # and r(a1) 3; the first pair (i, j), i < j, on a cycle is (0, 2)
    policy = parse_policy("entry: e(a1).\n"
                          "preprior: p(a1) < q(a1).\n"
                          "preprior: q(a1) < r(a1).\n"
                          "preprior: r(a1) < p(a1).\n")
    conj = parse_aconj("q(a1) , p(g1)")
    for select in (lambda: select_conjunct(policy, conj),
                   lambda: derive_order(policy, list(conj))):
        with pytest.raises(PolicyError) as err:
            select()
        assert str(err.value) == \
            "selection order is cyclic: q(a1) < p(a1) < q(a1)"


# SHA-256 of the JSON rendering of each family member's graph
ORDERED_COPIES_GRAPHS = {
    1: "8866150e963f7ea56550d3c6bc932fd722e1358aa9d683aa2046887a1af143e1",
    2: "a24d1738586edcc8df6e1cbab0ad2edcacc7ccdfc9b6d8483ff97895a3313a91",
    3: "29689d22ff9a51155a1920f949b7d9330b8ac95a93506c2029622a5f9ea562fa",
    4: "228a53a621fe61a81bf66121e123a1633711ca089de4f12299e3376ae377d621",
    8: "9eb842713e216737d797451ca18851d1e6a2f6424e462e4f91e6df3d55bc064b",
}


@pytest.mark.parametrize("k", sorted(ORDERED_COPIES_GRAPHS))
def test_the_ordered_copies_graphs_are_pinned(k):
    # a shuffled policy names the same order, so it gives the same graph
    for seed in (None, 1) if k <= 4 else (None,):
        program, text = ordered_copies(k, seed)
        graph = analyze(parse_program(program), parse_policy(text))
        assert len(graph.states) == 4 * k + 5
        digest = hashlib.sha256(render_graph(graph, "json").encode())
        assert digest.hexdigest() == ORDERED_COPIES_GRAPHS[k], seed


def test_each_pair_of_policy_classes_is_instance_tested_once(monkeypatch):
    # the policy's own order is derived once per policy, not per state
    program, text = ordered_copies(8)
    policy = parse_policy(text)
    patterns = [decl.pattern for decl in policy.fulleval]
    named = {canonicalize(a) for pair in policy.preprior for a in pair}
    tested = collections.Counter()
    instance = policy_module.abstract_instance

    def counted(x, y):
        if not any(y is pattern for pattern in patterns):   # fulleval_match
            tested[canonicalize(x), canonicalize(y)] += 1
        return instance(x, y)

    monkeypatch.setattr(policy_module, "abstract_instance", counted)
    graph = analyze(parse_program(program), policy)
    assert len(graph.states) == 37
    # 41 classes: perm(g1,a1) and five list shapes for each ord/1 copy;
    # an atom is tested only against atoms of its own predicate
    own = [n for pair, n in tested.items() if set(pair) <= named]
    assert len(named) == 41 and len(own) == 8 * 5 * 4 and max(own) == 1


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
    from ccontrol.terms import ParseError, parse_program
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
        from ccontrol.terms import ParseError, parse_program
        program = parse_program(corpus_text(name, ".lp"))
        policy = parse_policy(corpus_text(name, ".policy"))
        graph = analyze(program, policy)
        nonempty = [c for c in graph.states.values() if c]
        ok, witness = is_complete(policy, nonempty)
        assert ok, witness
