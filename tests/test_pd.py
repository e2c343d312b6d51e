"""Offline specialization of the encoded interpreter."""

import pytest

from ccontrol.engine import solve
from ccontrol.metaint import encode_as_logic_program
from ccontrol.pd import (Dynamic, ListOf, Nonvar, PDError, Static,
                         check_closedness, generalize_call,
                         interpreter_filters, parse_annotations,
                         parse_filters, specialize, specialize_encoded)
from ccontrol.terms import (Atom, FreshNames, Var, parse_atom, parse_goal,
                            parse_program, parse_term, print_term)

from conftest import answer_set
from oracles import interpreter_annotation_text, interpreter_filter_text


# --- binding types --------------------------------------------------------

def test_binding_type_generalization():
    fresh = FreshNames()
    assert Static().generalize(parse_term("f(a)"), fresh) == \
        parse_term("f(a)")
    assert isinstance(Dynamic().generalize(parse_term("f(a)"), fresh), Var)
    g = Nonvar().generalize(parse_term("f(a,[1])"), fresh)
    assert g.functor == "f" and all(isinstance(a, Var) for a in g.args)
    g = ListOf(Nonvar()).generalize(parse_term("[p(1),q(2)]"), fresh)
    assert print_term(g).startswith("[p(")


def test_binding_type_open_list_rejected():
    with pytest.raises(PDError):
        ListOf(Dynamic()).generalize(parse_term("[a|T]"), FreshNames())


def test_parse_filters_grammar():
    filters = parse_filters("mi(type(list(nonvar)),static).\n"
                            "p(dynamic,struct(f,[static;nonvar])).\n")
    types = filters.for_atom(parse_atom("mi(X,Y)"))
    assert repr(types[0]) == "list(nonvar)"
    assert repr(types[1]) == "static"
    assert filters.for_atom(parse_atom("p(A,B)"))
    with pytest.raises(PDError):
        filters.for_atom(parse_atom("q(A)"))


def test_parse_annotations_grammar():
    ann = parse_annotations("ann(memo, mi/2).\nann(rescall, call/1).\n")
    assert ann.of(parse_atom("mi(G,S)")) == "memo"
    assert ann.of(parse_atom("call(G)")) == "rescall"
    assert ann.of(parse_atom("plus(1,2,X)")) == "call"    # builtin default
    assert ann.of(parse_atom("helper(X)")) == "unfold"    # plain default


def test_default_declarations_parse_with_their_own_grammar():
    assert repr(parse_filters(interpreter_filter_text()).table) == \
        repr(interpreter_filters().table)
    parse_annotations(interpreter_annotation_text())


def test_generalize_call_variant_shape():
    fresh = FreshNames()
    types = parse_filters("mi(type(list(nonvar)),static).") \
        .for_atom(parse_atom("mi(X,Y)"))
    call = generalize_call(parse_atom("mi([perm([1],X),ord(X)],1)"), types,
                           fresh)
    assert call.pred == "mi"
    # the state argument is static, the goal atoms keep only their skeleton
    assert print_term(call.args[1]) == "1"
    from ccontrol.terms import list_parts
    items, _ = list_parts(call.args[0])
    assert [t.functor for t in items] == ["perm", "ord"]
    assert all(isinstance(a, Var) for t in items for a in t.args)


# --- specialization of a small program ------------------------------------

def test_specialize_unfolds_interpretation_away():
    program = parse_program(
        "app([],L,L).\n"
        "app([X|Xs],Y,[X|Zs]) :- app(Xs,Y,Zs).\n")
    annotations = parse_annotations("ann(memo, app/3).")
    filters = parse_filters("app(dynamic,dynamic,dynamic).")
    residual = specialize(program, parse_atom("app(A,B,C)"), annotations,
                          filters, budget=1000)
    ok, missing = check_closedness(residual)
    assert ok, missing
    # the residual enumerates the same (infinite) answer stream
    from ccontrol.engine import Limits
    r = solve(residual.program, (residual.entry_call,),
              limits=Limits(max_answers=3))
    d = solve(program, parse_goal("app(A,B,C)"),
              limits=Limits(max_answers=3))
    assert len(r.answers) == len(d.answers) == 3


def test_check_closedness_flags_undefined_predicates():
    program = parse_program("p(X) :- q(X).\n")
    from ccontrol.pd import ResidualProgram
    residual = ResidualProgram(program, parse_atom("p(X)"), (), 0)
    ok, missing = check_closedness(residual)
    assert not ok and missing == [("q", 1)]


# --- the interpreter specialization ---------------------------------------

def test_residual_is_closed_on_corpus(corpus):
    for name in ("permsort", "primes", "queens", "zigzag", "countdown"):
        residual = corpus(name).futamura
        ok, missing = check_closedness(residual)
        assert ok, (name, missing)


def test_residual_matches_encoded_program(corpus):
    for name in ("permsort", "zigzag", "countdown"):
        entry = corpus(name)
        encoded = encode_as_logic_program(entry.tables)
        for goal in entry.queries:
            from ccontrol.metaint import atom_to_term
            from ccontrol.terms import mklist
            wrapped = (Atom("compute",
                            (mklist([atom_to_term(a) for a in goal]),)),)
            assert answer_set(solve(encoded, wrapped)) == \
                answer_set(entry.run_futamura(goal)), (name, goal)


def test_residual_predicates_are_per_state(corpus):
    entry = corpus("permsort")
    preds = {c.head.pred for c in entry.futamura.program.clauses}
    assert any(p.startswith("mi__s") for p in preds)
    assert "compute" in preds


def test_budget_exhaustion_is_an_error(corpus):
    with pytest.raises(PDError):
        specialize_encoded(corpus("queens").tables, "extended", budget=5)
