"""State-graph extraction: fixpoint, determinism, rendering, diagnostics."""

import json

import pytest

from ccontrol.analysis import (AnalysisError, AnalysisOptions, EMPTY_STATE,
                               analyze, parse_graph, render_graph)
from ccontrol.multi import Multi
from ccontrol.policy import parse_policy
from ccontrol.terms import parse_program

from conftest import corpus_text
from test_abstract_mgu import _analyzed

GRAPH_SIZES = {
    "permsort": (9, 11),
    "primes": (53, 66),
    "queens": (41, 48),
    "zigzag": (14, 17),
    "countdown": (9, 11),
}


@pytest.mark.parametrize("name,size", sorted(GRAPH_SIZES.items()))
def test_corpus_graph_sizes(corpus, name, size):
    g = corpus(name).graph
    assert (len(g.states), len(g.transitions)) == size


def test_entry_and_empty_state(corpus):
    g = corpus("permsort").graph
    assert g.states[g.entry]
    # the empty conjunction is the implicit success state
    assert EMPTY_STATE not in g.states
    assert all(t.src in g.states for t in g.transitions)
    assert all(t.dst in g.states or t.dst == EMPTY_STATE
               for t in g.transitions)


def test_multi_states_only_where_needed(corpus):
    for name in ("permsort", "zigzag", "countdown"):
        g = corpus(name).graph
        assert not any(isinstance(c, Multi)
                       for conj in g.states.values() for c in conj)
    for name in ("primes", "queens"):
        g = corpus(name).graph
        assert any(isinstance(c, Multi)
                   for conj in g.states.values() for c in conj)
        assert g.groupings


def test_analysis_is_deterministic():
    program = parse_program(corpus_text("queens", ".lp"))
    policy = parse_policy(corpus_text("queens", ".policy"))
    r1 = render_graph(analyze(program, policy), "json")
    r2 = render_graph(analyze(program, policy), "json")
    assert r1 == r2


def test_graph_json_round_trip(corpus):
    for name in ("permsort", "primes"):
        g = corpus(name).graph
        g2 = parse_graph(render_graph(g, "json"))
        assert g2.entry == g.entry
        assert g2.states == g.states
        assert g2.transitions == g.transitions
        assert g2.actions == g.actions
        assert g2.groupings == g.groupings
        # older files repeat the group actions in a groupings array
        doc = json.loads(render_graph(g, "json"))
        doc["groupings"] = [{"state": 1, "start": 0, "plen": 1,
                             "kind": "new"}]
        assert parse_graph(json.dumps(doc)).groupings == g.groupings


def test_render_text_and_dot():
    program = parse_program(corpus_text("permsort", ".lp"))
    policy = parse_policy(corpus_text("permsort", ".policy"))
    g = analyze(program, policy)
    assert render_graph(g, "dot").startswith("digraph")
    with pytest.raises(AnalysisError):
        render_graph(g, "yaml")


def test_growth_diagnostic_without_multi():
    program = parse_program(corpus_text("primes", ".lp"))
    policy = parse_policy(corpus_text("primes", ".policy"))
    with pytest.raises(AnalysisError) as exc:
        analyze(program, policy, AnalysisOptions(enable_multi=False,
                                                 max_states=200))
    message = str(exc.value)
    assert "grows from ancestor" in message
    assert "multi" in message or "widening" in message


def test_depth_k_widening_bounds_terms():
    program = parse_program("count(s(N)) :- count(N).\ncount(z).\n")
    policy = parse_policy("entry: count(a1).\n")
    g = analyze(program, policy, AnalysisOptions(depth_k=3))
    assert len(g.states) < 10


def test_graph_files_read_back_as_written(corpus):
    graphs = [graph for graph, _, _ in _analyzed(corpus)]
    # an atom of a predicate named multi is not a multi form
    graphs.append(analyze(parse_program("p(X) :- multi(X).\nmulti(1).\n"),
                          parse_policy("entry: p(a1).")))
    for graph in graphs:
        assert parse_graph(render_graph(graph, "json")) == graph


def test_constant_read_back_as_a_variable_is_refused():
    program = parse_program("p(X) :- q(X,mg2).\nq(Y,mg2).\n")
    graph = analyze(program, parse_policy("entry: p(g1)."))
    with pytest.raises(AnalysisError, match="constant mg2 cannot be"):
        render_graph(graph, "json")
    assert render_graph(graph, "dot").startswith("digraph")
