"""Direct state-graph synthesis and the two-construction comparison."""

import json

import pytest

from ccontrol.analysis import AnalysisOptions, analyze
from ccontrol.cli import main
from ccontrol.engine import Limits, solve
from ccontrol.metaint import (BUILDING_BLOCK, build_tables,
                              encode_as_logic_program, mi_run)
from ccontrol.policy import parse_policy
from ccontrol.synthesis import compare_programs, run_compiled, synthesize
from ccontrol.terms import CONS, Struct, parse_goal, parse_program, \
    print_program

from conftest import (SMALL_OUTPUTS, answer_set, pinned_small_outputs,
                      query_deviation, small_outputs)

# A term that grows at every call: under depth-2 widening the analysis
# folds grow(s(s(s(g1))),a1) into the state grow(s(s(g1)),a1).
GROW_LP = "grow(X,X).\ngrow(X,Y) :- grow(s(X),Y).\n"
GROW_POLICY = "entry: grow(g1,a1).\n"

# Widening and multis together: the growing accumulator is widened while
# the chained link/3 calls fold into a multi abstraction.
ACC_LP = """acc([],A,A).
acc([X|T],A,R) :- acc(T,s(A),R1), link(X,R1,R).
link(X,Y,f(X,Y)).
"""
ACC_POLICY = """entry: acc(g1,g2,a1).
preprior: acc(g1,g2,a1) < link(g1,a1,a2).
"""


# The widened programs whose outputs fixtures/small_outputs.json pins.
WIDENED = {"grow k=2": (GROW_LP, GROW_POLICY, 2),
           "acc k=2": (ACC_LP, ACC_POLICY, 2),
           "acc k=3": (ACC_LP, ACC_POLICY, 3)}


def test_predicate_per_state(corpus):
    entry = corpus("permsort")
    sp = entry.classic
    assert sp.entry == ("permsort", 2)
    preds = {c.head.pred for c in sp.program.clauses}
    assert "permsort" in preds
    assert all(f"permsort_s{sid}" in preds
               for sid in entry.graph.states
               if entry.graph.states[sid])


def test_synthesized_matches_mi_run(corpus):
    for name in ("permsort", "primes", "queens", "zigzag", "countdown"):
        entry = corpus(name)
        for goal in entry.queries[:4]:
            assert answer_set(entry.run_classic(goal)) == \
                answer_set(entry.run_mi(goal)), (name, goal)


def test_synthesized_round_trips_through_parser(corpus):
    for name in ("permsort", "queens"):
        program = corpus(name).classic.program
        reparsed = parse_program(print_program(program))
        assert len(reparsed.clauses) == len(program.clauses)


def test_many_branch_head_requires_two_blocks(corpus):
    # a case-split's many clause must not fire on single-block lists: the
    # remaining multi stands for at least one more instance
    entry = corpus("queens")
    split = entry.tables.split_states
    assert split
    checked = 0
    for clause in entry.classic.program.clauses:
        for arg in clause.head.args:
            if not (isinstance(arg, Struct) and arg.functor == CONS):
                continue
            head_block, rest = arg.args
            if not (isinstance(head_block, Struct)
                    and head_block.functor == BUILDING_BLOCK):
                continue
            if not isinstance(rest, Struct):
                continue        # closed one-element list from the one case
            assert isinstance(rest, Struct) and rest.functor == CONS
            assert rest.args[0].functor == BUILDING_BLOCK
            checked += 1
    assert checked > 0


def _compare(entry, goal_text, limits=None):
    """The comparison report row of one goal, classic versus futamura."""
    report = compare_programs(entry.classic.program, entry.futamura.program,
                              [parse_goal(goal_text)], limits)
    return report["queries"][0]


def test_compare_syntheses_report(corpus):
    row = _compare(corpus("permsort"), "permsort([3,1,2],S)")
    assert row["answers_match"] and row["both_exhausted"]
    assert query_deviation(row) <= 0.05


def test_compare_syntheses_workload_deviation(corpus):
    for name, goal_text in (("zigzag", "zigzag([1,9,2,8,3],R)"),
                            ("countdown", "countdown([4,2,3,1],C)")):
        row = _compare(corpus(name), goal_text)
        assert row["answers_match"], name
        assert query_deviation(row) <= 0.05, (name, row["inferences"])


def test_compare_syntheses_respects_limits(corpus):
    row = _compare(corpus("permsort"), "permsort([3,1,2],S)",
                   Limits(max_inferences=5))
    assert not row["both_exhausted"]


def _widened(lp, policy_text, k):
    program, policy = parse_program(lp), parse_policy(policy_text)
    graph = analyze(program, policy, AnalysisOptions(depth_k=k))
    return program, graph, build_tables(graph, program, policy), \
        synthesize(graph, program, policy)


def test_widened_graph_compiles_and_agrees_with_naive():
    program, graph, tables, classic = _widened(GROW_LP, GROW_POLICY, 2)
    assert len(graph.states) == 3
    limits = Limits(max_answers=4)
    for text in ("grow(z,Y)", "grow(s(z),Y)"):
        goal = parse_goal(text)
        naive = solve(program, goal, limits=limits)
        assert len(naive.answers) == 4
        assert answer_set(solve(classic.program, goal, limits=limits)) == \
            answer_set(naive) == answer_set(mi_run(tables, goal,
                                                   limits=limits)), text


def test_widened_graph_with_multis_compiles_and_agrees_with_naive():
    for k in (2, 3):
        program, graph, tables, classic = _widened(ACC_LP, ACC_POLICY, k)
        assert any(a[0] == "split" for a in graph.actions.values())
        for text in ("acc([],z,R)", "acc([a],z,R)", "acc([a,b,c,d,e],z,R)"):
            goal = parse_goal(text)
            naive = solve(program, goal)
            assert len(naive.answers) == 1
            assert answer_set(solve(classic.program, goal)) == \
                answer_set(naive) == answer_set(mi_run(tables, goal)), \
                (k, text)


def test_pipeline_compiles_a_widened_graph_both_ways(tmp_path, capsys):
    lp, pol, queries = (tmp_path / name for name in
                        ("grow.lp", "grow.policy", "grow.queries"))
    lp.write_text(GROW_LP)
    pol.write_text(GROW_POLICY)
    queries.write_text("grow(z,Y).\n")
    out = tmp_path / "artifacts"
    main(["pipeline", str(lp), str(pol), "--depth-k", "2", "--out-dir",
          str(out), "--queries", str(queries), "--max-answers", "3"])
    for name in ("graph.json", "compiled_classic.lp",
                 "compiled_futamura.lp"):
        assert (out / name).exists(), name
    assert json.loads((out / "report.json").read_text())["all_match"]


@pytest.mark.parametrize("key", sorted(WIDENED))
def test_widened_outputs_are_pinned(key):
    # depth-k widening, multis and the abstract printer, byte for byte
    lp, policy_text, k = WIDENED[key]
    assert small_outputs(parse_program(lp), parse_policy(policy_text), k) \
        == pinned_small_outputs(key)


if __name__ == "__main__":
    from test_metaint import VIA_USER, _via_user_tables
    program, tables = _via_user_tables()
    out = {key: small_outputs(parse_program(lp), parse_policy(text), k)
           for key, (lp, text, k) in WIDENED.items()}
    out[VIA_USER] = small_outputs(program, tables.policy)
    SMALL_OUTPUTS.write_text(json.dumps(out, indent=1) + "\n")


def test_an_encoded_compute_entry_runs_through_its_start_clause():
    # the program defines compute/1 itself; only the interpreter's start clause
    # compute(Gs) :- mi(Gs, State) marks the wrapper
    program = parse_program("compute(z).\ncompute(s(X)) :- compute(X).\n")
    policy = parse_policy("entry: compute(g1).\n")
    tables = build_tables(analyze(program, policy), program, policy)
    res = run_compiled(encode_as_logic_program(tables),
                       parse_goal("compute(s(s(z)))"))
    assert (len(res.answers), res.inference_count) == (1, 37)
