"""Direct state-graph synthesis and the two-construction comparison."""

from ccontrol.engine import Limits
from ccontrol.metaint import BUILDING_BLOCK
from ccontrol.synthesis import compare_programs
from ccontrol.terms import CONS, Struct, parse_goal, parse_program, \
    print_program

from conftest import answer_set, query_deviation


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
