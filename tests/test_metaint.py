"""Table-driven interpreter and its logic-program encoding."""

import collections
import json
import pathlib

import pytest

from ccontrol import metaint
from ccontrol.absdom import abstract_instance, canonicalize
from ccontrol.analysis import (EMPTY_STATE, AnalysisError, AnalysisOptions,
                               StateGraph, Transition, analyze, parse_graph,
                               render_graph)
from ccontrol.cli import main
from ccontrol.engine import Limits, solve
from ccontrol.metaint import (MetaintError, atom_to_term, build_tables,
                              encode_as_logic_program, mi_run)
from ccontrol.multi import FoldEvent, Multi, simplify_conj
from ccontrol.pd import check_closedness, specialize_encoded
from ccontrol.policy import parse_policy
from ccontrol.synthesis import run_compiled, synthesize
from ccontrol.terms import (Atom, mklist, parse_goal, parse_program,
                            print_program, program_of, substitute,
                            term_to_atom)

from conftest import (CORPUS_NAMES, answer_set, corpus_text,
                      pinned_small_outputs, small_outputs)
from oracles import (cmulti_blocks, conj_member, is_cmulti, make_cmulti,
                     reference_apply_groupings, reference_split)
from test_synthesis import WIDENED


def run_encoded(entry, goal, limits=None):
    program = encode_as_logic_program(entry.tables)
    wrapped = (Atom("compute", (mklist([atom_to_term(a) for a in goal]),)),)
    return solve(program, wrapped, limits=limits)


def test_atom_term_round_trip():
    a = parse_goal("perm([1|X],Y)")[0]
    assert term_to_atom(atom_to_term(a)) == a


def test_cmulti_construction():
    blocks = [tuple(parse_goal("p(1)")), tuple(parse_goal("p(2),q"))]
    c = make_cmulti(blocks)
    assert repr(c) == \
        "cmulti([building_block([p(1)]),building_block([p(2),q])])"
    assert is_cmulti(c) and not is_cmulti(blocks[0][0])
    assert cmulti_blocks(c) == blocks


def _term_form(goal):
    """A goal of the interpreter with each cmulti element, a tuple of atom
    blocks, in its term form."""
    return tuple(make_cmulti(e) if isinstance(e, tuple) else e for e in goal)


def _tuple_form(goal):
    """A goal with each cmulti element in its term form as the interpreter
    holds it, a tuple of atom blocks."""
    return tuple(tuple(cmulti_blocks(e)) if is_cmulti(e) else e
                 for e in goal)


def _widened(key):
    """The widened graph of ``key``, its program and its policy."""
    lp, policy_text, k = WIDENED[key]
    program, policy = parse_program(lp), parse_policy(policy_text)
    return analyze(program, policy, AnalysisOptions(depth_k=k)), program, \
        policy


def _widened_tables(key):
    return build_tables(*_widened(key))


# the widened programs' goals; grow's answers never end
WIDENED_GOALS = {"grow k=2": ("grow(z,Y)", "grow(s(z),Y)"),
                 "acc k=2": ("acc([],z,R)", "acc([a,b,c,d,e],z,R)"),
                 "acc k=3": ("acc([a],z,R)", "acc([a,b,c,d,e,f],z,R)")}


def test_splits_and_groupings_match_the_rebuild(corpus, monkeypatch):
    # at every split and grouping visit, the successor goal is what taking
    # the resolved goal's cmulti terms apart and rebuilding them gives
    step = metaint.MetaInterpreter.step
    visits = collections.Counter()

    def checked(self, goal, state):
        deeper, succ = step(self, goal, state)
        action = ("user",) if isinstance(state, tuple) else \
            self.graph.actions.get(state, ("leaf",))
        if action[0] not in ("split", "group"):
            return deeper, succ
        resolved = _term_form(substitute(goal, self.store))
        if action[0] == "split":
            kind, expected = reference_split(resolved, action[1])
        else:
            kind = action[1].kind
            expected = reference_apply_groupings(resolved, action[1])
        cause = ("grouping", kind) if action[0] == "group" else (kind,)
        assert deeper == 0
        assert [(_term_form(substitute(g, self.store)), dst, b)
                for g, dst, b in succ] \
            == [(expected, self.graph.successor(state, cause), ())]
        visits[kind] += 1
        return deeper, succ

    monkeypatch.setattr(metaint.MetaInterpreter, "step", checked)
    for name in CORPUS_NAMES:
        for goal in corpus(name).queries:
            mi_run(corpus(name).tables, goal)
    for key, goals in WIDENED_GOALS.items():
        for goal in goals:
            mi_run(_widened_tables(key), parse_goal(goal),
                   limits=Limits(max_answers=4))
    assert set(visits) == {"one", "many", "new", "left", "right"}
    # no concrete primes goal reaches the analysis' merge state, so it is
    # driven by hand on a goal with two adjacent cmulti elements
    tables = corpus("primes").tables
    merge = next(s for s, ev in tables.grouping.items() if ev.kind == "merge")
    metaint.MetaInterpreter(tables).step(_tuple_form(parse_goal(
        "integers(6,I), cmulti([building_block([filter(2,[5|I],F1)]), "
        "building_block([filter(3,F1,F2)])]), cmulti([building_block("
        "[filter(3,F2,F3)]),building_block([filter(5,F3,F4)])]), "
        "sift(F4,P), length(P,3)")), merge)
    assert visits["merge"] == 1


def test_every_goal_at_a_state_without_a_multi_is_an_instance_of_it(
        corpus, monkeypatch):
    """The premise that classic synthesis and the futamura residual both
    compile in: a goal that ``mi_run`` visits at a state is an instance
    of the state's conjunction.  Checked here where the conjunction holds
    no multi (a cmulti's blocks are not walked)."""
    step = metaint.MetaInterpreter.step
    visits = []

    def checked(self, goal, state):
        conj = None if isinstance(state, tuple) else \
            self.graph.states.get(state)
        if conj and not any(isinstance(c, Multi) for c in conj):
            resolved = substitute(goal, self.store)
            assert all(isinstance(a, Atom) for a in resolved)
            assert conj_member(resolved, conj), (state, resolved)
            visits.append(state)
        return step(self, goal, state)

    monkeypatch.setattr(metaint.MetaInterpreter, "step", checked)
    for name in CORPUS_NAMES:
        for goal in corpus(name).queries:
            mi_run(corpus(name).tables, goal)
    assert len(visits) == 1345
    program, via_user = _via_user_tables()
    runs = [(_widened_tables(key), goals, Limits(max_answers=4))
            for key, goals in WIDENED_GOALS.items()]
    runs.append((via_user, ("t([1,2,3],S)", "t([],S)", "t([5],S)"), None))
    for tables, goals, limits in runs:
        before = len(visits)
        for goal in goals:
            mi_run(tables, parse_goal(goal), limits=limits)
        assert len(visits) > before, goals


def _acc_graph_with(edit):
    """acc's widened graph, with its state 2's transition for clause 1
    leading to split state 6, state 4's new grouping relabelled left, or
    state 7's left grouping relabelled new or moved past the goal's end."""
    g, program, policy = _widened("acc k=2")
    actions, transitions = dict(g.actions), list(g.transitions)
    if edit == "atom to a split":
        assert g.actions[6] == ("split", 0)
        i = transitions.index(Transition(2, 3, ("clause", 1)))
        transitions[i] = Transition(2, 6, ("clause", 1))
    else:
        sid, kind, start = {"left of two atoms": (4, "left", 1),
                            "new of a multi": (7, "new", 1),
                            "left past the end": (7, "left", 2)}[edit]
        assert g.actions[sid][0] == "group"
        actions[sid] = ("group", FoldEvent(start, 1, kind))
        transitions = [Transition(t.src, t.dst, ("grouping", kind))
                       if t.src == sid else t for t in transitions]
    return StateGraph(g.entry, g.states, transitions, actions), program, \
        policy


ACC_STATE_7 = ("acc(g1,s(s(g2)),a1) , link(g3,a1,a2) , multi((link(mg1,ma1,"
               "ma2)), init{ma1=a2}, consec{ma1=ma2}, final{}, id=1)")

LAYOUT_DEFECTS = {
    "atom to a split": "the clause 1 transition of state 2 leads to state 6, "
                       "which does not cover its successor "
                       "link(g3,s(g2),a2)",
    "left of two atoms": 'state 4: the grouping ["group", 1, 1, "left"] does '
                         "not apply to acc(g1,s(s(g2)),a1) , "
                         "link(g3,a1,a2) , link(g4,a2,a3)",
    "new of a multi": 'state 7: the grouping ["group", 1, 1, "new"] does not '
                      f"apply to {ACC_STATE_7}",
    "left past the end": 'state 7: the grouping ["group", 2, 1, "left"] does '
                         f"not apply to {ACC_STATE_7}",
}


@pytest.mark.parametrize("edit", list(LAYOUT_DEFECTS))
def test_graph_that_breaks_a_goal_layout_is_a_metaint_error(edit):
    # each edit would have the interpreter meet an atom where it takes a
    # cmulti apart, or a cmulti where it groups atoms, or group past the
    # goal's end; the tables refuse it before any step, as a grouping the
    # state's conjunction does not make or a target that does not cover
    # the step's successor
    with pytest.raises(MetaintError) as exc:
        build_tables(*_acc_graph_with(edit))
    assert str(exc.value) == LAYOUT_DEFECTS[edit]


def test_steps_analyzed_from_another_program_are_replayed(corpus):
    # a graph's recorded steps are of the program and policy it was
    # analyzed from: an equal pair takes them as they are, any other
    # replays them, as for a graph read from a file, in build_tables and
    # in synthesize alike; state 6, ord([g1]), resolves with clause 5,
    # ord([X]), which permsort without it lacks
    entry = corpus("permsort")
    text = corpus_text("permsort", ".lp")
    program = parse_program(text)
    policy = parse_policy(corpus_text("permsort", ".policy"))
    same = build_tables(entry.graph, program, policy)
    assert same.graph.steps is entry.graph.steps
    read = parse_graph(render_graph(entry.graph, "json"))
    assert print_program(synthesize(read, program, policy).program) == \
        print_program(entry.classic.program)
    other = parse_program(text.replace("ord([X]).\n", ""))
    for g in (entry.graph, read):
        for construct in (build_tables, synthesize):
            with pytest.raises(MetaintError, match=r"^state 6 has the "
                               "transitions clause 5, where its action "
                               "makes none$"):
                construct(g, other, entry.policy)


def test_unknown_grouping_kind_is_a_graph_file_error():
    doc = json.loads(render_graph(_widened("acc k=2")[0], "json"))
    assert doc["actions"]["4"] == ["group", 1, 1, "new"]
    doc["actions"]["4"][3] = "sideways"
    with pytest.raises(AnalysisError, match="^group action of state 4 of "
                       "unknown kind 'sideways'$"):
        parse_graph(json.dumps(doc))


def test_tables_classify_states(corpus):
    assert not corpus("permsort").tables.split_states
    assert corpus("primes").tables.split_states
    assert corpus("primes").tables.grouping
    assert corpus("queens").tables.split_states
    assert corpus("permsort").variant == "simple"
    assert corpus("queens").variant == "extended"


def test_mi_run_matches_naive_engine(corpus):
    for name in ("permsort", "zigzag", "countdown"):
        entry = corpus(name)
        for goal in entry.queries:
            assert answer_set(entry.run_mi(goal)) == \
                answer_set(entry.run_naive(goal)), (name, goal)


def test_mi_run_follows_the_analyzed_selection(corpus):
    # the analyzed control finds queens answers the naive engine also finds
    entry = corpus("queens")
    goal = parse_goal("queens([1,2,3,4],Qs)")
    assert answer_set(entry.run_mi(goal)) == answer_set(entry.run_naive(goal))


def test_mi_run_terminates_where_naive_does_not(corpus):
    entry = corpus("primes")
    res = entry.run_mi(parse_goal("primes(3,P)"))
    assert res.exhausted and res.answers
    naive = entry.run_naive(parse_goal("primes(3,P)"),
                            limits=Limits(max_inferences=20000))
    assert not naive.exhausted


def test_encoded_program_matches_mi_run(corpus):
    for name in ("permsort", "primes", "queens"):
        entry = corpus(name)
        for goal in entry.queries[:4]:
            assert answer_set(run_encoded(entry, goal)) == \
                answer_set(entry.run_mi(goal)), (name, goal)


def test_encoded_program_round_trips_through_parser(corpus):
    for name in ("permsort", "queens"):
        entry = corpus(name)
        program = encode_as_logic_program(entry.tables)
        reparsed = parse_program(print_program(program))
        assert len(reparsed.clauses) == len(program.clauses)


def test_unknown_variant_rejected(corpus):
    with pytest.raises(MetaintError):
        encode_as_logic_program(corpus("permsort").tables, "fancy")


def test_mi_run_honours_max_depth_like_the_engine(corpus):
    # depth counts clause resolutions; full evaluation is free, so the
    # analyzed control stops where the plain engine does
    entry = corpus("permsort")
    goal = parse_goal("permsort([3,1,2],S)")
    shallow = Limits(max_depth=1)
    for run in (entry.run_naive, entry.run_mi, entry.run_classic):
        res = run(goal, limits=shallow)
        assert (len(res.answers), res.inference_count, res.exhausted) == \
            (0, 2, False), run.__name__


def test_graphs_with_multis_run_without_naming_a_variant(corpus):
    # the graph implies the interpreter: naming the variant it implies
    # changes nothing
    for name in ("queens", "primes"):
        tables = corpus(name).tables
        goal = corpus(name).queries[0]
        derived, named = mi_run(tables, goal), mi_run(tables, goal, "extended")
        assert (answer_set(derived), derived.inference_count) == \
            (answer_set(named), named.inference_count), name
        assert print_program(encode_as_logic_program(tables)) == \
            print_program(encode_as_logic_program(tables, "extended")), name
        assert print_program(specialize_encoded(tables).program) == \
            print_program(specialize_encoded(tables, "extended").program), \
            name


def test_simple_variant_of_a_graph_with_multis_is_rejected_before_a_step(
        corpus):
    # the goal fails at its first resolution, before any multi state
    tables = corpus("queens").tables
    goal = parse_goal("queens(none,Qs)")
    assert not mi_run(tables, goal).answers
    for run in (lambda: mi_run(tables, goal, "simple"),
                lambda: encode_as_logic_program(tables, "simple"),
                lambda: specialize_encoded(tables, "simple")):
        with pytest.raises(MetaintError, match="multi abstractions"):
            run()


def _via_user_tables():
    """Doubling then summing a list, both calls fully evaluated by their
    user definitions."""
    program = parse_program("""
        t(L,S) :- dbl(L,D), sum(D,S).
        dbl([],[]).
        dbl([X|T],[Y|T2]) :- plus(X,X,Y), dbl(T,T2).
        sum([],0).
        sum([X|T],S) :- sum(T,S1), plus(X,S1,S).
    """)
    policy = parse_policy("""
        entry: t(g1,a1).
        fulleval: dbl(g1,a1) -> { a1=g2 } via user dbl/2.
        fulleval: sum(g1,a1) -> { a1=g2 } via user sum/2.
    """)
    return program, build_tables(analyze(program, policy), program, policy)


# the key of the via-user program's outputs in fixtures/small_outputs.json
VIA_USER = "t/dbl/sum via user"


def _analyzed(corpus, key):
    """The in-memory graph of a corpus entry or a pinned small program,
    with the program and policy it was analyzed from."""
    if key in CORPUS_NAMES:
        entry = corpus(key)
        return entry.graph, entry.program, entry.policy
    if key in WIDENED:
        return _widened(key)
    program, tables = _via_user_tables()
    return tables.graph, program, tables.policy


COVERED = CORPUS_NAMES + tuple(sorted(WIDENED)) + (VIA_USER,)


@pytest.mark.parametrize("key", COVERED)
def test_each_recorded_step_leads_to_a_state_that_covers_it(corpus, key):
    # the analysis records each step's successor; the state its
    # transition leads to is the successor's canonical form or, widened,
    # a generalization of it
    graph, _, _ = _analyzed(corpus, key)
    steps = generalized = 0
    for sid, made in graph.steps.items():
        for (cause, succ), t in zip(made, graph.successors(sid)):
            assert cause == t.cause
            steps += 1
            if t.dst == EMPTY_STATE:
                assert succ == ()
                continue
            stored = graph.states[t.dst]
            assert abstract_instance(simplify_conj(succ), stored) \
                is not None, (sid, cause)
            generalized += canonicalize(succ) != stored
    assert steps == len(graph.transitions)
    # each widened graph has a step whose state generalizes its successor
    assert (generalized > 0) == (key in WIDENED)


@pytest.mark.parametrize("key", COVERED)
def test_a_graph_read_back_synthesizes_as_the_analyzed_one(corpus, key):
    # the graph read from its file has no steps, so build_tables replays
    # them
    graph, program, policy = _analyzed(corpus, key)
    read = parse_graph(render_graph(graph, "json"))
    assert read.steps is None
    replayed = build_tables(read, program, policy).graph
    assert [replayed.steps[sid] for sid in sorted(graph.states)] == \
        [graph.steps[sid] for sid in sorted(graph.states)]
    assert print_program(synthesize(read, program, policy).program) == \
        print_program(synthesize(graph, program, policy).program)


def test_user_full_evaluation_outputs_are_pinned():
    # the post-pattern renaming of full evaluations, byte for byte
    program, tables = _via_user_tables()
    assert small_outputs(program, tables.policy) == \
        pinned_small_outputs(VIA_USER)


def test_user_full_evaluation_counts_and_names_like_the_engine():
    program, tables = _via_user_tables()
    goal = parse_goal("t([1,2,3],S)")
    naive = solve(program, goal)
    res = mi_run(tables, goal)
    assert answer_set(res) == answer_set(naive) == [(("S", "12"),)]
    assert res.inference_count == naive.inference_count == 15


@pytest.mark.parametrize("limits", [
    Limits(max_inferences=5), Limits(max_inferences=14),
    Limits(max_depth=3), Limits(max_answers=1)])
def test_user_full_evaluation_runs_under_the_run_limits(limits):
    # the nested derivation is charged to the run: a budget it exhausts
    # truncates the run where the engine's run is truncated
    program, tables = _via_user_tables()
    goal = parse_goal("t([1,2,3],S)")
    naive = solve(program, goal, limits)
    res = mi_run(tables, goal, limits=limits)
    assert (res.answers, res.inference_count, res.exhausted) == \
        (naive.answers, naive.inference_count, naive.exhausted)
    if limits.max_answers is None:
        assert not res.exhausted and not res.answers


def _compiled_answers(program, tables, goal):
    """Answer sets of naive, the encoded interpreter, classic and
    futamura on one goal."""
    residual = specialize_encoded(tables)
    assert check_closedness(residual) == (True, [])
    classic = synthesize(tables.graph, program, tables.policy).program
    return [answer_set(run_compiled(p, goal)) for p in
            (program, encode_as_logic_program(tables), classic,
             residual.program)]


def _dbl_tables():
    """Doubling a Peano numeral: no full evaluation and no multi."""
    program = parse_program("dbl(z,z).\ndbl(s(X),s(s(Y))) :- dbl(X,Y).\n")
    policy = parse_policy("entry: dbl(g1,a1).\n")
    return program, build_tables(analyze(program, policy), program, policy)


def test_policy_without_full_evaluation_compiles():
    # no fulleval declaration: the interpreter has no mi_full_eval/2
    # facts, so it must not call it either
    program, tables = _dbl_tables()
    for text, answers in (("dbl(s(s(z)),Y)", [(("Y", "s(s(s(s(z))))"),)]),
                          ("dbl(z,Y)", [(("Y", "z"),)]),
                          ("dbl(s(z),z)", [])):
        assert _compiled_answers(program, tables, parse_goal(text)) == \
            [answers] * 4, text


def test_user_full_evaluation_compiles_both_ways():
    # the source clauses of a via-user link ship with the encoded
    # interpreter, so its call/1 and the futamura residual find them
    program, tables = _via_user_tables()
    for text in ("t([1,2,3],S)", "t([],S)", "t([5],S)"):
        naive, *compiled = _compiled_answers(program, tables,
                                             parse_goal(text))
        assert compiled == [naive] * 3, text


def _all_ways(lp, pol, text):
    """Answer sets of ``mi_run`` followed by those of naive, the encoded
    interpreter, classic and futamura on one goal, with the inference
    count of each run."""
    program, policy = parse_program(lp), parse_policy(pol)
    tables = build_tables(analyze(program, policy), program, policy)
    goal = parse_goal(text)
    runs = [mi_run(tables, goal)] + [
        run_compiled(p, goal) for p in (
            program, encode_as_logic_program(tables),
            synthesize(tables.graph, program, policy).program,
            specialize_encoded(tables).program)]
    return [(answer_set(r), r.inference_count) for r in runs]


def test_answers_agree_whatever_fresh_names_they_hold():
    # naive and mi_run answer Y = f(_V3), classic and futamura Y = f(_V4):
    # one answer under two fresh names
    runs = _all_ways("p(X) :- q(X,Z), r(Z).\nq(f(W),a).\nr(a).\n",
                     "entry: p(a1).\npreprior: q(a1,a2) < r(a2).\n",
                     "p(Y)")
    assert [answers for answers, _ in runs] == [[(("Y", "f(_1)"),)]] * 5


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
def test_a_full_evaluation_with_a_second_output_is_refused(tmp_path, capsys,
                                                           command):
    # q(0,Z) gives Z = a, which fits only the second output: mi_run took
    # that one, where classic, encoded and futamura took both, and no
    # compiled program can choose between outputs over abstract variables
    lp, pol = tmp_path / "p.lp", tmp_path / "p.policy"
    lp.write_text("p(X,Y) :- q(X,Z), r(Z,Y).\nq(0,a).\nq(1,f(W)).\n"
                  "r(Z,Z).\n")
    pol.write_text("entry: p(g1,a1).\nfulleval: q(g1,a1) -> { a1=g2 } ; "
                   "{ a1=a2 } via user q/2.\n")
    extra = ["--out-dir", str(tmp_path / "out")] \
        if command == "pipeline" else []
    assert main([command, str(lp), str(pol)] + extra) == 2
    assert capsys.readouterr().err == (
        f"cc {command}: {pol}: a full evaluation declares one output at "
        "line 2, column 33\n")


def test_classic_keeps_its_entry_wrapper_apart_from_the_support_copies():
    # naive and mi_run answer a, b and c once each; classic's p(c) ran
    # both definitions of p/1, 8 answers in 22 inferences
    runs = _all_ways("p(X) :- q(X).\np(c).\nq(a).\nq(b) :- p(c).\n",
                     "entry: p(a1).\n"
                     "fulleval: q(a1) -> { a1=g1 } via user q/1.\n", "p(X)")
    assert runs[:2] == [([(("X", "a"),), (("X", "b"),), (("X", "c"),)], 6)] * 2
    assert [answers for answers, _ in runs] == [runs[0][0]] * 5


def test_classic_calls_the_support_copy_of_a_link_named_like_its_entry():
    # p(g1) is not the entry pattern p(a1), so p/1 may be fully evaluated;
    # classic's call p(a) in state 3 and the recursive call in the copy of
    # p/1 both went to the entry wrapper
    lp = "p(a).\np(X) :- q(X,Y), p(Y).\nq(b,a).\n"
    pol = ("entry: p(a1).\npreprior: q(a1,a2) < p(a2).\n"
           "fulleval: p(g1) -> { } via user p/1.\n")
    runs = _all_ways(lp, pol, "p(X)")
    assert [answers for answers, _ in runs] == \
        [[(("X", "a"),), (("X", "b"),)]] * 5
    program, policy = parse_program(lp), parse_policy(pol)
    classic = synthesize(analyze(program, policy), program, policy).program
    assert print_program(classic).endswith(
        "p(A1) :- p_s1(A1).\np_user(a).\n"
        "p_user(X) :- q(X,Y), p_user(Y).\nq(b,a).\n")


# a via user link whose clause calls a source predicate through call/1:
# a predicate of its own (r/1), and the entry's predicate (p/1)
CALLED_THROUGH_CALL = {
    "own": "p(X) :- q(X).\nq(a).\nq(b) :- call(r(b)).\nr(b).\n",
    "entry": "p(X) :- q(X).\np(c).\nq(a).\nq(b) :- call(p(c)).\n",
}
CALLED_THROUGH_CALL_POLICY = ("entry: p(a1).\n"
                              "fulleval: q(a1) -> { a1=g1 } via user q/1.\n")


@pytest.mark.parametrize("case, want", [
    ("own", ([(("X", "a"),), (("X", "b"),)], 4)),
    ("entry", ([(("X", "a"),), (("X", "b"),), (("X", "c"),)], 6))])
def test_a_link_s_call_of_a_source_predicate_is_copied(case, want):
    # encoded, classic and futamura had no copy of the predicate that
    # call/1 names (unknown predicate r/1, p/1), or, for p/1, classic's
    # call reached its entry wrapper: 10 inferences against naive's 6.
    # Classic's wrapper and the state it enters cost two resolutions that
    # naive does not make (ROADMAP 3a)
    runs = _all_ways(CALLED_THROUGH_CALL[case], CALLED_THROUGH_CALL_POLICY,
                     "p(X)")
    assert runs[:2] == [want] * 2
    assert [answers for answers, _ in runs] == [want[0]] * 5
    assert runs[3][1] == want[1] + 2


def test_classic_renames_the_support_call_inside_call():
    program = parse_program(CALLED_THROUGH_CALL["entry"])
    policy = parse_policy(CALLED_THROUGH_CALL_POLICY)
    classic = synthesize(analyze(program, policy), program, policy).program
    assert print_program(classic).endswith(
        "q(a).\nq(b) :- call(p_user(c)).\np_user(X) :- q(X).\np_user(c).\n")


@pytest.mark.parametrize("case", sorted(CALLED_THROUGH_CALL))
def test_the_pipeline_runs_a_link_that_calls_through_call(tmp_path, capsys,
                                                          case):
    lp, pol = tmp_path / "p.lp", tmp_path / "p.policy"
    lp.write_text(CALLED_THROUGH_CALL[case])
    pol.write_text(CALLED_THROUGH_CALL_POLICY)
    (tmp_path / "p.queries").write_text("p(X).\n")
    rc = main(["pipeline", str(lp), str(pol), "--out-dir",
               str(tmp_path / "out"), "--tolerance", "0.5"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert "p(X): agree" in captured.out


def test_a_call_of_a_variable_still_stops_at_run_time(tmp_path, capsys):
    # the goal of call(G) is known only when it runs, so no copy is made
    lp, pol = tmp_path / "p.lp", tmp_path / "p.policy"
    lp.write_text("p(X) :- q(X).\nq(a).\nq(b) :- r(G), call(G).\nr(s).\n"
                  "s.\n")
    pol.write_text(CALLED_THROUGH_CALL_POLICY)
    (tmp_path / "p.queries").write_text("p(X).\n")
    rc = main(["pipeline", str(lp), str(pol), "--out-dir",
               str(tmp_path / "out"), "--tolerance", "0.5"])
    assert (rc, capsys.readouterr().err) == \
        (2, "cc pipeline: unknown predicate s/0\n")


_DRIVER = """\
compute(Gs) :- mi(Gs,1).
mi([],_).
mi([G|Gs],State) :- selected_index(State,Idx), \
divide_goals([G|Gs],Idx,Before,Selected,After), \
mi_clause(Selected,Body,RuleIdx), state_transition(State,NewState,RuleIdx), \
dg_append(Before,Body,NewGsA), dg_append(NewGsA,After,NewGs), \
mi(NewGs,NewState).
"""

_FULL_EVAL = """\
mi([G|Gs],State) :- selected_index(State,Idx), \
divide_goals([G|Gs],Idx,Before,Selected,After), \
mi_full_eval(Selected,FullAIIdx), call(Selected), \
state_transition(State,NewState,FullAIIdx), dg_append(Before,After,NewGs), \
mi(NewGs,NewState).
"""

_GOAL_LISTS = """\
divide_goals(Goals,Idx,Before,Selected,After) :- mi_len(Before,Idx), \
dg_append(Before,[Selected|After],Goals).
mi_len([],0).
mi_len([_|T],N) :- 1 =< N, minus(N,1,M), mi_len(T,M).
dg_append([],L,L).
dg_append([H|T],L,[H|R]) :- dg_append(T,L,R).
"""


def test_encoding_without_full_evaluation_or_multis():
    # the driver, resolution and goal-list clauses, then the tables
    _, tables = _dbl_tables()
    assert print_program(encode_as_logic_program(tables)) == \
        _DRIVER + _GOAL_LISTS + """\
selected_index(1,0).
state_transition(1,0,1).
state_transition(1,1,2).
mi_clause(dbl(z,z),[],1).
mi_clause(dbl(s(X),s(s(Y))),[dbl(X,Y)],2).
"""


def test_encoding_with_user_full_evaluations():
    # the full-evaluation clause joins the driver, and the clauses that
    # the via-user links reach follow the tables
    _, tables = _via_user_tables()
    assert print_program(encode_as_logic_program(tables)) == \
        _DRIVER + _FULL_EVAL + _GOAL_LISTS + """\
selected_index(1,0).
selected_index(2,0).
selected_index(3,0).
state_transition(1,2,1).
state_transition(2,3,fullai0).
state_transition(3,0,fullai1).
mi_clause(t(L,S),[dbl(L,D),sum(D,S)],1).
mi_clause(dbl([],[]),[],2).
mi_clause(dbl([X|T],[Y|T2]),[plus(X,X,Y),dbl(T,T2)],3).
mi_clause(sum([],0),[],4).
mi_clause(sum([X|T],S),[sum(T,S1),plus(X,S1,S)],5).
mi_full_eval(dbl(_G1,_A1),fullai0).
mi_full_eval(sum(_G1,_A1),fullai1).
dbl([],[]).
dbl([X|T],[Y|T2]) :- plus(X,X,Y), dbl(T,T2).
sum([],0).
sum([X|T],S) :- sum(T,S1), plus(X,S1,S).
"""


def test_readme_shows_the_interpreter_clauses():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## The encoded interpreter")[1]
    text = section.split("```prolog")[1].split("```")[0]
    assert parse_program(text) == program_of(
        metaint._DRIVER + metaint._FULL_EVAL + metaint._MULTIS
        + metaint._GOAL_LISTS + metaint.BB_APPEND)


def test_user_full_evaluation_name_clash_is_rejected():
    program = parse_program("""
        t(L,S) :- dg_append(L,L,S).
        dg_append([],L,L).
        dg_append([H|T],L,[H|R]) :- dg_append(T,L,R).
    """)
    policy = parse_policy("""
        entry: t(g1,a1).
        fulleval: dg_append(g1,g2,a1) -> { a1=g3 } via user dg_append/3.
    """)
    tables = build_tables(analyze(program, policy), program, policy)
    with pytest.raises(MetaintError, match="dg_append/3"):
        encode_as_logic_program(tables)
