"""End-to-end acceptance checks.

Each test here is one acceptance criterion for the toolchain: sorting and
search programs compiled through both constructions, termination the naive
engine cannot provide, inference-count parity, finite failure, closedness,
abstract soundness of single analysis steps, selection-order axioms, and
the independent oracles themselves.
"""

import itertools
import json
import pathlib
import random
import time

import pytest

from ccontrol.absdom import FULLEVAL, FreshAVars, canonicalize
from ccontrol.analysis import (AnalysisError, AnalysisOptions, EMPTY_STATE,
                               analyze, render_graph)
from ccontrol.engine import (BuiltinTable, EngineError, Limits, ModeError,
                             solve)
from ccontrol.metaint import atom_to_term, build_tables, mi_run
from ccontrol.multi import Multi, case_split
from ccontrol.pd import check_closedness, specialize_encoded
from ccontrol.policy import (PolicyError, _effective_atoms, derive_order,
                             parse_policy)
from ccontrol.synthesis import compare_programs, run_compiled, synthesize
from ccontrol.terms import Atom, FreshNames, Substitution, mklist, \
    parse_goal, parse_program, rename_apart, unify

from conftest import CORPUS_NAMES, answer_set, corpus_text, query_deviation
from oracles import (Sampler, check_case_split_complete,
                     check_unify_against_brute_force, check_widen_monotone,
                     conj_member, first_primes, is_complete, order_lt,
                     ordered_copies, ORDERED_COPIES_QUERIES, queen_boards,
                     random_term, strict_instance)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _list_text(xs):
    return "[" + ",".join(str(x) for x in xs) + "]"


# --- 1. sorting compiles end to end and stays fast ------------------------

def test_sorting_all_variants_agree_on_a_large_workload(corpus):
    """Naive run, table-driven run, and both compiled programs return the
    same answer multisets over 115 sort queries, within a time budget."""
    entry = corpus("permsort")
    inputs = []
    for k in range(5):
        inputs.extend(list(p) for p in itertools.permutations([1, 2, 3, 4],
                                                              k))
    rng = random.Random(0)
    for _ in range(50):
        inputs.append([rng.randint(1, 4) for _ in range(rng.randint(0, 6))])
    assert len(inputs) == 115

    start = time.monotonic()
    for xs in inputs:
        goal = parse_goal(f"permsort({_list_text(xs)},S)")
        expected = answer_set(entry.run_naive(goal))
        assert expected == answer_set(entry.run_mi(goal)), xs
        assert expected == answer_set(entry.run_classic(goal)), xs
        assert expected == answer_set(entry.run_futamura(goal)), xs
        # duplicates in the input yield one answer per arrangement of the
        # equal elements; every answer is the sorted list
        assert len(expected) >= 1
        assert expected == [(("S", _list_text(sorted(xs))),)] * len(expected)
    assert time.monotonic() - start < 30.0


# --- 2. the stream program needs the analyzed control ---------------------

def test_prime_stream_terminates_only_under_analyzed_control(corpus):
    """The analyzed control makes the prime-stream program terminating;
    it needs multi abstractions, and all variants agree with arithmetic."""
    entry = corpus("primes")

    # first answers agree with first-principles arithmetic in all variants
    for n in range(1, 9):
        goal = parse_goal(f"primes({n},P)")
        expected = [(("P", _list_text(first_primes(n))),)]
        one = Limits(max_answers=1)
        assert answer_set(entry.run_mi(goal, limits=one)) == expected, n
        assert answer_set(entry.run_classic(goal, limits=one)) == expected, n
        assert answer_set(entry.run_futamura(goal, limits=one)) == expected, n
        naive = entry.run_naive(goal, limits=Limits(
            max_answers=1, max_inferences=2_000_000))
        assert answer_set(naive) == expected, n

    # the analyzed control exhausts the search where the naive engine spins
    res = entry.run_mi(parse_goal("primes(3,P)"))
    assert res.exhausted
    assert not entry.run_naive(parse_goal("primes(3,P)"),
                               limits=Limits(max_inferences=50_000)).exhausted

    # the finite control relies on multi abstractions and instance grouping
    assert any(isinstance(c, Multi)
               for conj in entry.graph.states.values() for c in conj)
    assert entry.graph.groupings

    # without them the analysis reports unbounded conjunction growth
    program = parse_program(corpus_text("primes", ".lp"))
    policy = parse_policy(corpus_text("primes", ".policy"))
    try:
        analyze(program, policy, AnalysisOptions(enable_multi=False,
                                                 max_states=200))
    except AnalysisError as exc:
        assert "grows from ancestor" in str(exc)
    else:
        raise AssertionError("growth diagnostic expected")


# --- 3. inference-count parity of the two constructions -------------------

def test_search_program_parity_matches_recorded_counts(corpus):
    """Both constructions of the queens search agree on answers and stay
    within 5% of each other's inference count; counts match the recorded
    fixture exactly."""
    entry = corpus("queens")
    fixture = json.loads((FIXTURES / "queens_parity.json").read_text())

    report = compare_programs(entry.classic.program, entry.futamura.program,
                              [parse_goal("queens([1,2,3,4,5,6],Qs)")])
    row, = report["queries"]
    assert row["answers_match"] and row["both_exhausted"]
    assert query_deviation(row) <= 0.05
    assert row["answers"][0] == len(queen_boards(6))
    assert row["inferences"] == [fixture["n6"]["direct_inferences"],
                                 fixture["n6"]["specialized_inferences"]]
    assert row["answers"][0] == fixture["n6"]["answers"]

    # the 10-queens search does not fit the default acceptance budget;
    # the truncation itself is the recorded, reproducible outcome
    budget = fixture["n10"]["inference_budget"]
    big = compare_programs(entry.classic.program, entry.futamura.program,
                           [parse_goal("queens([1,2,3,4,5,6,7,8,9,10],Qs)")],
                           limits=Limits(max_inferences=budget))
    assert big["queries"][0]["both_exhausted"] == fixture["n10"]["completed"]


# --- 4. failing queries fail finitely -------------------------------------

FAILING = {
    "permsort": [
        "permsort([1,2],[2,1])", "permsort([1],[2])",
        "permsort([1,2,3],[3,2,1])", "permsort([1],[1,1])",
        "permsort([],[1])", "permsort([1,2],[1])",
        "permsort([2,1,3],[1,2,4])", "permsort([1,1],[1])",
        "permsort([3],[])", "permsort([1,2],[1,3])",
    ],
    "primes": [
        "primes(2,[2,4])", "primes(1,[3])", "primes(3,[2,3,6])",
        "primes(2,[3,2])", "primes(1,[])", "primes(2,[2])",
        "primes(3,[2,3])", "primes(4,[2,3,5,8])", "primes(2,[2,3,5])",
        "primes(3,[5,3,2])",
    ],
    "queens": [
        "queens([1,2],Qs)", "queens([1,2,3],Qs)",
        "queens([1,2,3,4],[1,2,3,4])", "queens([1,2,3,4],[1,3,2,4])",
        "queens([1,2,3,4],[4,3,2,1])", "queens([1],[2])",
        "queens([1,2,3,4],[3,1,2])", "queens([1,2,3,4],[2,4,3,1])",
        "queens([1,2],[1,2])", "queens([1,2],[2,1])",
    ],
    "zigzag": [
        "zigzag([1,2],[2,2])", "zigzag([1,2],[1])", "zigzag([],[1])",
        "zigzag([1],[1,2])", "zigzag([1,2],[3,4])",
        "zigzag([1,2,3],[1,2,3])", "zigzag([1,2,3],[2,1,3])",
        "zigzag([1,3],[3,3])", "zigzag([2],[])", "zigzag([1,2,3],[3,1,2])",
    ],
    "countdown": [
        "countdown([3,1,2],[1,2,3])", "countdown([1,3],[3,1])",
        "countdown([2],[1])", "countdown([],[1])",
        "countdown([1,2],[2,2])", "countdown([1,2],[1,2])",
        "countdown([2,3,1],[3,2])", "countdown([1],[])",
        "countdown([4,2],[4,2])", "countdown([5,4],[4,5])",
    ],
}


def test_failing_queries_fail_finitely_in_every_compiled_variant(corpus):
    """Fifty queries with no answers terminate with finite failure under
    the analyzed control and both compiled programs (and naively, except
    for the stream program whose naive failure diverges)."""
    limits = Limits(max_inferences=2_000_000)
    for name, texts in FAILING.items():
        entry = corpus(name)
        for text in texts:
            goal = parse_goal(text)
            runners = [entry.run_mi, entry.run_classic, entry.run_futamura]
            if name != "primes":
                runners.append(entry.run_naive)
            for run in runners:
                res = run(goal, limits=limits)
                assert res.exhausted and not res.answers, (name, text)


# --- 5. closedness of policies, graphs, and residual programs -------------

def test_every_artifact_is_closed(corpus):
    """Policies rank every reachable state, graphs only reference their
    own states, and every residual program calls only defined predicates."""
    for name in CORPUS_NAMES:
        entry = corpus(name)
        g = entry.graph
        ok, witness = is_complete(entry.policy,
                                  [c for c in g.states.values() if c])
        assert ok, (name, witness)
        assert all(t.src in g.states for t in g.transitions), name
        assert all(t.dst in g.states or t.dst == EMPTY_STATE
                   for t in g.transitions), name
        closed, missing = check_closedness(entry.futamura)
        assert closed, (name, missing)


# --- 6. one-step abstract soundness ---------------------------------------

def _sample_state(conj, rng):
    sampler = Sampler(rng, consts=("c", 0, 1, 2, 3))
    env = {}
    parts, counts = [], []
    for c in conj:
        if isinstance(c, Atom):
            parts.append([sampler.atom(c, env)])
            counts.append(None)
        else:
            n = rng.randint(1, 3)
            parts.append(sampler.multi(c, env, n))
            counts.append(n)
    return parts, counts


def _one_step_check(entry, sid, rng, builtins):
    """Sample a concrete member of a state, perform the state's action
    concretely, and confirm the result lands in a successor state.
    Returns the number of checks performed, or None if the sample was
    rejected or the action does not apply."""
    g = entry.graph
    conj = g.states[sid]
    action = g.actions.get(sid)
    if not conj or action is None or action[0] == "leaf":
        return None
    parts, counts = _sample_state(conj, rng)
    flat = [a for p in parts for a in p]
    if not conj_member(flat, conj):
        return None     # aliasing made this sample inconsistent

    def member_of(dst, atoms):
        if dst == EMPTY_STATE:
            return not atoms
        return conj_member(atoms, g.states[dst])

    checked = 0
    if action[0] == "select" and action[2] == FULLEVAL:
        atom = parts[action[1]][0]
        decl = entry.policy.fulleval[g.successors(sid)[0].cause[1]]
        try:
            outs = [Substitution(out) for out in builtins.evaluate(atom, {})] \
                if decl.link_is_builtin \
                else solve(entry.program, (atom,)).answers
        except (ModeError, EngineError):
            return None
        rest = [a for i, p in enumerate(parts) if i != action[1] for a in p]
        dsts = [tr.dst for tr in g.successors(sid)
                if tr.cause[0] == "fulleval"]
        for out in outs:
            new = [out.apply(a) for a in rest]
            assert any(member_of(d, new) for d in dsts), (entry.name, sid)
            checked += 1
    elif action[0] == "select":
        pos = action[1]
        atom = parts[pos][0]
        fresh = FreshNames("_Z")
        before = [a for p in parts[:pos] for a in p]
        after = [a for p in parts[pos + 1:] for a in p]
        for tr in g.successors(sid):
            if tr.cause[0] != "clause":
                continue
            clause = next(c for c in entry.program.clauses
                          if c.id == tr.cause[1])
            rc = rename_apart(clause, fresh)
            mgu = unify(atom, rc.head)
            if mgu is None:
                continue
            new = [mgu.apply(a) for a in before + list(rc.body) + after]
            assert member_of(tr.dst, new), (entry.name, sid, tr.cause)
            checked += 1
    elif action[0] == "split":
        cause = ("one",) if counts[action[1]] == 1 else ("many",)
        dst = g.successor(sid, cause)
        assert member_of(dst, flat), (entry.name, sid, cause)
        checked += 1
    elif action[0] == "group":
        dst = g.successor(sid, ("grouping", action[1].kind))
        assert member_of(dst, flat), (entry.name, sid)
        checked += 1
    return checked


def test_one_step_abstract_soundness_on_sampled_states(corpus):
    """Across 500 seeded samples, concretizing a state and taking its
    action concretely always lands inside a successor state."""
    rng = random.Random(42)
    builtins = BuiltinTable()
    entries = [corpus(n) for n in CORPUS_NAMES]
    performed = 0
    for i in range(500):
        entry = entries[i % len(entries)]
        sids = sorted(s for s in entry.graph.states if entry.graph.states[s])
        result = _one_step_check(entry, sids[rng.randrange(len(sids))],
                                 rng, builtins)
        if result:
            performed += result
    assert performed >= 150


# --- 7. the derived selection order is a strict partial order -------------

def test_selection_order_axioms_hold_on_all_reachable_atoms(corpus):
    """Over every atom the analysis can rank: the derived order is
    irreflexive and transitively closed, and a strict instance always
    precedes what it instantiates."""
    for name in CORPUS_NAMES:
        entry = corpus(name)
        atoms = [a for conj in entry.graph.states.values()
                 for _, a in _effective_atoms(conj)]
        order = derive_order(entry.policy, atoms)
        assert all((i, i) not in order.less
                   for i in range(len(order.classes))), name
        for (i, j) in order.less:
            for (j2, k) in order.less:
                if j == j2:
                    assert (i, k) in order.less, (name, i, j, k)
        seen = set()
        unique = []
        for a in atoms:
            key = canonicalize(a)
            if key not in seen:
                seen.add(key)
                unique.append(a)
        for x in unique:
            for y in unique:
                if strict_instance(x, y):
                    assert order_lt(order, x, y), (name, x, y)


# ``q`` feeds ``r`` left to right; the policy orders the two both ways, and
# its ``never_before`` rule removes the pair that puts ``q`` first
NEVER_BEFORE_LP = """p(X,Y) :- q(X), r(X,Y).
q(1).
q(2).
r(1,a).
r(2,b).
r(3,c).
"""
NEVER_BEFORE_PAIRS = ("entry: p(a1,a2).\n"
                      "set S = { q(a1) }.\n"
                      "preprior: q(a1) < r(a1,a2).\n"
                      "preprior: r(a1,a2) < q(a1).\n")
NEVER_BEFORE_RULE = "rule: never_before(r(a1,a2)) over S.\n"


def test_a_never_before_rule_that_removes_a_pair_decides_the_graph():
    """A rule only removes pairs, so where the orders with and without it
    both have a least atom they select it alike: a rule changes an
    analysis only by breaking a cycle, or by leaving a state with no least
    atom.  Here it breaks one."""
    program = parse_program(NEVER_BEFORE_LP)
    with pytest.raises(PolicyError, match="selection order is cyclic"):
        analyze(program, parse_policy(NEVER_BEFORE_PAIRS))
    policy = parse_policy(NEVER_BEFORE_PAIRS + NEVER_BEFORE_RULE)
    graph = analyze(program, policy)
    # the pair the rule removes, alone, selects q first; with the rule, r
    # comes first
    kept = parse_policy("entry: p(a1,a2).\n"
                        "preprior: q(a1) < r(a1,a2).\n")
    assert render_graph(graph, "json") != \
        render_graph(analyze(program, kept), "json")
    assert graph.actions[2] == ("select", 1, "unfold")
    tables = build_tables(graph, program, policy)
    classic = synthesize(graph, program, policy).program
    futamura = specialize_encoded(tables).program
    for text, count in (("p(X,Y)", 2), ("p(1,Y)", 1), ("p(X,c)", 0),
                        ("p(3,c)", 0), ("p(X,b)", 1)):
        goal = parse_goal(text)
        wrapped = (Atom("compute", (mklist([atom_to_term(a)
                                            for a in goal]),)),)
        naive = answer_set(solve(program, goal))
        assert len(naive) == count, text
        assert answer_set(mi_run(tables, goal)) == naive, text
        assert answer_set(solve(classic, goal)) == naive, text
        assert answer_set(solve(futamura, wrapped)) == naive, text


# --- 8. a generated program family compiles end to end ---------------------

def test_the_ordered_copies_family_agrees_on_every_construction():
    """Permsort with k copies of its ord/1 test, k = 1..4: naive, mi_run,
    classic and futamura give the same answer lists on both queries."""
    start = time.monotonic()
    for k in range(1, 5):
        text, policy_text = ordered_copies(k)
        program, policy = parse_program(text), parse_policy(policy_text)
        tables = build_tables(analyze(program, policy), program, policy)
        classic = synthesize(tables.graph, program, policy).program
        futamura = specialize_encoded(tables).program
        for query, answer in zip(ORDERED_COPIES_QUERIES,
                                 ("{S=[1,2,3]}", "{S=[1,2,3,4]}")):
            goal = parse_goal(query)
            runs = [run_compiled(program, goal), mi_run(tables, goal),
                    run_compiled(classic, goal),
                    run_compiled(futamura, goal)]
            assert [[repr(a) for a in r.answers] for r in runs] == \
                [[answer]] * 4, (k, query)
    assert time.monotonic() - start < 5


# --- 9. the oracles agree with the implementation -------------------------

def test_oracle_micro_suites_pass(corpus):
    """Unification against brute-force enumeration, widening against
    sampled membership, and case splits against length enumeration."""
    assert not check_unify_against_brute_force(cases=1000, seed=0)

    rng = random.Random(7)
    aterms = [arg
              for name in ("permsort", "primes", "queens")
              for conj in corpus(name).graph.states.values()
              for c in conj if isinstance(c, Atom)
              for arg in c.args]
    from oracles import aatom_from_atom
    aterms += [aatom_from_atom(Atom("w", (random_term(rng, 3, []),))).args[0]
               for _ in range(200)]
    assert not check_widen_monotone(aterms, k=2, seed=8)

    multis = [c for name in ("primes", "queens")
              for conj in corpus(name).graph.states.values()
              for c in conj if isinstance(c, Multi)]
    assert multis
    checked = 0
    seen = set()
    for m in multis:
        key = repr(m.pattern)
        if key in seen:
            continue
        seen.add(key)
        one, _, (head, rest) = case_split(m, FreshAVars.above((m,)))
        failures = check_case_split_complete(m, one, head, rest,
                                             samples_per=5, seed=9)
        assert not failures, failures[:3]
        checked += 1
        if checked >= 4:
            break
    assert checked >= 2
