"""Abstracted unification against the reference ``MixedUnifier``: every
resolution step, full-evaluation output and case split the analysis
takes on the corpus and the pinned small programs prints the same."""

from ccontrol.absdom import (AbstractDomainError, FreshAVars, abstract_mgu,
                             abstract_unify_with_clause, full_eval_output,
                             parse_aconj, print_aconj)
from ccontrol.analysis import AnalysisOptions, analyze
from ccontrol.multi import Multi, case_split
from ccontrol.policy import parse_policy
from ccontrol.terms import Atom, parse_atom, parse_program

from conftest import CORPUS_NAMES
from oracles import (parse_aatom, reference_abstract_unify_with_clause,
                     reference_case_split, reference_full_eval_output)
from test_metaint import _via_user_tables
from test_synthesis import WIDENED


def _analyzed(corpus):
    """(graph, program, policy) of the five corpus entries and of the
    four pinned small programs."""
    out = [(corpus(name).graph, corpus(name).program, corpus(name).policy)
           for name in CORPUS_NAMES]
    for lp, policy_text, k in WIDENED.values():
        program, policy = parse_program(lp), parse_policy(policy_text)
        out.append((analyze(program, policy, AnalysisOptions(depth_k=k)),
                    program, policy))
    program, tables = _via_user_tables()
    out.append((tables.graph, program, tables.policy))
    return out


def _printed(result, fresh):
    """A step's result as text, with the fresh counters it left."""
    if result is None:
        return None, fresh.counters
    if isinstance(result, tuple):
        body, theta = result
        return print_aconj(body), repr(theta), fresh.counters
    return repr(result), fresh.counters


def _both(step, reference, conj, *args):
    """The printed results of ``step`` and ``reference`` on ``args``, each
    drawing fresh variables above ``conj``."""
    new, old = FreshAVars.above(conj), FreshAVars.above(conj)
    return (_printed(step(*args, new), new),
            _printed(reference(*args, old), old))


def test_resolution_matches_the_reference_on_reachable_states(corpus):
    steps = unifiable = 0
    for graph, program, _ in _analyzed(corpus):
        for conj in graph.states.values():
            for a in conj:
                if not isinstance(a, Atom):
                    continue
                for clause in program.clauses_for(a.pred, len(a.args)):
                    new, old = _both(abstract_unify_with_clause,
                                     reference_abstract_unify_with_clause,
                                     conj, a, clause)
                    assert new == old, (print_aconj(conj), clause)
                    steps += 1
                    unifiable += new[0] is not None
    assert (steps, unifiable) == (865, 754)


def test_full_evaluation_matches_the_reference_on_reachable_states(corpus):
    outputs = fitting = 0
    for graph, _, policy in _analyzed(corpus):
        for conj in graph.states.values():
            for a in conj:
                decl = isinstance(a, Atom) and policy.fulleval_match(a)
                for output in decl.outputs if decl else ():
                    new, old = _both(full_eval_output,
                                     reference_full_eval_output, conj,
                                     a, decl.pattern, output)
                    assert new == old, (print_aconj(conj), output)
                    outputs += 1
                    fitting += new[0] is not None
    assert (outputs, fitting) == (54, 54)


# multis whose init and final constraints on one pattern variable differ,
# so that the one-instance reading unifies them (the corpus has none),
# and the substitution that this unification induces
CLASHING = [
    ("q(g1,g2) , multi((p(mg1,ma1)), init{mg1=g1}, consec{mg1=mg1}, "
     "final{mg1=g2}, id=1)", "{g1=g2}"),
    ("multi((p(ma1,ma2)), init{ma1=f(a1),ma2=a3}, consec{ma1=ma2}, "
     "final{ma1=f(g1),ma2=s(a2)}, id=1) , r(a1,a2)",
     "{a1=g1, a3=s(a2)}"),
    ("multi((p(ma1)), init{ma1=[a1|a2]}, consec{}, final{ma1=[g1,a3]}, "
     "id=1) , r(a2,a3)", "{a1=g1, a2=[a3]}"),
    ("multi((p(ma1)), init{ma1=f(a1)}, consec{}, final{ma1=g1}, id=1) , "
     "r(a1)", "{a1=g2, g1=f(g2)}"),
    ("multi((p(ma1)), init{ma1=f(a1)}, consec{}, final{ma1=h(a1)}, id=1)",
     "irreconcilable init/final constraints"),
]


def _split(split, m, fresh):
    try:
        return repr(split(m, fresh)), fresh.counters
    except AbstractDomainError as e:
        return str(e), fresh.counters


def test_case_split_matches_the_reference_on_multis(corpus):
    conjs = [conj for name in ("primes", "queens")
             for conj in corpus(name).graph.states.values()]
    conjs += [parse_aconj(text) for text, _ in CLASHING]
    outcomes = []
    for conj in conjs:
        for m in conj:
            if isinstance(m, Multi):
                new, old = FreshAVars.above(conj), FreshAVars.above(conj)
                outcomes.append(_split(case_split, m, new))
                assert outcomes[-1] == _split(reference_case_split, m, old)
    assert len(outcomes) == 68 + len(CLASHING)
    for (_, induced), (text, _) in zip(CLASHING, outcomes[68:]):
        assert induced in text


def test_abstract_mgu_draws_fresh_variables_for_the_body_first():
    # g1 = f(X) and X = a1 make a1 ground; the body's Z and 3 draw a2 and
    # g2 before a1's upgrade draws g3
    a = parse_aatom("p(g1,a1)")
    clause = parse_program("p(f(X),X) :- q(Z,3,X).").clauses[0]
    fresh = FreshAVars.above((a,))
    body, theta = abstract_mgu(clause.head.args, a.args, a.args, fresh,
                               clause.body)
    assert print_aconj(body) == "q(a2,g2,g3)"
    assert repr(theta) == "{g1=f(g3), a1=g3}"
    assert abstract_mgu(parse_atom("p(c)").args, parse_atom("p(d)").args,
                        (), fresh) is None
