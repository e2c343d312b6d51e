"""Table-driven meta-interpretation of the analyzed control flow.

The state graph produced by the analysis is read as relational tables:
each state's action gives its selected index, and each transition names
its successor state by cause (a source clause, a full-evaluation output, a
split or a grouping).  A meta-interpreter walks a concrete goal and a state
number in lockstep: the tables dictate which conjunct is selected and which
states are reachable, so the interpreter itself never inspects groundness.
The same tables can be emitted as a logic program whose left-to-right
execution reproduces the interpreter — the subject program for
specialization: the interpreter's fixed clauses (``mi/2`` and friends),
written below as Prolog text, followed by the tables as facts.

Goals are tuples of concrete atoms.  Where the analysis folded repeated
conjuncts into a multi abstraction, the concrete counterpart is a cmulti
goal element, one block of atoms per pattern instance.  Grouping
transitions introduce it; one/many transitions take it apart again.  The
interpreter holds it as a tuple of blocks, each a tuple of atoms; the
encoded interpreter, its partial-deduction residual and direct synthesis
hold it as the term ``cmulti([building_block([...]), ...])``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .absdom import (FULLEVAL, LogicError, abstract_instance, canonicalize,
                     print_aconj)
from .analysis import (EMPTY_STATE, AnalysisError, StateGraph,
                       abstract_step, action_json)
from .engine import (BUILTINS, Limits, RunResult, Solver, check_known,
                     depth_first, support_clauses)
from .multi import BLOCK, MULTI, FoldEvent, Multi, simplify_conj
from .policy import SelectionPolicy
from .terms import (CONS, NIL, Atom, Const, FreshNames, Program, Struct,
                    Switch, Var, atom_to_term, mklist, parse_program,
                    print_atom, program_of, replace_vars, resolve_all,
                    substitute, term_vars)

CMULTI = "cmulti"
BUILDING_BLOCK = "building_block"
# ends a user full evaluation inside a goal; no program can name it
EVALUATED = Atom("$evaluated", ())


class MetaintError(LogicError):
    pass


# --- cmulti goals ---------------------------------------------------------
#
# mi_run holds a cmulti goal element as a tuple of blocks, each a tuple of
# goal atoms: it reads only elements it built itself, where the state has
# a multi.  The term form ``cmulti([building_block([...]), ...])``
# belongs to the encoding, its residual and direct synthesis.

def building_block(atoms) -> Struct:
    """building_block([...]) over a block of atoms, or of variables that
    stand for atoms."""
    return Struct(BUILDING_BLOCK, (mklist([
        a if isinstance(a, Var) else atom_to_term(a) for a in atoms]),))


# --- tables ---------------------------------------------------------------

@dataclass
class StateTables:
    """The analyzed control as the interpreter reads it: the state graph,
    whose actions and transitions are the tables, the source program that
    its clause causes name, and the policy whose full-evaluation
    declarations its fulleval causes index.  ``clause_rows`` holds each
    state's clause transitions, in order, as ``(switch, dst)`` rows: the
    one-clause ``Switch`` of the clause the cause names, and the state the
    transition leads to."""
    graph: StateGraph
    program: Program
    policy: SelectionPolicy
    clause_rows: dict = field(compare=False, repr=False)

    @property
    def entry(self) -> int:
        return self.graph.entry

    @property
    def split_states(self) -> list:
        """States whose selected element is a cmulti, in increasing order."""
        return sorted(sid for sid, a in self.graph.actions.items()
                      if a[0] == "split")

    @property
    def grouping(self) -> dict:
        """Grouping states and their fold events."""
        return self.graph.groupings

    @cached_property
    def encoded(self) -> Program:
        """The tables and interpreter as a logic program, built the first
        time it is read (see ``encode_as_logic_program``)."""
        return _encode(self)

    @property
    def variant(self) -> str:
        """The interpreter variant the graph implies: "extended" when it
        has split or grouping states, so the interpreter handles building
        blocks, otherwise "simple"."""
        return "extended" if self.split_states or self.grouping \
            else "simple"


def build_tables(g: StateGraph, program: Program,
                 policy: SelectionPolicy) -> StateTables:
    """The tables of a graph analyzed from ``program`` under ``policy``.

    Raises MetaintError unless the three belong together, by one rule:
    the entry state is the policy's entry pattern; each state selects an
    atom or splits a multi at an index in range, or groups as
    ``abstract_step`` finds; each state's transitions are exactly the
    causes of its steps, in order; and each leads to state 0 when the
    step's successor is empty, otherwise to a state that covers it.  The
    steps the analysis recorded are taken when it ran under an equal
    program and policy; any other graph, one read from a file among them,
    is replayed here once, and the tables hold it with its steps.  The
    rows of each state's clause transitions are built here too, so that a
    row's clause is always of the predicate the state selects."""
    entry = g.states.get(g.entry)
    if entry != canonicalize((policy.entry,)):
        shown = "missing" if entry is None else print_aconj(entry)
        raise MetaintError(
            f"the graph's entry state {g.entry} ({shown}) is not the "
            f"policy's entry pattern {print_atom(policy.entry)}")
    replayed = g.source != (program, policy)
    steps = {sid: _replay(sid, conj, g.actions[sid], program, policy)
             for sid, conj in g.states.items()} if replayed else g.steps
    checked = {}
    for sid, made in steps.items():
        transitions = g.successors(sid)
        found = [t.cause for t in transitions]
        causes = [step[0] for step in made]
        if found != causes:
            raise MetaintError(
                f"state {sid} has the transitions {_causes_str(found)}, "
                f"where its action makes {_causes_str(causes)}")
        checked[sid] = [_covered(g, sid, t, step[1])
                        for t, step in zip(transitions, made)]
    if replayed:
        g = replace(g, source=(program, policy), steps=checked)
    switches = {c.id: Switch((c,)) for c in program.clauses}
    rows = {sid: tuple((switches[t.cause[1]], t.dst)
                       for t in g.successors(sid) if t.cause[0] == "clause")
            for sid in g.states}
    return StateTables(g, program, policy, rows)


def _covered(g, sid, t, succ) -> tuple:
    """The step of state ``sid`` whose transition is ``t`` and whose
    successor is ``succ``, as ``StateGraph.steps`` records it, once
    ``t.dst`` covers the successor."""
    succ = simplify_conj(succ)
    if succ and t.dst != EMPTY_STATE:
        covered = abstract_instance(succ, g.states[t.dst]) is not None
    else:
        covered = not succ and t.dst == EMPTY_STATE
    if not covered:
        shown = print_aconj(succ) if succ else "the empty goal"
        raise MetaintError(
            f"the {_causes_str([t.cause])} transition of state {sid} "
            f"leads to state {t.dst}, which does not cover its "
            f"successor {shown}")
    return t.cause, succ


def _replay(sid, conj, action, program, policy) -> list:
    """The steps of state ``sid`` under its action."""
    if action[0] != "group" and not (
            0 <= action[1] < len(conj) and
            isinstance(conj[action[1]], Multi) == (action[0] == "split")):
        raise MetaintError(
            f"state {sid}'s action {json.dumps(action_json(action))} does "
            f"not fit its conjunction {print_aconj(conj)}")
    try:
        return abstract_step(program, policy, conj, action)
    except AnalysisError as e:
        raise MetaintError(f"state {sid}: {e}") from None


def _causes_str(causes) -> str:
    return ", ".join(" ".join(map(str, c)) for c in causes) or "none"


def check_variant(tables: StateTables, variant):
    """Reject a variant name the tables cannot run under: an unknown name,
    or "simple" for a graph with multi abstractions.  ``None`` stands for
    the variant the graph implies; the interpreter never depends on it."""
    if variant not in (None, "simple", "extended"):
        raise MetaintError(f"unknown variant {variant!r}")
    if variant == "simple" and tables.variant != variant:
        raise MetaintError("state graph contains multi abstractions; "
                           "the simple variant cannot run it")


# --- goal surgery ---------------------------------------------------------

def divide_goals(goal, idx):
    """Split a goal at the selected index: (before, selected, after)."""
    return goal[:idx], goal[idx], goal[idx + 1:]


def apply_groupings(goal, ev: FoldEvent):
    """Group a subconjunction of a goal into a cmulti element, mirroring
    the analysis grouping ``ev``: a block of its layout is one block of
    the cmulti and a cmulti gives its blocks, in order.  Flattening the
    result restores the original goal, so answers are unaffected."""
    blocks = ()
    for shape, part in ev.parts(goal):
        blocks += (part,) if shape == BLOCK else part
    return ev.fold(goal, blocks)


# --- the interpreter ------------------------------------------------------

def _indicators(atoms) -> str:
    return ", ".join(f"{a.pred}/{len(a.args)}" for a in atoms)


class MetaInterpreter:
    """Runs concrete goals under the control flow frozen in the tables:
    clause resolution and full evaluation, plus grouping and cmulti
    extraction in the states of a graph with multi abstractions.
    Inference counting matches the plain engine: one per successful clause
    resolution, one per builtin full evaluation, and the resolutions and
    builtins of a user full evaluation; bookkeeping steps are free.  A
    user full evaluation is stepped by the engine within the same search,
    so the run's limits cover it.
    """

    def __init__(self, tables: StateTables, limits: Limits = None):
        self.tables = tables
        self.graph = tables.graph
        self.limits = limits or Limits()
        self.fresh = FreshNames()
        self.store = {}
        self.inferences = 0
        # steps user full evaluations under the interpreter's names and
        # bindings, so renamed clauses cannot capture the goal's variables
        self.engine = Solver(tables.program, self.limits)
        self.engine.fresh = self.fresh
        self.engine.store = self.store

    def run(self, goal) -> RunResult:
        """Enumerate the answers of ``goal``, started in the entry state:
        its atoms must name the entry state's predicates, in order."""
        check_known(self.tables.program, goal)
        entry = self.graph.states[self.graph.entry]
        if [a.indicator for a in goal] != [a.indicator for a in entry]:
            raise MetaintError(
                f"goal {_indicators(goal)} does not name the entry "
                f"state's predicates {_indicators(entry)}")
        qvars = term_vars(goal)
        self.fresh.skip_past(qvars)
        return depth_first(self, goal, self.graph.entry, qvars)

    def step(self, goal, state):
        """One abstract-machine step, as the state's action says.  Only
        clause resolution, also within a user full evaluation, deepens
        the derivation; full evaluation, splits and groupings are free.
        A builtin full evaluation reads its arguments through the store."""
        if isinstance(state, tuple):
            return self._user_eval_step(goal, state)
        action = self.graph.actions[state]
        if action[0] == "group":
            dst = self.graph.successor(state, ("grouping", action[1].kind))
            return 0, [(apply_groupings(goal, action[1]), dst, ())]
        if action[0] == "split":
            return 0, self._split(goal, state, action[1])
        if action[2] == FULLEVAL:
            return 0, self._full_eval(goal, state, action[1])
        return 1, self._resolved(goal, state, action[1])

    def _split(self, goal, state, idx):
        """The cmulti at ``idx`` gives up its first block: in place of the
        element when no block follows ("one"), otherwise ahead of the
        rest ("many")."""
        before, blocks, after = divide_goals(goal, idx)
        if len(blocks) == 1:
            dst = self.graph.successor(state, ("one",))
            return [(before + blocks[0] + after, dst, ())]
        dst = self.graph.successor(state, ("many",))
        return [(before + blocks[0] + (blocks[1:],) + after, dst, ())]

    def _full_eval(self, goal, state, idx):
        """The selected atom evaluated through the state's one transition:
        a builtin at once, a user predicate by a derivation in this
        search, ahead of a mark that ends it in the destination state."""
        before, selected, after = divide_goals(goal, idx)
        [t] = self.graph.successors(state)
        if not self.tables.policy.fulleval[t.cause[1]].link_is_builtin:
            return [((selected, EVALUATED) + before + after,
                     (EVALUATED, t.dst), ())]
        self.inferences += 1
        return [(before + after, t.dst, out)
                for out in BUILTINS.evaluate(selected, self.store)]

    def _user_eval_step(self, goal, state):
        """A step of a user full evaluation bound for state ``state[1]``:
        the engine's step, with its inferences, depth and limits, until
        the derivation reaches the mark."""
        if goal[0] is not EVALUATED:
            before = self.engine.inferences
            deeper, succ = self.engine.step(goal, state)
            self.inferences += self.engine.inferences - before
            return deeper, succ
        return 0, [(goal[1:], state[1], ())]

    def _resolved(self, goal, state, idx):
        """The selected atom resolved against each clause the state's
        rows name, in order, each row's successor in its target state."""
        before, selected, after = divide_goals(goal, idx)
        succ = []
        for switch, dst in self.tables.clause_rows[state]:
            for body, _, made in resolve_all(selected, switch, after, dst,
                                             self.fresh, self.store):
                succ.append((before + body, dst, made))
        self.inferences += len(succ)
        return succ


def mi_run(tables: StateTables, goal, variant: str = None,
           limits: Limits = None) -> RunResult:
    """Run a concrete goal under the table-driven selection rule;
    ``variant`` is only checked (see ``check_variant``)."""
    check_variant(tables, variant)
    return MetaInterpreter(tables, limits).run(goal)


# --- the logic-program encoding ------------------------------------------

def _clauses(text: str) -> list:
    return [(c.head, c.body) for c in parse_program(text).clauses]


# The interpreter's fixed clauses, parsed once, in the order they precede
# the tables.  compute/1 starts the goal list in the ``Entry`` state.
_DRIVER = _clauses("""
compute(Gs) :- mi(Gs, Entry).
mi([], _).
mi([G|Gs], State) :-
    selected_index(State, Idx),
    divide_goals([G|Gs], Idx, Before, Selected, After),
    mi_clause(Selected, Body, RuleIdx),
    state_transition(State, NewState, RuleIdx),
    dg_append(Before, Body, NewGsA),
    dg_append(NewGsA, After, NewGs),
    mi(NewGs, NewState).
""")

# only when the policy declares full evaluations
_FULL_EVAL = _clauses("""
mi([G|Gs], State) :-
    selected_index(State, Idx),
    divide_goals([G|Gs], Idx, Before, Selected, After),
    mi_full_eval(Selected, FullAIIdx),
    call(Selected),
    state_transition(State, NewState, FullAIIdx),
    dg_append(Before, After, NewGs),
    mi(NewGs, NewState).
""")

# only when the graph has multi abstractions: a split unfolds a cmulti's
# single remaining instance in place, or its first instance ahead of the
# rest, still wrapped; a grouping step regroups the goal list
_MULTIS = _clauses("""
mi([G|Gs], State) :-
    selected_index(State, Idx),
    extracted_patt_one(State, Patt1),
    divide_goals([G|Gs], Idx, Before, cmulti([building_block(Patt1)]),
                 After),
    state_transition(State, NewState, one),
    dg_append(Patt1, After, NewGsA),
    dg_append(Before, NewGsA, NewGs),
    mi(NewGs, NewState).
mi([G|Gs], State) :-
    selected_index(State, Idx),
    extracted_patts_many(State, Patt1, RestBBs),
    divide_goals([G|Gs], Idx, Before,
                 cmulti([building_block(Patt1)|RestBBs]), After),
    state_transition(State, NewState, many),
    dg_append(Patt1, [cmulti(RestBBs)], NewGsA),
    dg_append(Before, NewGsA, NewGsB),
    dg_append(NewGsB, After, NewGs),
    mi(NewGs, NewState).
mi([G|Gs], State) :-
    grouping(State, NextState, GSpec),
    apply_groupings([G|Gs], GSpec, NewGs),
    mi(NewGs, NextState).
""")

# goal-list surgery where the tables fix the lengths
_GOAL_LISTS = _clauses("""
divide_goals(Goals, Idx, Before, Selected, After) :-
    mi_len(Before, Idx),
    dg_append(Before, [Selected|After], Goals).
mi_len([], 0).
mi_len([_|T], N) :- 1 =< N, minus(N, 1, M), mi_len(T, M).
dg_append([], L, L).
dg_append([H|T], L, [H|R]) :- dg_append(T, L, R).
""")

# concatenation of building-block lists, whose length only the runtime
# knows; only with multi abstractions, and direct synthesis emits it too
BB_APPEND = _clauses("""
bb_append([], L, L).
bb_append([H|T], L, [H|R]) :- bb_append(T, L, R).
""")


def encode_as_logic_program(tables: StateTables,
                            variant: str = None) -> Program:
    """The tables and interpreter as a logic program.

    Left-to-right execution of ``compute(Goal)`` reproduces mi_run's
    answers.  The interpreter's fixed clauses come first, each section
    present as its comment says; ``variant`` is only checked.  Then the
    tables: the facts of each state, one ``apply_groupings/3`` clause per
    grouping state, matching the goal positionally (goal lengths are
    bounded per state), and the extraction patterns of each split state.
    The source clauses that a ``via user`` link reaches follow the tables,
    so the interpreter's ``call/1`` finds them.

    The program is built once per tables (``StateTables.encoded``), and
    every call returns it.
    """
    check_variant(tables, variant)
    return tables.encoded


def _encode(tables: StateTables) -> Program:
    multis = tables.variant == "extended"
    # substitute copies the list, so the sections below stay as parsed
    clauses = substitute(_DRIVER, {Var("Entry"): Const(tables.entry)})
    if tables.policy.fulleval:
        clauses += _FULL_EVAL
    if multis:
        clauses += _MULTIS
    clauses += _GOAL_LISTS
    if multis:
        clauses += BB_APPEND
    clauses += _tables(tables)
    own = {head.pred for head, _ in clauses}
    links = [d.link for d in tables.policy.fulleval if not d.link_is_builtin]
    for clause in support_clauses(tables.program, links):
        if clause.head.pred in own:
            raise MetaintError(
                f"support predicate {clause.head.pred}/"
                f"{len(clause.head.args)} of a user full evaluation has "
                "the name of an interpreter predicate")
        clauses.append((clause.head, clause.body))
    return program_of(clauses)


def _fact(pred: str, *args) -> tuple:
    return Atom(pred, args), ()


def _cause_term(cause):
    if cause[0] == "clause":
        return Const(cause[1])
    if cause[0] == "fulleval":
        return Const(f"fullai{cause[1]}")
    return Const(cause[0])  # one / many


def _tables(t: StateTables) -> list:
    """The per-graph facts and grouping clauses, as (head, body) pairs."""
    g = t.graph
    out = [_fact("selected_index", Const(sid), Const(action[1]))
           for sid, action in sorted(g.actions.items())
           if action[0] in ("select", "split")]
    for tr in sorted(g.transitions, key=lambda tr: (tr.src, str(tr.cause))):
        if tr.cause[0] != "grouping":
            out.append(_fact("state_transition", Const(tr.src),
                             Const(tr.dst), _cause_term(tr.cause)))
    for clause in sorted(t.program.clauses, key=lambda c: c.id):
        out.append(_fact("mi_clause", atom_to_term(clause.head),
                         mklist([atom_to_term(a) for a in clause.body]),
                         Const(clause.id)))
    for d, decl in enumerate(t.policy.fulleval):
        pattern = replace_vars(
            decl.pattern, lambda v: Var(f"_{v.kind.upper()}{v.index}"))
        out.append(_fact("mi_full_eval", atom_to_term(pattern),
                         Const(f"fullai{d}")))
    for sid, ev in sorted(t.grouping.items()):
        dst = g.successor(sid, ("grouping", ev.kind))
        out += _grouping_clauses(sid, dst, ev)
    for seq, sid in enumerate(t.split_states):
        m = g.states[sid][g.actions[sid][1]]
        patt1 = _pattern_block(m, seq * 2).args[0]
        out.append(_fact("extracted_patt_one", Const(sid), patt1))
        rest = Struct(CONS, (_pattern_block(m, seq * 2 + 1), Var("_BBs")))
        out.append(_fact("extracted_patts_many", Const(sid), patt1, rest))
    return out


def _pattern_block(m: Multi, seq: int) -> Struct:
    """A building block of the multi's pattern, with fresh variables per
    pattern variable."""
    def var(v):
        return Var(f"_P{seq}_{v.kind.upper()}{v.local}")
    return building_block(replace_vars(m.pattern, var))


def _positional(n, prefix="E"):
    return [Var(f"{prefix}{i}") for i in range(n)]


def _grouping_clauses(sid, dst, ev: FoldEvent) -> list:
    """The grouping fact of one grouping state and its apply_groupings/3
    clause, which regroups the goal by position: the blocks of the layout
    are A*, then B*, and its cmultis hold BBs, or BBs1 and BBs2."""
    tag = Const(f"gspec{sid}")
    blocks = iter("AB")
    multis = iter(["BBs"] if ev.layout.count(MULTI) == 1 else ["BBs1", "BBs2"])
    parts = [(BLOCK, _positional(ev.plen, next(blocks))) if shape == BLOCK
             else (MULTI, Var(next(multis))) for shape in ev.layout]
    old = [t for shape, part in parts
           for t in (part if shape == BLOCK else [Struct(CMULTI, (part,))])]
    grouped, body = block_list(parts, Var("NewBBs"))
    pre, rest = _positional(ev.start), Var("Rest")
    return [_fact("grouping", Const(sid), Const(dst), tag),
            (Atom("apply_groupings",
                  (mklist(pre + old, rest), tag,
                   mklist(pre + [Struct(CMULTI, (grouped,))], rest))),
             body)]


def block_list(parts, out: Var):
    """The building-block list of a grouping's (shape, part) pairs, whose
    blocks are atoms or variables and whose multis are block lists: each
    block is one building block, and each multi gives its list's.
    Returns the list and the body calls that build it: a bb_append/3 call,
    into ``out``, where a multi is followed by more blocks (a layout has
    two parts, so there is at most one)."""
    nil = Const(NIL)
    built, calls = nil, ()
    for shape, part in reversed(parts):
        if shape == BLOCK:
            built = Struct(CONS, (building_block(part), built))
        elif built is nil:
            built = part
        else:
            calls = (Atom("bb_append", (part, built, out)),) + calls
            built = out
    return built, calls
