"""Abstract interpretation of a program under a selection policy.

A breadth-first worklist explores the abstract conjunctions reachable from
the entry pattern.  Each state either folds repeated structure into a
multi abstraction (a grouping transition), case-splits a multi whose
instance would be selected, or resolves/fully evaluates its selected atom.
The result is a finite state graph: the compile-time control encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .absdom import (FULLEVAL, UNFOLD, FreshAVars, LogicError,
                     abstract_instance, abstract_unify_with_clause,
                     canonical_renaming, canonicalize, full_eval_output,
                     parse_aconj, print_aconj, widen_depth_k)
from .engine import BUILTINS
from .multi import (LAYOUTS, FoldEvent, Multi, case_split, pattern_name,
                    simplify_conj, try_fold)
from .policy import NoMinimumError, SelectionPolicy, select_conjunct
from .terms import (Atom, Const, Program, Struct, Var, naming, print_atom,
                    replace_vars)

EMPTY_STATE = 0
DEFAULT_MAX_STATES = 500


class AnalysisError(LogicError):
    pass


class CompletenessError(AnalysisError):
    """A reachable state has no selectable minimal atom."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int                 # EMPTY_STATE for an empty successor goal
    cause: tuple             # ("clause", id) | ("fulleval", decl-idx, 0)
    #                        # | ("one",) | ("many",) | ("grouping", kind)


@dataclass
class StateGraph:
    entry: int
    states: dict             # id -> canonical conjunction tuple
    transitions: list        # of Transition
    actions: dict            # id -> ("select", pos, mark) | ("split", pos)
    #                        # | ("group", FoldEvent)
    # id -> a (cause, successor, cover) triple for each step
    # ``abstract_step`` gave the state, in transition order: the successor
    # as ``simplify_conj`` leaves it, and the cover of the state its
    # transition leads to, which maps each variable of that state's
    # conjunction to what it stands for in the successor (None for the
    # empty goal); and the (program, policy) they are of: in memory only,
    # None for a graph read from a file
    steps: dict = field(default=None, compare=False, repr=False)
    source: tuple = field(default=None, compare=False, repr=False)

    @property
    def groupings(self) -> dict:
        """Grouping states and their fold events, read off ``actions``."""
        return {sid: a[1] for sid, a in self.actions.items()
                if a[0] == "group"}

    def __post_init__(self):
        # the transitions out of each state, in transition order, and the
        # target of each (state, cause)
        self._from = {}
        for t in self.transitions:
            self._from.setdefault(t.src, []).append(t)
        self._to = {(t.src, t.cause): t.dst for t in self.transitions}

    def successors(self, sid) -> list:
        return self._from.get(sid, [])

    def successor(self, sid, cause) -> int:
        """The state that the transition for ``cause`` leads to from
        ``sid``."""
        return self._to[sid, cause]


@dataclass
class AnalysisOptions:
    depth_k: int | None = None
    max_states: int = DEFAULT_MAX_STATES
    enable_multi: bool = True    # fold repeated structure into multis


def abstract_step(program: Program, policy: SelectionPolicy, conj,
                  action) -> list:
    """The successors of a state's conjunction under its action, before
    interning: (cause, conjunction) pairs in transition order.  A grouping
    folds the conjunction, a split reads its multi as one instance or as
    a first instance and the rest, a full evaluation applies its
    declaration's output, and an unfolding resolves against each clause."""
    if action[0] == "group":
        fold = try_fold(conj)
        if fold is None or fold[1] != action[1]:
            raise AnalysisError(f"the grouping "
                                f"{json.dumps(action_json(action))} does not "
                                f"apply to {print_aconj(conj)}")
        return [(("grouping", action[1].kind), fold[0])]
    pos = action[1]
    before, after = conj[:pos], conj[pos + 1:]
    if action[0] == "split":
        one, one_sub, (head, rest) = case_split(conj[pos],
                                                FreshAVars.above(conj))
        return [(("one",), one_sub.apply(before) + one + one_sub.apply(after)),
                (("many",), before + head + (rest,) + after)]
    atom = conj[pos]
    if action[2] == FULLEVAL:
        decl = policy.fulleval_match(atom)
        if decl is None:
            raise AnalysisError(f"no full-evaluation declaration covers "
                                f"{print_atom(atom)}")
        theta = full_eval_output(atom, decl.pattern, decl.output,
                                 FreshAVars.above(conj))
        if theta is None:
            raise AnalysisError(
                f"no output binding of {print_atom(decl.pattern)} "
                f"applies to {print_atom(atom)}")
        return [(("fulleval", policy.fulleval.index(decl), 0),
                 theta.apply(before + after))]
    clauses = program.clauses_for(atom.pred, len(atom.args))
    if not clauses:
        kind = "builtin" if atom.indicator in BUILTINS else "predicate"
        raise AnalysisError(
            f"cannot unfold {kind} {atom.pred}/{len(atom.args)}; declare it "
            "as fully evaluated or define it")
    out = []
    for clause in clauses:
        res = abstract_unify_with_clause(atom, clause, FreshAVars.above(conj))
        if res is not None:
            body, theta = res
            out.append((("clause", clause.id),
                        theta.apply(before) + body + theta.apply(after)))
    return out


def state_template(conj, draw) -> tuple:
    """A state's concrete template, over which both constructions compile
    the state: the variable of each abstract variable and each block list,
    drawn by ``draw`` from its key and kept in parameter order; the
    elements, each atom of ``conj`` renamed and a block-list variable
    where each multi stands; and the parameters, the atoms' abstract
    variables in first-occurrence order, then the block lists.  The k-th
    block list's key is ``Var("b<k>")``, which no abstract variable
    equals."""
    names = {}
    var = naming(names, draw)
    # the atoms first, so that their variables come first
    elems = [replace_vars(c, var) if isinstance(c, Atom) else c
             for c in conj]
    k = 0
    for i, c in enumerate(elems):
        if isinstance(c, Multi):
            k += 1
            elems[i] = var(Var(f"b{k}"))
    return names, tuple(elems), tuple(names.values())


def analyze(program: Program, policy: SelectionPolicy,
            opts: AnalysisOptions = None) -> StateGraph:
    """Build the finite state graph of the program's abstract control flow.

    Raises CompletenessError when a state has no selectable atom, and
    AnalysisError with a growth diagnostic when max_states is exceeded.
    """
    opts = opts or AnalysisOptions()
    entry_conj = canonicalize((policy.entry,))
    states = {1: entry_conj}
    index = {entry_conj: 1}
    parents = {1: None}
    transitions = []
    actions = {}
    steps = {}
    worklist = [1]
    next_id = 2

    def state(conj, src):
        """The id of the state ``conj``, a new one when it is not yet
        interned."""
        nonlocal next_id
        sid = index.get(conj)
        if sid is None:
            sid = next_id
            next_id += 1
            states[sid] = conj
            index[conj] = sid
            parents[sid] = src
            worklist.append(sid)
            if len(states) > opts.max_states:
                raise AnalysisError(_growth_diagnostic(states, parents, sid,
                                                       opts.max_states))
        return sid

    def intern(succ, src):
        """The state a step's successor leads to, the successor simplified,
        and the state's cover of it: the canonical renaming inverted when
        the state is the successor's canonical form, and found by
        ``abstract_instance`` when it is a depth-k widening of it."""
        succ = simplify_conj(succ)
        if not succ:
            return EMPTY_STATE, succ, None
        conj, renaming = canonical_renaming(succ)
        if conj not in index and opts.depth_k is not None:
            conj = canonicalize(simplify_conj(widen_depth_k(conj,
                                                          opts.depth_k)))
            return state(conj, src), succ, abstract_instance(succ, conj).pairs
        return state(conj, src), succ, {c: v for v, c in renaming.items()}

    while worklist:
        sid = worklist.pop(0)
        conj = states[sid]
        fold = try_fold(conj) if opts.enable_multi else None
        if fold is not None:
            action = ("group", fold[1])
        else:
            try:
                pos, mark = select_conjunct(policy, conj)
            except NoMinimumError as e:
                raise CompletenessError(
                    f"state {sid} has no selectable atom: "
                    f"{print_aconj(conj)} ({e})", conj) from None
            action = ("split", pos) if mark == "split" \
                else ("select", pos, mark)
        actions[sid] = action
        try:
            made = abstract_step(program, policy, conj, action)
        except AnalysisError as e:
            raise AnalysisError(f"state {sid}: {e}") from None
        steps[sid] = []
        for cause, succ in made:
            dst, succ, cover = intern(succ, sid)
            transitions.append(Transition(sid, dst, cause))
            steps[sid].append((cause, succ, cover))

    return StateGraph(1, states, transitions, actions, steps,
                      (program, policy))


def _pred_multiset(conj):
    out = {}
    for c in conj:
        if isinstance(c, Atom):
            key = c.indicator
        else:
            key = ("multi",) + tuple(a.indicator for a in c.pattern)
        out[key] = out.get(key, 0) + 1
    return out


def _growth_diagnostic(states, parents, sid, max_states) -> str:
    msg = [f"state budget exceeded ({max_states})"]
    cur = _pred_multiset(states[sid])
    anc = parents.get(sid)
    while anc:
        ms = _pred_multiset(states[anc])
        if all(ms.get(k, 0) <= v for k, v in cur.items()) and \
                sum(ms.values()) < sum(cur.values()):
            msg.append(
                f"state {sid} ({print_aconj(states[sid])}) grows from "
                f"ancestor {anc} ({print_aconj(states[anc])}); "
                "consider a multi-enabling policy or depth-k widening")
            break
        anc = parents.get(anc)
    return "; ".join(msg)


# --- rendering -----------------------------------------------------------

def render_graph(g: StateGraph, fmt: str) -> str:
    if fmt == "dot":
        return _render_dot(g)
    if fmt == "json":
        return _render_json(g)
    raise AnalysisError(f"unknown render format {fmt!r}")


def _state_label(g, sid):
    if sid == EMPTY_STATE:
        return "empty"
    conj = g.states[sid]
    action = g.actions[sid]
    parts = []
    for i, c in enumerate(conj):
        if isinstance(c, Atom):
            s = print_atom(c)
            if action[0] == "select" and action[1] == i:
                s = f"=={s}==" if action[2] == FULLEVAL else f"__{s}__"
            parts.append(s)
        else:
            parts.append(repr(c))
    return " , ".join(parts)


def _cause_str(cause):
    if cause[0] == "clause":
        return f"clause {cause[1]}"
    if cause[0] == "fulleval":
        return f"fulleval {cause[1]}.{cause[2]}"
    if cause[0] == "grouping":
        return f"grouping {cause[1]}"
    return cause[0]


def _render_dot(g: StateGraph) -> str:
    lines = ["digraph control {", "  rankdir=TB;", "  node [shape=box];"]
    targets = {t.dst for t in g.transitions}
    if EMPTY_STATE in targets:
        lines.append('  s0 [label="empty"];')
    for sid in sorted(g.states):
        label = _state_label(g, sid).replace('"', r'\"')
        lines.append(f'  s{sid} [label="{sid}: {label}"];')
    for t in g.transitions:
        lines.append(f'  s{t.src} -> s{t.dst} '
                     f'[label="{_cause_str(t.cause)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _constants(conj):
    """The constants of a conjunction, its multis' patterns and
    constraints included, walked left to right on an explicit stack."""
    stack = list(conj)[::-1]
    while stack:
        x = stack.pop()
        if isinstance(x, Const):
            yield x
        elif isinstance(x, (Atom, Struct)):
            stack.extend(reversed(x.args))
        elif isinstance(x, Multi):
            stack.extend(reversed(x.pattern + tuple(x.outer_terms())))


def _render_json(g: StateGraph) -> str:
    # the reader takes a bare name through ``pattern_name``; a constant
    # that it would read as a variable cannot be written
    for conj in g.states.values():
        for c in _constants(conj):
            if isinstance(c.name, str) and pattern_name(c.name) != c:
                raise AnalysisError(
                    f"constant {c.name} cannot be written to a graph file, "
                    "where it reads as a variable")

    def selected_index(sid):
        action = g.actions[sid]
        return action[1] if action[0] in ("select", "split") else None

    doc = {
        "entry": g.entry,
        "states": [{"id": sid, "conjunction": print_aconj(g.states[sid])}
                   for sid in sorted(g.states)],
        "transitions": [
            {"from": t.src, "to": t.dst, "cause": list(t.cause),
             "selected_index": selected_index(t.src)}
            for t in g.transitions],
        "actions": {str(sid): action_json(a)
                    for sid, a in sorted(g.actions.items())},
    }
    return json.dumps(doc, indent=2) + "\n"


def action_json(action):
    if action[0] == "group":
        ev = action[1]
        return ["group", ev.start, ev.plen, ev.kind]
    return list(action)


# the causes and actions a graph file may hold, by name: the types of the
# items that follow the name
_CAUSES = {"clause": (int,), "fulleval": (int, int), "one": (), "many": (),
           "grouping": (str,)}
_ACTIONS = {"select": (int, str), "split": (int,), "group": (int, int, str)}


def _field(obj, key, kind):
    """``obj[key]``, once ``obj`` is an object whose ``key`` holds a value
    of type ``kind``."""
    if not isinstance(obj, dict):
        raise AnalysisError(f"expected an object with {key!r}, found "
                            f"{json.dumps(obj)[:40]}")
    if type(obj.get(key)) is not kind:
        raise AnalysisError(f"expected {kind.__name__} {key!r}, found "
                            f"{json.dumps(obj.get(key))[:40]}")
    return obj[key]


def _form(item, forms, what):
    """The list ``item`` as a tuple, once it is one of ``forms``."""
    types = forms.get(item[0]) if isinstance(item, list) and item and \
        isinstance(item[0], str) else None
    if types is None or len(item) != 1 + len(types) or \
            any(type(x) is not t for x, t in zip(item[1:], types)):
        raise AnalysisError(f"malformed {what} {json.dumps(item)}")
    return tuple(item)


def parse_graph(text: str) -> StateGraph:
    """Inverse of the json rendering.  Each transition's
    ``selected_index`` repeats its source state's action, and a
    ``groupings`` array, written by older versions, repeats the group
    actions; both are ignored.  A document of another shape, a state
    defined twice, a transition, entry or action naming no state, a state
    without an action, a select action marked neither ``unfold`` nor
    ``fulleval`` and a group action of a kind with no layout in
    ``multi.LAYOUTS`` are AnalysisErrors."""
    doc = json.loads(text)
    states = {}
    for s in _field(doc, "states", list):
        sid = _field(s, "id", int)
        if sid in states:
            raise AnalysisError(f"state {sid} is defined twice")
        states[sid] = parse_aconj(_field(s, "conjunction", str))
    transitions = [Transition(_field(t, "from", int), _field(t, "to", int),
                              _form(_field(t, "cause", list), _CAUSES,
                                    "cause"))
                   for t in _field(doc, "transitions", list)]
    entry = _field(doc, "entry", int)
    actions = {}
    for sid, a in _field(doc, "actions", dict).items():
        a = _form(a, _ACTIONS, "action")
        if a[0] == "select" and a[2] not in (UNFOLD, FULLEVAL):
            raise AnalysisError(f"select action of state {sid} marked "
                                f"{a[2]!r}, neither {UNFOLD!r} nor "
                                f"{FULLEVAL!r}")
        if a[0] == "group" and a[3] not in LAYOUTS:
            raise AnalysisError(f"group action of state {sid} of unknown "
                                f"kind {a[3]!r}")
        actions[int(sid)] = ("group", FoldEvent(*a[1:])) \
            if a[0] == "group" else a
    missing = ({entry} | {t.src for t in transitions} | set(actions)
               | {t.dst for t in transitions} - {EMPTY_STATE}) - set(states)
    if missing:
        raise AnalysisError(f"the graph names state {min(missing)}, which "
                            "it does not define")
    bare = set(states) - set(actions)
    if bare:
        raise AnalysisError(f"state {min(bare)} has no action")
    return StateGraph(entry, states, transitions, actions)
