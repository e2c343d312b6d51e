"""Table-driven meta-interpretation of the analyzed control flow.

The state graph produced by the analysis is flattened into relational
tables (selected index per state, state transitions keyed by their cause,
clause and full-evaluation lookup).  A meta-interpreter walks a concrete
goal and a state number in lockstep: the tables dictate which conjunct is
selected and which states are reachable, so the interpreter itself never
inspects groundness.  The same tables can be emitted as a logic program
(``mi/2`` and friends) whose left-to-right execution reproduces the
interpreter — the subject program for specialization.

Goals are tuples of concrete atoms.  Where the analysis folded repeated
conjuncts into a multi abstraction, the concrete counterpart is a goal
element ``cmulti(Blocks)`` whose blocks each wrap one pattern instance in
a ``building_block/1`` structure.  Grouping transitions introduce these
wrappers; one/many transitions take them apart again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .absdom import FULLEVAL, LogicError, concrete_template, member
from .analysis import StateGraph
from .engine import BUILTINS, Limits, RunResult, Solver, depth_first
from .multi import FoldEvent, Multi
from .policy import SelectionPolicy
from .terms import (Atom, Clause, Const, FreshNames, Program, Struct, Var,
                    list_parts, mklist, rename_apart, unify)

CMULTI = "cmulti"
BUILDING_BLOCK = "building_block"


class MetaintError(LogicError):
    pass


# --- cmulti goals ---------------------------------------------------------

def atom_to_term(a: Atom):
    return Struct(a.pred, a.args) if a.args else Const(a.pred)


def term_to_atom(t) -> Atom:
    if isinstance(t, Struct):
        return Atom(t.functor, t.args)
    if isinstance(t, Const) and isinstance(t.name, str):
        return Atom(t.name)
    raise MetaintError(f"not a callable term: {t!r}")


def make_cmulti(blocks) -> Atom:
    """cmulti([building_block([...]), ...]) over concrete atom blocks."""
    bbs = [Struct(BUILDING_BLOCK, (mklist([atom_to_term(a) for a in b]),))
           for b in blocks]
    return Atom(CMULTI, (mklist(bbs),))


def is_cmulti(x) -> bool:
    return isinstance(x, Atom) and x.indicator == (CMULTI, 1)


def cmulti_blocks(x: Atom):
    """The list of atom blocks wrapped in a cmulti goal element."""
    if not is_cmulti(x):
        raise MetaintError(f"not a cmulti element: {x!r}")
    bbs, tail = list_parts(x.args[0])
    if tail != Const("[]"):
        raise MetaintError(f"open building-block list in {x!r}")
    blocks = []
    for bb in bbs:
        if not (isinstance(bb, Struct) and bb.functor == BUILDING_BLOCK
                and len(bb.args) == 1):
            raise MetaintError(f"malformed building block {bb!r}")
        atoms, btail = list_parts(bb.args[0])
        if btail != Const("[]"):
            raise MetaintError(f"open building block {bb!r}")
        blocks.append(tuple(term_to_atom(t) for t in atoms))
    return blocks


# --- tables ---------------------------------------------------------------

@dataclass
class StateTables:
    """Relational form of a state graph plus the data the interpreter
    resolves against: source clauses and full-evaluation declarations."""
    entry: int
    selected_index: dict      # state -> goal position (select & split states)
    state_transition: dict    # (state, cause tuple) -> next state
    mi_clause: dict           # clause id -> Clause
    mi_full_eval: tuple       # FullEvalDecl list, indexed by declaration
    grouping: dict            # state -> (next state, FoldEvent)
    split_states: set         # states whose selected element is a cmulti
    fulleval_states: dict     # state -> declaration index
    state_conjs: dict         # state -> abstract conjunction
    program: Program = None   # source program (nested full evaluation)

    @property
    def variant(self) -> str:
        """The interpreter variant the tables need: "extended" when the
        graph has split or grouping states, otherwise "simple"."""
        return "extended" if self.split_states or self.grouping \
            else "simple"

    def causes_from(self, state):
        return [(cause, dst) for (src, cause), dst
                in self.state_transition.items() if src == state]


def build_tables(g: StateGraph, program: Program,
                 policy: SelectionPolicy) -> StateTables:
    selected_index = {}
    fulleval_states = {}
    split_states = set()
    grouping = {}
    for sid, action in g.actions.items():
        if action[0] == "select":
            selected_index[sid] = action[1]
            if action[2] == FULLEVAL:
                for t in g.successors(sid):
                    fulleval_states[sid] = t.cause[1]
        elif action[0] == "split":
            selected_index[sid] = action[1]
            split_states.add(sid)
        elif action[0] == "group":
            t = g.successors(sid)[0]
            grouping[sid] = (t.dst, action[1])
    state_transition = {(t.src, t.cause): t.dst for t in g.transitions}
    mi_clause = {c.id: c for c in program.clauses}
    return StateTables(g.entry, selected_index, state_transition, mi_clause,
                       tuple(policy.fulleval), grouping, split_states,
                       fulleval_states, dict(g.states), program)


# --- goal surgery ---------------------------------------------------------

def divide_goals(goal, idx):
    """Split a goal at the selected index: (before, selected, after)."""
    goal = tuple(goal)
    if not 0 <= idx < len(goal):
        raise MetaintError(
            f"selected index {idx} out of range for goal of {len(goal)}")
    return goal[:idx], goal[idx], goal[idx + 1:]


def apply_groupings(goal, ev: FoldEvent):
    """Group a subconjunction of a goal into a cmulti element, mirroring
    the analysis grouping ``ev``: two adjacent atom blocks form a new
    cmulti, a block joins the adjacent cmulti on its left or right, or two
    adjacent cmultis merge.  Flattening the result restores the original
    goal, so answers are unaffected.
    """
    goal = list(goal)
    s, p = ev.start, ev.plen
    if ev.kind == "new":
        if s + 2 * p > len(goal):
            raise MetaintError(f"grouping {ev} out of range for goal of "
                               f"{len(goal)}")
        blocks = [_check_atoms(goal[s: s + p]),
                  _check_atoms(goal[s + p: s + 2 * p])]
        return tuple(goal[:s] + [make_cmulti(blocks)] + goal[s + 2 * p:])
    if ev.kind == "left":
        block = _check_atoms(goal[s: s + p])
        rest = cmulti_blocks(goal[s + p])
        return tuple(goal[:s] + [make_cmulti([tuple(block)] + rest)]
                     + goal[s + p + 1:])
    if ev.kind == "right":
        blocks = cmulti_blocks(goal[s])
        block = _check_atoms(goal[s + 1: s + 1 + p])
        return tuple(goal[:s] + [make_cmulti(blocks + [tuple(block)])]
                     + goal[s + 1 + p:])
    if ev.kind == "merge":
        b1 = cmulti_blocks(goal[s])
        b2 = cmulti_blocks(goal[s + 1])
        return tuple(goal[:s] + [make_cmulti(b1 + b2)] + goal[s + 2:])
    raise MetaintError(f"unknown grouping kind {ev.kind!r}")


def _check_atoms(elems):
    for e in elems:
        if is_cmulti(e):
            raise MetaintError(f"cannot re-group cmulti element {e!r}")
    return elems


# --- the interpreter ------------------------------------------------------

class MetaInterpreter:
    """Runs concrete goals under the control flow frozen in the tables.

    The simple variant handles clause resolution and full evaluation; the
    extended variant additionally performs grouping and cmulti extraction.
    Inference counting matches the plain engine: one per successful clause
    resolution, one per full evaluation; bookkeeping steps are free.
    """

    def __init__(self, tables: StateTables, variant: str = "simple",
                 limits: Limits = None):
        if variant not in ("simple", "extended"):
            raise MetaintError(f"unknown variant {variant!r}")
        self.tables = tables
        self.variant = variant
        self.limits = limits or Limits()
        self.fresh = FreshNames()
        self.inferences = 0

    def run(self, goal) -> RunResult:
        return depth_first(self, goal, self.tables.entry)

    def step(self, goal, state, ans):
        """One abstract-machine step.  Only clause resolution deepens the
        derivation; full evaluation, splits and groupings are free."""
        t = self.tables
        if state in t.grouping:
            self._need_extended(state)
            dst, ev = t.grouping[state]
            return 0, [(apply_groupings(goal, ev), dst, ans)]
        if state in t.split_states:
            self._need_extended(state)
            return 0, self._split(goal, state, ans)
        if state in t.fulleval_states:
            return 0, self._full_eval(goal, state, ans)
        if state in t.selected_index:
            return 1, self._resolve(goal, state, ans)
        raise MetaintError(
            f"no table entry for state {state} with goal {list(goal)}")

    def _need_extended(self, state):
        if self.variant != "extended":
            raise MetaintError(
                f"state {state} needs the extended variant "
                "(multi abstractions present)")

    def _split(self, goal, state, ans):
        idx = self.tables.selected_index[state]
        before, selected, after = divide_goals(goal, idx)
        blocks = cmulti_blocks(selected)
        if len(blocks) == 1:
            dst = self._dst(state, ("one",))
            return [(before + blocks[0] + after, dst, ans)]
        dst = self._dst(state, ("many",))
        rest = make_cmulti(blocks[1:])
        return [(before + blocks[0] + (rest,) + after, dst, ans)]

    def _dst(self, state, cause):
        try:
            return self.tables.state_transition[(state, cause)]
        except KeyError:
            raise MetaintError(
                f"state {state} has no transition for {cause}") from None

    def _full_eval(self, goal, state, ans):
        t = self.tables
        idx = t.selected_index[state]
        before, selected, after = divide_goals(goal, idx)
        if is_cmulti(selected):
            raise MetaintError(
                f"state {state} expects a callable atom at {idx}")
        decl_idx = t.fulleval_states[state]
        decl = t.mi_full_eval[decl_idx]
        outs = self._evaluate(selected, decl)
        dsts = {cause[2]: dst for cause, dst in t.causes_from(state)
                if cause[0] == "fulleval" and cause[1] == decl_idx}
        succ = []
        for theta in outs:
            dst = self._match_output(theta.apply(selected), decl, dsts, state)
            succ.append((theta.apply(before + after), dst,
                         theta.apply(ans)))
        return succ

    def _evaluate(self, atom: Atom, decl):
        self.inferences += 1
        if decl.link_is_builtin:
            return BUILTINS.evaluate(atom)
        solver = Solver(self.tables.program, self.limits)
        res = solver.run((atom,))
        self.inferences += res.inference_count
        if not res.exhausted:
            raise MetaintError(f"full evaluation of {atom} hit limits")
        return res.answers

    def _match_output(self, result: Atom, decl, dsts, state):
        if len(dsts) == 1:
            return next(iter(dsts.values()))
        for out_idx, out in enumerate(decl.outputs):
            if out_idx not in dsts:
                continue
            shape = out.apply(decl.pattern)
            if member(result, shape):
                return dsts[out_idx]
        raise MetaintError(
            f"result {result} matches no declared output in state {state}")

    def _resolve(self, goal, state, ans):
        t = self.tables
        idx = t.selected_index[state]
        before, selected, after = divide_goals(goal, idx)
        if is_cmulti(selected):
            raise MetaintError(
                f"state {state} expects a resolvable atom at {idx}")
        succ = []
        for cause, dst in t.causes_from(state):
            if cause[0] != "clause":
                continue
            clause = t.mi_clause[cause[1]]
            rc = rename_apart(clause, self.fresh)
            mgu = unify(selected, rc.head)
            if mgu is None:
                continue
            self.inferences += 1
            succ.append((mgu.apply(before + rc.body + after), dst,
                         mgu.apply(ans)))
        return succ


def mi_run(tables: StateTables, goal, variant: str = "simple",
           limits: Limits = None) -> RunResult:
    """Run a concrete goal under the table-driven selection rule."""
    return MetaInterpreter(tables, variant, limits).run(goal)


# --- the logic-program encoding ------------------------------------------

def _v(name: str) -> Var:
    return Var(name)


def _pattern_template(m: Multi, seq: int):
    """The multi's pattern as a list term of atom templates with fresh
    variables per pattern variable."""
    def var(v):
        return Var(f"_P{seq}_{v.kind.upper()}{v.local}")
    return mklist([atom_to_term(concrete_template(a, var))
                   for a in m.pattern])


class _ClauseBuilder:
    def __init__(self):
        self.clauses = []

    def add(self, head: Atom, *body: Atom):
        self.clauses.append(Clause(head, tuple(body), len(self.clauses) + 1))

    def program(self) -> Program:
        return Program(tuple(self.clauses))


def _cause_term(cause):
    if cause[0] == "clause":
        return Const(cause[1])
    if cause[0] == "fulleval":
        return Const(f"fullai{cause[1]}")
    return Const(cause[0])  # one / many


def encode_as_logic_program(tables: StateTables,
                            variant: str = "simple") -> Program:
    """The tables and interpreter as a logic program.

    Left-to-right execution of ``compute(Goal)`` reproduces mi_run's
    answers.  ``dg_append``/``mi_len`` do goal-list surgery where lengths
    are fixed by the tables; ``bb_append`` concatenates building-block
    lists whose length only the runtime knows.  Grouping steps are encoded
    as one ``apply_groupings/3`` clause per grouping state, matching the
    goal positionally (goal lengths are bounded per state).
    """
    if variant not in ("simple", "extended"):
        raise MetaintError(f"unknown variant {variant!r}")
    b = _ClauseBuilder()
    t = tables

    # driver
    b.add(Atom("compute", (_v("Gs"),)),
          Atom("mi", (_v("Gs"), Const(t.entry))))
    b.add(Atom("mi", (Const("[]"), _v("_"))))

    goal_ = Struct(".", (_v("G"), _v("Gs")))
    dv = Atom("divide_goals", (goal_, _v("Idx"), _v("Before"),
                               _v("Selected"), _v("After")))
    si = Atom("selected_index", (_v("State"), _v("Idx")))

    # clause resolution
    b.add(Atom("mi", (goal_, _v("State"))),
          si, dv,
          Atom("mi_clause", (_v("Selected"), _v("Body"), _v("RuleIdx"))),
          Atom("state_transition", (_v("State"), _v("NewState"),
                                    _v("RuleIdx"))),
          Atom("dg_append", (_v("Before"), _v("Body"), _v("NewGsA"))),
          Atom("dg_append", (_v("NewGsA"), _v("After"), _v("NewGs"))),
          Atom("mi", (_v("NewGs"), _v("NewState"))))

    # full evaluation
    b.add(Atom("mi", (goal_, _v("State"))),
          si, dv,
          Atom("mi_full_eval", (_v("Selected"), _v("FullAIIdx"))),
          Atom("call", (_v("Selected"),)),
          Atom("state_transition", (_v("State"), _v("NewState"),
                                    _v("FullAIIdx"))),
          Atom("dg_append", (_v("Before"), _v("After"), _v("NewGs"))),
          Atom("mi", (_v("NewGs"), _v("NewState"))))

    if variant == "extended":
        _encode_extended(b, t)

    # goal-list helpers
    b.add(Atom("divide_goals", (_v("Goals"), _v("Idx"), _v("Before"),
                                _v("Selected"), _v("After"))),
          Atom("mi_len", (_v("Before"), _v("Idx"))),
          Atom("dg_append", (_v("Before"),
                             Struct(".", (_v("Selected"), _v("After"))),
                             _v("Goals"))))
    b.add(Atom("mi_len", (Const("[]"), Const(0))))
    b.add(Atom("mi_len", (Struct(".", (_v("_"), _v("T"))), _v("N"))),
          Atom("=<", (Const(1), _v("N"))),
          Atom("minus", (_v("N"), Const(1), _v("M"))),
          Atom("mi_len", (_v("T"), _v("M"))))
    needs_bb = variant == "extended" and (t.split_states or t.grouping)
    for name in (["dg_append", "bb_append"] if needs_bb else ["dg_append"]):
        b.add(Atom(name, (Const("[]"), _v("L"), _v("L"))))
        b.add(Atom(name, (Struct(".", (_v("H"), _v("T"))), _v("L"),
                          Struct(".", (_v("H"), _v("R"))))),
              Atom(name, (_v("T"), _v("L"), _v("R"))))

    _encode_tables(b, t, variant)
    return b.program()


def _encode_extended(b: _ClauseBuilder, t: StateTables):
    if not t.split_states and not t.grouping:
        return
    goal_ = Struct(".", (_v("G"), _v("Gs")))
    si = Atom("selected_index", (_v("State"), _v("Idx")))
    one_sel = Struct(CMULTI, (mklist(
        [Struct(BUILDING_BLOCK, (_v("Patt1"),))]),))
    # single remaining instance: unfold its pattern in place
    b.add(Atom("mi", (goal_, _v("State"))),
          si,
          Atom("extracted_patt_one", (_v("State"), _v("Patt1"))),
          Atom("divide_goals", (goal_, _v("Idx"), _v("Before"), one_sel,
                                _v("After"))),
          Atom("state_transition", (_v("State"), _v("NewState"),
                                    Const("one"))),
          Atom("dg_append", (_v("Patt1"), _v("After"), _v("NewGsA"))),
          Atom("dg_append", (_v("Before"), _v("NewGsA"), _v("NewGs"))),
          Atom("mi", (_v("NewGs"), _v("NewState"))))
    # several instances: unfold the first, keep the rest wrapped
    many_sel = Struct(CMULTI, (Struct(".", (
        Struct(BUILDING_BLOCK, (_v("Patt1"),)), _v("RestBBs"))),))
    b.add(Atom("mi", (goal_, _v("State"))),
          si,
          Atom("extracted_patts_many", (_v("State"), _v("Patt1"),
                                        _v("RestBBs"))),
          Atom("divide_goals", (goal_, _v("Idx"), _v("Before"), many_sel,
                                _v("After"))),
          Atom("state_transition", (_v("State"), _v("NewState"),
                                    Const("many"))),
          Atom("dg_append", (_v("Patt1"),
                             mklist([Struct(CMULTI, (_v("RestBBs"),))]),
                             _v("NewGsA"))),
          Atom("dg_append", (_v("Before"), _v("NewGsA"), _v("NewGsB"))),
          Atom("dg_append", (_v("NewGsB"), _v("After"), _v("NewGs"))),
          Atom("mi", (_v("NewGs"), _v("NewState"))))
    # grouping
    b.add(Atom("mi", (goal_, _v("State"))),
          Atom("grouping", (_v("State"), _v("NextState"), _v("GSpec"))),
          Atom("apply_groupings", (goal_, _v("GSpec"), _v("NewGs"))),
          Atom("mi", (_v("NewGs"), _v("NextState"))))


def _positional(n, prefix="E"):
    return [_v(f"{prefix}{i}") for i in range(n)]


def _encode_grouping_clause(b, sid, dst, ev: FoldEvent):
    """apply_groupings/3 for one grouping state, by positional matching."""
    tag = Const(f"gspec{sid}")
    b.add(Atom("grouping", (Const(sid), Const(dst), tag)))
    pre = _positional(ev.start)
    rest = _v("Rest")
    s, p = ev.start, ev.plen

    def goal_list(mid):
        return mklist(pre + mid, rest)

    if ev.kind == "new":
        xs = _positional(p, "A")
        ys = _positional(p, "B")
        grouped = Struct(CMULTI, (mklist(
            [Struct(BUILDING_BLOCK, (mklist(xs),)),
             Struct(BUILDING_BLOCK, (mklist(ys),))]),))
        b.add(Atom("apply_groupings",
                   (goal_list(xs + ys), tag, goal_list([grouped]))))
    elif ev.kind == "left":
        xs = _positional(p, "A")
        old = Struct(CMULTI, (_v("BBs"),))
        grouped = Struct(CMULTI, (Struct(".", (
            Struct(BUILDING_BLOCK, (mklist(xs),)), _v("BBs"))),))
        b.add(Atom("apply_groupings",
                   (goal_list(xs + [old]), tag, goal_list([grouped]))))
    elif ev.kind == "right":
        xs = _positional(p, "A")
        old = Struct(CMULTI, (_v("BBs"),))
        grouped = Struct(CMULTI, (_v("NewBBs"),))
        b.add(Atom("apply_groupings",
                   (goal_list([old] + xs), tag, goal_list([grouped]))),
              Atom("bb_append", (_v("BBs"),
                                 mklist([Struct(BUILDING_BLOCK,
                                                (mklist(xs),))]),
                                 _v("NewBBs"))))
    elif ev.kind == "merge":
        m1 = Struct(CMULTI, (_v("BBs1"),))
        m2 = Struct(CMULTI, (_v("BBs2"),))
        grouped = Struct(CMULTI, (_v("NewBBs"),))
        b.add(Atom("apply_groupings",
                   (goal_list([m1, m2]), tag, goal_list([grouped]))),
              Atom("bb_append", (_v("BBs1"), _v("BBs2"), _v("NewBBs"))))
    else:  # pragma: no cover
        raise MetaintError(f"unknown grouping kind {ev.kind!r}")


def _encode_tables(b: _ClauseBuilder, t: StateTables, variant):
    for sid in sorted(t.selected_index):
        if variant == "simple" and sid in t.split_states:
            raise MetaintError(
                "state graph contains multi abstractions; "
                "encode with the extended variant")
        b.add(Atom("selected_index", (Const(sid),
                                      Const(t.selected_index[sid]))))
    seen = set()
    for (src, cause), dst in sorted(t.state_transition.items(),
                                    key=lambda kv: (kv[0][0], str(kv[0][1]))):
        if cause[0] == "grouping":
            continue
        fact = (src, _cause_term(cause).name, dst)
        if fact in seen:
            continue
        seen.add(fact)
        b.add(Atom("state_transition", (Const(src), Const(dst),
                                        _cause_term(cause))))
    for cid in sorted(t.mi_clause):
        clause = t.mi_clause[cid]
        head = atom_to_term(clause.head)
        body = mklist([atom_to_term(a) for a in clause.body])
        b.add(Atom("mi_clause", (head, body, Const(cid))))
    for d, decl in enumerate(t.mi_full_eval):
        pattern = concrete_template(
            decl.pattern, lambda v: Var(f"_{v.kind.upper()}{v.index}"))
        b.add(Atom("mi_full_eval", (atom_to_term(pattern),
                                    Const(f"fullai{d}"))))
    if variant == "extended":
        for sid, (dst, ev) in sorted(t.grouping.items()):
            _encode_grouping_clause(b, sid, dst, ev)
        for seq, sid in enumerate(sorted(t.split_states)):
            conj = t.state_conjs[sid]
            m = conj[t.selected_index[sid]]
            patt1 = _pattern_template(m, seq * 2)
            b.add(Atom("extracted_patt_one", (Const(sid), patt1)))
            patt1b = _pattern_template(m, seq * 2)
            patt2 = _pattern_template(m, seq * 2 + 1)
            rest = Struct(".", (Struct(BUILDING_BLOCK, (patt2,)),
                                _v("_BBs")))
            b.add(Atom("extracted_patts_many", (Const(sid), patt1b, rest)))
