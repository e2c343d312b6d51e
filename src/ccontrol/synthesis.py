"""Direct synthesis of a left-to-right program from the state graph.

Each analysis state becomes a predicate whose arguments are the state's
abstract variables (plus one block-list argument per multi abstraction),
and each transition becomes a clause.  A state's successors are the
steps the graph records for it (``analysis.abstract_step`` under the
state's action, as the analysis or ``metaint.build_tables`` ran it),
built concretely over a variable template; the successor state's own
template, matched against the concrete successor, yields the argument
terms linking a clause head to the successor call.
The result executes under the plain left-to-right engine yet follows the
analyzed selection rule step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .absdom import LogicError
from .analysis import EMPTY_STATE, StateGraph, state_template
from .engine import Limits, answer_set, solve, support_clauses
from .metaint import BB_APPEND, block_list, build_tables, building_block
from .policy import SelectionPolicy
from .terms import (CONS, NIL, Atom, Const, FreshNames, Program, Struct,
                    Switch, Var, atom_to_term, list_parts, match_template,
                    mklist, naming, print_atom, program_of, replace_vars,
                    resolve_all, substitute, term_to_atom)


class SynthesisError(LogicError):
    pass


@dataclass
class SynthesizedProgram:
    program: Program
    entry: tuple             # (predicate, arity) of the wrapper
    state_predicates: dict   # state id -> predicate name


class _Synthesizer:
    def __init__(self, graph, program, policy):
        self.graph = graph
        self.program = program
        self.policy = policy
        self.entry_pred = graph.states[graph.entry][0].pred
        self.names = {sid: f"{self.entry_pred}_s{sid}"
                      for sid in graph.states}
        self.switches = {c.id: Switch((c,)) for c in program.clauses}
        # each state's template, its variables named G1, A1, B1, ...
        self.templates = {sid: state_template(conj, lambda v: Var(v.upper()))
                          for sid, conj in graph.states.items()}
        self.clauses = []
        self.links = []          # links of the user full evaluations
        self.uses_blocks = False
        self.support_names = self._support_names()

    def _support_names(self) -> dict:
        """A name for each source predicate that the entry wrapper, a
        state predicate or ``bb_append/3`` also defines, so that its
        support copy is a predicate of its own: ``p_user`` for ``p``, or
        ``p_user2``, ... when that is taken too."""
        g = self.graph
        states = {name: sid for sid, name in self.names.items()}
        ours = {(self.entry_pred, len(g.states[g.entry][0].args))}
        ours |= {head.indicator for head, _ in BB_APPEND}

        def defined(pred):
            """Whether the synthesized program defines ``pred`` itself."""
            sid = states.get(pred[0])
            return pred in ours or sid is not None and \
                pred[1] == len(self.templates[sid][2])

        source = self.program.predicates
        taken = set(source)
        names = {}
        for pred, arity in sorted(p for p in source if defined(p)):
            name, k = f"{pred}_user", 1
            while (name, arity) in taken or defined((name, arity)):
                k += 1
                name = f"{pred}_user{k}"
            taken.add((name, arity))
            names[pred, arity] = name
        return names

    def _support_call(self, a: Atom) -> Atom:
        """``a`` calling the support copy of its predicate, also when it
        is the callable argument of ``call/1``, through any number of
        such wrappers."""
        goal, wrappers = a, 0
        while goal.indicator == ("call", 1):
            inner = term_to_atom(goal.args[0])
            if inner is None:
                break
            goal, wrappers = inner, wrappers + 1
        name = self.support_names.get(goal.indicator)
        if name is None:
            return a
        goal = Atom(name, goal.args)
        for _ in range(wrappers):
            goal = Atom("call", (atom_to_term(goal),))
        return goal

    # --- successor calls --------------------------------------------------

    def _successor(self, dst, conc_elems):
        """The concrete call to the successor state's predicate, if any: the
        state's template matched against the successor's concrete
        elements (``terms.match_template``) on an empty store, which the
        match leaves empty, since the state covers the successor."""
        if dst == EMPTY_STATE:
            return ()
        _, elems, params = self.templates[dst]
        store = {}
        args = match_template(elems, params, conc_elems, store, Var)
        if args is None or store:
            raise SynthesisError(f"step diverged: state {dst} does not "
                                 f"cover {conc_elems!r}")
        return (Atom(self.names[dst], args),)

    # --- clause emission --------------------------------------------------

    def synthesize(self) -> SynthesizedProgram:
        g = self.graph
        for sid in sorted(g.states):
            self._state(sid)
        self._wrapper()
        if self.uses_blocks:
            self.clauses += BB_APPEND
        self.clauses += [(self._support_call(c.head),
                          tuple(self._support_call(a) for a in c.body))
                         for c in support_clauses(self.program, self.links)]
        program = program_of(self.clauses)
        entry_arity = len(g.states[g.entry][0].args)
        return SynthesizedProgram(program, (self.entry_pred, entry_arity),
                                  dict(self.names))

    def _wrapper(self):
        env, elems, args = self.templates[self.graph.entry]
        self.clauses.append((elems[0], (Atom(self.names[self.graph.entry],
                                             args),)))

    def _state(self, sid):
        """One clause per transition of the state: each recorded step's
        concrete side, built over the state's template."""
        g = self.graph
        action, template = g.actions[sid], self.templates[sid]
        freshc = FreshNames()
        for (cause, succ), t in zip(g.steps[sid], g.successors(sid)):
            if cause[0] == "clause":
                step = self._resolved(sid, action[1], cause[1], template,
                                      freshc)
            elif cause[0] == "fulleval":
                step = self._evaluated(action[1], cause, template)
            elif cause[0] == "grouping":
                step = self._grouped(action[1], template)
            else:
                step = self._extracted(sid, action[1], cause, succ, template,
                                       freshc)
            head_args, prefix, conc = step
            body = tuple(prefix) + self._successor(t.dst, conc)
            self.clauses.append((Atom(self.names[sid], tuple(head_args)),
                                 body))

    # Each concrete side returns (head arguments, body prefix, successor
    # goal elements).

    def _resolved(self, sid, pos, clause_id, template, freshc):
        env, elems, args = template
        b = {}
        succ = resolve_all(elems[pos], self.switches[clause_id],
                           elems[pos + 1:], sid, freshc, b)
        if not succ:
            raise SynthesisError(
                f"clause {clause_id} matches abstractly but not "
                f"concretely in state {sid}")
        # a one-clause switch's sole success leaves its bindings on ``b``
        [(goal, _, _)] = succ
        return substitute(args, b), (), substitute(elems[:pos] + goal, b)

    def _evaluated(self, pos, cause, template):
        env, elems, args = template
        decl = self.policy.fulleval[cause[1]]
        call = elems[pos]
        if not decl.link_is_builtin:
            self.links.append(decl.link)
            call = self._support_call(call)
        # a link names its pattern's predicate, so the call is the atom
        return args, (call,), elems[:pos] + elems[pos + 1:]

    def _extracted(self, sid, pos, cause, succ, template, freshc):
        """A split: the multi's first instance comes out of its block
        list, alone ("one") or ahead of the rest ("many")."""
        env, elems, args = template
        conj = self.graph.states[sid]
        m = conj[pos]
        var = naming(dict(env), lambda _: freshc.var())
        first = replace_vars(succ[pos:pos + m.plen], var)
        head_args = list(args)
        bidx = args.index(elems[pos])
        if cause == ("one",):
            head_args[bidx] = mklist([building_block(first)])
            return head_args, (), elems[:pos] + first + elems[pos + 1:]
        # The remaining multi stands for at least one more instance, so the
        # head can require a second block matching the pattern; spurious
        # single-block calls then fail at the head instead of descending.
        var = naming({}, lambda _: freshc.var())
        next_c = replace_vars(m.pattern, var)
        rest_b = Struct(CONS, (building_block(next_c), Var("BRest")))
        head_args[bidx] = Struct(CONS, (building_block(first), rest_b))
        return head_args, (), \
            elems[:pos] + first + (rest_b,) + elems[pos + 1:]

    def _grouped(self, ev, template):
        env, elems, args = template
        belem, prefix = block_list(ev.parts(elems), Var("BOut"))
        if prefix:
            self.uses_blocks = True
        return args, prefix, ev.fold(elems, belem)


def synthesize(graph: StateGraph, program: Program,
               policy: SelectionPolicy) -> SynthesizedProgram:
    """Build the state-predicate program equivalent to the analyzed one.
    The graph's recorded steps are taken when they are of ``program`` and
    ``policy``; any other graph goes through ``metaint.build_tables``."""
    if graph.source != (program, policy):
        graph = build_tables(graph, program, policy).graph
    return _Synthesizer(graph, program, policy).synthesize()


# --- comparing the two constructions -------------------------------------

def run_compiled(program: Program, goal, limits: Limits = None):
    """Run a goal on a compiled program, through its ``compute/1`` wrapper
    when it has one for the goal: the residual's
    ``compute([p(X1,...,Xn)])`` for the goal's predicate ``p/n``, or an
    encoded interpreter's start clause ``compute(Gs) :- mi(Gs, State)``."""
    pred = goal[0].indicator
    if any(_listed(c.head.args[0]) == pred or _starts_interpreter(c)
           for c in program.clauses_for("compute", 1)):
        goal = (Atom("compute", (mklist([atom_to_term(a) for a in goal]),)),)
    return solve(program, goal, limits=limits)


def _starts_interpreter(c) -> bool:
    """Whether ``c`` is the start clause ``compute(Gs) :- mi(Gs, State)``
    of an encoded interpreter."""
    gs = c.head.args[0]
    return isinstance(gs, Var) and len(c.body) == 1 and \
        c.body[0].indicator == ("mi", 2) and c.body[0].args[0] == gs


def _listed(t):
    """The predicate of ``p(...)`` when ``t`` is the list ``[p(...)]``."""
    items, tail = list_parts(t)
    atom = term_to_atom(items[0]) if len(items) == 1 and tail == Const(NIL) \
        else None
    return atom and atom.indicator


def compare_programs(prog_a: Program, prog_b: Program, queries,
                     limits: Limits = None) -> dict:
    """Per-query agreement report between two compiled programs.

    Answers are compared as multisets.  ``deviation`` is the relative
    difference of the workload's inference totals; each query's own
    deviation is informational, since tiny queries make ratios
    meaningless.
    """
    rows = []
    for goal in queries:
        ra = run_compiled(prog_a, goal, limits)
        rb = run_compiled(prog_b, goal, limits)
        deviation = abs(ra.inference_count - rb.inference_count) / \
            max(ra.inference_count, rb.inference_count, 1)
        rows.append({
            "goal": " , ".join(print_atom(a) for a in goal),
            "answers_match": answer_set(ra) == answer_set(rb),
            "answers": [len(ra.answers), len(rb.answers)],
            "inferences": [ra.inference_count, rb.inference_count],
            "deviation": round(deviation, 4),
            "both_exhausted": ra.exhausted and rb.exhausted,
        })
    total_a = sum(r["inferences"][0] for r in rows)
    total_b = sum(r["inferences"][1] for r in rows)
    return {
        "queries": rows,
        "all_match": all(r["answers_match"] for r in rows),
        "total_inferences": [total_a, total_b],
        "deviation": abs(total_a - total_b) / max(total_a, total_b, 1),
    }
