"""Direct synthesis of a left-to-right program from the state graph.

Each analysis state becomes a predicate whose arguments are the state's
abstract variables (plus one block-list argument per multi abstraction),
and each transition becomes a clause.  A state's successors are the
steps the graph records for it (``analysis.abstract_step`` under the
state's action, as the analysis or ``metaint.build_tables`` ran it),
built concretely over a variable template; matching each successor
against the stored state, which equals it up to renaming or widens it,
yields the argument terms linking a clause head to the successor call.
The result executes under the plain left-to-right engine yet follows the
analyzed selection rule step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .absdom import AVar, GROUND, LogicError, abstract_instance, avars
from .analysis import EMPTY_STATE, StateGraph
from .engine import Limits, answer_set, solve, support_clauses
from .metaint import BB_APPEND, build_tables, building_block
from .multi import Multi, simplify_conj
from .policy import SelectionPolicy
from .terms import (CONS, NIL, Atom, Const, FreshNames, Program, Struct,
                    Switch, Var, atom_to_term, list_parts, mklist,
                    print_atom, program_of, replace_vars, resolve_all,
                    substitute, term_to_atom)


class SynthesisError(LogicError):
    pass


@dataclass
class SynthesizedProgram:
    program: Program
    entry: tuple             # (predicate, arity) of the wrapper
    state_predicates: dict   # state id -> predicate name


def _plain_avars(conj):
    """Abstract variables of the plain atoms only, first-occurrence order."""
    return avars([c for c in conj if isinstance(c, Atom)])


def _avar_name(v: AVar) -> str:
    return f"{'G' if v.kind == GROUND else 'A'}{v.index}"


def _variables(env, fresh=None):
    """Concrete variable of each abstract variable for ``replace_vars``:
    its entry in ``env``, else a new variable from ``fresh``, remembered in
    ``env``."""
    def var(v):
        if v not in env:
            if fresh is None:
                raise SynthesisError(f"cannot make a template of {v!r}")
            env[v] = fresh.var()
        return env[v]
    return var


def _bind_term(abstract, concrete) -> dict:
    """The concrete counterpart of each abstract variable, found by walking
    the atoms of an abstract conjunction and of its concrete counterpart in
    lockstep, left to right on an explicit stack."""
    env = {}
    stack = [(a, c) for a, c in zip(abstract, concrete)
             if isinstance(a, Atom)][::-1]
    while stack:
        at, ct = stack.pop()
        if isinstance(at, AVar):
            env.setdefault(at, ct)
        elif isinstance(at, Atom) and at.indicator == ct.indicator or \
                isinstance(at, Struct) and isinstance(ct, Struct) and \
                (at.functor, len(at.args)) == (ct.functor, len(ct.args)):
            stack.extend(reversed(tuple(zip(at.args, ct.args))))
        elif not isinstance(at, Const):
            raise SynthesisError(f"step diverged: {at!r} versus {ct!r}")
    return env


class _Synthesizer:
    def __init__(self, graph, program, policy):
        self.graph = graph
        self.program = program
        self.policy = policy
        self.entry_pred = graph.states[graph.entry][0].pred
        self.names = {sid: f"{self.entry_pred}_s{sid}"
                      for sid in graph.states}
        self.clauses_by_id = {c.id: c for c in program.clauses}
        self.clauses = []
        self.links = []          # links of the user full evaluations
        self.uses_blocks = False

    # --- per-state templates ---------------------------------------------

    def _template(self, conj):
        """Concrete template: named variable per abstract variable, one
        block-list variable per multi; returns (env, elements, args)."""
        env = {v: Var(_avar_name(v)) for v in _plain_avars(conj)}
        var = _variables(env)
        elems = []
        nb = 0
        for c in conj:
            if isinstance(c, Atom):
                elems.append(replace_vars(c, var))
            else:
                nb += 1
                elems.append(Var(f"B{nb}"))
        args = [env[v] for v in _plain_avars(conj)]
        args += [e for e in elems if isinstance(e, Var)]
        return env, tuple(elems), tuple(args)

    # --- successor calls --------------------------------------------------

    def _successor(self, dst, raw_elems, conc_elems):
        """The concrete call to the successor state's predicate.  The
        stored state covers the abstract successor (it is the same up to
        renaming, or a widening of it), and each of its variables is
        passed the concrete counterpart of what it covers."""
        if dst == EMPTY_STATE:
            return None
        raw = simplify_conj(raw_elems)
        stored = self.graph.states[dst]
        cover = abstract_instance(raw, stored)
        var = _variables(_bind_term(raw, conc_elems))
        args = [replace_vars(cover.apply(v), var)
                for v in _plain_avars(stored)]
        args += [c for a, c in zip(raw, conc_elems) if isinstance(a, Multi)]
        return Atom(self.names[dst], tuple(args))

    # --- clause emission --------------------------------------------------

    def synthesize(self) -> SynthesizedProgram:
        g = self.graph
        for sid in sorted(g.states):
            self._state(sid)
        self._wrapper()
        if self.uses_blocks:
            self.clauses += BB_APPEND
        self.clauses += [(c.head, c.body) for c in
                         support_clauses(self.program, self.links)]
        program = program_of(self.clauses)
        entry_arity = len(g.states[g.entry][0].args)
        return SynthesizedProgram(program, (self.entry_pred, entry_arity),
                                  dict(self.names))

    def _wrapper(self):
        conj = self.graph.states[self.graph.entry]
        env, elems, args = self._template(conj)
        self.clauses.append((elems[0], (Atom(self.names[self.graph.entry],
                                             args),)))

    def _state(self, sid):
        """One clause per transition of the state: each recorded step's
        concrete side, built over the state's template."""
        g = self.graph
        action, conj = g.actions[sid], g.states[sid]
        template = self._template(conj)
        freshc = FreshNames()
        for (cause, raw), t in zip(g.steps[sid], g.successors(sid)):
            if cause[0] == "clause":
                step = self._resolved(sid, action[1], cause[1], template,
                                      freshc)
            elif cause[0] == "fulleval":
                step = self._evaluated(action[1], cause, template)
            elif cause[0] == "grouping":
                step = self._grouped(action[1], template)
            else:
                step = self._extracted(conj, action[1], cause, raw,
                                       template, freshc)
            head_args, prefix, conc = step
            succ = self._successor(t.dst, raw, conc)
            body = tuple(prefix) + ((succ,) if succ is not None else ())
            self.clauses.append((Atom(self.names[sid], tuple(head_args)),
                                 body))

    # Each concrete side returns (head arguments, body prefix, successor
    # goal elements).

    def _resolved(self, sid, pos, clause_id, template, freshc):
        env, elems, args = template
        switch = Switch((self.clauses_by_id[clause_id],))
        succ = resolve_all(elems[pos], switch, elems[pos + 1:], sid, freshc,
                           {})
        if not succ:
            raise SynthesisError(
                f"clause {clause_id} matches abstractly but not "
                f"concretely in state {sid}")
        [(goal, _, made)] = succ
        b = dict(made)
        return substitute(args, b), (), substitute(elems[:pos] + goal, b)

    def _evaluated(self, pos, cause, template):
        env, elems, args = template
        decl = self.policy.fulleval[cause[1]]
        for t in decl.outputs[cause[2]].pairs.values():
            if not isinstance(t, AVar):
                raise SynthesisError(
                    f"structured full-evaluation output {t!r} is not "
                    "supported")
        if not decl.link_is_builtin:
            self.links.append(decl.link)
        call = Atom(decl.link[0], elems[pos].args)
        return args, (call,), elems[:pos] + elems[pos + 1:]

    def _extracted(self, conj, pos, cause, raw, template, freshc):
        """A split: the multi's first instance comes out of its block
        list, alone ("one") or ahead of the rest ("many")."""
        env, elems, args = template
        m = conj[pos]
        bidx = len(_plain_avars(conj)) \
            + sum(1 for c in conj[:pos] if isinstance(c, Multi))
        var = _variables(dict(env), freshc)
        first = replace_vars(raw[pos:pos + m.plen], var)
        head_args = list(args)
        if cause == ("one",):
            head_args[bidx] = mklist([building_block(first)])
            return head_args, (), elems[:pos] + first + elems[pos + 1:]
        # The remaining multi stands for at least one more instance, so the
        # head can require a second block matching the pattern; spurious
        # single-block calls then fail at the head instead of descending.
        var = _variables({}, freshc)
        next_c = replace_vars(m.pattern, var)
        rest_b = Struct(CONS, (building_block(next_c), Var("BRest")))
        head_args[bidx] = Struct(CONS, (building_block(first), rest_b))
        return head_args, (), \
            elems[:pos] + first + (rest_b,) + elems[pos + 1:]

    def _grouped(self, ev, template):
        env, elems, args = template
        s, p = ev.start, ev.plen
        prefix = ()
        if ev.kind == "new":
            belem = mklist([building_block(elems[s:s + p]),
                            building_block(elems[s + p:s + 2 * p])])
        elif ev.kind == "left":
            belem = Struct(CONS, (building_block(elems[s:s + p]),
                                  elems[s + p]))
        elif ev.kind == "right":
            belem = Var("BOut")
            prefix = (Atom("bb_append",
                           (elems[s], mklist([building_block(
                               elems[s + 1:s + 1 + p])]), belem)),)
            self.uses_blocks = True
        else:
            belem = Var("BOut")
            prefix = (Atom("bb_append", (elems[s], elems[s + 1], belem)),)
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
    when it has one for the goal's predicate ``p/n``: the residual's
    ``compute([p(X1,...,Xn)])``, or an encoded interpreter's, when the
    program does not define ``p/n``."""
    pred = goal[0].indicator
    computes = program.clauses_for("compute", 1)
    if computes and not program.clauses_for(*pred) or any(
            _listed(c.head.args[0]) == pred for c in computes):
        goal = (Atom("compute", (mklist([atom_to_term(a) for a in goal]),)),)
    return solve(program, goal, limits=limits)


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
