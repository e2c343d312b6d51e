"""Direct synthesis of a left-to-right program from the state graph.

Each analysis state becomes a predicate whose arguments are the state's
abstract variables (plus one block-list argument per multi abstraction),
and each transition becomes a clause.  Transitions are replayed both
abstractly — re-running the analysis step to recover the successor's
canonical variable numbering — and concretely over a variable template,
which yields the argument terms linking a clause head to the successor
call.  The result executes under the plain left-to-right engine yet
follows the analyzed selection rule step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .absdom import (AAtom, AbsConst, AbsStruct, AVar, FreshAVars, GROUND,
                     LogicError, abstract_unify_with_clause, avars,
                     canonicalize, concrete_template, full_eval_output,
                     print_aconj)
from .analysis import EMPTY_STATE, StateGraph
from .engine import BUILTINS, Limits, answer_set, solve
from .metaint import BUILDING_BLOCK, atom_to_term
from .multi import Multi, case_split, simplify_conj, try_fold
from .policy import SelectionPolicy
from .terms import (Atom, Clause, Const, FreshNames, Program, Struct, Var,
                    mklist, print_atom, print_term, resolve, CONS)


class SynthesisError(LogicError):
    pass


@dataclass
class SynthesizedProgram:
    program: Program
    entry: tuple             # (predicate, arity) of the wrapper
    state_predicates: dict   # state id -> predicate name


def _plain_avars(conj):
    """Abstract variables of the plain atoms only, first-occurrence order."""
    return avars([c for c in conj if isinstance(c, AAtom)])


def _avar_name(v: AVar) -> str:
    return f"{'G' if v.kind == GROUND else 'A'}{v.index}"


def _variables(env, fresh=None):
    """Concrete variable of each abstract variable for ``concrete_template``:
    its entry in ``env``, else a new variable from ``fresh``, remembered in
    ``env``."""
    def var(v):
        if v not in env:
            if fresh is None:
                raise SynthesisError(f"cannot make a template of {v!r}")
            env[v] = fresh.var()
        return env[v]
    return var


def _bind_term(at, ct, env):
    """Record the concrete counterpart of each abstract variable by
    walking an abstract term and its concrete template in lockstep."""
    if isinstance(at, AVar):
        env.setdefault(at, ct)
        return
    if isinstance(at, AbsConst):
        return
    if isinstance(at, AbsStruct):
        if not (isinstance(ct, Struct) and ct.functor == at.functor
                and len(ct.args) == len(at.args)):
            raise SynthesisError(
                f"replay diverged: {at!r} versus {print_term(ct)}")
        for a, c in zip(at.args, ct.args):
            _bind_term(a, c, env)
        return
    raise SynthesisError(f"not an abstract term: {at!r}")


def _bind_atom(aa: AAtom, ca: Atom, env):
    if aa.indicator != ca.indicator:
        raise SynthesisError(
            f"replay diverged: {aa!r} versus {print_atom(ca)}")
    for a, c in zip(aa.args, ca.args):
        _bind_term(a, c, env)


def _block_term(atoms) -> Struct:
    return Struct(BUILDING_BLOCK, (mklist([atom_to_term(a) for a in atoms]),))


class _Synthesizer:
    def __init__(self, graph, program, policy):
        self.graph = graph
        self.program = program
        self.policy = policy
        entry_conj = graph.states[graph.entry]
        if len(entry_conj) != 1 or not isinstance(entry_conj[0], AAtom):
            raise SynthesisError("entry state is not a single atom")
        self.entry_pred = entry_conj[0].pred
        self.names = {sid: f"{self.entry_pred}_s{sid}"
                      for sid in graph.states}
        self.clauses = []
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
            if isinstance(c, AAtom):
                elems.append(concrete_template(c, var))
            else:
                nb += 1
                elems.append(Var(f"B{nb}"))
        args = [env[v] for v in _plain_avars(conj)]
        args += [e for e in elems if isinstance(e, Var)]
        return env, tuple(elems), tuple(args)

    # --- successor calls --------------------------------------------------

    def _successor(self, dst, raw_elems, conc_elems):
        """The concrete call to the successor state's predicate, derived
        by re-canonicalizing the replayed abstract successor."""
        raw = simplify_conj(raw_elems)
        canon = canonicalize(raw)
        if dst == EMPTY_STATE:
            if canon:
                raise SynthesisError("nonempty successor for the empty state")
            return None
        stored = self.graph.states[dst]
        if canon != stored:
            raise SynthesisError(
                f"replay of state {dst} diverged:\n  got  "
                f"{print_aconj(canon)}\n  want {print_aconj(stored)}")
        env = {}
        for a_elem, c_elem in zip(raw, conc_elems):
            if isinstance(a_elem, AAtom):
                _bind_atom(a_elem, c_elem, env)
        canon_vars = avars(canon)
        raw_vars = avars(raw)
        if len(canon_vars) != len(raw_vars):
            raise SynthesisError("canonical renaming is not a bijection")
        inv = dict(zip(canon_vars, raw_vars))
        args = []
        for cv in _plain_avars(canon):
            rv = inv[cv]
            if rv not in env:
                raise SynthesisError(
                    f"no concrete counterpart for {rv} in state {dst}")
            args.append(env[rv])
        args += [c for a, c in zip(raw, conc_elems) if isinstance(a, Multi)]
        return Atom(self.names[dst], tuple(args))

    # --- clause emission --------------------------------------------------

    def _emit(self, head_args, prefix, succ, sid):
        body = tuple(prefix) + ((succ,) if succ is not None else ())
        self.clauses.append((Atom(self.names[sid], tuple(head_args)), body))

    def synthesize(self) -> SynthesizedProgram:
        g = self.graph
        for sid in sorted(g.states):
            action = g.actions[sid]
            if action[0] == "select":
                self._state_select(sid, action[1])
            elif action[0] == "split":
                self._state_split(sid, action[1])
            elif action[0] == "group":
                self._state_group(sid)
            # a leaf state has no outgoing transitions and no clauses
        self._wrapper()
        if self.uses_blocks:
            self._append_clauses()
        program = Program(tuple(Clause(h, b, i + 1)
                                for i, (h, b) in enumerate(self.clauses)))
        entry_arity = len(g.states[g.entry][0].args)
        return SynthesizedProgram(program, (self.entry_pred, entry_arity),
                                  dict(self.names))

    def _wrapper(self):
        conj = self.graph.states[self.graph.entry]
        env, elems, args = self._template(conj)
        self.clauses.append((elems[0], (Atom(self.names[self.graph.entry],
                                             args),)))

    def _append_clauses(self):
        h, t, l, r = Var("H"), Var("T"), Var("L"), Var("R")
        self.clauses.append((Atom("bb_append", (Const("[]"), l, l)), ()))
        self.clauses.append((
            Atom("bb_append", (Struct(CONS, (h, t)), l,
                               Struct(CONS, (h, r)))),
            (Atom("bb_append", (t, l, r)),)))

    def _state_select(self, sid, pos):
        conj = self.graph.states[sid]
        env, elems, args = self._template(conj)
        atom = conj[pos]
        mark = self.graph.actions[sid][2]
        before_a, after_a = conj[:pos], conj[pos + 1:]
        before_c, after_c = elems[:pos], elems[pos + 1:]
        if mark == "fulleval":
            self._select_fulleval(sid, atom, elems[pos], before_a, after_a,
                                  before_c, after_c, args, conj)
        else:
            self._select_unfold(sid, atom, elems[pos], before_a, after_a,
                                before_c, after_c, args, conj)

    def _select_unfold(self, sid, atom, selected_c, before_a, after_a,
                       before_c, after_c, args, conj):
        freshc = FreshNames()
        for clause in self.program.clauses_for(atom.pred, len(atom.args)):
            res = abstract_unify_with_clause(atom, clause,
                                             FreshAVars.above(conj))
            if res is None:
                continue
            body_a, theta = res
            dst = self.graph.successor(sid, ("clause", clause.id))
            res = resolve(selected_c, clause, freshc)
            if res is None:
                raise SynthesisError(
                    f"clause {clause.id} matches abstractly but not "
                    f"concretely in state {sid}")
            body_c, mgu = res
            raw = theta.apply(before_a) + body_a + theta.apply(after_a)
            conc = mgu.apply(before_c) + body_c + mgu.apply(after_c)
            succ = self._successor(dst, raw, conc)
            self._emit(tuple(mgu.apply(a) for a in args), (), succ, sid)

    def _select_fulleval(self, sid, atom, selected_c, before_a, after_a,
                         before_c, after_c, args, conj):
        decl = self.policy.fulleval_match(atom)
        decl_idx = self.policy.fulleval.index(decl)
        fresh = FreshAVars.above(conj)
        for out_idx, out in enumerate(decl.outputs):
            theta = full_eval_output(atom, decl.pattern, out, fresh)
            if theta is None:
                continue
            for v, t in theta.pairs.items():
                if not isinstance(t, AVar):
                    raise SynthesisError(
                        "structured full-evaluation output "
                        f"{t!r} is not supported")
            dst = self.graph.successor(sid, ("fulleval", decl_idx, out_idx))
            raw = theta.apply(before_a + after_a)
            conc = before_c + after_c
            succ = self._successor(dst, raw, conc)
            call = Atom(decl.link[0], selected_c.args)
            if not decl.link_is_builtin:
                self._copy_support(decl.link)
            self._emit(args, (call,), succ, sid)

    def _state_split(self, sid, pos):
        conj = self.graph.states[sid]
        env, elems, args = self._template(conj)
        m = conj[pos]
        bidx = len(_plain_avars(conj)) \
            + sum(1 for c in conj[:pos] if isinstance(c, Multi))
        fresh = FreshAVars.above(conj)
        freshc = FreshNames()
        one, one_sub, (head, rest) = case_split(m, fresh)
        before_a, after_a = conj[:pos], conj[pos + 1:]
        before_c, after_c = elems[:pos], elems[pos + 1:]

        var = _variables(dict(env), freshc)
        one_c = tuple(concrete_template(a, var) for a in one)
        raw = one_sub.apply(before_a) + one + one_sub.apply(after_a)
        conc = before_c + one_c + after_c
        dst = self.graph.successor(sid, ("one",))
        succ = self._successor(dst, raw, conc)
        head_args = list(args)
        head_args[bidx] = mklist([_block_term(one_c)])
        self._emit(tuple(head_args), (), succ, sid)

        var = _variables(dict(env), freshc)
        head_c = tuple(concrete_template(a, var) for a in head)
        # The remaining multi stands for at least one more instance, so the
        # head can require a second block matching the pattern; spurious
        # single-block calls then fail at the head instead of descending.
        var = _variables({}, freshc)
        next_c = tuple(concrete_template(a, var) for a in rest.pattern)
        rest_b = Struct(CONS, (_block_term(next_c), Var("BRest")))
        raw = before_a + head + (rest,) + after_a
        conc = before_c + head_c + (rest_b,) + after_c
        dst = self.graph.successor(sid, ("many",))
        succ = self._successor(dst, raw, conc)
        head_args = list(args)
        head_args[bidx] = Struct(CONS, (_block_term(head_c), rest_b))
        self._emit(tuple(head_args), (), succ, sid)

    def _state_group(self, sid):
        conj = self.graph.states[sid]
        env, elems, args = self._template(conj)
        ev = self.graph.actions[sid][1]
        res = try_fold(conj)
        if res is None:
            raise SynthesisError(f"grouping replay failed in state {sid}")
        raw, ev2 = res
        if (ev2.start, ev2.plen, ev2.kind) != (ev.start, ev.plen, ev.kind):
            raise SynthesisError(f"grouping replay diverged in state {sid}")
        dst = self.graph.successor(sid, ("grouping", ev.kind))
        s, p = ev.start, ev.plen
        prefix = ()
        if ev.kind == "new":
            belem = mklist([_block_term(elems[s:s + p]),
                            _block_term(elems[s + p:s + 2 * p])])
            conc = elems[:s] + (belem,) + elems[s + 2 * p:]
        elif ev.kind == "left":
            belem = Struct(CONS, (_block_term(elems[s:s + p]), elems[s + p]))
            conc = elems[:s] + (belem,) + elems[s + p + 1:]
        elif ev.kind == "right":
            out = Var("BOut")
            prefix = (Atom("bb_append",
                           (elems[s], mklist([_block_term(
                               elems[s + 1:s + 1 + p])]), out)),)
            self.uses_blocks = True
            conc = elems[:s] + (out,) + elems[s + 1 + p:]
        elif ev.kind == "merge":
            out = Var("BOut")
            prefix = (Atom("bb_append", (elems[s], elems[s + 1], out)),)
            self.uses_blocks = True
            conc = elems[:s] + (out,) + elems[s + 2:]
        else:
            raise SynthesisError(f"unknown grouping kind {ev.kind!r}")
        succ = self._successor(dst, raw, tuple(conc))
        self._emit(args, prefix, succ, sid)

    def _copy_support(self, link):
        pred, arity = link
        if any(h.indicator == link for h, _ in self.clauses):
            return
        for clause in self.program.clauses_for(pred, arity):
            self.clauses.append((clause.head, clause.body))
            for a in clause.body:
                if a.indicator not in BUILTINS:
                    self._copy_support(a.indicator)


def synthesize(graph: StateGraph, program: Program,
               policy: SelectionPolicy) -> SynthesizedProgram:
    """Build the state-predicate program equivalent to the analyzed one."""
    return _Synthesizer(graph, program, policy).synthesize()


# --- comparing the two constructions -------------------------------------

def run_compiled(program: Program, goal, limits: Limits = None):
    """Run a goal on a compiled program, through its ``compute/1`` wrapper
    when the program is a residual interpreter specialization."""
    wrapped = program.clauses_for("compute", 1) \
        and not program.clauses_for(goal[0].pred, len(goal[0].args))
    if wrapped:
        goal = (Atom("compute", (mklist([atom_to_term(a) for a in goal]),)),)
    return solve(program, goal, limits=limits)


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
