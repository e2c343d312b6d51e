"""SLD resolution with the left-to-right selection rule and builtins.

Search is depth-first with textual clause order, driven by an explicit
stack so deep derivations do not exhaust host recursion, over one binding
store per run whose bindings are undone on backtracking.  The same search
loop runs the table-driven interpreter of ``metaint``.  The inference
counter adds one per successful clause resolution and one per builtin
invocation; failed unification attempts are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (NIL, Atom, Const, FreshNames, LogicError, Program,
                    Substitution, Var, list_parts, mklist, print_term,
                    resolve_all, substitute, take_back, term_to_atom,
                    term_vars, unify)

DEFAULT_MAX_INFERENCES = 10_000_000
DEFAULT_MAX_DEPTH = 100_000


class EngineError(LogicError):
    pass


class ModeError(EngineError):
    """A builtin was invoked with argument modes it cannot run."""


@dataclass
class Limits:
    max_inferences: int = DEFAULT_MAX_INFERENCES
    max_depth: int = DEFAULT_MAX_DEPTH
    max_answers: int | None = None   # stop after this many answers


@dataclass
class RunResult:
    answers: list            # of Substitution restricted to query vars
    inference_count: int
    exhausted: bool


def _int(t, atom):
    if isinstance(t, Const) and isinstance(t.name, int):
        return t.name
    raise ModeError(f"expected integer argument in {atom}")


def _bi_select(args, atom):
    x, lst, rest = args
    items, tail = list_parts(lst)
    if tail != Const(NIL):
        raise ModeError(f"select/3 needs a closed list: {atom}")
    out = []
    for i in range(len(items)):
        removed = items[i]
        remainder = mklist(items[:i] + items[i + 1:])
        # ``unify`` takes an atom's argument pairs last first: x = removed
        # is solved before rest = remainder
        s = unify(Atom("select", (rest, x)),
                  Atom("select", (remainder, removed)))
        if s is not None:
            out.append(s)
    return out


def _bi_leq(args, atom):
    a, b = (_int(t, atom) for t in args)
    return [Substitution()] if a <= b else []


def _arith3(args, atom, fwd, inv_left, inv_right):
    """Three-place arithmetic over the naturals: any one argument may be
    computed from the other two; a negative result fails instead of
    producing a value outside the domain."""
    a, b, c = args
    known = [isinstance(t, Const) and isinstance(t.name, int) for t in args]
    if known[0] and known[1]:
        r = fwd(a.name, b.name)
    elif known[0] and known[2]:
        r = inv_right(a.name, c.name)
    elif known[1] and known[2]:
        r = inv_left(b.name, c.name)
    else:
        r = None
    if r is not None:
        if r < 0:
            return []
        target = args[known.index(False)] if False in known else None
        if target is None:
            return [Substitution()] if fwd(a.name, b.name) == c.name else []
        s = unify(target, Const(r))
        return [s] if s is not None else []
    raise ModeError(f"need two integer arguments in {atom}")


def _bi_plus(args, atom):
    return _arith3(args, atom, lambda a, b: a + b,
                   lambda b, c: c - b, lambda a, c: c - a)


def _bi_minus(args, atom):
    return _arith3(args, atom, lambda a, b: a - b,
                   lambda b, c: b + c, lambda a, c: a - c)


def _bi_divides(args, atom):
    n, m = (_int(t, atom) for t in args)
    return [Substitution()] if n != 0 and m % n == 0 else []


def _bi_does_not_divide(args, atom):
    n, m = (_int(t, atom) for t in args)
    return [Substitution()] if n == 0 or m % n != 0 else []


def _bi_noattack(args, atom):
    q1, q2, d = (_int(t, atom) for t in args)
    return [Substitution()] if q1 != q2 and abs(q1 - q2) != d else []


class BuiltinTable(dict):
    """predicate/arity -> procedure yielding output substitutions.  A
    ``dict``, so that the membership test every step makes runs in C."""

    def __init__(self):
        super().__init__({
            ("select", 3): _bi_select,
            ("=<", 2): _bi_leq,
            ("plus", 3): _bi_plus,
            ("minus", 3): _bi_minus,
            ("divides", 2): _bi_divides,
            ("does_not_divide", 2): _bi_does_not_divide,
            ("noattack", 3): _bi_noattack,
        })

    def evaluate(self, atom: Atom) -> list:
        proc = self.get(atom.indicator)
        if proc is None:
            raise EngineError(f"unknown builtin {atom.pred}/{len(atom.args)}")
        return proc(atom.args, atom)


# Builtins are executed, never resolved against clauses.
BUILTINS = BuiltinTable()


def support_clauses(program: Program, preds, defined=()) -> list:
    """The clauses of ``program`` defining the predicates ``preds`` (name,
    arity) and, transitively, every predicate their bodies call, except
    builtins and the predicates in ``defined``: each predicate's clauses
    in textual order, predicates in the order they are first reached."""
    seen = set(defined)
    todo = list(preds)
    out = []
    i = 0
    while i < len(todo):        # callees are appended, then visited
        pred = todo[i]
        i += 1
        if pred in seen or pred in BUILTINS:
            continue
        seen.add(pred)
        clauses = program.clauses_for(*pred)
        out.extend(clauses)
        todo.extend(a.indicator for c in clauses for a in c.body)
    return out


def is_known(program: Program, atom: Atom) -> bool:
    """Whether a call to ``atom`` can run on ``program``: it is ``call/1``,
    a builtin, or a predicate with clauses."""
    return (atom.indicator == ("call", 1) or atom.indicator in BUILTINS
            or bool(program.clauses_for(atom.pred, len(atom.args))))


def check_known(program: Program, goal):
    """Reject a goal with an atom that cannot run on ``program``."""
    for a in goal:
        if not is_known(program, a):
            raise EngineError(f"unknown predicate {a.pred}/{len(a.args)}")


def answer_set(result: RunResult) -> list:
    """The answers as a sorted list of hashable keys: two runs have the
    same answer multiset exactly when their answer sets are equal."""
    return sorted(tuple(sorted((v.name, print_term(t))
                               for v, t in sub.bindings.items()))
                  for sub in result.answers)


def depth_first(machine, goal, state=None) -> RunResult:
    """Enumerate the answers of ``goal`` depth first under ``machine``.

    The loop owns the goal stack, the answers, the limits and
    backtracking.  The machine supplies ``limits``, a running
    ``inferences`` count, the run's binding ``store`` (a dict whose
    insertion order is its trail, see ``terms.resolve_in``) and
    ``step(goal, state)``, which expands a nonempty goal into ``(deeper,
    successors)``: successors are ``(goal, state, bindings)`` in the order
    they are to be tried, ``bindings`` being the (variable, term) pairs
    the step made for that successor and took back off the store, and
    ``deeper`` (0 or 1) is what the step adds to the derivation depth.

    Each stack entry keeps the store's size when its parent was expanded.
    Popping it undoes the store back to that mark and installs its own
    bindings, so the store holds exactly the bindings of the entry's
    derivation.  Goals are never instantiated; the query variables are
    resolved through the store only when an answer is found.

    The machine's ``fresh`` names every variable a step brings in.  It is
    first raised past the query's variables, so a fresh name is never a
    query variable's (see ``terms.resolve_in``).
    """
    limits = machine.limits
    store = machine.store
    qvars = term_vars(goal)
    machine.fresh.skip_past(qvars)
    answers = []
    exhausted = True
    stack = [(tuple(goal), state, 0, 0, ())]
    while stack:
        if machine.inferences > limits.max_inferences:
            exhausted = False
            break
        goal_, state, depth, mark, bindings = stack.pop()
        if len(store) > mark:
            take_back(store, mark)
        store.update(bindings)
        if not goal_:
            answer = {}
            for v in qvars:
                t = substitute(v, store)
                if t != v:
                    answer[v] = t
            answers.append(Substitution(answer))
            if limits.max_answers is not None and \
                    len(answers) >= limits.max_answers:
                exhausted = not stack
                break
            continue
        if depth > limits.max_depth:
            exhausted = False
            continue
        deeper, successors = machine.step(goal_, state)
        mark = len(store)
        depth += deeper
        for newgoal, newstate, newbindings in reversed(successors):
            stack.append((newgoal, newstate, depth, mark, newbindings))
    return RunResult(answers, machine.inferences, exhausted)


class Solver:
    """One solve call; single-threaded, owns its fresh-name counter and
    its binding store."""

    def __init__(self, program: Program, limits: Limits = None,
                 occurs_check: bool = True):
        self.program = program
        self.limits = limits or Limits()
        self.occurs_check = occurs_check
        self.fresh = FreshNames()
        self.store = {}
        self.inferences = 0

    def run(self, goal) -> RunResult:
        """Enumerate all answers of ``goal`` left to right."""
        check_known(self.program, goal)
        return depth_first(self, goal)

    def step(self, goal, state):
        """Resolve the first atom: a builtin costs no depth, a clause
        resolution one level.  ``call(G)`` is this step on ``G`` itself,
        within the same search, fresh names and limits.  Every clause
        that the first argument lets match is tried when the step is
        taken (``terms.resolve_all``), so a truncated run counts what an
        eager search counts; a builtin gets its atom resolved through the
        store, and its outputs become its successors' bindings."""
        store = self.store
        atom, rest = goal[0], goal[1:]
        while atom.pred == "call" and len(atom.args) == 1:
            t = atom.args[0]
            while isinstance(t, Var) and t in store:
                t = store[t]
            inner = term_to_atom(t)
            if inner is None:
                raise EngineError(
                    f"call/1 on non-callable {substitute(t, store)}")
            atom = inner
        if atom.indicator in BUILTINS:
            self.inferences += 1
            return 0, [(rest, state, out.bindings) for out in
                       BUILTINS.evaluate(substitute(atom, store))]
        switch = self.program.switch_for(atom.pred, len(atom.args))
        if switch is None:
            raise EngineError(
                f"unknown predicate {atom.pred}/{len(atom.args)}")
        alternatives = resolve_all(atom, switch, rest, state, self.fresh,
                                   store, self.occurs_check)
        self.inferences += len(alternatives)
        return 1, alternatives


def solve(program: Program, goal, limits: Limits = None,
          occurs_check: bool = True) -> RunResult:
    return Solver(program, limits, occurs_check).run(goal)
