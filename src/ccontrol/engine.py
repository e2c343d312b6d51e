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

from .terms import (CONS, NIL, Atom, Const, FreshNames, LogicError,
                    Program, Struct, Substitution, Var, _deref, _unify_pairs,
                    mklist, print_term, replace_vars, resolve_all,
                    substitute, take_back, term_to_atom, term_vars)

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
    query_vars: tuple        # the query's variables, as answers name them


def _value(t, store):
    """``t`` dereferenced through the store."""
    return _deref(t, store) if isinstance(t, Var) else t


def _int(t, atom, store):
    t = _value(t, store)
    if isinstance(t, Const) and isinstance(t.name, int):
        return t.name
    raise ModeError(f"expected integer argument in {substitute(atom, store)}")


def _bi_select(args, atom, store):
    """One output per element of the closed list: ``x`` unified with the
    element, then ``rest`` with the cells in front of it followed by the
    list's own tail after it."""
    x, lst, rest = args
    cells = []
    t = _value(lst, store)
    while t.__class__ is Struct and t.functor == CONS and len(t.args) == 2:
        cells.append(t)
        t = _value(t.args[1], store)
    if t != Const(NIL):
        raise ModeError(
            f"select/3 needs a closed list: {substitute(atom, store)}")
    out = []
    mark = len(store)
    for i, cell in enumerate(cells):
        remainder = mklist([c.args[0] for c in cells[:i]], cell.args[1])
        # pairs are taken last first: x = element is solved before
        # rest = remainder, each binding a variable of its left side first
        if _unify_pairs([(rest, remainder), (x, cell.args[0])], store, True):
            out.append(take_back(store, mark))
        elif len(store) > mark:
            take_back(store, mark)
    return out


def _bi_leq(args, atom, store):
    a, b = (_int(t, atom, store) for t in args)
    return [()] if a <= b else []


def _arith3(args, atom, store, fwd, inv_left, inv_right):
    """Three-place arithmetic over the naturals: any one argument may be
    computed from the other two; a negative result fails instead of
    producing a value outside the domain."""
    a, b, c = vals = [_value(t, store) for t in args]
    known = [isinstance(t, Const) and isinstance(t.name, int) for t in vals]
    if known[0] and known[1]:
        r = fwd(a.name, b.name)
    elif known[0] and known[2]:
        r = inv_right(a.name, c.name)
    elif known[1] and known[2]:
        r = inv_left(b.name, c.name)
    else:
        raise ModeError(
            f"need two integer arguments in {substitute(atom, store)}")
    if r < 0:
        return []
    if all(known):
        return [()] if fwd(a.name, b.name) == c.name else []
    target = vals[known.index(False)]
    return [((target, Const(r)),)] if isinstance(target, Var) else []


def _bi_plus(args, atom, store):
    return _arith3(args, atom, store, lambda a, b: a + b,
                   lambda b, c: c - b, lambda a, c: c - a)


def _bi_minus(args, atom, store):
    return _arith3(args, atom, store, lambda a, b: a - b,
                   lambda b, c: b + c, lambda a, c: a - c)


def _bi_divides(args, atom, store):
    n, m = (_int(t, atom, store) for t in args)
    return [()] if n != 0 and m % n == 0 else []


def _bi_does_not_divide(args, atom, store):
    n, m = (_int(t, atom, store) for t in args)
    return [()] if n == 0 or m % n != 0 else []


def _bi_noattack(args, atom, store):
    q1, q2, d = (_int(t, atom, store) for t in args)
    return [()] if q1 != q2 and abs(q1 - q2) != d else []


class BuiltinTable(dict):
    """predicate/arity -> procedure.  A ``dict``, so that the membership
    test every step makes runs in C."""

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

    def evaluate(self, atom: Atom, store: dict) -> list:
        """The outputs of the builtin call ``atom``, whose arguments are
        read through the binding store: for each, in order, the
        (variable, term) pairs it binds, last first, as
        ``terms.take_back`` gives them.  A test that succeeds binds
        nothing and gives one empty output.  The store is left as it was
        found; a message shows the atom resolved through it."""
        proc = self.get(atom.indicator)
        if proc is None:
            raise EngineError(f"unknown builtin {atom.pred}/{len(atom.args)}")
        return proc(atom.args, atom, store)


# Builtins are executed, never resolved against clauses.
BUILTINS = BuiltinTable()


def support_clauses(program: Program, preds, defined=()) -> list:
    """The clauses of ``program`` defining the predicates ``preds`` (name,
    arity) and, transitively, every predicate their bodies call, except
    builtins and the predicates in ``defined``: each predicate's clauses
    in textual order, predicates in the order they are first reached.
    A body goal ``call(G)`` calls the predicate of ``G`` when ``G`` is a
    callable term; when it is a variable, its predicate is known only at
    run time, and none is followed."""
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
        todo.extend(_called(a).indicator for c in clauses for a in c.body)
    return out


def _called(atom: Atom) -> Atom:
    """The goal ``atom`` runs: the atom of ``G`` for ``call(G)`` with a
    callable ``G``, through any number of ``call/1`` wrappers, and
    ``atom`` itself otherwise."""
    while atom.indicator == ("call", 1):
        inner = term_to_atom(atom.args[0])
        if inner is None:
            break
        atom = inner
    return atom


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
    """The answers as a sorted list of hashable keys: two runs of a query
    have the same answer multiset, up to a renaming of the variables they
    brought in, exactly when their keys are equal.  Those are renamed in
    first-occurrence order over an answer's bindings sorted by name,
    which keeps its sharing, to names raised past the query's variables;
    the query's variables keep their names."""
    keys = []
    for sub in result.answers:
        names = sorted(sub.bindings)
        fresh, renamed = FreshNames("_"), {v: v for v in result.query_vars}
        fresh.skip_past(result.query_vars)
        terms = replace_vars(
            tuple(sub.bindings[v] for v in names),
            lambda v: renamed[v] if v in renamed
            else renamed.setdefault(v, fresh.var()))
        keys.append(tuple((v.name, print_term(t))
                          for v, t in zip(names, terms)))
    return sorted(keys)


def depth_first(machine, goal, state=None) -> RunResult:
    """Enumerate the answers of ``goal`` depth first under ``machine``.

    The loop owns the goal stack, the answers, the limits and
    backtracking.  The machine supplies ``limits``, a running
    ``inferences`` count, the run's binding ``store`` (a dict whose
    insertion order is its trail, see ``terms.resolve_all``) and
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
    query variable's (see ``terms.resolve_all``).
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
    return RunResult(answers, machine.inferences, exhausted, tuple(qvars))


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
        eager search counts; a builtin reads its arguments through the
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
            if not self.occurs_check:
                # a store bound without the occurs check may hold a cyclic
                # term, on which ``substitute`` raises RecursionError
                atom = substitute(atom, store)
            return 0, [(rest, state, out) for out in
                       BUILTINS.evaluate(atom, store)]
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
