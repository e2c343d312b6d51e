"""Offline partial deduction.

A source program is specialized with respect to a partially known goal.
Control is fixed before specialization by two kinds of data: clause-body
*annotations* saying what happens to each call (unfold it, execute it,
residualize it, or memoize it) and *filters* describing which parts of a
memoized call are known at specialization time.  Specialization is then a
deterministic memo-table worklist: every memoized call pattern becomes a
residual predicate whose clauses are the resultants of unfolding it and
whose arguments are only the parts of the call that the filter leaves
unknown (filter propagation).  Each pattern is unfolded by the engine's
search loop, ``engine.depth_first``, over one binding store, so no goal
is copied by an unfolding step.

Applied to the table-driven interpreter of :mod:`ccontrol.metaint` with
its goal list as the partially known input, this removes the entire
interpretation layer and leaves a direct program per control state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .engine import (BUILTINS, Limits, ModeError, depth_first, is_known,
                     support_clauses)
from .metaint import encode_as_logic_program
from .terms import (Atom, Const, FreshNames, LogicError, ParseError,
                    Program, Struct, Var, _Lexer, _rebuild, list_parts,
                    match_template, mklist, naming, print_atom, program_of,
                    resolve_all, substitute, term_to_atom, term_vars, NIL)

DEFAULT_BUDGET = 10_000

UNFOLD = "unfold"        # resolve against program clauses now
CALL = "call"            # execute fully now (builtins)
MEMO = "memo"            # generalize, residualize, specialize separately
RESCALL = "rescall"      # keep the call as-is in the residual clause
ANNOTATIONS = (UNFOLD, CALL, MEMO, RESCALL)


class PDError(LogicError):
    pass


# --- binding types -------------------------------------------------------

class BindingType:
    """How much of an argument is known at specialization time.

    ``generalize`` maps a term that fits the type to the most general
    term of the type that it instantiates, introducing a fresh variable
    for each unknown part and appending that part to ``parts``.  So a
    generalization is linear, its known parts are ground, and ``parts``
    lists the unknown parts in the order of its variables.  A term that
    does not fit gives None; ``fresh`` and ``parts`` may then hold what
    the failed walk drew, which ``OneOf`` undoes before its next try.
    """

    def generalize(self, term, fresh: FreshNames, parts: list):
        raise NotImplementedError


def _generalize_each(types, terms, fresh, parts) -> list:
    """The generalizations of ``terms`` by ``types``, pairwise, up to the
    first term that does not fit."""
    out = []
    for t, x in zip(types, terms):
        g = t.generalize(x, fresh, parts)
        if g is None:
            break
        out.append(g)
    return out


class Static(BindingType):
    """Fully known: kept verbatim; must be ground."""

    def generalize(self, term, fresh, parts):
        return None if term_vars(term) else term

    def __repr__(self):
        return "static"


class Dynamic(BindingType):
    """Unknown: replaced by a fresh variable."""

    def generalize(self, term, fresh, parts):
        parts.append(term)
        return fresh.var()

    def __repr__(self):
        return "dynamic"


class Nonvar(BindingType):
    """Top functor known, arguments unknown."""

    def generalize(self, term, fresh, parts):
        if isinstance(term, Var):
            return None
        if isinstance(term, Const):
            return term
        parts.extend(term.args)
        return Struct(term.functor, tuple(fresh.var() for _ in term.args))

    def __repr__(self):
        return "nonvar"


@dataclass(frozen=True)
class ListOf(BindingType):
    """A closed list whose elements each fit the element type."""
    elem: BindingType

    def generalize(self, term, fresh, parts):
        items, tail = list_parts(term)
        if tail != Const(NIL):
            return None
        gs = _generalize_each(repeat(self.elem), items, fresh, parts)
        return mklist(gs) if len(gs) == len(items) else None

    def __repr__(self):
        return f"list({self.elem!r})"


@dataclass(frozen=True)
class StructOf(BindingType):
    """A fixed functor with per-argument types."""
    functor: str
    args: tuple              # of BindingType

    def generalize(self, term, fresh, parts):
        if isinstance(term, Const):
            fits = term.name == self.functor and not self.args
            return term if fits else None
        if not (isinstance(term, Struct) and term.functor == self.functor
                and len(term.args) == len(self.args)):
            return None
        args = _generalize_each(self.args, term.args, fresh, parts)
        if len(args) < len(self.args):
            return None
        return Struct(self.functor, tuple(args))

    def __repr__(self):
        return f"struct({self.functor},{list(self.args)!r})"


@dataclass(frozen=True)
class OneOf(BindingType):
    """Alternatives tried in order; the first that fits the term wins,
    and a failed try leaves no variable drawn and no part appended."""
    alternatives: tuple

    def generalize(self, term, fresh, parts):
        n, k = fresh.n, len(parts)
        for a in self.alternatives:
            g = a.generalize(term, fresh, parts)
            if g is not None:
                return g
            fresh.n = n
            del parts[k:]
        return None

    def __repr__(self):
        return " ; ".join(repr(a) for a in self.alternatives)


class StateGoals(BindingType):
    """The goal list of ``mi/2``, known as far as the pattern that the
    call's static second argument keys in the patterns that
    ``specialize_encoded`` passes, which ``_Specializer`` matches against
    the goal list (``_state_request``)."""

    def __repr__(self):
        return "state"


STATE = StateGoals()
_STATE_ONLY = "the state binding type is declared only as mi(state, static)"


def generalize_call(atom: Atom, types, fresh: FreshNames,
                    parts: list) -> Atom:
    """The call pattern obtained by generalizing each argument; the
    unknown parts of ``atom`` are appended to ``parts``.  An argument
    that does not fit its type is an error naming the filter."""
    args = _generalize_each(types, atom.args, fresh, parts)
    if len(args) < len(atom.args):
        raise PDError(
            f"argument {len(args) + 1} of {print_atom(atom)} does not fit "
            f"{types[len(args)]!r} in the filter "
            f"{atom.pred}({','.join(map(repr, types))})")
    return Atom(atom.pred, tuple(args))


def _variant_key(gatom: Atom) -> tuple:
    """A key on which two generalized calls agree exactly when they are
    variants: the call walked left to right on an explicit stack into a
    flat tuple, with a ``(name, arity)`` marker for the atom and each
    structure, each constant as it is and None for each variable.  A
    generalization is linear and its known parts are ground, so no
    variable needs a name of its own."""
    out = [(gatom.pred, len(gatom.args))]
    stack = list(gatom.args[::-1])
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Struct:
            out.append((t.functor, len(t.args)))
            stack += t.args[::-1]
        else:
            out.append(t if cls is Const else None)
    return tuple(out)


# --- filter and annotation declarations ----------------------------------

@dataclass
class Filters:
    """Per-predicate argument binding types for memoized calls."""
    table: dict = field(default_factory=dict)   # (pred, arity) -> types

    def declare(self, pred, types):
        self.table[(pred, len(types))] = tuple(types)

    def for_atom(self, atom: Atom):
        types = self.table.get(atom.indicator)
        if types is None:
            raise PDError(
                f"no filter declared for memoized call {print_atom(atom)}")
        return types


@dataclass
class Annotations:
    """Per-predicate call treatment.  An undeclared builtin is executed
    (``call``), an undeclared ``call/1`` kept (``rescall``), since its goal
    is not known until run time, and any other undeclared predicate
    unfolded."""
    table: dict = field(default_factory=dict)   # (pred, arity) -> annotation

    def of(self, atom: Atom) -> str:
        ann = self.table.get(atom.indicator)
        if ann is not None:
            return ann
        if atom.indicator in BUILTINS:
            return CALL
        return RESCALL if atom.indicator == ("call", 1) else UNFOLD

    def declare(self, pred, arity, annotation):
        self.table[(pred, arity)] = annotation


def _parse_binding_type(lx):
    alts = [_parse_binding_primary(lx)]
    while lx.peek()[0] == ";":
        lx.next()
        alts.append(_parse_binding_primary(lx))
    if len(alts) == 1:
        return alts[0]
    return OneOf(tuple(alts))


def _parse_binding_primary(lx):
    kind, val, loc = lx.next()
    if kind != "name":
        raise ParseError(f"expected a binding type, got {val!r}", *loc)
    if val == "state":
        raise ParseError(_STATE_ONLY, *loc)
    if val == "static":
        return Static()
    if val == "dynamic":
        return Dynamic()
    if val == "nonvar":
        return Nonvar()
    if val == "type":
        lx.expect("(")
        inner = _parse_binding_type(lx)
        lx.expect(")")
        return inner
    if val == "list":
        lx.expect("(")
        inner = _parse_binding_type(lx)
        lx.expect(")")
        return ListOf(inner)
    if val == "struct":
        lx.expect("(")
        fk, functor, floc = lx.next()
        if fk not in ("name", "."):
            raise ParseError(f"expected a functor name, got {functor!r}",
                             *floc)
        lx.expect(",")
        lx.expect("[")
        args = []
        if lx.peek()[0] != "]":
            args.append(_parse_binding_type(lx))
            while lx.peek()[0] == ",":
                lx.next()
                args.append(_parse_binding_type(lx))
        lx.expect("]")
        lx.expect(")")
        return StructOf(functor, tuple(args))
    raise ParseError(f"unknown binding type {val!r}", *loc)


def _check_first_declaration(table, pred, arity, loc):
    if (pred, arity) in table:
        raise ParseError(f"repeated declaration for {pred}/{arity}", *loc)


def _parse_argument_type(lx):
    """The binding type of one argument: ``state`` stands alone."""
    if lx.peek()[:2] == ("name", "state"):
        lx.next()
        return STATE
    return _parse_binding_type(lx)


def parse_filters(text: str) -> Filters:
    """Filter declarations, one ``pred(type, ...).`` per clause.  The
    ``state`` type is declared only as ``mi(state, static)``."""
    lx = _Lexer(text)
    filters = Filters()
    while lx.peek()[0] != "eof":
        kind, pred, loc = lx.next()
        if kind != "name":
            raise ParseError(f"expected a predicate name, got {pred!r}", *loc)
        lx.expect("(")
        types = [_parse_argument_type(lx)]
        while lx.peek()[0] == ",":
            lx.next()
            types.append(_parse_argument_type(lx))
        lx.expect(")")
        lx.expect(".")
        if STATE in types and not (pred == "mi" and len(types) == 2 and
                                   types[0] is STATE and
                                   isinstance(types[1], Static)):
            raise ParseError(_STATE_ONLY, *loc)
        _check_first_declaration(filters.table, pred, len(types), loc)
        filters.declare(pred, types)
    return filters


def parse_annotations(text: str) -> Annotations:
    """Annotation declarations, one ``ann(kind, pred/arity).`` per clause."""
    lx = _Lexer(text)
    ann = Annotations()
    while lx.peek()[0] != "eof":
        kind, val, loc = lx.next()
        if kind != "name" or val != "ann":
            raise ParseError(f"expected 'ann', got {val!r}", *loc)
        lx.expect("(")
        _, treatment, tloc = lx.expect("name")
        if treatment not in ANNOTATIONS:
            raise ParseError(f"unknown annotation {treatment!r}", *tloc)
        lx.expect(",")
        nkind, pred, nloc = lx.next()
        if nkind not in ("name", "=<"):
            raise ParseError(f"expected a predicate name, got {pred!r}",
                             *nloc)
        lx.expect("/")
        _, arity, _ = lx.expect("int")
        lx.expect(")")
        lx.expect(".")
        _check_first_declaration(ann.table, pred, arity, nloc)
        ann.declare(pred, arity, treatment)
    return ann


# --- specialization ------------------------------------------------------

@dataclass
class MemoEntry:
    """A residual predicate: its arguments are the variables of ``call``
    (filter propagation), so the known parts of the call are compiled
    into its name and clauses.  They come in first-occurrence order, or,
    for a pattern of the state filter, in the order its table gives."""
    name: str                # residual predicate name
    call: Atom               # the generalized call pattern
    params: tuple            # the variables of ``call``

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class ResidualProgram:
    program: Program
    entry_call: Atom         # residual call equivalent to the request
    memo: tuple              # of MemoEntry
    unfold_steps: int


class _Specializer:
    """Partial deduction as a machine for ``engine.depth_first``, next to
    ``Solver`` and ``MetaInterpreter``, with one binding store and one
    ``fresh`` for the whole specialization.

    A memoized pattern is unfolded as the goal ``(pattern, head)``, the
    residual head over the pattern's variables kept last; the residual
    body travels in the search state.  Goals, heads and bodies are not
    instantiated: the head and body are resolved through the store only
    when the head is all that is left of the goal.
    """

    def __init__(self, program, annotations, filters, budget, patterns=None):
        self.program = program
        self.annotations = annotations
        self.filters = filters
        self.budget = budget
        self.patterns = patterns or {}    # state id -> (pattern, params)
        self.fresh = FreshNames()
        self.store = {}
        # the search's limits never stop a specialization: its steps add
        # no depth and no inferences, and ``_tick`` enforces the budget
        self.limits = Limits()
        self.inferences = 0
        self.memo = []                    # of MemoEntry
        self.memo_index = {}              # variant key -> MemoEntry
        self.state_memo = {}              # state id -> MemoEntry
        self.plans = {}                   # indicator -> (annotation, switch)
        self.worklist = []
        self.clauses = []
        self.steps = 0
        # a residual predicate takes no name of the program's own
        self.names = {pred for pred, _ in program.predicates}

    def request(self, atom: Atom) -> Atom:
        """Memoize a call, read through the store; returns the residual
        call replacing it.  Under the state filter, the bindings that the
        state's pattern makes of the call are left on the store."""
        types = self.filters.for_atom(atom)
        if types and types[0] is STATE:
            return self._state_request(atom)
        parts = []
        gatom = generalize_call(substitute(atom, self.store), types,
                                self.fresh, parts)
        key = _variant_key(gatom)
        entry = self.memo_index.get(key)
        if entry is None:
            # the generalization is linear: its variables are the parts
            entry = MemoEntry(self._name_for(gatom), gatom,
                              tuple(term_vars(gatom)))
            self.memo.append(entry)
            self.memo_index[key] = entry
            self.worklist.append(entry)
        return Atom(entry.name, tuple(parts))

    def _state_request(self, atom: Atom) -> Atom:
        """``mi(Goals, S)`` memoized at S's goal-list pattern, made a memo
        entry at its first request: the residual call passes what
        ``terms.match_template`` makes of ``Goals``, its bindings kept."""
        store = self.store
        sid = atom.args[1]
        while sid.__class__ is Var and sid in store:
            sid = store[sid]
        key = sid.name if sid.__class__ is Const else None
        entry = self.state_memo.get(key)
        if entry is None:
            if key not in self.patterns:
                raise PDError(f"{print_atom(substitute(atom, store))} "
                              "names no state of the graph")
            pattern, params = self.patterns[key]
            gatom = Atom(atom.pred, (pattern, sid))
            entry = MemoEntry(self._name_for(gatom), gatom, params)
            self.memo.append(entry)
            self.worklist.append(entry)
            self.state_memo[key] = entry
        args = match_template(entry.call.args[0], entry.params, atom.args[0],
                              store, lambda _: self.fresh.var())
        if args is None:
            raise PDError(f"the call {print_atom(substitute(atom, store))} "
                          f"is not an instance of {print_atom(entry.call)}")
        return Atom(entry.name, args)

    def _name_for(self, gatom: Atom) -> str:
        last = gatom.args[-1] if gatom.args else None
        if isinstance(last, Const) and isinstance(last.name, int):
            base = f"{gatom.pred}__s{last.name}"
        else:
            base = f"{gatom.pred}__g{len(self.memo)}"
        name = base
        k = 1
        while name in self.names:
            name = f"{base}__{k}"
            k += 1
        self.names.add(name)
        return name

    def _tick(self, steps=1):
        self.steps += steps
        if self.steps > self.budget:
            raise PDError(f"unfold budget exceeded ({self.budget} steps)")

    def run(self):
        while self.worklist:
            entry = self.worklist.pop(0)
            self._define(entry)
        self._copy_support()

    def _define(self, entry: MemoEntry):
        """Unfold the memoized pattern into residual clauses."""
        gatom = entry.call
        if not self.program.clauses_for(gatom.pred, len(gatom.args)):
            raise PDError(
                f"memoized predicate {gatom.pred}/{len(gatom.args)} has no "
                "clauses")
        depth_first(self, (gatom, Atom(entry.name, entry.params)), None, ())

    def step(self, goal, resid):
        """Treat the first atom as its annotation says.  ``resid`` is the
        residual body so far, and None at the memoized pattern itself,
        which is always unfolded.  A resultant is read through the store
        and its variables named ``_V1, _V2, ...`` in first-occurrence
        order, head then body, in the same walk, so its text does not
        depend on how many names the specialization has drawn."""
        store = self.store
        atom, rest = goal[0], goal[1:]
        if not rest:                     # the head: a resultant is done
            names = FreshNames()
            self.clauses.append(_rebuild((atom, resid), store,
                                         naming({}, lambda _: names.var())))
            return 0, []
        key = atom.indicator
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = (self.annotations.of(atom),
                                      self.program.switch_for(key))
        ann, switch = plan
        if resid is None or ann == UNFOLD:
            return 0, self._unfold(atom, switch, rest, resid or ())
        if ann == MEMO:
            # the bindings ``request`` makes stay on the store for the
            # sole successor
            return 0, [(rest, resid + (self.request(atom),), ())]
        if ann == RESCALL:
            call = self._unwrap(substitute(atom, store))
            return 0, [(rest, resid + (call,), ())]
        if atom.indicator not in BUILTINS:
            raise PDError("call annotation on non-builtin "
                          f"{print_atom(substitute(atom, store))}")
        self._tick()
        try:
            outs = BUILTINS.evaluate(atom, store)
        except ModeError as e:
            raise PDError(
                f"builtin {print_atom(substitute(atom, store))} is "
                "insufficiently instantiated at specialization time: "
                f"{e}") from None
        return 0, [(rest, resid, out) for out in outs]

    def _unfold(self, atom, switch, rest, resid) -> list:
        if switch is None:
            raise PDError(f"cannot unfold unknown predicate "
                          f"{atom.pred}/{len(atom.args)}")
        succ = resolve_all(atom, switch, rest, resid, self.fresh, self.store)
        self._tick(len(succ))
        return succ

    @staticmethod
    def _unwrap(atom: Atom) -> Atom:
        """A residualized ``call/1`` whose argument is already a structure
        becomes the argument itself."""
        if atom.pred == "call" and len(atom.args) == 1:
            inner = term_to_atom(atom.args[0])
            if inner is not None:
                return inner
        return atom

    def _copy_support(self):
        """Copy rescalled source predicates the residual clauses still use,
        and the source predicates those copies use in turn."""
        calls = [a.indicator for _, body in self.clauses for a in body]
        defined = {(e.name, e.arity) for e in self.memo}
        self.clauses.extend((c.head, c.body) for c in
                            support_clauses(self.program, calls, defined))


def specialize(program: Program, entry: Atom, annotations: Annotations,
               filters: Filters, budget: int = DEFAULT_BUDGET,
               wrapper: Atom = None, patterns=None) -> ResidualProgram:
    """Specialize ``program`` with respect to the partially known ``entry``.

    The entry call is memoized first; specialization proceeds until the
    memo table is closed, so every residual call is defined.  A
    ``wrapper`` head, when given, becomes the residual program's last
    clause, with the residual entry call as its body, so that the program
    is built once.  ``patterns`` maps each state id to a goal-list
    pattern and its parameters, for the ``state`` binding type.
    """
    sp = _Specializer(program, annotations, filters, budget, patterns)
    entry_call = sp.request(entry)
    if sp.store:        # what the entry state's pattern fixes
        entry_call, wrapper = substitute((entry_call, wrapper), sp.store)
        sp.store.clear()
    sp.run()
    if wrapper is not None:
        sp.clauses.append((wrapper, (entry_call,)))
    return ResidualProgram(program_of(sp.clauses), entry_call, tuple(sp.memo),
                           sp.steps)


def check_closedness(residual: ResidualProgram):
    """Every residual body atom must be defined, builtin, or callable.

    Returns (ok, offending indicators).
    """
    missing = []
    for clause in residual.program.clauses:
        for a in clause.body:
            if not is_known(residual.program, a) and \
                    a.indicator not in missing:
                missing.append(a.indicator)
    return not missing, missing


# --- the interpreter as the specialized program --------------------------

def interpreter_annotations() -> Annotations:
    """Treatment of the table-driven interpreter's own predicates: the
    interpretation layer is unfolded away, the interpreted steps stay."""
    ann = Annotations()
    ann.declare("mi", 2, MEMO)
    ann.declare("bb_append", 3, RESCALL)
    return ann


def interpreter_filters() -> Filters:
    """Binding types of the interpreter's goal list and state: the state
    is fully known, and the goal list as far as the state's pattern
    (``mi(state, static)``).  A cmulti element is kept whole, as
    ``cmulti(_)``: the state already fixes the shape of its blocks, and
    the residual splits the block list in its clause heads."""
    filters = Filters()
    filters.declare("mi", (STATE, Static()))
    return filters


def specialize_encoded(tables, variant: str = None,
                       budget: int = DEFAULT_BUDGET,
                       annotations: Annotations = None,
                       filters: Filters = None) -> ResidualProgram:
    """First projection: specialize the encoded interpreter with respect
    to its control tables and the entry goal's shape: the encoded program
    the tables carry, not encoded again.  ``variant`` is checked as
    ``encode_as_logic_program`` checks it.

    The result contains a ``compute/1`` wrapper, so it is run exactly like
    the encoded program it replaces: ``compute([p(X1,...,Xn)])`` calls the
    entry state's residual predicate on the entry atom's arguments.
    """
    encoded = encode_as_logic_program(tables, variant)
    pred, arity = tables.policy.entry.indicator
    fresh = FreshNames("X")
    skeleton = Struct(pred, tuple(fresh.var() for _ in range(arity)))
    entry = Atom("mi", (mklist([skeleton]), Const(tables.entry)))
    annotations = annotations or interpreter_annotations()
    filters = filters or interpreter_filters()
    return specialize(encoded, entry, annotations, filters, budget,
                      Atom("compute", (mklist([skeleton]),)),
                      tables.goal_patterns)
