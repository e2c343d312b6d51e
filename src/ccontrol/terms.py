"""Concrete terms, atoms, clauses, substitutions and unification.

The object language is a pure Prolog subset: no cut, no negation, no
operators apart from infix ``=<``.  All values are immutable; the only
mutable facilities are the fresh-name counter used for renaming apart and
the binding store a search extends and undoes (see ``resolve_in``), the
one resolution step that the engine, the table-driven interpreter,
partial deduction and direct synthesis share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Union

NIL = "[]"
CONS = "."


class LogicError(Exception):
    """Base error for this package."""


class ParseError(LogicError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class Var(str):
    """A variable: its name, as a ``str`` subclass so that hashing, the
    hot path of every store lookup, runs in C.  It equals only a ``Var``
    of the same name, never a plain string, a ``Const`` or an instance of
    a subclass (the abstract variables of ``absdom`` are such)."""

    __slots__ = ()
    __hash__ = str.__hash__
    __repr__ = str.__str__
    name = property(str.__str__)

    def __eq__(self, other):
        return other.__class__ is Var and str.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not Var or str.__ne__(self, other)


@dataclass(frozen=True)
class Const:
    name: Union[str, int]

    def __repr__(self):
        return str(self.name)


@dataclass(frozen=True)
class Struct:
    functor: str
    args: tuple

    def __post_init__(self):
        assert self.args, "zero-arity symbols are Consts"

    def __repr__(self):
        return print_term(self)


Term = Union[Var, Const, Struct]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()

    @property
    def indicator(self) -> tuple:
        return (self.pred, len(self.args))

    def __repr__(self):
        return print_atom(self)


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple  # of Atom
    id: int

    @cached_property
    def variables(self) -> dict:
        """The clause's variables in first-occurrence order (head, then
        body), each mapped to its position; computed once per clause."""
        return {v: i for i, v in enumerate(term_vars((self.head,)
                                                     + self.body))}

    def __repr__(self):
        return print_clause(self)


@dataclass(frozen=True)
class Program:
    clauses: tuple  # of Clause, textual order

    def __post_init__(self):
        ids = [c.id for c in self.clauses]
        assert len(ids) == len(set(ids)), "clause ids must be unique"
        # per-predicate index; an attribute, not a field, so equality and
        # hashing still compare the clauses alone
        index = {}
        for c in self.clauses:
            index.setdefault(c.head.indicator, []).append(c)
        object.__setattr__(self, "_index",
                           {k: tuple(cs) for k, cs in index.items()})

    def clauses_for(self, pred: str, arity: int) -> tuple:
        """The clauses of ``pred/arity`` in textual order; empty when the
        predicate has none."""
        return self._index.get((pred, arity), ())

    @property
    def predicates(self) -> set:
        return set(self._index)

    def __repr__(self):
        return print_program(self)


def program_of(clauses) -> Program:
    """The program of ``(head, body)`` pairs, numbered from 1 in order."""
    return Program(tuple(Clause(head, tuple(body), i)
                         for i, (head, body) in enumerate(clauses, 1)))


def mklist(items: Iterable[Term], tail: Term = Const(NIL)) -> Term:
    out = tail
    for x in reversed(list(items)):
        out = Struct(CONS, (x, out))
    return out


def list_parts(t: Term) -> tuple:
    """Split a list term into (elements, tail)."""
    items = []
    while isinstance(t, Struct) and t.functor == CONS and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def is_closed_list(t: Term) -> bool:
    _, tail = list_parts(t)
    return tail == Const(NIL)


def atom_to_term(a: Atom) -> Term:
    return Struct(a.pred, a.args) if a.args else Const(a.pred)


def term_to_atom(t: Term):
    """The atom a callable term stands for, or None when it is not
    callable (a variable or a number)."""
    if isinstance(t, Struct):
        return Atom(t.functor, t.args)
    if isinstance(t, Const) and isinstance(t.name, str):
        return Atom(t.name)
    return None


def term_vars(t) -> list:
    """Variables of a term/atom/sequence, in first-occurrence order.
    Iterative, so a term of any depth is walked."""
    seen = {}
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            seen[t] = None
        elif isinstance(t, (Struct, Atom)):
            stack.extend(reversed(t.args))
        elif isinstance(t, (tuple, list)):
            stack.extend(reversed(t))
    return list(seen)


# --- substitutions ------------------------------------------------------

class Substitution:
    """Mapping Var -> Term.  ``unify`` returns it idempotent unless the
    occurs check is off; ``apply`` follows binding chains, so it also
    reads triangular bindings such as a store's."""

    __slots__ = ("bindings",)

    def __init__(self, bindings=None):
        self.bindings = dict(bindings or {})

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.bindings == other.bindings

    def __repr__(self):
        inner = ", ".join(f"{v}={print_term(t)}" for v, t in self.bindings.items())
        return "{" + inner + "}"

    def apply(self, x):
        return substitute(x, self.bindings)

    def normalized(self) -> "Substitution":
        """Resolve chains so no bound variable occurs in any range term."""
        out = {}
        for v in self.bindings:
            t = self.apply(v)
            if t != v:
                out[v] = t
        return Substitution(out)


def substitute(x, b: dict):
    """``x`` (a term, atom, tuple or list) with each variable bound in
    ``b`` replaced by the instance of its binding.  A part with no bound
    variable is returned as it is, not copied."""
    while isinstance(x, Var):
        t = b.get(x)
        if t is None:
            return x
        x = t
    if isinstance(x, Struct):
        if x.functor == CONS and len(x.args) == 2:
            return _substitute_list(x, b)
        args = _substitute_all(x.args, b)
        return x if args is x.args else Struct(x.functor, args)
    if isinstance(x, Atom):
        args = _substitute_all(x.args, b)
        return x if args is x.args else Atom(x.pred, args)
    if isinstance(x, tuple):
        return _substitute_all(x, b)
    if isinstance(x, list):
        return [substitute(a, b) for a in x]
    return x


def _substitute_list(x: Struct, b: dict) -> Term:
    """``substitute`` of a list cell: the spine is walked in a loop, so a
    list of any length is substituted, and only the elements recurse.  A
    cycle passes through a bound tail variable, so a cell reached through
    one is remembered, and meeting it again raises RecursionError, as the
    recursion on any other cyclic term does."""
    cells, heads = [], []
    via_binding = set()
    while True:
        cells.append(x)
        heads.append(substitute(x.args[0], b))
        t = x.args[1]
        if isinstance(t, Var):
            while isinstance(t, Var):
                u = b.get(t)
                if u is None:
                    break
                t = u
            if id(t) in via_binding:
                raise RecursionError("cyclic list")
            via_binding.add(id(t))
        if not (isinstance(t, Struct) and t.functor == CONS
                and len(t.args) == 2):
            break
        x = t
    out = substitute(t, b)
    for cell, head in zip(reversed(cells), reversed(heads)):
        if head is not cell.args[0] or out is not cell.args[1]:
            out = Struct(CONS, (head, out))
        else:
            out = cell
    return out


def _substitute_all(xs: tuple, b: dict) -> tuple:
    new = [substitute(x, b) for x in xs]
    for y, x in zip(new, xs):
        if y is not x:
            return tuple(new)
    return xs


# --- unification --------------------------------------------------------

def _occurs(v: Var, t: Term, bindings: dict) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        while isinstance(t, Var):
            u = bindings.get(t)
            if u is None:
                break
            t = u
        if isinstance(t, Var):
            if t == v:
                return True
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return False


def _unify_pairs(work: list, b: dict, occurs_check: bool,
                 fresh_var=None, renamed=None) -> bool:
    """Extend the triangular bindings ``b`` so that both sides of every
    pair on ``work`` are equal; False on a clash or a failed occurs check.

    A pair is ``(x, y, raw)``.  ``x`` is a term of the goal; so is ``y``
    unless ``raw``, when it is a subterm of a clause not yet renamed apart
    and ``fresh_var`` gives each of its variables its new name, which
    ``renamed`` maps it to once given.  Pairs are taken last first, and a
    variable of ``x`` is bound before one of ``y``; a raw subterm is
    renamed only when a variable is bound to it.  So the bindings are
    exactly those of unifying with the renamed clause.

    A raw variable not yet in ``renamed`` is at its first occurrence: its
    fresh name is unbound and, as the fresh names never occur in the goal
    (see ``unify_head``), occurs in no goal term, so it is bound without
    the occurs check, as the WAM's ``get_variable`` binds.
    """
    seen = None if occurs_check else set()
    while work:
        x, y, raw = work.pop()
        while isinstance(x, Var):
            t = b.get(x)
            if t is None:
                break
            x = t
        if raw:
            if isinstance(y, Struct):
                if isinstance(x, Var):
                    y = replace_vars(y, fresh_var)
                    if occurs_check and _occurs(x, y, b):
                        return False
                    b[x] = y
                elif isinstance(x, Struct) and x.functor == y.functor \
                        and len(x.args) == len(y.args):
                    work.extend(zip(x.args, y.args, repeat(True)))
                else:
                    return False
                continue
            if isinstance(y, Var):
                r = renamed.get(y)
                if r is None:
                    y = fresh_var(y)
                    if isinstance(x, Var):
                        b[x] = y
                    else:
                        b[y] = x
                    continue
                y = r
        while isinstance(y, Var):
            t = b.get(y)
            if t is None:
                break
            y = t
        if x is y or x == y:
            continue
        if isinstance(x, Var):
            if occurs_check and _occurs(x, y, b):
                return False
            b[x] = y
        elif isinstance(y, Var):
            if occurs_check and _occurs(y, x, b):
                return False
            b[y] = x
        elif isinstance(x, Struct) and isinstance(y, Struct):
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            if not occurs_check:
                # bindings may be cyclic: a pair met again is taken as
                # equal, so two cyclic terms unify instead of looping
                pair = (id(x), id(y))
                if pair in seen:
                    continue
                seen.add(pair)
            work.extend(zip(x.args, y.args, repeat(False)))
        else:
            return False
    return True


def unify(t1, t2, occurs_check: bool = True):
    """Most general unifier of two terms or atoms, or None on failure.
    The argument pairs of two atoms are unified last first, as
    ``unify_head`` takes them, and a variable of ``t1`` is bound before
    one of ``t2``."""
    if isinstance(t1, Atom) and isinstance(t2, Atom):
        if t1.indicator != t2.indicator:
            return None
        work = list(zip(t1.args, t2.args, repeat(False)))
    else:
        work = [(t1, t2, False)]
    b = {}
    if not _unify_pairs(work, b, occurs_check):
        return None
    # without the occurs check the result may be cyclic; leave chains to
    # apply(), which walks them lazily
    return Substitution(b).normalized() if occurs_check else Substitution(b)


class FreshNames:
    """Fresh-name source; confined to a single engine/analysis instance."""

    def __init__(self, prefix: str = "_V"):
        self.prefix = prefix
        self.n = 0

    def var(self) -> Var:
        self.n += 1
        return Var(f"{self.prefix}{self.n}")

    def skip_past(self, variables):
        """Raise the count to at least ``k`` for every variable named
        ``<prefix><k>``, so no name handed out later is one of theirs."""
        cut = len(self.prefix)
        for v in variables:
            name = v.name
            if name.startswith(self.prefix) and name[cut:].isdecimal():
                self.n = max(self.n, int(name[cut:]))


def replace_vars(x, rename):
    """Simultaneous variable replacement by the function ``rename`` (no
    chain walking, unlike ``substitute``, so the range may reuse domain
    names)."""
    if isinstance(x, Var):
        return rename(x)
    if isinstance(x, Struct):
        return Struct(x.functor, tuple([replace_vars(a, rename)
                                       for a in x.args]))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple([replace_vars(a, rename) for a in x.args]))
    if isinstance(x, tuple):
        return tuple([replace_vars(a, rename) for a in x])
    return x


def rename_apart(c: Clause, fresh: FreshNames) -> Clause:
    if not c.variables:
        return c
    mapping = {v: fresh.var() for v in c.variables}
    return Clause(replace_vars(c.head, mapping.__getitem__),
                  replace_vars(c.body, mapping.__getitem__), c.id)


def unify_head(atom: Atom, clause: Clause, fresh: FreshNames, b: dict,
               occurs_check: bool = True):
    """Unify ``atom`` with the head of ``clause`` renamed apart, by
    extending the bindings ``b``: the clause's renaming (a function from
    each clause variable to its fresh name) when the head unifies, else
    None, with ``b`` then holding whatever bindings were made before the
    clash.

    ``fresh`` advances by the clause's variable count whether or not the
    head unifies, and the bindings and every name in them are those of
    ``rename_apart`` followed by ``unify`` with ``b``'s bindings in force.
    But the clause is not copied: the atom is unified with the head as
    written, and a clause subterm is renamed only when a variable is bound
    to it.  The bindings are triangular, not normalized.

    The caller keeps ``fresh`` apart from the goal: no variable of
    ``atom`` or of ``b`` may be named like a name ``fresh`` hands out now.
    Then a clause variable's first occurrence is bound without the occurs
    check (see ``_unify_pairs``).  ``engine.depth_first`` raises ``fresh``
    past the query's variables (``FreshNames.skip_past``), and every
    other goal variable of its machines comes from that ``fresh``: partial
    deduction's goals too, whose patterns it generalizes over its one
    ``FreshNames``.  Direct synthesis builds its goals over the ``G``,
    ``A`` and ``B`` variables of its templates and names from its
    ``FreshNames``.
    """
    positions = clause.variables
    base = fresh.n
    fresh.n = base + len(positions)
    head = clause.head
    if atom.pred != head.pred or len(atom.args) != len(head.args):
        return None
    prefix = fresh.prefix
    renamed = {}

    def fresh_var(v):
        r = renamed.get(v)
        if r is None:
            r = renamed[v] = Var(f"{prefix}{base + positions[v] + 1}")
        return r

    if not _unify_pairs(list(zip(atom.args, head.args, repeat(True))), b,
                        occurs_check, fresh_var, renamed):
        return None
    return fresh_var


def resolve_in(atom: Atom, clause: Clause, fresh: FreshNames, store: dict,
               occurs_check: bool = True):
    """One resolution step of ``atom`` with ``clause`` against a binding
    store: the clause's body, renamed apart but not instantiated, and the
    bindings that unifying ``atom`` with the head added to ``store``, as
    (variable, term) pairs taken back off it, last first; None when the
    head does not unify.  The store is left as it was found, and its
    bindings stand in for the instantiation of ``atom``: it is not
    resolved through them first.  On an empty store, ``substitute`` of
    the body (or of the rest of a goal) by the bindings gives what
    ``rename_apart``, ``unify`` and applying the unifier give.

    A store is a dict whose insertion order is its trail: a search adds
    bindings at the end and undoes them from the end (``take_back``).
    """
    mark = len(store)
    rename = unify_head(atom, clause, fresh, store, occurs_check)
    bindings = take_back(store, mark)
    if rename is None:
        return None
    return replace_vars(clause.body, rename), bindings


def take_back(store: dict, mark: int) -> list:
    """Undo the bindings added to ``store`` since it held ``mark`` of them;
    returns them, last first."""
    popitem = store.popitem
    return [popitem() for _ in range(len(store) - mark)]


# --- parsing ------------------------------------------------------------

RESERVED_PREDICATES = ("cmulti", "building_block")

_PUNCT = [":-", "=<", "->", "(", ")", "[", "]", "{", "}", "|", ",",
          "<", "=", ";", ".", "/", ":"]


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = list(self._lex())
        self.i = 0

    def _advance(self, n):
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _lex(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == "%":
                nl = text.find("\n", self.pos)
                self._advance((nl if nl >= 0 else len(text)) - self.pos)
                continue
            loc = (self.line, self.col)
            for p in _PUNCT:
                if text.startswith(p, self.pos):
                    # '.' inside a float/end: '.' followed by '(' is the cons
                    # functor written explicitly; treat '.' as punct always.
                    self._advance(len(p))
                    yield (p, p, loc)
                    break
            else:
                if ch.isdigit() or (ch == "-" and self.pos + 1 < len(text)
                                    and text[self.pos + 1].isdigit()):
                    j = self.pos + 1
                    while j < len(text) and text[j].isdigit():
                        j += 1
                    tok = text[self.pos:j]
                    self._advance(j - self.pos)
                    yield ("int", int(tok), loc)
                elif ch.islower():
                    j = self.pos
                    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                        j += 1
                    tok = text[self.pos:j]
                    self._advance(j - self.pos)
                    yield ("name", tok, loc)
                elif ch.isupper() or ch == "_":
                    j = self.pos
                    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                        j += 1
                    tok = text[self.pos:j]
                    self._advance(j - self.pos)
                    yield ("var", tok, loc)
                else:
                    raise ParseError(f"unexpected character {ch!r}", *loc)

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", None, (self.line, self.col))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", *tok[2])
        return tok


class _Parser:
    def __init__(self, text: str):
        self.lx = _Lexer(text)

    def parse_program(self) -> Program:
        clauses = []
        cid = 0
        while self.lx.peek()[0] != "eof":
            cid += 1
            clauses.append(self.parse_clause(cid))
        return Program(tuple(clauses))

    def parse_clause(self, cid: int) -> Clause:
        head = self.parse_atom()
        if head.pred in RESERVED_PREDICATES:
            tok = self.lx.peek()
            raise ParseError(f"reserved predicate {head.pred!r} cannot be "
                             "redefined", *tok[2])
        body = ()
        kind, _, _ = self.lx.peek()
        if kind == ":-":
            self.lx.next()
            body = tuple(self.parse_body())
        self.lx.expect(".")
        return Clause(head, body, cid)

    def parse_body(self):
        atoms = [self.parse_atom()]
        while self.lx.peek()[0] == ",":
            self.lx.next()
            atoms.append(self.parse_atom())
        return atoms

    def parse_atom(self) -> Atom:
        t = self.parse_term()
        if self.lx.peek()[0] == "=<":
            self.lx.next()
            rhs = self.parse_term()
            return Atom("=<", (t, rhs))
        if isinstance(t, Const) and isinstance(t.name, str):
            return Atom(t.name)
        if isinstance(t, Struct) and t.functor != CONS:
            return Atom(t.functor, t.args)
        tok = self.lx.peek()
        raise ParseError(f"expected an atom, found term {print_term(t)!r}",
                         *tok[2])

    def parse_term(self) -> Term:
        kind, val, loc = self.lx.next()
        if kind == "int":
            return Const(val)
        if kind == "var":
            return Var(val)
        if kind == "name" or (kind == "=<" and self.lx.peek()[0] == "("):
            if kind == "=<":
                val = "=<"   # reified comparison, written prefix
            if self.lx.peek()[0] == "(":
                self.lx.next()
                args = [self.parse_term()]
                while self.lx.peek()[0] == ",":
                    self.lx.next()
                    args.append(self.parse_term())
                self.lx.expect(")")
                return Struct(val, tuple(args))
            return Const(val)
        if kind == "[":
            if self.lx.peek()[0] == "]":
                self.lx.next()
                return Const(NIL)
            items = [self.parse_term()]
            while self.lx.peek()[0] == ",":
                self.lx.next()
                items.append(self.parse_term())
            tail = Const(NIL)
            if self.lx.peek()[0] == "|":
                self.lx.next()
                tail = self.parse_term()
            self.lx.expect("]")
            return mklist(items, tail)
        raise ParseError(f"unexpected token {val!r}", *loc)


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    if p.lx.peek()[0] != "eof":
        tok = p.lx.peek()
        raise ParseError(f"trailing input {tok[1]!r}", *tok[2])
    return t


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.parse_atom()
    if p.lx.peek()[0] != "eof":
        tok = p.lx.peek()
        raise ParseError(f"trailing input {tok[1]!r}", *tok[2])
    return a


def parse_goal(text: str) -> tuple:
    """A comma-separated conjunction of atoms."""
    p = _Parser(text)
    atoms = tuple(p.parse_body())
    if p.lx.peek()[0] != "eof":
        tok = p.lx.peek()
        raise ParseError(f"trailing input {tok[1]!r}", *tok[2])
    return atoms


# --- printing -----------------------------------------------------------

def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.name)
    if t.functor == CONS and len(t.args) == 2:
        items, tail = list_parts(t)
        inner = ",".join(print_term(x) for x in items)
        if tail == Const(NIL):
            return f"[{inner}]"
        return f"[{inner}|{print_term(tail)}]"
    inner = ",".join(print_term(a) for a in t.args)
    return f"{t.functor}({inner})"


def print_atom(a: Atom) -> str:
    if a.pred == "=<" and len(a.args) == 2:
        return f"{print_term(a.args[0])} =< {print_term(a.args[1])}"
    if not a.args:
        return a.pred
    inner = ",".join(print_term(x) for x in a.args)
    return f"{a.pred}({inner})"


def print_clause(c: Clause) -> str:
    head = print_atom(c.head)
    if not c.body:
        return f"{head}."
    body = ", ".join(print_atom(a) for a in c.body)
    return f"{head} :- {body}."


def print_program(p: Program) -> str:
    return "\n".join(print_clause(c) for c in p.clauses) + "\n"
