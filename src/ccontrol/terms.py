"""Concrete terms, atoms, clauses, substitutions and unification.

The object language is a pure Prolog subset: no cut, no negation, no
operators apart from infix ``=<``.  All values are immutable; the only
mutable facilities are the fresh-name counter used for renaming apart,
the binding store a search extends and undoes (see ``resolve_all``, the
one resolution step, through a first-argument ``Switch``) and the cache
of generated head code by clause shape (see ``_head_code``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count
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


# Const, Struct and Atom are built on every resolution, so they are plain
# classes with __slots__ and a hand-written __init__: a frozen dataclass's
# constructor costs two to three times as much.  They are immutable by
# convention: no code assigns their fields outside these constructors (a
# test checks that).  A structure or atom hashes its whole term without
# recursing (see ``_hash_term``); no output depends on a set's order, which
# the hash of a name makes vary from run to run anyway.

class Const:
    __slots__ = ("name",)

    def __init__(self, name: Union[str, int]):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not Const:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))

    def __reduce__(self):
        return Const, (self.name,)

    def __repr__(self):
        return str(self.name)


class Struct:
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple):
        assert args, "zero-arity symbols are Consts"
        self.functor = functor
        self.args = args

    def __eq__(self, other):
        if other.__class__ is not Struct:
            return NotImplemented
        return self.functor == other.functor and \
            _equal_args(self.args, other.args)

    def __hash__(self):
        return _hash_term(self.functor, self.args)

    def __reduce__(self):
        return Struct, (self.functor, self.args)

    def __repr__(self):
        return print_term(self)


Term = Union[Var, Const, Struct]


class Atom:
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        self.pred = pred
        self.args = args

    def __eq__(self, other):
        if other.__class__ is not Atom:
            return NotImplemented
        return self.pred == other.pred and _equal_args(self.args, other.args)

    def __hash__(self):
        return _hash_term(self.pred, self.args)

    def __reduce__(self):
        return Atom, (self.pred, self.args)

    @property
    def indicator(self) -> tuple:
        return (self.pred, len(self.args))

    def __repr__(self):
        return print_atom(self)


def _hash_term(name: str, args: tuple) -> int:
    """The hash of a structure or atom: that of the tuple of its fields,
    as the frozen dataclasses hashed, when no argument is a structure;
    else that of its nodes in pre-order (arguments last first), each
    structure as its name and arity, walked on an explicit stack so that
    a term of any depth is hashed whole."""
    if Struct not in map(type, args):
        return hash((name, args))
    nodes, stack = [name, len(args)], list(args)
    while stack:
        t = stack.pop()
        if t.__class__ is Struct:
            nodes += (t.functor, len(t.args))
            stack += t.args
        else:
            nodes.append(t)
    return hash(tuple(nodes))


def _equal_args(xs: tuple, ys: tuple) -> bool:
    """Whether two argument tuples are equal term by term, compared with
    an explicit stack of pairs, so that equality does not recurse on the
    depth of a term.  Identical sides are equal; two structures are
    compared by functor and arity and push their argument pairs; any
    other pair is compared with ``==``."""
    if len(xs) != len(ys):
        return False
    stack = list(zip(xs, ys))
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is Struct:
            if y.__class__ is not Struct or x.functor != y.functor or \
                    len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


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

    @cached_property
    def head_code(self):
        """The clause's generated resolution code; see ``_head_code``."""
        return _head_code(self)

    def __getstate__(self):
        # the fields alone: cached values, generated code among them, are
        # rebuilt on demand
        return {"head": self.head, "body": self.body, "id": self.id}

    def __repr__(self):
        return print_clause(self)


@dataclass(frozen=True)
class Program:
    clauses: tuple  # of Clause, textual order

    def __post_init__(self):
        ids = [c.id for c in self.clauses]
        assert len(ids) == len(set(ids)), "clause ids must be unique"
        # one switch per predicate, built with the program; an attribute,
        # not a field, so equality and hashing compare the clauses alone
        index = {}
        for c in self.clauses:
            index.setdefault(c.head.indicator, []).append(c)
        object.__setattr__(self, "_index",
                           {k: Switch(cs) for k, cs in index.items()})

    def __getstate__(self):
        # the clauses alone: the switches are rebuilt from them
        return {"clauses": self.clauses}

    def __setstate__(self, state):
        object.__setattr__(self, "clauses", state["clauses"])
        self.__post_init__()

    def clauses_for(self, pred: str, arity: int) -> tuple:
        """The clauses of ``pred/arity`` in textual order; empty when the
        predicate has none."""
        switch = self._index.get((pred, arity))
        return () if switch is None else switch.clauses

    def switch_for(self, indicator: tuple):
        """The ``Switch`` of the predicate ``indicator``, a (name, arity)
        pair; None when it has no clauses."""
        return self._index.get(indicator)

    @property
    def predicates(self) -> set:
        return set(self._index)

    def __repr__(self):
        return print_program(self)


def _principal(t):
    """The principal functor of a term as first-argument indexing keys it:
    a constant's name, a structure's functor and arity, and None for
    anything else, a variable."""
    cls = t.__class__
    if cls is Const:
        return t.name
    if cls is Struct:
        return (t.functor, len(t.args))
    return None


def _variable_count(clause: Clause) -> int:
    """``len(clause.variables)``, in one walk that keeps no mapping: every
    ``Program`` counts each of its clauses, and this takes half the time
    of ``term_vars``."""
    seen = set()
    stack = list(clause.head.args)
    for atom in clause.body:
        stack.extend(atom.args)
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Struct:
            stack.extend(t.args)
        elif cls is not Const:
            seen.add(t)
    return len(seen)


class Switch:
    """A predicate's first-argument switch, as the WAM's ``switch_on_term``
    (Warren, SRI TN 309, 1983), built once with its ``Program``.

    ``clauses`` are the predicate's clauses in textual order.  ``every``
    holds each as ``(clause, offset)``: ``offset`` is the sum of the
    variable counts of the clauses before it, and ``total`` the sum over
    all of them.  ``by_key`` maps a principal functor (see ``_principal``)
    that some head's first argument has to the entries a goal whose first
    argument has that functor can match, in textual order; a clause whose
    first argument is a variable is in every list, and ``unkeyed`` lists
    those alone, for a functor no head has.  A switch holds no code, so
    building one walks each clause once, for its variable count, and
    generates nothing."""

    __slots__ = ("clauses", "total", "every", "by_key", "unkeyed")

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        counts = [_variable_count(c) for c in self.clauses]
        self.total = sum(counts)
        self.every, self.by_key, self.unkeyed = [], {}, []
        offset = 0
        for clause, n in zip(self.clauses, counts):
            entry = (clause, offset)
            offset += n
            self.every.append(entry)
            key = _principal(clause.head.args[0]) if clause.head.args \
                else None
            if key is None:
                self.unkeyed.append(entry)
                for entries in self.by_key.values():
                    entries.append(entry)
            else:
                self.by_key.setdefault(key, list(self.unkeyed)).append(entry)


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
    """Mapping Var -> Term: triangular bindings, such as the store that
    ``unify`` unifies into, which ``apply`` reads by following chains."""

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


def substitute(x, b: dict):
    """``x`` (a term, atom, tuple or list) with each variable bound in
    ``b`` replaced by the instance of its binding.  A binding met again
    inside its own instance, a cycle that only unification without the
    occurs check makes, raises RecursionError."""
    return _rebuild(x, b, None)


def replace_vars(x, rename):
    """Simultaneous variable replacement by the function ``rename``,
    called on each occurrence in textual order (no chain walking, unlike
    ``substitute``, so the range may reuse domain names)."""
    return rename(x) if isinstance(x, Var) else _rebuild(x, {}, rename)


def naming(names: dict, draw):
    """A renaming for ``replace_vars`` and ``_rebuild``: each variable's
    entry in ``names``, else ``draw(v)``, kept there."""
    def name(v):
        t = names.get(v)
        if t is None:
            t = names[v] = draw(v)
        return t
    return name


def _rebuild(x, b, rename):
    """``x`` with each variable bound in ``b`` replaced by the instance of
    its binding and each one left unbound by ``rename`` of it, when
    ``rename`` is given, called in textual order.  Bottom up on an
    explicit stack of the parts open around ``node``, so a term of any
    depth is rebuilt.  A part in which nothing is replaced is returned as
    it is; a list is always copied.  ``bound`` holds the variables whose
    bindings are open."""
    cls = x.__class__
    if cls is Struct or cls is Atom or cls is tuple or cls is list:
        node, it = x, iter(x if cls is tuple or cls is list else x.args)
    else:   # the one item of a root part
        node, it = None, iter((x,))
    stack, bound, out, held, changed = [], set(), [], None, False
    while True:
        for a in it:
            cls = a.__class__
            if cls is Const:
                out.append(a)
                continue
            if isinstance(a, Var):
                t = b.get(a, a)
                while isinstance(t, Var) and t in b:
                    a, t = t, b[t]
                if t.__class__ is not Struct:
                    if rename is not None and isinstance(t, Var):
                        t = rename(t)
                    out.append(t)
                    changed = changed or t is not a
                    continue
                changed = True
                if a in bound:
                    raise RecursionError(f"cyclic term through {a}")
                bound.add(a)
                a, items, via = t, t.args, a
            elif cls is Struct or cls is Atom:
                items, via = a.args, None
            elif cls is tuple or cls is list:
                items, via = a, None
            else:
                out.append(a)
                continue
            stack.append((node, out, it, held, changed))
            node, out, it, held, changed = a, [], iter(items), via, False
            break
        else:
            if node is None:
                return out[0]
            cls = node.__class__
            new = (out if cls is list else node if not changed
                   else tuple(out) if cls is tuple
                   else Struct(node.functor, tuple(out)) if cls is Struct
                   else Atom(node.pred, tuple(out)))
            if not stack:
                return new
            bound.discard(held)
            old = node
            node, out, it, held, changed = stack.pop()
            out.append(new)
            changed = changed or new is not old


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


def _deref(x: Var, b: dict) -> Term:
    """What the bindings ``b`` make of the variable ``x``, through chains
    of variables; the generated head code's dereference."""
    t = b.get(x)
    while t is not None:
        x = t
        if not isinstance(x, Var):
            return x
        t = b.get(x)
    return x


def _unify_pairs(work: list, b: dict, occurs_check: bool) -> bool:
    """Extend the triangular bindings ``b`` so that both sides of every
    ``(x, y)`` pair on ``work`` are equal; False on a clash or a failed
    occurs check.  Pairs are taken last first, and a variable of ``x`` is
    bound before one of ``y``."""
    seen = None if occurs_check else set()
    while work:
        x, y = work.pop()
        while isinstance(x, Var):
            t = b.get(x)
            if t is None:
                break
            x = t
        while isinstance(y, Var):
            t = b.get(y)
            if t is None:
                break
            y = t
        if x is y:
            continue
        if isinstance(x, Var):
            if x == y:
                continue
            if occurs_check and _occurs(x, y, b):
                return False
            b[x] = y
        elif isinstance(y, Var):
            if occurs_check and _occurs(y, x, b):
                return False
            b[y] = x
        elif isinstance(x, Struct) and isinstance(y, Struct):
            # compared pair by pair, never by ``==``, which recurses once
            # per list cell
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            if not occurs_check:
                # bindings may be cyclic: a pair met again is taken as
                # equal, so two cyclic terms unify instead of looping
                pair = (id(x), id(y))
                if pair in seen:
                    continue
                seen.add(pair)
            work.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


def unify(t1, t2, occurs_check: bool = True):
    """Most general unifier of two terms or atoms, as the store of one
    ``_unify_pairs`` run, or None on failure.  The argument pairs of two
    atoms are unified last first, as a clause head's are (see
    ``resolve_all``), and a variable of ``t1`` is bound before one of
    ``t2``."""
    if isinstance(t1, Atom) and isinstance(t2, Atom):
        if t1.indicator != t2.indicator:
            return None
        work = list(zip(t1.args, t2.args))
    else:
        work = [(t1, t2)]
    sigma = Substitution()
    return sigma if _unify_pairs(work, sigma.bindings, occurs_check) \
        else None


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


def rename_apart(c: Clause, fresh: FreshNames) -> Clause:
    if not c.variables:
        return c
    mapping = {v: fresh.var() for v in c.variables}
    return Clause(replace_vars(c.head, mapping.__getitem__),
                  replace_vars(c.body, mapping.__getitem__), c.id)


def resolve_all(atom: Atom, switch: Switch, rest: tuple, state,
                fresh: FreshNames, store: dict,
                occurs_check: bool = True) -> list:
    """The resolution step: ``atom`` resolved against each clause of
    ``switch`` that its first argument lets match, as the successors
    ``(body + rest, state, bindings)`` of the clauses whose heads unify,
    in textual order.  ``switch`` is the ``Switch`` of ``atom``'s
    predicate, or a table row's one-clause switch (see
    ``metaint.build_tables``): the caller picks it, and the heads'
    predicate is not checked.  The first argument is dereferenced once,
    and its principal functor picks the candidates, as first-argument
    indexing does; an unbound variable picks them all, and a clause left
    out binds nothing.

    ``body`` is the clause's body, renamed apart but not instantiated;
    ``bindings`` are those that its generated head code (see
    ``_head_code``) added to ``store``, taken back off it as (variable,
    term) pairs, last first.  The store's bindings stand in for the
    instantiation of ``atom``, which is not resolved through them first.
    When the last candidate tried is the only one whose head unifies, its
    bindings stay on the store and its successor carries ``()``, so a
    search that runs a sole successor at once (``engine.depth_first``)
    does not take them back to put them back.  Otherwise the store is
    left as it was found; a sole success ahead of other candidates was
    taken back before the next head was tried, and carries its bindings.
    On an empty store, ``substitute`` of ``body + rest`` by the bindings,
    carried or left on the store, gives what ``rename_apart``, ``unify``
    and applying the unifier give.  The bindings are the unifier's, in
    its order (argument pairs last first, depth first, a goal variable
    bound before a clause variable), less those of the clause variables
    whose first occurrence met a goal term other than an unbound
    variable: such a variable is not bound, and the body holds that term
    in its place.

    Fresh names: ``fresh`` advances by ``switch.total``, and each
    candidate is named at the count it would have had had every clause
    been tried in textual order: from the count ``n``, the variable
    at position ``i`` of the clause's ``variables`` is
    ``<prefix><n + i + 1>``.  No variable of ``atom`` or of the store may
    be named like a name ``fresh`` hands out now: ``engine.depth_first``
    raises ``fresh`` past the query's variables, every other goal variable
    of its machines, partial deduction's among them, comes from that
    ``fresh``, and direct synthesis builds its goals over the ``G``, ``A``
    and ``B`` variables of its templates.  Then a clause variable's first
    occurrence needs no occurs check, as the WAM's ``get_variable``: an
    unbound goal variable is bound to the fresh name and any other goal
    term is held as it is.  A later occurrence is unified with the check,
    and so is a first one inside a template (see ``_shape``), where the
    check cannot fail, a fresh name occurring in no term yet.

    A store is a dict whose insertion order is its trail: a search adds
    bindings at the end and undoes them from the end (``take_back``).
    The goal and the store hold concrete terms: the head code tests a
    goal term's class, so it would not take an abstract variable of
    ``absdom`` for a variable."""
    base = fresh.n
    fresh.n = base + switch.total
    args = atom.args
    candidates = switch.every
    if switch.by_key:
        x = args[0]
        while isinstance(x, Var):
            t = store.get(x)
            if t is None:
                break
            x = t
        # ``_principal`` of the argument, inline: a call here costs the
        # table-driven interpreter about 2%
        if x.__class__ is Const:
            candidates = switch.by_key.get(x.name, switch.unkeyed)
        elif x.__class__ is Struct:
            candidates = switch.by_key.get((x.functor, len(x.args)),
                                           switch.unkeyed)
    prefix = fresh.prefix
    mark = len(store)
    successors = []
    body = None
    # a candidate's bindings are taken back when the next one is tried, so
    # the last one's can stay
    for clause, offset in candidates:
        if body is not None:
            successors.append((body + rest, state, take_back(store, mark)))
        elif len(store) > mark:
            take_back(store, mark)
        body = clause.head_code(args, store, occurs_check, prefix,
                                base + offset)
    if body is not None:
        successors.append((body + rest, state,
                           take_back(store, mark) if successors else ()))
    elif len(store) > mark:
        take_back(store, mark)
    return successors


def take_back(store: dict, mark: int) -> list:
    """Undo the bindings added to ``store`` since it held ``mark`` of them;
    returns them, last first."""
    popitem = store.popitem
    return [popitem() for _ in range(len(store) - mark)]


def match_template(pattern, params, term, store: dict, draw):
    """The arguments, in the order of ``params``, with which ``term``
    calls the template ``pattern`` over ``params``: one walk of both on an
    explicit stack, reading ``term`` through ``store``.  A pattern
    variable takes the term it first meets, and a later occurrence is
    unified with that term.  A constant or compound (structure, atom or
    goal tuple) of the pattern that meets an unbound variable binds it,
    its variables renamed to the terms they took or else by ``draw``; the
    bindings stay on the store.  A clash returns None and leaves the
    store as it was found."""
    mark, seen = len(store), {}
    rename = naming(seen, draw)
    stack = [(pattern, term)]
    while stack:
        p, t = stack.pop()
        while t.__class__ is Var and t in store:
            t = store[t]
        cls = p.__class__
        if cls is Var:
            if p not in seen:
                seen[p] = t
                continue
            fits = t is seen[p] or _unify_pairs([(t, seen[p])], store, True)
        elif t.__class__ is Var:
            fits = _unify_pairs([(t, replace_vars(p, rename))], store, True)
        elif cls is Const:
            fits = t.__class__ is Const and t.name == p.name
        elif cls is tuple:
            fits = t.__class__ is tuple and len(t) == len(p)
            if fits:
                stack += zip(p[::-1], t[::-1])
        else:
            fits = t.__class__ is cls and len(t.args) == len(p.args) and \
                (t.pred == p.pred if cls is Atom else t.functor == p.functor)
            if fits:
                stack += zip(p.args[::-1], t.args[::-1])
        if not fits:
            take_back(store, mark)
            return None
    return tuple(seen[v] for v in params)


# --- generated head code -------------------------------------------------

# A structure met this deep in a clause literal (a head argument is 1 deep,
# a body atom 0) is not walked: it is one template, renamed whole, so that
# the code of a clause nests no deeper than this, whatever its terms
_MAX_NESTING = 16

# code factories by clause shape (see ``_shape``); clauses of one shape,
# such as the facts of one table, share one code object
_FACTORIES = {}


def _head_code(clause: Clause):
    """The clause's resolution code: a function of the goal's arguments,
    the store, the occurs-check flag and the fresh names' prefix and count
    that unifies the arguments with the head, binding into the store, and
    returns the renamed body, or None when the head does not unify.

    The code is generated once per shape, on the first clause of that
    shape; a clause only hands its constants to the shape's factory."""
    shape, consts = _shape(clause)
    make = _FACTORIES.get(shape)
    if make is None:
        make = _FACTORIES[shape] = _factory(shape)
    return make(consts)


def _is_constant(node) -> bool:
    return node.__class__ is tuple and (node[0] == "c" or node[0] == "k")


def _shape(clause: Clause) -> tuple:
    """The clause's shape, free of names, and the constants it leaves out,
    from one walk of the clause.

    The shape is ``(head arguments, body atoms)`` of nodes: a variable's
    position in ``clause.variables``; ``("c", j)`` for a constant,
    ``consts[j]``, whose name is ``consts[j + 1]``; ``("k", j)`` for a
    ground structure or atom; ``("s", j, args)`` for a structure with
    functor ``consts[j]``, a list cell among them; ``("a", j, args)`` for a
    body atom with predicate ``consts[j]``; and ``("t", j, positions)`` for
    a template, a structure met ``_MAX_NESTING`` deep that is not ground:
    its term is ``consts[j]``, and ``consts[j + 1]`` maps each of its
    variables to its position, the positions being in first-occurrence
    order.

    The walk is post-order, on an explicit stack: a compound's node is
    made once its arguments' are, and is ``("k", j)`` when all of them are
    constants.  Variables are numbered as the walk meets them, which is
    their first-occurrence order."""
    positions, consts, nodes = {}, [], []
    # each task is a term to walk and its depth, or a compound whose
    # arguments' nodes are those from ``start`` on, with depth None
    todo = [(0, a) for a in reversed(clause.body)] + \
        [(1, t) for t in reversed(clause.head.args)]
    while todo:
        depth, t = todo.pop()
        cls = t.__class__
        if depth is None:
            kind, mark, t, start = t
            args = tuple(nodes[start:])
            del nodes[start:]
            if all(map(_is_constant, args)):
                del consts[mark:]
                consts.append(t)
                nodes.append(("k", mark))
            else:
                nodes.append((kind, mark, args))
        elif cls is Const:
            consts += (t, t.name)
            nodes.append(("c", len(consts) - 2))
        elif cls is Struct and depth >= _MAX_NESTING:
            where = {v: positions.setdefault(v, len(positions))
                     for v in term_vars(t)}
            nodes.append(("t", len(consts), tuple(where.values())) if where
                         else ("k", len(consts)))
            consts += (t, where)
        elif cls is Struct or cls is Atom:
            todo.append((None, ("s" if cls is Struct else "a", len(consts),
                                t, len(nodes))))
            consts.append(t.functor if cls is Struct else t.pred)
            todo.extend((depth + 1, a) for a in reversed(t.args))
        else:
            nodes.append(positions.setdefault(t, len(positions)))
    n = len(clause.head.args)
    return (tuple(nodes[:n]), tuple(nodes[n:])), consts


def _node_vars(nodes) -> set:
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node.__class__ is int:
            out.add(node)
        elif node[0] == "t":
            out.update(node[2])
        elif node[0] in ("s", "a"):
            stack.extend(node[2])
    return out


def _factory(shape) -> object:
    """Generate the code of a clause shape (see ``_shape``): a factory
    that takes the clause's constants and returns its resolution code
    (see ``_head_code``).

    The head's argument pairs are unified as ``_unify_pairs`` unifies
    them, last first and depth first, in straight-line code.  A structure
    of the head is matched against the goal's term in read mode, or built
    and bound to the goal's variable in write mode, as the WAM's
    ``get_structure`` does; the structures inside one built in write mode
    are built too, and none of them binds.  Each structure's code sits at
    the same nesting, guarded by its parent's read-mode flag.  A variable
    is held in a local ``V<i>`` from its first occurrence, with no occurs
    check, as the WAM's ``get_variable`` moves a goal term into a
    register: in read mode, a goal term that is an unbound variable is
    bound to the variable's fresh name, which the local holds, and any
    other goal term is the local's value, with nothing bound; in write
    mode the local holds the fresh name.  A later occurrence is unified
    by ``_unify_pairs``.  A constant or ground structure is compared or
    bound as it is.  A template is renamed whole by ``replace_vars``, a
    variable with a local to it and any other to its fresh name, and
    unified by one ``_unify_pairs`` pair.  The code then names the body's
    own variables and builds the body, a template in it by the same
    renaming.

    Both walks keep explicit stacks of tasks: the head's, of the nodes
    left to unify and the structures left to build once their arguments
    are, and the body's, of the nodes left to build."""
    head, body = shape
    lines = []
    used = set()      # constant slots the code reads
    seen = set()      # variables met so far, in unification order
    named = set()     # variables held in a local ``V<i>``
    ids = count()

    def out(indent, text):
        lines.append("    " * indent + text)

    def const(j):
        used.add(j)
        return f"K{j}"

    def fresh(i):
        return f"Var(f'{{P}}{{n + {i + 1}}}')"

    def name(i):
        if i not in named:
            named.add(i)
            out(2, f"V{i} = {fresh(i)}")
        return f"V{i}"

    def template(j, where):
        """The renaming of the template ``consts[j]``, whose variables are
        at the positions ``where``: one held in a local is renamed to it,
        any other to its fresh name."""
        held = ", ".join(f"{p}: V{p}" for p in where if p in named)
        return (f"replace_vars({const(j)}, lambda v, h={{{held}}}: "
                f"h[p] if (p := {const(j + 1)}[v]) in h "
                "else Var(f'{P}{n + 1 + p}'))")

    def guard(flag, indent):
        if flag:
            out(indent, f"if {flag}:")
            return indent + 1
        return indent

    def on_var(src, flag, *then):
        """Emit the dereference of the goal term ``src``, when ``flag``
        holds, and the lines ``then`` for when it is a variable; the
        indent of the tests that follow."""
        indent = guard(flag, 2)
        out(indent, f"x = {src}")
        out(indent, "if x.__class__ is Var:")
        out(indent + 1, "x = _deref(x, b)")
        out(indent, "if x.__class__ is Var:")
        for line in then:
            out(indent + 1, line)
        return indent

    def unify_later(src, value, flag):
        cond = f"{flag} and " if flag else ""
        out(2, f"if {cond}not _unify_pairs([({src}, {value})], b, oc):")
        out(3, "return None")

    def decide(functor, arity, src, flag):
        """Emit the choice of mode of a structure: ``R<k>`` holds in read
        mode, with ``G<k>_<i>`` the goal's arguments; otherwise ``W<k>``
        is the goal's variable, when the parent is in read mode."""
        k = next(ids)
        out(2, f"R{k} = False")
        indent = on_var(src, flag, f"W{k} = x")
        out(indent, f"elif x.__class__ is Struct and x.functor == {functor} "
                   f"and len(x.args) == {arity}:")
        out(indent + 1, "".join(f"G{k}_{i}, " for i in range(arity))
            + "= x.args")
        out(indent + 1, f"R{k} = True")
        out(indent, "else:")
        out(indent + 1, "return None")
        return k

    def build(k, functor, parts, check, flag):
        """Emit the write mode of a structure: it is built, and bound to
        the goal's variable when its parent is in read mode."""
        out(2, f"if not R{k}:")
        out(3, f"T{k} = Struct({functor}, ({', '.join(parts)},))")
        indent = guard(flag, 3)
        if check:
            out(indent, f"if oc and _occurs(W{k}, T{k}, b):")
            out(indent + 1, "return None")
        out(indent, f"b[W{k}] = T{k}")
        return f"T{k}"

    # the head: each task unifies a node with the goal term ``src`` when
    # ``flag`` (read mode) holds, or builds a structure, ``("b", ...)``,
    # once its arguments are done, and puts the expression of its term at
    # ``into[i]``, for the build of its parent
    exprs = [None] * len(head)
    tasks = [(node, f"a{i}", None, exprs, i) for i, node in enumerate(head)]
    while tasks:
        node, src, flag, into, i = tasks.pop()
        if node.__class__ is int:
            var = into[i] = f"V{node}"
            if node in seen:
                unify_later(src, name(node), flag)
            else:
                # ``get_variable``: a goal variable is bound to the fresh
                # one, any other term is held in the local as it is
                seen.add(node)
                named.add(node)
                indent = on_var(src, flag, f"{var} = {fresh(node)}",
                                f"b[x] = {var}")
                out(indent, "else:")
                out(indent + 1, f"{var} = x")
                if flag:
                    out(2, "else:")
                    out(3, f"{var} = {fresh(node)}")
        elif node[0] == "c" or node[0] == "k":
            value = into[i] = const(node[1])
            indent = on_var(src, flag, f"b[x] = {value}")
            if node[0] == "c":
                out(indent, "elif x.__class__ is not Const or "
                           f"x.name != {const(node[1] + 1)}:")
            else:
                out(indent, f"elif not _unify_pairs([(x, {value})], b, oc):")
            out(indent + 1, "return None")
        elif node[0] == "t":
            value = into[i] = f"T{next(ids)}"
            out(2, f"{value} = {template(node[1], node[2])}")
            unify_later(src, value, flag)
            seen.update(node[2])
        elif node[0] == "s":
            functor, args = const(node[1]), node[2]
            k = decide(functor, len(args), src, flag)
            parts = [None] * len(args)
            check = not seen.isdisjoint(_node_vars(args))
            tasks.append((("b", k, functor, parts, check), src, flag, into,
                          i))
            tasks.extend((arg, f"G{k}_{j}", f"R{k}", parts, j)
                         for j, arg in enumerate(args))
        else:
            _, k, functor, parts, check = node
            into[i] = build(k, functor, parts, check, flag)

    # the body: each task builds a node's expression on ``exprs``, or
    # makes a compound's, ``("b", ...)``, of the expressions of its
    # arguments, the last on ``exprs``
    exprs, needed = [], set()
    tasks = list(reversed(body))
    while tasks:
        node = tasks.pop()
        if node.__class__ is int:
            needed.add(node)
            exprs.append(f"V{node}")
        elif node[0] == "c" or node[0] == "k":
            exprs.append(const(node[1]))
        elif node[0] == "t":
            exprs.append(template(node[1], node[2]))
        elif node[0] == "b":
            _, cls, j, arity = node
            parts = "".join(f"{e}, " for e in exprs[len(exprs) - arity:])
            del exprs[len(exprs) - arity:]
            exprs.append(f"{cls}({const(j)}, ({parts}))")
        else:
            tasks.append(("b", "Atom" if node[0] == "a" else "Struct",
                          node[1], len(node[2])))
            tasks.extend(reversed(node[2]))
    for i in sorted(needed - named):
        name(i)
    out(2, f"return ({''.join(f'{a}, ' for a in exprs)})")
    source = (["def make(K):"]
              + [f"    K{j} = K[{j}]" for j in sorted(used)]
              + ["    def resolve(a, b, oc, P, n):"]
              + ([f"        {''.join(f'a{i}, ' for i in range(len(head)))}= a"]
                 if head else [])
              + lines + ["    return resolve"])
    scope = {}
    exec(compile("\n".join(source), "<clause shape>", "exec"), globals(),
         scope)
    return scope["make"]


# --- parsing ------------------------------------------------------------

RESERVED_PREDICATES = ("cmulti", "building_block")

# The tokens, matched one after another from the start of the text; the
# alternatives are tried in order: blanks, a comment up to the end of its
# line, punctuation (longest first), an integer, a word, and any other
# character, which is an error.  A word is a name when it starts with a
# lowercase letter and a variable when it starts with an uppercase letter
# or "_"; it goes on over ``\w``, which is ``str.isalnum()`` or "_".  An
# integer's digits are the decimal digits that ``int`` reads.
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<punct>:-|=<|->|[()\[\]{}|,<=;./:])
  | (?P<int>-?\d+)
  | (?P<word>\w+)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class _EndOfInput:
    """The value of the lexer's end-of-input token, named in messages."""

    def __repr__(self):
        return "end of input"


class _Lexer:
    def __init__(self, text: str):
        self.tokens = self._lex(text)
        self.i = 0

    def _lex(self, text) -> list:
        """The tokens of ``text``, each ``(kind, value, (line, column))``;
        the end of the text is left in ``line`` and ``col``."""
        tokens = []
        line, start = 1, 0      # ``start``: where the line begins
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "blank":
                newlines = text.count("\n", m.start(), m.end())
                if newlines:
                    line += newlines
                    start = text.rindex("\n", m.start(), m.end()) + 1
                continue
            if kind == "comment":
                continue
            tok, pos = m.group(), m.start()
            loc = (line, pos - start + 1)
            if kind == "punct":
                tokens.append((tok, tok, loc))
            elif kind == "int":
                tokens.append(("int", int(tok), loc))
            elif kind == "word" and tok[0].islower():
                tokens.append(("name", tok, loc))
            elif kind == "word" and (tok[0].isupper() or tok[0] == "_"):
                tokens.append(("var", tok, loc))
            else:
                raise ParseError(f"unexpected character {tok[0]!r}", *loc)
        self.line, self.col = line, len(text) - start + 1
        return tokens

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", _EndOfInput(), (self.line, self.col))

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
    """Reads terms, atoms and clauses.  With ``names`` given, it reads
    abstract notation: each bare name in an argument stands for the term
    ``names`` maps it to, and a variable token is an error."""

    def __init__(self, text: str, names=None):
        self.lx = _Lexer(text)
        self.names = names

    def finish(self, result):
        """``result``, once the text has nothing left after it."""
        kind, val, loc = self.lx.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", *loc)
        return result

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
        # a bare name is an atom, also one that ``names`` reads as a variable
        if isinstance(t, Const) and isinstance(t.name, str) or \
                isinstance(t, Var) and self.names:
            return Atom(t.name)
        if isinstance(t, Struct) and t.functor != CONS:
            return Atom(t.functor, t.args)
        tok = self.lx.peek()
        raise ParseError(f"expected an atom, found term {print_term(t)!r}",
                         *tok[2])

    def parse_term(self) -> Term:
        """One term of any depth, read with a stack of the compounds still
        open, each ``[functor, items, tail]``: None is a list's functor,
        and ``tail`` says whether the last item follows a ``|``."""
        lx = self.lx
        stack = []
        while True:
            kind, val, loc = lx.next()
            if kind == "int":
                t = Const(val)
            elif kind == "var":
                if self.names:
                    raise ParseError(f"concrete variable {val} in abstract "
                                     "notation", *loc)
                t = Var(val)
            elif kind == "name" or (kind == "=<" and lx.peek()[0] == "("):
                if kind == "=<":
                    val = "=<"   # reified comparison, written prefix
                if lx.peek()[0] == "(":
                    lx.next()
                    stack.append([val, [], False])
                    continue
                t = self.names(val) if self.names else Const(val)
            elif kind == "[":
                if lx.peek()[0] != "]":
                    stack.append([None, [], False])
                    continue
                lx.next()
                t = Const(NIL)
            else:
                raise ParseError(f"unexpected {val!r}" if kind == "eof"
                                 else f"unexpected token {val!r}", *loc)
            # ``t`` is an item of the innermost open compound, which it
            # may complete, and so on outwards
            while stack:
                functor, items, tail = stack[-1]
                items.append(t)
                follows = lx.peek()[0]
                if follows == "," and not tail:
                    lx.next()
                    break
                if follows == "|" and functor is None and not tail:
                    lx.next()
                    stack[-1][2] = True
                    break
                stack.pop()
                if functor is None:
                    lx.expect("]")
                    t = mklist(items[:-1], items[-1]) if tail \
                        else mklist(items)
                else:
                    lx.expect(")")
                    t = Struct(functor, tuple(items))
            else:
                return t


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return p.finish(p.parse_term())


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    return p.finish(p.parse_atom())


def parse_goal(text: str) -> tuple:
    """A comma-separated conjunction of atoms."""
    p = _Parser(text)
    return p.finish(tuple(p.parse_body()))


# --- printing -----------------------------------------------------------

def print_term(t: Term) -> str:
    """The text of a term, written from an explicit stack of what is
    left to write, terms and punctuation, so a term of any depth prints."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is str:
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif t.__class__ is Const:
            out.append(str(t.name))
        else:
            if t.functor == CONS and len(t.args) == 2:
                items, tail = list_parts(t)
                nil = tail.__class__ is Const and tail.name == NIL
                todo += ("]",) if nil else ("]", tail, "|")
                opening = "["
            else:
                items, opening = t.args, f"{t.functor}("
                todo.append(")")
            for x in reversed(items):
                todo += (x, ",")
            todo[-1] = opening
    return "".join(out)


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
