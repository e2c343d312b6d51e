"""Concrete terms, atoms, clauses, substitutions and unification.

The object language is a pure Prolog subset: no cut, no negation, no
operators apart from infix ``=<``.  All values are immutable; the only
mutable facilities are the fresh-name counter used for renaming apart,
the binding store a search extends and undoes (see ``resolve_in``, the
one resolution step that the engine, the table-driven interpreter,
partial deduction and direct synthesis share) and the cache of generated
head code by clause shape (see ``_head_code``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from types import CodeType
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

    @cached_property
    def head_code(self) -> tuple:
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
    """Most general unifier of two terms or atoms, or None on failure.
    The argument pairs of two atoms are unified last first, as a clause
    head's are (see ``resolve_in``), and a variable of ``t1`` is bound
    before one of ``t2``."""
    if isinstance(t1, Atom) and isinstance(t2, Atom):
        if t1.indicator != t2.indicator:
            return None
        work = list(zip(t1.args, t2.args))
    else:
        work = [(t1, t2)]
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
    ``rename_apart``, ``unify`` and applying the unifier give, binding
    for binding: the argument pairs are unified last first, depth first,
    and a goal variable is bound before a clause variable.

    The head is unified by the clause's generated code (see
    ``_head_code``), but first the goal's first argument is checked, as
    first-argument indexing does: when it is a constant or structure
    whose principal functor is not that of the head's first argument, the
    clause is rejected with no binding made.

    Fresh names: ``fresh`` advances by the clause's variable count for
    every clause, whether its head unifies, fails or is rejected, and the
    clause variable at position ``i`` of ``clause.variables`` is named
    ``<prefix><n + i + 1>`` from the count ``n`` it had.  The caller keeps
    ``fresh`` apart from the goal: no variable of ``atom`` or of the store
    may be named like a name ``fresh`` hands out now.  Then a clause
    variable's first occurrence is bound without the occurs check, as the
    WAM's ``get_variable`` binds; a later occurrence is unified with the
    check.  ``engine.depth_first`` raises ``fresh`` past the query's
    variables (``FreshNames.skip_past``), and every other goal variable
    of its machines comes from that ``fresh``: partial deduction's goals
    too, whose patterns it generalizes over its one ``FreshNames``.
    Direct synthesis builds its goals over the ``G``, ``A`` and ``B``
    variables of its templates and names from its ``FreshNames``.

    A store is a dict whose insertion order is its trail: a search adds
    bindings at the end and undoes them from the end (``take_back``).
    The goal and the store hold concrete terms: the head code tests a
    goal term's class, so it would not take an abstract variable of
    ``absdom`` for a variable.
    """
    nvars, first, code = clause.head_code
    base = fresh.n
    fresh.n = base + nvars
    args = atom.args
    head = clause.head
    if atom.pred != head.pred or len(args) != len(head.args):
        return None
    if first is not None:
        x = args[0]
        while isinstance(x, Var):
            t = store.get(x)
            if t is None:
                break
            x = t
        if x.__class__ is Const:
            if x.name != first:
                return None
        elif x.__class__ is Struct and (x.functor, len(x.args)) != first:
            return None
    mark = len(store)
    body = code(args, store, occurs_check, fresh.prefix, base)
    bindings = take_back(store, mark)
    if body is None:
        return None
    return body, bindings


def take_back(store: dict, mark: int) -> list:
    """Undo the bindings added to ``store`` since it held ``mark`` of them;
    returns them, last first."""
    popitem = store.popitem
    return [popitem() for _ in range(len(store) - mark)]


# --- generated head code -------------------------------------------------

# A list of more cells than this is built in a body by ``mklist``, from a
# flat tuple of its elements, so that the generated code stays shallow
_LONG_LIST = 8
# A body expression nested deeper is assigned to a local first: Python's
# parser takes a few hundred nested parentheses at most
_MAX_NESTING = 16

# code factories by clause shape (see ``_shape``); clauses of one shape,
# such as the facts of one table, share one code object
_FACTORIES = {}


def _head_code(clause: Clause) -> tuple:
    """The clause's variable count, the principal functor of its head's
    first argument (a constant's name, a structure's functor and arity,
    or None for a variable or no argument), and its resolution code: a
    function of the goal's arguments, the store, the occurs-check flag
    and the fresh names' prefix and count that unifies the arguments with
    the head, binding into the store, and returns the renamed body, or
    None when the head does not unify.

    The code is generated once per shape, on the first clause of that
    shape; a clause only hands its constants to the shape's factory."""
    shape, consts, nvars = _shape(clause)
    make = _FACTORIES.get(shape)
    if make is None:
        make = _FACTORIES[shape] = _factory(shape)
    first = clause.head.args[0] if clause.head.args else None
    if isinstance(first, Const):
        first = first.name
    elif isinstance(first, Struct):
        first = (first.functor, len(first.args))
    else:
        first = None
    return nvars, first, make(consts)


def _is_constant(node) -> bool:
    return node.__class__ is tuple and (node[0] == "c" or node[0] == "k")


def _shape(clause: Clause) -> tuple:
    """The clause's shape, free of names, the constants it leaves out and
    its variable count.

    The shape is ``(head arguments, body atoms)`` of nodes: a variable's
    position in ``clause.variables``; ``("c", j)`` for a constant,
    ``consts[j]``, whose name is ``consts[j + 1]``; ``("k", j)`` for a
    ground structure or atom; ``("s", j, args)`` for a structure with
    functor ``consts[j]``; ``("a", j, args)`` for a body atom with
    predicate ``consts[j]``; and ``("l", items, tail)`` for the cells of a
    list up to its ground rest, which is its tail.  A list's spine is
    walked in a loop, so a list of any length is a flat node."""
    # ``clause.variables``, not cached: every clause would keep the dict
    positions = {v: i for i, v in
                 enumerate(term_vars((clause.head,) + clause.body))}
    consts = []

    def compound(kind, name, args, term):
        mark = len(consts)
        consts.append(name)
        nodes = tuple([walk(a) for a in args])
        if all(map(_is_constant, nodes)):
            del consts[mark:]
            consts.append(term)
            return ("k", mark)
        return (kind, mark, nodes)

    def walk(t):
        if isinstance(t, Var):
            return positions[t]
        if isinstance(t, Const):
            consts.extend((t, t.name))
            return ("c", len(consts) - 2)
        if t.functor != CONS or len(t.args) != 2:
            return compound("s", t.functor, t.args, t)
        cells = []
        while isinstance(t, Struct) and t.functor == CONS and len(t.args) == 2:
            cells.append(t)
            t = t.args[1]
        marks, items = [], []
        for cell in cells:
            marks.append(len(consts))
            items.append(walk(cell.args[0]))
        tail = walk(t)
        k = len(cells)
        if _is_constant(tail):
            while k and _is_constant(items[k - 1]):
                k -= 1
            if k < len(cells):
                del consts[marks[k]:]
                consts.append(cells[k])
                tail = ("k", marks[k])
                if not k:
                    return tail
        return ("l", tuple(items[:k]), tail)

    head = tuple([walk(a) for a in clause.head.args])
    body = tuple([compound("a", a.pred, a.args, a) for a in clause.body])
    return (head, body), consts, len(positions)


def _node_vars(nodes) -> set:
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node.__class__ is int:
            out.add(node)
        elif node[0] == "l":
            stack.extend(node[1])
            stack.append(node[2])
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
    the same nesting, guarded by its parent's read-mode flag, so the code
    of a head of any depth stays shallow.  A variable is named at its
    first occurrence and bound there without the occurs check; a later
    occurrence is unified by ``_unify_pairs``.  A constant or ground
    structure is compared or bound as it is.  The code then names the
    body's own variables and builds the body."""
    head, body = shape
    lines = []
    used = set()      # constant slots the code reads
    seen = set()      # variables met so far, in unification order
    ids = count()

    def out(depth, text):
        lines.append("    " * depth + text)

    def const(j):
        used.add(j)
        return f"K{j}"

    def name(i, depth):
        out(depth, f"V{i} = Var(f'{{P}}{{n + {i + 1}}}')")

    def deref(src, depth):
        out(depth, f"x = {src}")
        out(depth, "if x.__class__ is Var:")
        out(depth + 1, "x = _deref(x, b)")

    def guard(flag, depth):
        if flag:
            out(depth, f"if {flag}:")
            return depth + 1
        return depth

    def decide(functor, arity, src, flag, depth):
        """Emit the choice of mode of a structure: ``R<k>`` holds in read
        mode, with ``G<k>_<i>`` the goal's arguments; otherwise ``W<k>``
        is the goal's variable, when the parent is in read mode."""
        k = next(ids)
        out(depth, f"R{k} = False")
        depth = guard(flag, depth)
        deref(src, depth)
        out(depth, "if x.__class__ is Var:")
        out(depth + 1, f"W{k} = x")
        out(depth, f"elif x.__class__ is Struct and x.functor == {functor} "
                   f"and len(x.args) == {arity}:")
        out(depth + 1, "".join(f"G{k}_{i}, " for i in range(arity))
            + "= x.args")
        out(depth + 1, f"R{k} = True")
        out(depth, "else:")
        out(depth + 1, "return None")
        return k

    def build(k, functor, parts, check, flag, depth):
        """Emit the write mode of a structure: it is built, and bound to
        the goal's variable when its parent is in read mode."""
        out(depth, f"if not R{k}:")
        out(depth + 1, f"T{k} = Struct({functor}, ({', '.join(parts)},))")
        depth = guard(flag, depth + 1)
        if check:
            out(depth, f"if oc and _occurs(W{k}, T{k}, b):")
            out(depth + 1, "return None")
        out(depth, f"b[W{k}] = T{k}")
        return f"T{k}"

    def unify(node, src, flag, depth):
        """Emit the unification of the goal term ``src`` with ``node``,
        when ``flag`` (read mode) holds; the expression of the node's
        term, for the build of its parent."""
        if node.__class__ is int:
            var = f"V{node}"
            if node in seen:
                cond = f"{flag} and " if flag else ""
                out(depth, f"if {cond}not _unify_pairs([({src}, {var})], b, "
                           "oc):")
                out(depth + 1, "return None")
                return var
            seen.add(node)
            name(node, depth)
            depth = guard(flag, depth)
            deref(src, depth)
            out(depth, "if x.__class__ is Var:")
            out(depth + 1, f"b[x] = {var}")
            out(depth, "else:")
            out(depth + 1, f"b[{var}] = x")
            return var
        kind = node[0]
        if kind == "c" or kind == "k":
            value = const(node[1])
            depth = guard(flag, depth)
            deref(src, depth)
            out(depth, "if x.__class__ is Var:")
            out(depth + 1, f"b[x] = {value}")
            if kind == "c":
                out(depth, "elif x.__class__ is not Const or "
                           f"x.name != {const(node[1] + 1)}:")
            else:
                out(depth, f"elif not _unify_pairs([(x, {value})], b, oc):")
            out(depth + 1, "return None")
            return value
        before = set(seen)
        if kind == "s":
            functor, args = const(node[1]), node[2]
            k = decide(functor, len(args), src, flag, depth)
            parts = [None] * len(args)
            for i in reversed(range(len(args))):
                parts[i] = unify(args[i], f"G{k}_{i}", f"R{k}", depth)
            return build(k, functor, parts, _node_vars(args) & before, flag,
                         depth)
        # a list: decide each cell, then unify the tail and each cell's
        # item, innermost first, building each cell after its item
        items, tail = node[1], node[2]
        ks, flags = [], []
        for _ in items:
            flags.append(flag)
            k = decide("CONS", 2, src, flag, depth)
            ks.append(k)
            src, flag = f"G{k}_1", f"R{k}"
        part = unify(tail, src, flag, depth)
        met = _node_vars((tail,)) & before
        for k, item, flag in reversed(list(zip(ks, items, flags))):
            value = unify(item, f"G{k}_0", f"R{k}", depth)
            met |= _node_vars((item,)) & before
            part = build(k, "CONS", (value, part), met, flag, depth)
        return part

    def term(node):
        """The expression that builds a body node, and its nesting."""
        if node.__class__ is int:
            return f"V{node}", 0
        kind = node[0]
        if kind == "c" or kind == "k":
            return const(node[1]), 0
        if kind == "l":
            items = [term(item) for item in node[1]]
            expr, nesting = term(node[2])
            nesting = max([nesting] + [n for _, n in items])
            if len(items) > _LONG_LIST:
                elems = "".join(f"{e}, " for e, _ in items)
                expr, nesting = f"mklist(({elems}), {expr})", nesting + 1
            else:
                for e, _ in reversed(items):
                    expr, nesting = f"Struct(CONS, ({e}, {expr}))", nesting + 1
        else:
            parts = [term(arg) for arg in node[2]]
            cls = "Atom" if kind == "a" else "Struct"
            expr = f"{cls}({const(node[1])}, ({''.join(f'{e}, ' for e, _ in parts)}))"
            nesting = 1 + max(n for _, n in parts)
        if nesting < _MAX_NESTING:
            return expr, nesting
        local = f"B{next(ids)}"
        out(2, f"{local} = {expr}")
        return local, 0

    for i in reversed(range(len(head))):
        unify(head[i], f"a{i}", None, 2)
    for i in sorted(_node_vars(body) - seen):
        name(i, 2)
    atoms = [term(atom)[0] for atom in body]
    out(2, f"return ({''.join(f'{a}, ' for a in atoms)})")
    source = (["def make(K):"]
              + [f"    K{j} = K[{j}]" for j in sorted(used)]
              + ["    def resolve(a, b, oc, P, n):"]
              + ([f"        {''.join(f'a{i}, ' for i in range(len(head)))}= a"]
                 if head else [])
              + lines + ["    return resolve"])
    scope = {}
    exec(_lean(compile("\n".join(source), "<clause shape>", "exec")),
         globals(), scope)
    return scope["make"]


def _lean(code: CodeType) -> CodeType:
    """``code`` and the code objects it holds without their line tables,
    which generated code does not need."""
    return code.replace(co_linetable=b"", co_consts=tuple(
        _lean(c) if isinstance(c, CodeType) else c for c in code.co_consts))


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
        kind, val, loc = self.lx.next()
        if kind == "int":
            return Const(val)
        if kind == "var":
            if self.names:
                raise ParseError(f"concrete variable {val} in abstract "
                                 "notation", *loc)
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
            return self.names(val) if self.names else Const(val)
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
