"""Abstract domain for the instantiation analysis.

Abstract terms are terms of ``ccontrol.terms`` whose variables are
abstract: an ``a`` variable denotes any concrete term, a ``g`` variable a
ground concrete term.  Equal variables are aliased: every occurrence
stands for the same concrete subterm.  Abstract atoms are ``Atom``s over
such terms, and conjunctions are tuples of atoms and multi abstractions.
Equivalence is mutual instantiation, decided here via canonical
renumbering; a resolution step is abstracted by one run of the concrete
unifier, in which abstract variables are variables like any other.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import Optional

from .terms import (Atom, Clause, Const, LogicError, Struct, Var, _Parser,
                    print_atom, print_term, replace_vars, term_vars, unify)

ANY = "a"
GROUND = "g"

UNFOLD = "unfold"
FULLEVAL = "fulleval"


class AbstractDomainError(LogicError):
    pass


class AVar(Var):
    """An abstract variable, ``a<index>`` or ``g<index>``: a ``Var`` named
    as it prints, so that it hashes in C.  It equals only an ``AVar`` of
    the same kind and index, never a concrete variable."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __new__(cls, kind: str, index: int):
        return str.__new__(cls, f"{kind}{index}")

    kind = property(itemgetter(0))   # ANY or GROUND

    @property
    def index(self) -> int:
        return int(self[1:])

    def __getnewargs__(self):       # for pickle and copy
        return self.kind, self.index

    def __eq__(self, other):
        return other.__class__ is AVar and str.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not AVar or str.__ne__(self, other)


class MVar(Var):
    """Parameter variable of a multi pattern (slot-relative), ``ma<local>``
    or ``mg<local>``; it equals only an ``MVar`` of the same name."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __new__(cls, kind: str, local: int):
        return str.__new__(cls, f"m{kind}{local}")

    kind = property(itemgetter(1))

    @property
    def local(self) -> int:
        return int(self[2:])

    def __getnewargs__(self):
        return self.kind, self.local

    def __eq__(self, other):
        return other.__class__ is MVar and str.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not MVar or str.__ne__(self, other)


def avar_occurrences(x) -> list:
    """Every occurrence of an AVar, in order (MVars are skipped), walked on
    an explicit stack."""
    out, stack = [], [x]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is AVar:
            out.append(x)
        elif cls is Struct or cls is Atom:
            stack += x.args[::-1]
        elif cls is tuple or cls is list:
            stack += x[::-1]
        elif hasattr(x, "outer_terms"):  # Multi
            stack += x.outer_terms()[::-1]
    return out


def avars(x) -> list:
    """AVars in first-occurrence order (MVars are skipped)."""
    return list(dict.fromkeys(avar_occurrences(x)))


def is_ground(t) -> bool:
    """Whether every term ``t`` stands for is ground: a ``g`` variable is,
    an ``a`` variable and a concrete variable are not."""
    if isinstance(t, Var):      # the common case, without a walk
        return isinstance(t, (AVar, MVar)) and t.kind == GROUND
    return all(isinstance(v, (AVar, MVar)) and v.kind == GROUND
               for v in term_vars(t))


class ASub:
    """Abstract substitution: finite map AVar/MVar -> abstract term,
    applied simultaneously.

    Ground variables may only be bound to ground abstract terms.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=None):
        self.pairs = dict(pairs or {})
        for v, t in self.pairs.items():
            if v.kind == GROUND and not is_ground(t):
                raise AbstractDomainError(
                    f"ground variable {v} bound to non-ground {t!r}")

    def __repr__(self):
        inner = ", ".join(f"{v}={print_term(t)}"
                          for v, t in self.pairs.items())
        return "{" + inner + "}"

    def __eq__(self, other):
        return isinstance(other, ASub) and self.pairs == other.pairs

    def apply(self, x):
        if isinstance(x, (tuple, list)):
            out = [self.apply(item) for item in x]
            return tuple(out) if isinstance(x, tuple) else out
        if hasattr(x, "apply_outer"):  # Multi
            return x.apply_outer(self)
        pairs = self.pairs
        return replace_vars(x, lambda v: pairs.get(v, v))


class FreshAVars:
    """Fresh abstract-variable index source."""

    def __init__(self):
        self.counters = {ANY: 0, GROUND: 0}

    @classmethod
    def above(cls, x) -> "FreshAVars":
        f = cls()
        for v in avar_occurrences(x):
            f.counters[v.kind] = max(f.counters[v.kind], v.index)
        return f

    def var(self, kind: str) -> AVar:
        self.counters[kind] += 1
        return AVar(kind, self.counters[kind])


# --- canonical form -----------------------------------------------------

def renumbering(cls, make):
    """A renaming that numbers the variables of class ``cls`` per kind in
    first-occurrence order, the variable numbered n of a kind becoming
    ``make(kind, n)``, and keeps every other variable; and the mapping it
    builds as it goes."""
    mapping = {}
    counters = {ANY: 0, GROUND: 0}

    def rename(v):
        if v.__class__ is not cls:
            return v
        r = mapping.get(v)
        if r is None:
            kind = v.kind
            counters[kind] += 1
            r = mapping[v] = make(kind, counters[kind])
        return r

    return rename, mapping


def canonicalize(x):
    """Renumber variables per kind in first-occurrence order.

    Makes equivalence-class identity a syntactic equality check.  Multi
    identifiers are renumbered in order of occurrence as well.
    """
    rename, _ = renumbering(AVar, AVar)     # a multi's MVars are kept
    multi_ids = itertools.count(1)

    def walk(t):
        if isinstance(t, (Atom, Struct, AVar, MVar, Const)):
            return replace_vars(t, rename)
        if hasattr(t, "renumber"):  # Multi
            return t.renumber(walk, next(multi_ids))
        raise AbstractDomainError(f"cannot canonicalize {t!r}")

    if isinstance(x, (tuple, list)):
        return tuple(walk(item) for item in x)
    return walk(x)


# --- instance check -----------------------------------------------------

def abstract_instance(x, y) -> Optional[ASub]:
    """Substitution t with y.t = x, or None when x is not an instance of y.

    Respects groundness: a ground variable of y can only cover a ground
    part of x.  Aliasing in y forces the corresponding subterms of x to be
    identical.  ``x`` may be a concrete term or atom, whose variables are
    not ground: then the result says whether y's denotation holds it.
    """
    binding = {}
    if isinstance(x, (tuple, list)) and isinstance(y, (tuple, list)):
        if len(x) != len(y):
            return None
        stack = list(zip(x, y))[::-1]
    else:
        stack = [(x, y)]
    while stack:            # (instance, pattern) pairs, left to right
        xt, yt = stack.pop()
        if isinstance(yt, (AVar, MVar)):
            if yt.kind == GROUND and not is_ground(xt):
                return None
            if yt not in binding:
                binding[yt] = xt
            elif binding[yt] != xt:
                return None
        elif isinstance(yt, Const):
            if not (isinstance(xt, Const) and xt.name == yt.name):
                return None
        elif isinstance(yt, Struct):
            if not (isinstance(xt, Struct) and xt.functor == yt.functor
                    and len(xt.args) == len(yt.args)):
                return None
            stack.extend(reversed(tuple(zip(xt.args, yt.args))))
        elif isinstance(yt, Atom):
            if not (isinstance(xt, Atom) and xt.indicator == yt.indicator):
                return None
            stack.extend(reversed(tuple(zip(xt.args, yt.args))))
        elif hasattr(yt, "outer_terms"):    # Multi
            # the same chain, and every outer constraint of yt constrains
            # xt to an instance (xt may carry more constraints)
            if isinstance(xt, Atom) or (xt.pattern, xt.consecutive) != \
                    (yt.pattern, yt.consecutive):
                return None
            pairs = []
            for xcs, ycs in ((xt.init, yt.init), (xt.final, yt.final)):
                xd = dict(xcs)
                if not all(v in xd for v, _ in ycs):
                    return None
                pairs += [(xd[v], t) for v, t in ycs]
            stack.extend(reversed(pairs))
        else:
            raise AbstractDomainError(f"not an abstract term: {yt!r}")
    return ASub(binding)


# --- abstraction of resolution ------------------------------------------

def abstract_mgu(first, second, own, fresh: FreshAVars, body=()):
    """Abstracted unification of the argument pairs ``first`` and
    ``second``: one run of the concrete unifier, in which abstract and
    concrete variables are distinct variables, a variable of ``first``
    bound before one of ``second``.

    Returns the ``body`` atoms under the unifier, mapped back into the
    domain, and the substitution induced on the abstract variables of
    ``own``; or None when the pairs do not unify.  Structural groundness
    propagation: every variable occurring in a subterm unified against a
    ground variable becomes ground, and an ``a`` variable of ``own`` made
    ground is upgraded.  Integer constants are widened to fresh ground
    variables, one per integer.  Fresh variables are drawn for the body
    first, then for ``own``.
    """
    # ``unify`` takes an atom's argument pairs last first, so the pairs go
    # in reversed: they are unified first to last
    sigma = unify(Atom("", first[::-1]), Atom("", second[::-1]))
    if sigma is None:
        return None
    store = sigma.bindings
    own = dict.fromkeys(avars(own))
    ground = set()
    for v in term_vars((first, second)):
        if isinstance(v, (AVar, MVar)) and v.kind == GROUND:
            ground.update(term_vars(sigma.apply(v)))
    memo = {}

    def back(t):
        """A term under the unifier, each of its variables read through
        the store, mapped back into the domain: rebuilt bottom up on an
        explicit stack, its leaves met left to right."""
        stack, out = [t], []
        while stack:
            t = stack.pop()
            if t.__class__ is tuple:    # a structure whose arguments are out
                k = len(out) - len(t[0].args)
                out[k:] = [Struct(t[0].functor, tuple(out[k:]))]
            elif isinstance(t, Struct):
                stack.append((t,))
                stack.extend(reversed(t.args))
            elif isinstance(t, Var) and t in store:
                stack.append(store[t])
            elif isinstance(t, Const) and not isinstance(t.name, int):
                out.append(t)
            else:
                r = memo.get(t)
                if r is None:
                    kind = GROUND if isinstance(t, Const) or t in ground \
                        else ANY
                    r = memo[t] = t if t in own and t.kind == kind \
                        else fresh.var(kind)
                out.append(r)
        return out[0]

    body = tuple(Atom(b.pred, tuple(back(t) for t in b.args))
                 for b in body)
    theta = {}
    for v in own:
        r = back(v)
        if r != v:
            theta[v] = r
    return body, ASub(theta)


def abstract_unify_with_clause(a: Atom, clause: Clause, fresh: FreshAVars):
    """Abstraction of one resolution step of ``a`` against ``clause``.

    Returns (abstract body conjunction, substitution on the caller's
    variables) or None when no concrete instance of ``a`` can unify with
    the clause head.  The clause's variables are unified as they are:
    none of them equals an abstract variable.
    """
    if a.indicator != clause.head.indicator:
        return None
    return abstract_mgu(clause.head.args, a.args, a.args, fresh,
                        clause.body)


def full_eval_output(a: Atom, pattern: Atom, output: ASub,
                     fresh: FreshAVars):
    """One declared output binding of a fully evaluated atom, renamed into
    the caller's index space.  ``output`` is expressed over the pattern's
    variables; fresh variables on its right-hand sides stand for newly
    produced values."""
    post = output.apply(pattern)
    # renamed apart from the caller's variables, whose indices are not
    # negative; a renamed variable keeps its kind
    post = ASub({v: AVar(v.kind, -1 - v.index)
                 for v in avars(post)}).apply(post)
    res = abstract_mgu(post.args, a.args, a.args, fresh)
    return None if res is None else res[1]


# --- depth-k widening ---------------------------------------------------

def widen_depth_k(x, k: int):
    """Most specific generalization of term depth at most ``k`` of an
    abstract term, atom or conjunction (whose multis are kept as they are).

    Truncated subtrees containing only ground material become fresh ground
    variables, fresh in all of ``x``; identical truncated subtrees share
    one fresh variable.
    """
    if k < 1:
        raise AbstractDomainError("depth limit must be positive")
    fresh = FreshAVars.above(x)
    memo = {}

    def cut(t, budget):
        if isinstance(t, Struct):
            if budget == 0:
                if t not in memo:
                    kind = GROUND if is_ground(t) else ANY
                    memo[t] = fresh.var(kind)
                return memo[t]
            return Struct(t.functor,
                          tuple(cut(a, budget - 1) for a in t.args))
        if isinstance(t, (AVar, MVar, Const)):
            return t
        raise AbstractDomainError(f"cannot widen {t!r}")

    def widen(c):
        if isinstance(c, Atom):
            return Atom(c.pred, tuple(cut(a, k) for a in c.args))
        return c if hasattr(c, "outer_terms") else cut(c, k)  # Multi

    if isinstance(x, tuple):
        return tuple(widen(c) for c in x)
    return widen(x)


# --- textual notation ---------------------------------------------------

def abstract_name(name: str):
    """The term a bare name stands for in abstract notation: ``a1`` and
    ``g2`` are abstract variables, any other name is a constant."""
    m = re.fullmatch("([ag])([0-9]+)", name)
    return AVar(m[1], int(m[2])) if m else Const(name)


def parse_aconj(text: str) -> tuple:
    """Conjunction of abstract atoms and multi abstractions."""
    from .multi import parse_conjunct, pattern_name
    parser = _Parser(text, pattern_name)
    out = [parse_conjunct(parser)]
    while parser.lx.peek()[0] == ",":
        parser.lx.next()
        out.append(parse_conjunct(parser))
    return parser.finish(tuple(out))


def print_aconj(conj) -> str:
    return " , ".join(print_atom(c) if isinstance(c, Atom) else repr(c)
                      for c in conj)
