"""Abstract domain for the instantiation analysis.

Abstract variables come in two kinds: ``a`` variables denote any concrete
term, ``g`` variables denote ground concrete terms.  Equal (kind, index)
pairs are aliased: every occurrence stands for the same concrete subterm.
Abstract terms, atoms and conjunctions are built over these variables plus
abstract constants; equivalence is mutual instantiation, decided here via
canonical renumbering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

from .terms import (Atom, Clause, Const, LogicError, ParseError, Struct,
                    Substitution, Var, _Parser, print_atom, print_term,
                    term_vars, unify)

ANY = "a"
GROUND = "g"

UNFOLD = "unfold"
FULLEVAL = "fulleval"


class AbstractDomainError(LogicError):
    pass


@dataclass(frozen=True)
class AVar:
    kind: str  # ANY or GROUND
    index: int

    def __repr__(self):
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class MVar:
    """Parameter variable of a multi pattern (slot-relative)."""
    kind: str
    local: int

    def __repr__(self):
        return f"{self.kind}{self.local}"


@dataclass(frozen=True)
class AbsConst:
    name: Union[str, int]

    def __repr__(self):
        return str(self.name)


@dataclass(frozen=True)
class AbsStruct:
    functor: str
    args: tuple

    def __repr__(self):
        return print_aterm(self)


ATerm = Union[AVar, MVar, AbsConst, AbsStruct]


@dataclass(frozen=True)
class AAtom:
    pred: str
    args: tuple = ()

    @property
    def indicator(self):
        return (self.pred, len(self.args))

    def __repr__(self):
        return print_aatom(self)


def avar_occurrences(x, acc=None) -> list:
    """Every occurrence of an AVar, in order (MVars are skipped)."""
    if acc is None:
        acc = []
    if isinstance(x, AVar):
        acc.append(x)
    elif isinstance(x, (AbsStruct, AAtom)):
        for a in x.args:
            avar_occurrences(a, acc)
    elif isinstance(x, (tuple, list)):
        for item in x:
            avar_occurrences(item, acc)
    elif hasattr(x, "outer_terms"):  # Multi
        for t in x.outer_terms():
            avar_occurrences(t, acc)
    return acc


def avars(x) -> list:
    """AVars in first-occurrence order (MVars are skipped)."""
    return list(dict.fromkeys(avar_occurrences(x)))


def is_ground_aterm(t) -> bool:
    if isinstance(t, (AVar, MVar)):
        return t.kind == GROUND
    if isinstance(t, AbsConst):
        return True
    if isinstance(t, AbsStruct):
        return all(is_ground_aterm(a) for a in t.args)
    raise AbstractDomainError(f"not an abstract term: {t!r}")


class ASub:
    """Abstract substitution: finite map AVar/MVar -> ATerm.

    Ground variables may only be bound to ground abstract terms.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=None):
        self.pairs = dict(pairs or {})
        for v, t in self.pairs.items():
            if v.kind == GROUND and not is_ground_aterm(t):
                raise AbstractDomainError(
                    f"ground variable {v} bound to non-ground {t!r}")

    def __repr__(self):
        inner = ", ".join(f"{v}={print_aterm(t)}"
                          for v, t in self.pairs.items())
        return "{" + inner + "}"

    def __eq__(self, other):
        return isinstance(other, ASub) and self.pairs == other.pairs

    def apply(self, x):
        if isinstance(x, (AVar, MVar)):
            t = self.pairs.get(x)
            return x if t is None else t
        if isinstance(x, AbsConst):
            return x
        if isinstance(x, AbsStruct):
            return AbsStruct(x.functor, tuple(self.apply(a) for a in x.args))
        if isinstance(x, AAtom):
            return AAtom(x.pred, tuple(self.apply(a) for a in x.args))
        if isinstance(x, (tuple, list)):
            out = [self.apply(item) for item in x]
            return tuple(out) if isinstance(x, tuple) else out
        if hasattr(x, "apply_outer"):  # Multi
            return x.apply_outer(self)
        raise AbstractDomainError(f"cannot apply substitution to {x!r}")


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


# --- canonical form and equivalence -------------------------------------

def canonicalize(x):
    """Renumber variables per kind in first-occurrence order.

    Makes equivalence-class identity a syntactic equality check.  Multi
    identifiers are renumbered in order of occurrence as well.
    """
    mapping = {}
    counters = {ANY: 0, GROUND: 0}
    multi_ids = itertools.count(1)

    def walk(t):
        if isinstance(t, AVar):
            if t not in mapping:
                counters[t.kind] += 1
                mapping[t] = AVar(t.kind, counters[t.kind])
            return mapping[t]
        if isinstance(t, MVar):
            return t
        if isinstance(t, AbsConst):
            return t
        if isinstance(t, AbsStruct):
            return AbsStruct(t.functor, tuple(walk(a) for a in t.args))
        if isinstance(t, AAtom):
            return AAtom(t.pred, tuple(walk(a) for a in t.args))
        if hasattr(t, "renumber"):  # Multi
            return t.renumber(walk, next(multi_ids))
        raise AbstractDomainError(f"cannot canonicalize {t!r}")

    if isinstance(x, (tuple, list)):
        return tuple(walk(item) for item in x)
    return walk(x)


def equivalent(x, y) -> bool:
    """Mutual-instance equivalence, decided on canonical forms."""
    if isinstance(x, (tuple, list)) != isinstance(y, (tuple, list)):
        return False
    return canonicalize(x) == canonicalize(y)


# --- instance check -----------------------------------------------------

def abstract_instance(x, y) -> Optional[ASub]:
    """Substitution t with y.t = x, or None when x is not an instance of y.

    Respects groundness: a ground variable of y can only cover a ground
    part of x.  Aliasing in y forces the corresponding subterms of x to be
    identical.
    """
    binding = {}

    def match(xt, yt) -> bool:
        if isinstance(yt, (AVar, MVar)):
            if yt.kind == GROUND and not is_ground_aterm(xt):
                return False
            if yt in binding:
                return binding[yt] == xt
            binding[yt] = xt
            return True
        if isinstance(yt, AbsConst):
            return isinstance(xt, AbsConst) and xt.name == yt.name
        if isinstance(yt, AbsStruct):
            return (isinstance(xt, AbsStruct) and xt.functor == yt.functor
                    and len(xt.args) == len(yt.args)
                    and all(match(a, b) for a, b in zip(xt.args, yt.args)))
        raise AbstractDomainError(f"not an abstract term: {yt!r}")

    def match_atom(xa, ya) -> bool:
        return (isinstance(xa, AAtom) and isinstance(ya, AAtom)
                and xa.indicator == ya.indicator
                and all(match(a, b) for a, b in zip(xa.args, ya.args)))

    def match_multi(xm, ym) -> bool:
        # the same chain, and every outer constraint of ym constrains xm
        # to an instance (xm may carry more constraints)
        if isinstance(xm, AAtom) or (xm.pattern, xm.consecutive) != \
                (ym.pattern, ym.consecutive):
            return False
        for xcs, ycs in ((xm.init, ym.init), (xm.final, ym.final)):
            xd = dict(xcs)
            if not all(v in xd and match(xd[v], t) for v, t in ycs):
                return False
        return True

    if isinstance(x, (tuple, list)) and isinstance(y, (tuple, list)):
        if len(x) != len(y):
            return None
        for xi, yi in zip(x, y):
            ok = match_atom(xi, yi) if isinstance(yi, AAtom) \
                else match_multi(xi, yi)
            if not ok:
                return None
        return ASub(binding)
    if isinstance(x, AAtom) and isinstance(y, AAtom):
        return ASub(binding) if match_atom(x, y) else None
    return ASub(binding) if match(x, y) else None


def strict_instance(x, y) -> bool:
    """gamma(x) strictly included in gamma(y), decided syntactically."""
    return abstract_instance(x, y) is not None and not equivalent(x, y)


# --- concretization membership ------------------------------------------

def member(concrete, abstract) -> bool:
    """Concrete term/atom membership in the denotation of an abstract one;
    aliased abstract variables must cover identical concrete subterms."""
    binding = {}

    def ground_concrete(t):
        if isinstance(t, Var):
            return False
        if isinstance(t, Const):
            return True
        return all(ground_concrete(a) for a in t.args)

    def walk(ct, at) -> bool:
        if isinstance(at, (AVar, MVar)):
            if at.kind == GROUND and not ground_concrete(ct):
                return False
            if at in binding:
                return binding[at] == ct
            binding[at] = ct
            return True
        if isinstance(at, AbsConst):
            return isinstance(ct, Const) and ct.name == at.name
        if isinstance(at, AbsStruct):
            return (isinstance(ct, Struct) and ct.functor == at.functor
                    and len(ct.args) == len(at.args)
                    and all(walk(c, a) for c, a in zip(ct.args, at.args)))
        raise AbstractDomainError(f"not an abstract term: {at!r}")

    if isinstance(concrete, Atom) and isinstance(abstract, AAtom):
        return (concrete.indicator == abstract.indicator
                and all(walk(c, a)
                        for c, a in zip(concrete.args, abstract.args)))
    return walk(concrete, abstract)


# --- abstraction of resolution ------------------------------------------

_XP = "~x~"   # placeholder prefixes; reserved, cannot be parsed from source
_YP = "~y~"


def concrete_template(x, var):
    """An abstract term or atom as a concrete one: constants and
    structures are kept, and each abstract variable ``v`` becomes
    ``var(v)``, so the caller decides how variables are named and shared."""
    if isinstance(x, (AVar, MVar)):
        return var(x)
    if isinstance(x, AbsConst):
        return Const(x.name)
    if isinstance(x, AbsStruct):
        return Struct(x.functor, tuple(concrete_template(a, var)
                                       for a in x.args))
    if isinstance(x, AAtom):
        return Atom(x.pred, tuple(concrete_template(a, var) for a in x.args))
    raise AbstractDomainError(f"not an abstract term: {x!r}")


class MixedUnifier:
    """Abstracted unification of an x-side abstract value against a y-side
    one (clause heads use fresh placeholders for their concrete variables).

    Produces the substitution induced on the x side plus an abstraction
    function for mapping instantiated clause bodies back into the abstract
    domain.  Structural groundness propagation: every variable occurring in
    a subterm unified against a ground variable becomes ground.  Integer
    constants in results are widened to fresh ground variables.
    """

    def __init__(self, fresh: FreshAVars):
        self.fresh = fresh
        self.env = {}
        self.sigma = None
        self.ground = set()
        self.backmap = {}
        self.int_cache = {}

    def _placeholder(self, prefix, v):
        """The concrete variable standing for abstract ``v`` on one side."""
        key = (prefix, v)
        if key not in self.env:
            self.env[key] = Var(f"{prefix}{v!r}_{len(self.env)}")
        return self.env[key]

    def _placeholder_origin(self, v: Var):
        for (prefix, av), pv in self.env.items():
            if pv == v:
                return prefix, av
        return None, None

    def unify_same_side(self, ts1, ts2) -> bool:
        """Unify pairs of x-side abstract terms against each other; shared
        variables alias.  The result is read off with ``theta_x``."""
        x = partial(self._placeholder, _XP)
        xs = tuple(concrete_template(t, x) for t in ts1)
        ys = tuple(concrete_template(t, x) for t in ts2)
        b = {}
        for xt, yt in zip(xs, ys):
            sigma = unify(xt, yt, occurs_check=True, bindings=b)
            if sigma is None:
                return False
            b = sigma.bindings
        self.sigma = Substitution(b).normalized()
        self._mark_ground()
        return True

    def unify(self, x_args, y_head):
        """x_args: tuple of x-side ATerms; y_head: tuple of terms that are
        either ATerms (y-side abstract, e.g. fulleval post-patterns) or
        concrete Terms containing clause variables."""
        x = partial(self._placeholder, _XP)
        xs = tuple(concrete_template(a, x) for a in x_args)
        ys = tuple(self._y_concrete(t) for t in y_head)
        b = {}
        sigma = None
        for yt, xt in zip(ys, xs):
            sigma = unify(yt, xt, occurs_check=True, bindings=b)
            if sigma is None:
                return False
            b = sigma.bindings
        self.sigma = Substitution(b).normalized() if sigma is not None \
            else Substitution()
        self._mark_ground()
        return True

    def _y_concrete(self, t):
        if isinstance(t, (AVar, MVar, AbsConst, AbsStruct)):
            return concrete_template(t, partial(self._placeholder, _YP))
        if isinstance(t, Var):
            return Var(f"{_YP}cv_{t.name}")
        if isinstance(t, Const):
            return t
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(self._y_concrete(a)
                                           for a in t.args))
        raise AbstractDomainError(f"bad clause term {t!r}")

    def _mark_ground(self):
        for (prefix, av), pv in self.env.items():
            if isinstance(av, (AVar, MVar)) and av.kind == GROUND:
                for v in term_vars(self.sigma.apply(pv)):
                    self.ground.add(v)

    def abstract(self, t):
        """Map a concrete term (post-substitution) back into the domain."""
        t = self.sigma.apply(t)
        return self._abs(t)

    def _abs(self, t):
        if isinstance(t, Var):
            if t not in self.backmap:
                prefix, av = self._placeholder_origin(t)
                if prefix == _XP and isinstance(av, AVar) and (
                        av.kind == GROUND or t not in self.ground):
                    self.backmap[t] = av
                else:
                    kind = GROUND if t in self.ground else ANY
                    if prefix == _XP and isinstance(av, AVar):
                        kind = GROUND  # upgraded a-var
                    self.backmap[t] = self.fresh.var(kind)
            return self.backmap[t]
        if isinstance(t, Const):
            if isinstance(t.name, int):
                if t.name not in self.int_cache:
                    self.int_cache[t.name] = self.fresh.var(GROUND)
                return self.int_cache[t.name]
            return AbsConst(t.name)
        if isinstance(t, Struct):
            return AbsStruct(t.functor, tuple(self._abs(a) for a in t.args))
        raise AbstractDomainError(f"cannot abstract {t!r}")

    def theta_x(self) -> ASub:
        out = {}
        for (prefix, av), pv in self.env.items():
            if prefix != _XP or not isinstance(av, AVar):
                continue
            result = self.abstract(pv)
            if result != av:
                out[av] = result
        return ASub(out)


def abstract_unify_with_clause(a: AAtom, clause: Clause, fresh: FreshAVars):
    """Abstraction of one resolution step of ``a`` against ``clause``.

    Returns (abstract body conjunction, substitution on the caller's
    variables) or None when no concrete instance of ``a`` can unify with
    the clause head.  The clause must already be renamed apart from any
    reserved placeholder names (source-parsed clauses always are).
    """
    if a.indicator != clause.head.indicator:
        return None
    mu = MixedUnifier(fresh)
    if not mu.unify(a.args, clause.head.args):
        return None
    body = tuple(AAtom(b.pred, tuple(mu.abstract(mu._y_concrete(t))
                                     for t in b.args))
                 for b in clause.body)
    return body, mu.theta_x()


def full_eval_output(a: AAtom, pattern: AAtom, output: ASub,
                     fresh: FreshAVars):
    """One declared output binding of a fully evaluated atom, renamed into
    the caller's index space.  ``output`` is expressed over the pattern's
    variables; fresh variables on its right-hand sides stand for newly
    produced values."""
    post = output.apply(pattern)
    mu = MixedUnifier(fresh)
    if not mu.unify(a.args, post.args):
        return None
    return mu.theta_x()


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
        if isinstance(t, (AVar, MVar, AbsConst)):
            return t
        if isinstance(t, AbsStruct):
            if budget == 0:
                if t not in memo:
                    kind = GROUND if is_ground_aterm(t) else ANY
                    memo[t] = fresh.var(kind)
                return memo[t]
            return AbsStruct(t.functor,
                             tuple(cut(a, budget - 1) for a in t.args))
        raise AbstractDomainError(f"cannot widen {t!r}")

    def widen(c):
        if isinstance(c, AAtom):
            return AAtom(c.pred, tuple(cut(a, k) for a in c.args))
        return c if hasattr(c, "outer_terms") else cut(c, k)  # Multi

    if isinstance(x, tuple):
        return tuple(widen(c) for c in x)
    return widen(x)


# --- textual notation ---------------------------------------------------

def _conv(t):
    """Concrete parse tree -> abstract value (lexer mode for a1/g2)."""
    if isinstance(t, Const) and isinstance(t.name, str):
        name = t.name
        if len(name) >= 2 and name[0] in (ANY, GROUND) and name[1:].isdigit():
            return AVar(name[0], int(name[1:]))
        return AbsConst(name)
    if isinstance(t, Const):
        return AbsConst(t.name)
    if isinstance(t, Var):
        raise AbstractDomainError(
            f"concrete variable {t.name} in abstract notation")
    if isinstance(t, Struct):
        return AbsStruct(t.functor, tuple(_conv(a) for a in t.args))
    raise AbstractDomainError(f"cannot convert {t!r}")


def aatom_from_atom(a: Atom) -> AAtom:
    return AAtom(a.pred, tuple(_conv(t) for t in a.args))


def parse_aconj(text: str) -> tuple:
    """Conjunction of abstract atoms and multi abstractions."""
    from .multi import parse_conjunct
    parser = _Parser(text)
    out = [parse_conjunct(parser)]
    while parser.lx.peek()[0] == ",":
        parser.lx.next()
        out.append(parse_conjunct(parser))
    if parser.lx.peek()[0] != "eof":
        tok = parser.lx.peek()
        raise ParseError(f"trailing input {tok[1]!r}", *tok[2])
    return tuple(out)


def _printed_var(v):
    return Var(f"m{v!r}" if isinstance(v, MVar) else repr(v))


def print_aterm(t) -> str:
    return print_term(concrete_template(t, _printed_var))


def print_aatom(a: AAtom) -> str:
    return print_atom(concrete_template(a, _printed_var))


def print_aconj(conj) -> str:
    parts = []
    for c in conj:
        if isinstance(c, AAtom):
            parts.append(print_aatom(c))
        else:
            parts.append(repr(c))
    return " , ".join(parts)
