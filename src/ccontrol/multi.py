"""Finite representation of unboundedly many repetitions of a pattern.

A multi abstraction stands for every conjunction of n >= 1 instances of a
conjunctive pattern: ``init`` constraints tie the first instance to the
surrounding conjunction, ``consecutive`` constraints chain neighbouring
instances, and ``final`` constraints tie the last instance to the outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import re

from .absdom import (ASub, AVar, AbstractDomainError, FreshAVars, MVar,
                     abstract_instance, abstract_mgu, abstract_name,
                     avar_occurrences, canonicalize, renumbering)
from .terms import (Atom, ParseError, print_atom, print_term, replace_vars,
                    term_vars)

# Longest pattern, in atoms, that a new multi abstraction may fold.
MAX_PATTERN_LENGTH = 3


def _sorted_pairs(d):
    return tuple(sorted(d.items(), key=lambda kv: (kv[0].kind, kv[0].local)))


@dataclass(frozen=True)
class Multi:
    id: int
    pattern: tuple       # of Atom over MVars and constants
    init: tuple          # of (MVar, abstract term over outer variables)
    consecutive: tuple   # of (MVar, MVar): slot i+1 var = slot i var
    final: tuple         # of (MVar, abstract term over outer variables)

    @property
    def init_map(self):
        return dict(self.init)

    @property
    def cons_map(self):
        return dict(self.consecutive)

    @property
    def final_map(self):
        return dict(self.final)

    @property
    def plen(self):
        return len(self.pattern)

    def pattern_vars(self) -> list:
        return [v for v in term_vars(self.pattern) if isinstance(v, MVar)]

    def outer_terms(self) -> list:
        return [t for _, t in self.init] + [t for _, t in self.final]

    def apply_outer(self, sub: ASub) -> "Multi":
        return Multi(self.id, self.pattern,
                     tuple((v, sub.apply(t)) for v, t in self.init),
                     self.consecutive,
                     tuple((v, sub.apply(t)) for v, t in self.final))

    def renumber(self, walk, new_id: int) -> "Multi":
        mwalk, _ = renumbering(MVar, MVar)
        pattern = replace_vars(self.pattern, mwalk)
        init = {mwalk(v): walk(t) for v, t in self.init}
        cons = {mwalk(v): mwalk(w) for v, w in self.consecutive}
        final = {mwalk(v): walk(t) for v, t in self.final}
        return Multi(new_id, pattern, _sorted_pairs(init),
                     _sorted_pairs(cons), _sorted_pairs(final))

    def instantiate(self, mapping) -> tuple:
        """Pattern with MVars replaced per ``mapping`` (MVar -> abstract
        term)."""
        return replace_vars(self.pattern, lambda v: mapping[v]
                            if isinstance(v, MVar) else v)

    def virtual_first_instance(self) -> tuple:
        """First represented pattern instance, with throwaway variables
        (negative indices) for unconstrained positions; used only to decide
        whether an instance of the multi would be selected."""
        init = self.init_map
        mapping = {}
        for i, v in enumerate(self.pattern_vars()):
            mapping[v] = init.get(v, AVar(v.kind, -(i + 1)))
        return self.instantiate(mapping)

    def __repr__(self):
        return print_multi(self)


def print_multi(m: Multi) -> str:
    patt = " , ".join(print_atom(a) for a in m.pattern)
    init = ",".join(f"{v}={print_term(t)}" for v, t in m.init)
    cons = ",".join(f"{v}={w}" for v, w in m.consecutive)
    final = ",".join(f"{v}={print_term(t)}" for v, t in m.final)
    return (f"multi(({patt}), init{{{init}}}, consec{{{cons}}}, "
            f"final{{{final}}}, id={m.id})")


# --- parsing -------------------------------------------------------------

def pattern_name(name: str):
    """The term a bare name stands for in a conjunction: ``ma1`` and
    ``mg2`` are a multi's pattern variables, and otherwise the name reads
    as in ``absdom.abstract_name``."""
    m = re.fullmatch("m([ag])([0-9]+)", name)
    return MVar(m[1], int(m[2])) if m else abstract_name(name)


def parse_conjunct(parser):
    """One conjunct inside an abstract conjunction, read by a parser whose
    ``names`` is ``pattern_name``: atom or multi form."""
    # ``multi((`` opens a multi form: no argument of an atom ``multi(...)``
    # starts with a parenthesis
    kind, val, _ = parser.lx.peek()
    if kind == "name" and val == "multi":
        nxt = parser.lx.tokens[parser.lx.i + 1: parser.lx.i + 3]
        if [tok[0] for tok in nxt] == ["(", "("]:
            return _parse_multi(parser)
    return parser.parse_atom()


def _parse_multi(parser) -> Multi:
    lx = parser.lx
    lx.expect("name")   # multi
    lx.expect("(")
    lx.expect("(")
    pattern = []
    while True:
        pattern.append(parser.parse_atom())
        if lx.peek()[0] != ",":
            break
        lx.next()
    lx.expect(")")
    lx.expect(",")

    def mvar():
        _, name, loc = lx.expect("name")
        v = pattern_name(name)
        if not isinstance(v, MVar):
            raise ParseError(f"expected pattern variable, got {name!r}", *loc)
        return v

    def constraints(header, rhs_is_mvar=False):
        k, v, loc = lx.next()
        if k != "name" or v != header:
            raise ParseError(f"expected {header!r}", *loc)
        lx.expect("{")
        out = {}
        while lx.peek()[0] != "}":
            lhs = mvar()
            lx.expect("=")
            out[lhs] = mvar() if rhs_is_mvar else parser.parse_term()
            if lx.peek()[0] == ",":
                lx.next()
        lx.expect("}")
        return _sorted_pairs(out)

    init = constraints("init")
    lx.expect(",")
    cons = constraints("consec", rhs_is_mvar=True)
    lx.expect(",")
    final = constraints("final")
    lx.expect(",")
    _, v, loc = lx.expect("name")
    if v != "id":
        raise ParseError("expected id=N", *loc)
    lx.expect("=")
    _, n, _ = lx.expect("int")
    lx.expect(")")
    return Multi(n, tuple(pattern), init, cons, final)


# --- case split ----------------------------------------------------------

def case_split(m: Multi, fresh: FreshAVars):
    """Split a multi into its one-occurrence and many-occurrences readings.

    Returns (one, one_sub, (head_instance, rest_multi)).  ``one`` is the
    pattern under init and final simultaneously; when a variable carries
    both constraints with different outer values, those values are unified
    abstractly and ``one_sub`` carries the induced aliasing for the rest of
    the conjunction.  The many case extracts the first instance under init
    and leaves a residual multi whose init follows the consecutive
    constraints.
    """
    init, final = m.init_map, m.final_map
    clashes = [v for v in m.pattern_vars()
               if v in init and v in final and init[v] != final[v]]
    one_sub = ASub()
    if clashes:
        firsts = tuple(init[v] for v in clashes)
        lasts = tuple(final[v] for v in clashes)
        mgu = abstract_mgu(firsts, lasts, firsts + lasts, fresh)
        if mgu is None:
            raise AbstractDomainError(
                f"irreconcilable init/final constraints in {m}")
        one_sub = mgu[1]
    one_map = {}
    for v in m.pattern_vars():
        if v in init:
            one_map[v] = one_sub.apply(init[v])
        elif v in final:
            one_map[v] = one_sub.apply(final[v])
        else:
            one_map[v] = fresh.var(v.kind)
    one = m.instantiate(one_map)

    head_map = {}
    for v in m.pattern_vars():
        head_map[v] = init[v] if v in init else fresh.var(v.kind)
    head = m.instantiate(head_map)
    new_init = {v: head_map[w] for v, w in m.consecutive}
    rest = Multi(m.id, m.pattern, _sorted_pairs(new_init),
                 m.consecutive, m.final)
    return one, one_sub, (head, rest)


# --- generalization into a multi ----------------------------------------

@dataclass(frozen=True)
class FoldEvent:
    """One grouping step over a conjunction.

    ``start`` is the first folded conjunct position, ``plen`` the pattern
    length; ``kind`` says whether a fresh multi was formed from two blocks
    ("new"), an atom block was absorbed by an existing multi on its init
    side ("left") or final side ("right"), or two multis merged ("merge").
    """
    start: int
    plen: int
    kind: str

    @property
    def width(self) -> int:
        """How many conjuncts the grouping replaces: two blocks ("new"), a
        block and the multi ("left", "right") or two multis ("merge")."""
        return {"new": 2 * self.plen, "left": self.plen + 1,
                "right": self.plen + 1, "merge": 2}[self.kind]

    def fold(self, conj, elem) -> tuple:
        """``conj`` with the conjuncts the grouping replaces replaced by
        the one element ``elem``."""
        return conj[:self.start] + (elem,) + conj[self.start + self.width:]


def _occurrences_outside(conj, ev: FoldEvent) -> set:
    """The AVars outside the conjuncts that the grouping replaces."""
    return set(avar_occurrences(conj[:ev.start] + conj[ev.start + ev.width:]))


def _block_binding(block, pattern):
    """Match a block of atoms against a pattern; the correspondence must
    map pattern variables bijectively onto plain variables."""
    if len(block) != len(pattern):
        return None
    sub = abstract_instance(tuple(block), tuple(pattern))
    if sub is None:
        return None
    mapping = {}
    for v, t in sub.pairs.items():
        if not isinstance(t, AVar):
            return None
        mapping[v] = t
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def _pattern_of(block):
    """Abstract a block of atoms into a pattern, one MVar per variable."""
    walk, mapping = renumbering(AVar, MVar)
    pattern = replace_vars(tuple(block), walk)
    slot_map = {mv: av for av, mv in mapping.items()}
    return pattern, slot_map


def try_fold(conj):
    """One generalization step: fold a repeated chained pattern, or an atom
    block adjacent to a compatible multi, into a multi abstraction.

    Returns (new_conj, FoldEvent) or None when no fold applies.  Folds are
    concretization-increasing by construction; a candidate that would drop
    aliasing shared with the rest of the conjunction is rejected instead.
    A new multi gets id 0; ``canonicalize`` numbers the multis of a state.
    """
    conj = tuple(conj)
    for i, c in enumerate(conj):
        if isinstance(c, Multi):
            res = _fold_adjacent(conj, i, c)
            if res is not None:
                return res
    for plen in range(1, MAX_PATTERN_LENGTH + 1):
        for i in range(0, len(conj) - 2 * plen + 1):
            window = conj[i: i + 2 * plen]
            if not all(isinstance(x, Atom) for x in window):
                continue
            res = _fold_new(conj, i, plen)
            if res is not None:
                return res
    return None


def _fold_new(conj, start, plen):
    block1 = conj[start: start + plen]
    block2 = conj[start + plen: start + 2 * plen]
    # equal canonical forms need equal predicates; these are cheaper
    if [a.indicator for a in block1] != [a.indicator for a in block2] or \
            canonicalize(block1) != canonicalize(block2):
        return None
    pattern, slot1 = _pattern_of(block1)
    slot2 = _block_binding(block2, pattern)
    if slot2 is None:
        return None
    inv1 = {av: v for v, av in slot1.items()}
    cons = {}
    links = set()
    for v, av in slot2.items():
        if av in inv1:
            cons[v] = inv1[av]
            links.add(av)
    if not cons:
        return None  # no aliasing between the blocks: not a chain
    init = {v: slot1[v] for v in cons}
    final = {w: slot2[w] for w in set(cons.values())}
    endpoints = set(init.values()) | set(final.values())
    ev = FoldEvent(start, plen, "new")
    outside = _occurrences_outside(conj, ev)
    for av in links:
        if av in outside and av not in endpoints:
            return None  # internal chain variable leaks out of the fold
    m = Multi(0, pattern, _sorted_pairs(init),
              _sorted_pairs(cons), _sorted_pairs(final))
    return ev.fold(conj, m), ev


def _fold_adjacent(conj, mi, m: Multi):
    if not m.cons_map:
        return None
    if mi + 1 < len(conj) and isinstance(conj[mi + 1], Multi):
        res = _fold_merge(conj, mi, m, conj[mi + 1])
        if res is not None:
            return res
    if mi - m.plen >= 0:
        block = tuple(a for a in conj[mi - m.plen: mi]
                      if isinstance(a, Atom))
        if len(block) == m.plen:
            bmap = _block_binding(block, m.pattern)
            if bmap is not None:
                res = _fold_left(conj, mi, m, bmap)
                if res is not None:
                    return res
    if mi + m.plen < len(conj) + 1:
        block = tuple(a for a in conj[mi + 1: mi + 1 + m.plen]
                      if isinstance(a, Atom))
        if len(block) == m.plen:
            bmap = _block_binding(block, m.pattern)
            if bmap is not None:
                res = _fold_right(conj, mi, m, bmap)
                if res is not None:
                    return res
    return None


def _fold_merge(conj, mi, m1: Multi, m2: Multi):
    """Merge two adjacent multis whose chains connect directly: the second
    continues the first's pattern, its init fed by the first's final."""
    if m1.pattern != m2.pattern or m1.consecutive != m2.consecutive:
        return None
    cons = m1.cons_map
    f1, i2 = m1.final_map, m2.init_map
    for v, w in cons.items():
        if v not in i2 or w not in f1 or i2[v] != f1[w]:
            return None
    if any(v not in cons for v in i2) or \
            any(w not in set(cons.values()) for w in f1):
        return None
    ev = FoldEvent(mi, m1.plen, "merge")
    outside = _occurrences_outside(conj, ev)
    allowed = {t for _, t in m1.init} | {t for _, t in m2.final}
    if outside.intersection(avar_occurrences(tuple(f1.values()))) - allowed:
        return None
    nm = Multi(m1.id, m1.pattern, m1.init, m1.consecutive, m2.final)
    return ev.fold(conj, nm), ev


def _fold_left(conj, mi, m: Multi, bmap):
    """Absorb the block before the multi as a new first instance."""
    init, cons = m.init_map, m.cons_map
    for v, w in cons.items():
        if init.get(v) != bmap[w]:
            return None  # block output does not feed the chain input
    if any(v not in cons for v in init):
        return None  # extra first-instance constraint would bind a middle
    new_init = {v: bmap[v] for v in cons}
    ev = FoldEvent(mi - m.plen, m.plen, "left")
    outside = _occurrences_outside(conj, ev)
    allowed = set(new_init.values()) | {t for _, t in m.final}
    for v in cons:
        lv = init[v]
        if lv in outside and lv not in allowed:
            return None  # old chain-input variable leaks out of the fold
    nm = Multi(m.id, m.pattern, _sorted_pairs(new_init),
               m.consecutive, m.final)
    return ev.fold(conj, nm), ev


def _fold_right(conj, mi, m: Multi, bmap):
    """Absorb the block after the multi as a new last instance."""
    final, cons = m.final_map, m.cons_map
    outs = set(cons.values())
    for v, w in cons.items():
        if final.get(w) != bmap[v]:
            return None
    if any(w not in outs for w in final):
        return None
    new_final = {w: bmap[w] for w in outs}
    ev = FoldEvent(mi, m.plen, "right")
    outside = _occurrences_outside(conj, ev)
    allowed = set(new_final.values()) | {t for _, t in m.init}
    for w in outs:
        lv = final[w]
        if lv in outside and lv not in allowed:
            return None
    nm = Multi(m.id, m.pattern, m.init, m.consecutive,
               _sorted_pairs(new_final))
    return ev.fold(conj, nm), ev


# --- conjunction simplification ------------------------------------------

def simplify_conj(conj) -> tuple:
    """Drop dangling alias constraints: an init/final entry whose right
    side is a lone variable of the pattern variable's own kind occurring
    nowhere else in the conjunction constrains nothing."""
    conj = tuple(conj)
    while True:
        occ = {}
        for v in avar_occurrences(conj):
            occ[v] = occ.get(v, 0) + 1
        out = []
        changed = False
        for c in conj:
            if isinstance(c, Multi):
                init = tuple((v, t) for v, t in c.init
                             if not _dangling(v, t, occ))
                final = tuple((v, t) for v, t in c.final
                              if not _dangling(v, t, occ))
                if init != c.init or final != c.final:
                    changed = True
                    c = Multi(c.id, c.pattern, init, c.consecutive, final)
            out.append(c)
        conj = tuple(out)
        if not changed:
            return conj


def _dangling(v: MVar, t, occ) -> bool:
    return (isinstance(t, AVar) and occ.get(t, 0) == 1
            and t.kind == v.kind)
