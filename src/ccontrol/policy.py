"""Instantiation-based selection rules.

A selection policy is given as data: a generating set of ordering pairs
over abstract-atom equivalence classes, declarations of fully evaluated
atoms with their output binding, and optional quantified rule templates
over named atom sets.  The strict partial order used for atom selection is
derived from these by closing under instantiation and transitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .absdom import (ASub, AVar, FULLEVAL, FreshAVars, LogicError, UNFOLD,
                     abstract_instance, abstract_name, avars, canonicalize)
from .engine import BUILTINS
from .terms import Atom, ParseError, _Parser, print_atom


class PolicyError(LogicError):
    pass


class NoMinimumError(PolicyError):
    """A conjunction has no selectable atom under the derived order."""


@dataclass(frozen=True)
class FullEvalDecl:
    """A fully evaluated abstract atom: call pattern, its one output
    binding over the pattern's variables, and whether the linked
    procedure, the pattern's own predicate, is a builtin."""
    pattern: Atom
    output: ASub
    link_is_builtin: bool

    @property
    def link(self) -> tuple:
        return self.pattern.indicator


@dataclass(frozen=True)
class RuleTemplate:
    kind: str                # "never_before" | "instances_first"
    target: Atom | None      # for never_before
    set_name: str


@dataclass
class SelectionPolicy:
    entry: Atom
    preprior: tuple = ()         # of (Atom, Atom) pairs, renamed apart
    sets: dict = field(default_factory=dict)    # name -> tuple of Atom
    rules: tuple = ()            # of RuleTemplate
    fulleval: tuple = ()         # of FullEvalDecl

    @cached_property
    def own_order(self) -> OwnOrder:
        """The policy's own part of the selection order, derived at the
        first selection that ranks atoms."""
        return OwnOrder(self)

    def fulleval_match(self, a: Atom):
        """The first declaration whose pattern covers ``a``, if any."""
        for decl in self.fulleval:
            if a.indicator == decl.pattern.indicator and \
                    abstract_instance(a, decl.pattern) is not None:
                return decl
        return None


# --- parsing -------------------------------------------------------------

def parse_policy(text: str) -> SelectionPolicy:
    parser = _Parser(text, abstract_name)
    lx = parser.lx
    entry = None
    preprior = []
    sets = {}
    rules = []
    fulleval = []

    def set_name():
        kind, val, loc = lx.next()
        if kind not in ("name", "var"):
            raise ParseError(f"expected a set name, got {val!r}", *loc)
        return val

    while lx.peek()[0] != "eof":
        kind, val, loc = lx.next()
        if kind != "name":
            raise ParseError(f"expected a policy keyword, got {val!r}", *loc)
        if val == "entry":
            lx.expect(":")
            entry = parser.parse_atom()
        elif val == "preprior":
            lx.expect(":")
            lhs = parser.parse_atom()
            lx.expect("<")
            rhs = parser.parse_atom()
            preprior.append((lhs, rhs))
        elif val == "set":
            name = set_name()
            lx.expect("=")
            lx.expect("{")
            members = [parser.parse_atom()]
            while lx.peek()[0] == ",":
                lx.next()
                members.append(parser.parse_atom())
            lx.expect("}")
            sets[name] = tuple(members)
        elif val == "rule":
            lx.expect(":")
            _, rkind, rloc = lx.expect("name")
            if rkind == "never_before":
                lx.expect("(")
                target = parser.parse_atom()
                lx.expect(")")
                _, over, oloc = lx.expect("name")
                if over != "over":
                    raise ParseError("expected 'over'", *oloc)
                rules.append(RuleTemplate("never_before", target,
                                          set_name()))
            elif rkind == "instances_first":
                lx.expect("(")
                rules.append(RuleTemplate("instances_first", None,
                                          set_name()))
                lx.expect(")")
            else:
                raise ParseError(f"unknown rule {rkind!r}", *rloc)
        elif val == "fulleval":
            lx.expect(":")
            pattern = parser.parse_atom()
            lx.expect("->")
            output = _parse_output(parser, pattern)
            # no compiled program can choose between outputs over abstract
            # variables, so a declaration has one
            kind, _, sloc = lx.peek()
            if kind == ";":
                raise ParseError("a full evaluation declares one output",
                                 *sloc)
            _, via, vloc = lx.expect("name")
            if via != "via":
                raise ParseError("expected 'via'", *vloc)
            _, linkkind, kloc = lx.expect("name")
            if linkkind not in ("builtin", "user"):
                raise ParseError("expected 'builtin' or 'user'", *kloc)
            nkind, pname, nloc = lx.next()
            if nkind not in ("name", "=<"):
                raise ParseError(f"expected a predicate name, got {pname!r}",
                                 *nloc)
            lx.expect("/")
            _, arity, _ = lx.expect("int")
            link = f"{linkkind} {pname}/{arity}"
            if (pname, arity) != pattern.indicator:
                raise ParseError(f"link {link} is not the pattern's own "
                                 f"predicate {pattern.pred}/"
                                 f"{len(pattern.args)}", *nloc)
            if linkkind == "builtin" and (pname, arity) not in BUILTINS:
                raise ParseError(f"link {link} names no builtin", *nloc)
            fulleval.append(FullEvalDecl(pattern, output,
                                         linkkind == "builtin"))
        else:
            raise ParseError(f"unknown policy keyword {val!r}", *loc)
        lx.expect(".")

    if entry is None:
        raise PolicyError("policy declares no entry goal")
    for rule in rules:
        if rule.set_name not in sets:
            raise PolicyError(f"rule references unknown set {rule.set_name}")
    for lhs, rhs in preprior:
        if canonicalize(lhs) == canonicalize(rhs):
            raise PolicyError(
                f"selection order is reflexive at {print_atom(lhs)}")
    policy = SelectionPolicy(entry, tuple(preprior), sets, tuple(rules),
                             tuple(fulleval))
    # a fully evaluated entry has no control to compile, and classic's
    # entry wrapper would define a builtin
    if policy.fulleval_match(entry) is not None:
        raise PolicyError(
            f"the entry pattern {print_atom(entry)} is fully evaluated")
    return policy


def _parse_output(parser, pattern: Atom) -> ASub:
    lx = parser.lx
    lx.expect("{")
    pairs = {}
    pattern_vars = set(avars(pattern))
    while lx.peek()[0] != "}":
        lloc = lx.peek()[2]
        lhs = parser.parse_term()
        if not isinstance(lhs, AVar):
            raise ParseError(f"output binds non-variable {lhs!r}", *lloc)
        if lhs not in pattern_vars:
            raise ParseError(
                f"output binds {lhs}, which is not in {print_atom(pattern)}",
                *lloc)
        lx.expect("=")
        rloc = lx.peek()[2]
        rhs = pairs[lhs] = parser.parse_term()
        if not isinstance(rhs, AVar):
            raise ParseError(f"output binds {lhs} to {rhs!r}, which is not "
                             "an abstract variable", *rloc)
        if lx.peek()[0] == ",":
            lx.next()
    lx.expect("}")
    return ASub(pairs)


# --- the derived order ---------------------------------------------------

def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OwnOrder:
    """The part of the derived order that depends on the policy alone.

    Its classes are those of the atoms the policy names, numbered in order
    of first mention: ``preprior`` pairs, ``never_before`` targets, then
    ``set`` members.  Its relation is generated from the ``preprior``
    pairs, the instantiation rule (a strict instance precedes what it
    instantiates), full-evaluation priority and the ``instances_first``
    rules, less the ``never_before`` pairs, and closed under transitivity
    by one Warshall pass.  ``after[i]`` and ``before[i]`` are bit masks
    of the classes after and before class i.  A cycle is kept, in
    ``cyclic``, and reported by the first selection."""

    def __init__(self, policy: SelectionPolicy):
        self.classes = []
        self.reps = []
        self.where = {}

        def index(a):
            key = canonicalize(a)
            i = self.where.get(key)
            if i is None:
                i = self.where[key] = len(self.classes)
                self.classes.append(key)
                self.reps.append(a)
            return i

        preprior = [(index(p), index(q)) for p, q in policy.preprior]
        never_before = [(index(r.target), r.set_name) for r in policy.rules
                        if r.kind == "never_before"]
        members = {}
        for name, ms in policy.sets.items():
            members[name] = 0
            for m in ms:
                members[name] |= 1 << index(m)
        n = len(self.classes)
        # an atom is an instance only of atoms of its own predicate
        self.kin = {}
        for i, r in enumerate(self.reps):
            self.kin[r.indicator] = self.kin.get(r.indicator, 0) | 1 << i
        # two classes are never equivalent, so one is a strict instance of
        # another exactly when it is an instance of it
        instance = [sum(1 << j for j in _bits(self.kin[r.indicator])
                        if j != i and abstract_instance(r, self.reps[j])
                        is not None)
                    for i, r in enumerate(self.reps)]
        self.fe = sum(1 << i for i, r in enumerate(self.reps)
                      if policy.fulleval_match(r) is not None)
        self.firsts = [members[r.set_name] for r in policy.rules
                       if r.kind == "instances_first"]
        after = list(instance)
        for i, j in preprior:
            after[i] |= 1 << j
        for i in _bits(self.fe):
            after[i] |= ~self.fe & ((1 << n) - 1)
        for ms in self.firsts:
            for i in range(n):
                if instance[i] & ms:
                    after[i] |= ms & ~(1 << i)
        for target, name in never_before:
            for i in _bits(members[name]):
                after[i] &= ~(1 << target)
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if after[i] & bit:
                    after[i] |= after[k]
        self.after = after
        self.before = [0] * n
        for i in range(n):
            for j in _bits(after[i]):
                self.before[j] |= 1 << i
        self.cyclic = sum(1 << i for i in range(n) if after[i] >> i & 1)


class _RankedOrder:
    """The policy's own order with the classes of some ranked atoms added.

    The policy's classes keep their numbers, and each new class comes
    after them; the own order's lists are copied at the first new class.
    A new class gets its instance pairs against every class already
    present, in both directions, its full-evaluation pairs and its
    ``instances_first`` pairs; no ``never_before`` pair names it, as both
    sides of those are classes the policy names.  Each new class is added
    to the closed relation as its predecessors times its successors.
    ``of`` is the class of each ranked atom, and ``first`` maps each
    ranked class, in order of appearance, to its first ranked atom."""

    def __init__(self, policy: SelectionPolicy, atoms):
        own = self.own = policy.own_order
        self.classes, self.reps, self.kin = own.classes, own.reps, own.kin
        self.after, self.before = own.after, own.before
        self.fe, self.cyclic = own.fe, own.cyclic
        self.of = []
        self.first = {}
        where = {}
        for a in atoms:
            key = canonicalize(a)
            i = own.where.get(key)
            if i is None:
                i = where.get(key)
                if i is None:
                    i = where[key] = self._add(policy, key, a)
            self.of.append(i)
            self.first.setdefault(i, a)
        if self.cyclic:
            self._report_cycle()

    def _add(self, policy, key, a):
        """Add the class of ``a``, which is new, and return its number."""
        x = len(self.classes)
        if self.classes is self.own.classes:
            self.classes, self.reps = list(self.classes), list(self.reps)
            self.after, self.before = list(self.after), list(self.before)
            self.kin = dict(self.kin)
        self.classes.append(key)
        self.reps.append(a)
        bit = 1 << x
        kin = self.kin.get(a.indicator, 0)
        self.kin[a.indicator] = kin | bit
        instance = lower = 0
        for j in _bits(kin):
            if abstract_instance(a, self.reps[j]) is not None:
                instance |= 1 << j
            if abstract_instance(self.reps[j], a) is not None:
                lower |= 1 << j
        higher = instance
        if policy.fulleval_match(a) is not None:
            higher |= ~self.fe & (bit - 1)
            self.fe |= bit
        else:
            lower |= self.fe
        for ms in self.own.firsts:
            if instance & ms:
                higher |= ms
        after, before = self.after, self.before
        for j in _bits(lower):
            lower |= before[j]
        for j in _bits(higher):
            higher |= after[j]
        loop = lower & higher
        if loop:
            lower |= bit
            higher |= bit
            self.cyclic |= loop | bit
        after.append(higher)
        before.append(lower)
        for j in _bits(lower):
            after[j] |= higher | bit
        for j in _bits(higher):
            before[j] |= lower | bit
        return x

    def numbering(self) -> dict:
        """Each class's number in the order cycles are reported in: the
        ranked classes in order of appearance, then the policy's own
        classes."""
        number = dict.fromkeys(self.first)
        number.update(dict.fromkeys(range(len(self.own.classes))))
        return {i: n for n, i in enumerate(number)}

    def _report_cycle(self):
        """Report the cycle pair (i, j), i < j, that comes first in
        ``numbering``: i is the first class on a cycle, j the first class
        on a cycle with it."""
        number = self.numbering()
        i = min(_bits(self.cyclic), key=number.__getitem__)
        j = min(_bits(self.after[i] & self.before[i] & ~(1 << i)),
                key=number.__getitem__)
        a, b = (print_atom(self.first.get(k, self.reps[k])) for k in (i, j))
        raise PolicyError(f"selection order is cyclic: {a} < {b} < {a}")


# --- selection -----------------------------------------------------------

def _effective_atoms(conj):
    """Positions and atoms to rank: plain atoms stand for themselves, a
    multi contributes the atoms of its virtual first instance."""
    out = []
    for pos, c in enumerate(conj):
        if isinstance(c, Atom):
            out.append((pos, c))
        else:
            for a in c.virtual_first_instance():
                out.append((pos, a))
    return out


def _printable(conj, eff):
    """``eff`` with the throwaway variables of each multi's virtual instance
    (negative indices) replaced by fresh variables above ``conj``, one
    renaming per multi, so that only policy notation is printed."""
    fresh = FreshAVars.above(conj)
    renamings = {}
    out = []
    for pos, a in eff:
        renaming = renamings.setdefault(pos, {})
        for v in avars(a):
            if v.index < 0 and v not in renaming:
                renaming[v] = fresh.var(v.kind)
        out.append(ASub(renaming).apply(a))
    return out


def select_conjunct(policy: SelectionPolicy, conj):
    """Selection over a conjunction that may contain multi abstractions.

    Returns (position, mark): mark is FULLEVAL or UNFOLD for a plain atom,
    or "split" when the selected atom is a virtual multi instance (the
    caller must case-split the multi at that position first).
    """
    eff = _effective_atoms(conj)
    if not eff:
        raise PolicyError("cannot select from an empty conjunction")
    # fulleval priority is absolute; ties are broken left-to-right
    for pos, a in eff:
        if policy.fulleval_match(a) is not None:
            if isinstance(conj[pos], Atom):
                return pos, FULLEVAL
            return pos, "split"
    order = _RankedOrder(policy, [a for _, a in eff])
    present = sum(1 << i for i in order.first)
    for i in order.first:       # the ranked classes, in order of appearance
        if (present & ~order.after[i]) == 1 << i:
            pos = eff[order.of.index(i)][0]
            return pos, UNFOLD if isinstance(conj[pos], Atom) else "split"
    raise NoMinimumError(
        "no minimal atom in " +
        " , ".join(print_atom(a) for a in _printable(conj, eff)))
