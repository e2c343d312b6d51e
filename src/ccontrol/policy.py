"""Instantiation-based selection rules.

A selection policy is given as data: a generating set of ordering pairs
over abstract-atom equivalence classes, declarations of fully evaluated
atoms with their output bindings, and optional quantified rule templates
over named atom sets.  The strict partial order used for atom selection is
derived from these by closing under instantiation and transitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .absdom import (ASub, AVar, FULLEVAL, FreshAVars, LogicError, UNFOLD,
                     abstract_instance, abstract_name, avars, canonicalize)
from .terms import Atom, ParseError, _Parser, print_atom


class PolicyError(LogicError):
    pass


class NoMinimumError(PolicyError):
    """A conjunction has no selectable atom under the derived order."""


@dataclass(frozen=True)
class FullEvalDecl:
    """A fully evaluated abstract atom: call pattern, the possible output
    bindings over the pattern's variables, and the linked procedure."""
    pattern: Atom
    outputs: tuple           # of ASub
    link: tuple              # (predicate, arity)
    link_is_builtin: bool


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
            outputs = [_parse_output(parser, pattern)]
            while lx.peek()[0] == ";":
                lx.next()
                outputs.append(_parse_output(parser, pattern))
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
            fulleval.append(FullEvalDecl(pattern, tuple(outputs),
                                         (pname, arity),
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
    return SelectionPolicy(entry, tuple(preprior), sets, tuple(rules),
                           tuple(fulleval))


def _parse_output(parser, pattern: Atom) -> ASub:
    lx = parser.lx
    lx.expect("{")
    pairs = {}
    pattern_vars = set(avars(pattern))
    while lx.peek()[0] != "}":
        lhs = parser.parse_term()
        if not isinstance(lhs, AVar):
            raise PolicyError(f"output binds non-variable {lhs!r}")
        if lhs not in pattern_vars:
            raise PolicyError(
                f"output binds {lhs}, which is not in {print_atom(pattern)}")
        lx.expect("=")
        pairs[lhs] = parser.parse_term()
        if lx.peek()[0] == ",":
            lx.next()
    lx.expect("}")
    return ASub(pairs)


# --- the derived order ---------------------------------------------------

class DerivedOrder:
    """Strict partial order over the equivalence classes of a finite atom
    set, generated from a policy and closed under transitivity."""

    def __init__(self, classes, less, of):
        self.classes = classes          # canonical form of each class
        self.less = less                # set of (i, j) index pairs
        self.of = of                    # class index of each ranked atom


def derive_order(policy: SelectionPolicy, atoms) -> DerivedOrder:
    """The selection order over the given atoms' equivalence classes.

    Generated from: explicit preprior pairs; the instantiation rule (a
    strict instance precedes what it instantiates); fulleval priority
    (atoms covered by a fulleval declaration precede all others); and the
    quantified rule templates.  Closed under transitivity and checked for
    cycles.  Each ranked atom and each atom the policy names is
    canonicalized once; the ranked atoms' classes come first.
    """
    classes = []
    reps = []
    where = {}

    def index(a):
        key = canonicalize(a)
        i = where.get(key)
        if i is None:
            i = where[key] = len(classes)
            classes.append(key)
            reps.append(a)
        return i

    of = [index(a) for a in atoms]
    less = {(index(p), index(q)) for p, q in policy.preprior}
    never_before = [(index(r.target), r.set_name) for r in policy.rules
                    if r.kind == "never_before"]
    set_classes = {name: {index(m) for m in members}
                   for name, members in policy.sets.items()}
    n = len(classes)
    # two classes are never equivalent, so one is a strict instance of
    # another exactly when it is an instance of it
    instance = {(i, j) for i in range(n) for j in range(n)
                if i != j and abstract_instance(reps[i], reps[j]) is not None}
    less |= instance
    fe = [policy.fulleval_match(r) is not None for r in reps]
    less |= {(i, j) for i in range(n) if fe[i] for j in range(n) if not fe[j]}
    for rule in policy.rules:
        if rule.kind == "instances_first":
            members = set_classes[rule.set_name]
            firsts = {i for i, k in instance if k in members}
            less |= {(i, j) for i in firsts for j in members if i != j}
    for target, name in never_before:
        less -= {(i, target) for i in set_classes[name]}
    # transitive closure, one Warshall pass
    for k in range(n):
        before = [i for i in range(n) if (i, k) in less]
        after = [j for j in range(n) if (k, j) in less]
        less.update((i, j) for i in before for j in after)
    for i, j in less:
        if i < j and (j, i) in less:
            raise PolicyError(
                "selection order is cyclic: "
                f"{print_atom(reps[i])} < {print_atom(reps[j])} "
                f"< {print_atom(reps[i])}")
    return DerivedOrder(classes, less, of)


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
    order = derive_order(policy, [a for _, a in eff])
    # the ranked atoms' classes are the first ones, in order of appearance
    present = range(max(order.of) + 1)
    for i in present:
        if all((i, j) in order.less for j in present if j != i):
            pos = eff[order.of.index(i)][0]
            return pos, UNFOLD if isinstance(conj[pos], Atom) else "split"
    raise NoMinimumError(
        "no minimal atom in " +
        " , ".join(print_atom(a) for a in _printable(conj, eff)))
