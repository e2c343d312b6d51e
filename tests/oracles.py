"""Independent oracles the test suite checks the implementation against.

Everything here is deliberately naive: brute-force enumeration, direct
membership tests and sampling of abstract denotations, and
first-principles arithmetic, so that agreement with the package is
meaningful.
"""

import random
from dataclasses import dataclass

from ccontrol import pd
from ccontrol.engine import ModeError
from ccontrol.absdom import (ANY, ASub, AVar, AbstractDomainError, FULLEVAL,
                             GROUND, MVar, UNFOLD, abstract_instance, avars,
                             canonicalize, widen_depth_k)
from ccontrol.metaint import (BUILDING_BLOCK, CMULTI, MetaintError,
                              building_block)
from ccontrol.multi import Multi, _sorted_pairs
from ccontrol.policy import (DerivedOrder, NoMinimumError, PolicyError,
                             SelectionPolicy, _effective_atoms, _printable,
                             select_conjunct)
from itertools import repeat

from ccontrol.terms import (CONS, NIL, Atom, Const, ParseError, Struct,
                            Substitution, Switch, Var, _MAX_NESTING,
                            _occurs, list_parts, mklist, parse_atom,
                            print_atom, print_term, replace_vars,
                            resolve_all, substitute, take_back,
                            term_to_atom, term_vars, unify)


# --- abstract notation ---------------------------------------------------

def _conv(t):
    """A concrete term read as an abstract one: a constant named like
    ``a1`` or ``g2`` is an abstract variable."""
    if isinstance(t, Const):
        name = t.name
        if isinstance(name, str) and len(name) >= 2 and \
                name[0] in (ANY, GROUND) and name[1:].isdigit():
            return AVar(name[0], int(name[1:]))
        return t
    if isinstance(t, Var):
        raise AbstractDomainError(
            f"concrete variable {t.name} in abstract notation")
    return Struct(t.functor, tuple(_conv(a) for a in t.args))


def aatom_from_atom(a: Atom) -> Atom:
    """A concrete atom read as an abstract one, argument by argument."""
    return Atom(a.pred, tuple(_conv(t) for t in a.args))


def parse_aatom(text):
    """An abstract atom written as a term, with a1/g2 for its variables."""
    return aatom_from_atom(parse_atom(text))


def parse_aterm(text):
    """An abstract term written as a term, with a1/g2 for its variables."""
    return parse_aatom(f"t({text})").args[0]


# --- equivalence and strict instance -------------------------------------

def equivalent(x, y) -> bool:
    """Mutual-instance equivalence, decided on canonical forms."""
    if isinstance(x, (tuple, list)) != isinstance(y, (tuple, list)):
        return False
    return canonicalize(x) == canonicalize(y)


def strict_instance(x, y) -> bool:
    """gamma(x) strictly included in gamma(y), decided syntactically: the
    reference for the instantiation rule of ``policy.derive_order``."""
    return abstract_instance(x, y) is not None and not equivalent(x, y)


# --- concretization membership -------------------------------------------

def _ground_concrete(t) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Const):
        return True
    return all(_ground_concrete(a) for a in t.args)


def _match_term(ct, at, slot, binding) -> bool:
    """Match a concrete term against an abstract one; MVars are keyed per
    instance ``slot`` so separate instances bind independently."""
    if isinstance(at, MVar):
        at = (slot, at)
    if isinstance(at, tuple):
        if at[1].kind == GROUND and not _ground_concrete(ct):
            return False
        if at in binding:
            return binding[at] == ct
        binding[at] = ct
        return True
    if isinstance(at, AVar):
        if at.kind == GROUND and not _ground_concrete(ct):
            return False
        if at in binding:
            return binding[at] == ct
        binding[at] = ct
        return True
    if isinstance(at, Const):
        return isinstance(ct, Const) and ct.name == at.name
    if isinstance(at, Struct):
        return (isinstance(ct, Struct) and ct.functor == at.functor
                and len(ct.args) == len(at.args)
                and all(_match_term(c, a, slot, binding)
                        for c, a in zip(ct.args, at.args)))
    raise AbstractDomainError(f"not an abstract term: {at!r}")


def _match_atom(ca: Atom, aa: Atom, slot, binding) -> bool:
    return (ca.indicator == aa.indicator
            and all(_match_term(c, a, slot, binding)
                    for c, a in zip(ca.args, aa.args)))


def multi_member(atoms, m: Multi, binding=None, slot_base=0) -> bool:
    """True iff ``atoms`` splits into n >= 1 instances of the pattern
    satisfying init, consecutive and final under a consistent assignment."""
    if binding is None:
        binding = {}
    if len(atoms) == 0 or len(atoms) % m.plen != 0:
        return False
    n = len(atoms) // m.plen
    trial = dict(binding)
    for j in range(1, n + 1):
        block = atoms[(j - 1) * m.plen: j * m.plen]
        for ca, aa in zip(block, m.pattern):
            if not _match_atom(ca, aa, (slot_base, j, m.id), trial):
                return False
    for v, t in m.init:
        key = ((slot_base, 1, m.id), v)
        if key not in trial or not _match_term(trial[key], t, None, trial):
            return False
    for j in range(1, n):
        for v, w in m.consecutive:
            kv = ((slot_base, j + 1, m.id), v)
            kw = ((slot_base, j, m.id), w)
            if kv not in trial or kw not in trial or trial[kv] != trial[kw]:
                return False
    for v, t in m.final:
        key = ((slot_base, n, m.id), v)
        if key not in trial or not _match_term(trial[key], t, None, trial):
            return False
    binding.clear()
    binding.update(trial)
    return True


def conj_member(concrete_atoms, conj, binding=None) -> bool:
    """Membership of a concrete conjunction in an abstract one that may
    contain multi abstractions (each absorbing a variable number of
    concrete atoms)."""
    if binding is None:
        binding = {}
    concrete_atoms = tuple(concrete_atoms)
    conj = tuple(conj)

    def go(ci, ai, bnd):
        if ai == len(conj):
            return bnd if ci == len(concrete_atoms) else None
        c = conj[ai]
        if isinstance(c, Atom):
            if ci >= len(concrete_atoms):
                return None
            trial = dict(bnd)
            if _match_atom(concrete_atoms[ci], c, None, trial):
                return go(ci + 1, ai + 1, trial)
            return None
        maxn = (len(concrete_atoms) - ci) // c.plen
        for n in range(1, maxn + 1):
            trial = dict(bnd)
            chunk = concrete_atoms[ci: ci + n * c.plen]
            if multi_member(chunk, c, trial, slot_base=ai):
                res = go(ci + n * c.plen, ai + 1, trial)
                if res is not None:
                    return res
        return None

    res = go(0, 0, dict(binding))
    if res is None:
        return False
    binding.clear()
    binding.update(res)
    return True


# --- sampling the concretization -----------------------------------------

class Sampler:
    """Random members of the denotation of abstract values, for property
    tests and simulation checks.  Samples are best-effort: callers should
    re-check membership when a multi's constraints can conflict."""

    def __init__(self, rng: random.Random, depth: int = 2,
                 functors=("f", "g"), consts=("c", "d", 0, 1, 2)):
        self.rng = rng
        self.depth = depth
        self.functors = functors
        self.consts = consts
        self.varc = 0

    def _fresh_var(self):
        self.varc += 1
        return Var(f"S{self.varc}")

    def concrete_term(self, ground: bool, depth=None):
        depth = self.depth if depth is None else depth
        roll = self.rng.random()
        if not ground and roll < 0.3:
            return self._fresh_var()
        if depth <= 0 or roll < 0.7:
            return Const(self.rng.choice(self.consts))
        f = self.rng.choice(self.functors)
        n = self.rng.randint(1, 2)
        return Struct(f, tuple(self.concrete_term(ground, depth - 1)
                               for _ in range(n)))

    def term(self, at, env):
        if isinstance(at, (AVar, MVar)):
            if at not in env:
                env[at] = self.concrete_term(at.kind == GROUND)
            return env[at]
        if isinstance(at, Const):
            return Const(at.name)
        if isinstance(at, Struct):
            return Struct(at.functor, tuple(self.term(a, env)
                                            for a in at.args))
        raise AbstractDomainError(f"cannot sample {at!r}")

    def atom(self, aa: Atom, env) -> Atom:
        return Atom(aa.pred, tuple(self.term(t, env) for t in aa.args))

    def multi(self, m: Multi, env, n: int) -> list:
        init, cons, final = m.init_map, m.cons_map, m.final_map
        atoms = []
        prev = None
        for j in range(1, n + 1):
            inst = {}
            for v in m.pattern_vars():
                if j == 1 and v in init:
                    inst[v] = self.term(init[v], env)
                elif j > 1 and v in cons:
                    inst[v] = prev[cons[v]]
                elif j == n and v in final:
                    inst[v] = self.term(final[v], env)
                else:
                    inst[v] = self.concrete_term(v.kind == GROUND)
            atoms.extend(self.atom(a, inst) for a in m.pattern)
            prev = inst
        return atoms

    def conjunction(self, conj, env=None, multi_len=None) -> list:
        env = {} if env is None else env
        atoms = []
        for c in conj:
            if isinstance(c, Atom):
                atoms.append(self.atom(c, env))
            else:
                n = multi_len or self.rng.randint(1, 3)
                atoms.extend(self.multi(c, env, n))
        return atoms


# --- policy selection ----------------------------------------------------

def select_atom(policy: SelectionPolicy, conj):
    """Selection restricted to plain-atom conjunctions.

    Returns (index, atom, mark) with mark FULLEVAL or UNFOLD.
    """
    pos, mark = select_conjunct(policy, conj)
    if mark == "split":
        raise PolicyError("selected a multi instance; case-split first")
    return pos, conj[pos], mark


def order_lt(order: DerivedOrder, x: Atom, y: Atom) -> bool:
    """Whether ``x`` precedes ``y`` in the derived order; atoms outside
    the order's classes precede nothing."""
    classes = [canonicalize(a) for a in (x, y)]
    if not all(c in order.classes for c in classes):
        return False
    return tuple(order.classes.index(c) for c in classes) in order.less


def reference_derive_order(policy: SelectionPolicy, atoms):
    """The derived order's classes and ``less`` pairs, built pair by pair
    and closed by a fixpoint loop: the reference for
    ``policy.derive_order``."""
    classes = []
    reps = []
    mentioned = [a for pair in policy.preprior for a in pair]
    mentioned += [r.target for r in policy.rules if r.target is not None]
    for members in policy.sets.values():
        mentioned += list(members)
    for a in list(atoms) + mentioned:
        key = canonicalize(a)
        if key not in classes:
            classes.append(key)
            reps.append(a)
    n = len(classes)
    where = {key: i for i, key in enumerate(classes)}
    less = set()
    preprior = {(canonicalize(p), canonicalize(q))
                for p, q in policy.preprior}
    set_classes = {name: {where[canonicalize(m)] for m in members}
                   for name, members in policy.sets.items()}
    instance = {(i, j) for i in range(n) for j in range(n)
                if i != j and abstract_instance(reps[i], reps[j]) is not None}
    fe = [policy.fulleval_match(r) is not None for r in reps]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (classes[i], classes[j]) in preprior:
                less.add((i, j))
            if (i, j) in instance:
                less.add((i, j))
            if fe[i] and not fe[j]:
                less.add((i, j))
            for rule in policy.rules:
                members = set_classes[rule.set_name]
                if rule.kind == "instances_first" and j in members and \
                        any((i, k) in instance for k in members):
                    less.add((i, j))
    for rule in policy.rules:
        if rule.kind == "never_before":
            members = set_classes[rule.set_name]
            target = where[canonicalize(rule.target)]
            less -= {(i, target) for i in members}
    changed = True
    while changed:
        changed = False
        for i, j in list(less):
            for j2, k in list(less):
                if j2 == j and (i, k) not in less and i != k:
                    less.add((i, k))
                    changed = True
                elif j2 == j and i == k:
                    raise PolicyError(
                        "selection order is cyclic: "
                        f"{print_atom(reps[i])} < {print_atom(reps[j])} "
                        f"< {print_atom(reps[i])}")
    return classes, less


def reference_select_conjunct(policy: SelectionPolicy, conj):
    """``policy.select_conjunct`` over the reference order, matching each
    atom to its class by canonical form: the reference selection."""
    eff = _effective_atoms(conj)
    if not eff:
        raise PolicyError("cannot select from an empty conjunction")
    for pos, a in eff:
        if policy.fulleval_match(a) is not None:
            if isinstance(conj[pos], Atom):
                return pos, FULLEVAL
            return pos, "split"
    classes, less = reference_derive_order(policy, [a for _, a in eff])
    present = []
    for _, a in eff:
        key = canonicalize(a)
        if key not in present:
            present.append(key)
    idx = {c: i for i, c in enumerate(classes)}
    winners = []
    for ci in present:
        i = idx[ci]
        if all(cj == ci or (i, idx[cj]) in less for cj in present):
            winners.append(ci)
    if not winners:
        raise NoMinimumError(
            "no minimal atom in " +
            " , ".join(print_atom(a) for a in _printable(conj, eff)))
    for pos, a in eff:
        if canonicalize(a) == winners[0]:
            if isinstance(conj[pos], Atom):
                return pos, UNFOLD
            return pos, "split"
    raise PolicyError("internal selection failure")


def is_complete(policy: SelectionPolicy, states):
    """Check every state has a selectable minimum; returns (ok, witness)."""
    for state in states:
        try:
            select_conjunct(policy, state)
        except NoMinimumError:
            return False, state
    return True, None


# --- abstracted unification ---------------------------------------------

class MixedUnifier:
    """Abstracted unification as a stateful object, one run of the
    concrete unifier read back through ``abstract`` and ``theta_x``: the
    reference for ``absdom.abstract_mgu``.  Structural groundness
    propagation: every variable occurring in a subterm unified against a
    ground variable becomes ground.  Integer constants in results are
    widened to fresh ground variables."""

    def __init__(self, fresh):
        self.fresh = fresh
        self.own = {}           # the caller's variables, in order
        self.sigma = None
        self.ground = set()
        self.backmap = {}
        self.int_cache = {}

    def unify_same_side(self, ts1, ts2) -> bool:
        """Unify pairs of the caller's abstract terms against each other."""
        return self._unify(ts1, ts2, ts1 + ts2)

    def unify(self, x_args, y_head) -> bool:
        """The caller's terms ``x_args`` against ``y_head``, whose
        variables are bound before the caller's."""
        return self._unify(y_head, x_args, x_args)

    def _unify(self, first, second, own) -> bool:
        sigma = unify(Atom("", first[::-1]), Atom("", second[::-1]))
        if sigma is None:
            return False
        self.sigma = sigma
        self.own = dict.fromkeys(avars(own))
        for v in term_vars((first, second)):
            if isinstance(v, (AVar, MVar)) and v.kind == GROUND:
                self.ground.update(term_vars(sigma.apply(v)))
        return True

    def abstract(self, t):
        """Map a concrete term (post-substitution) back into the domain."""
        return self._abs(self.sigma.apply(t))

    def _abs(self, t):
        if isinstance(t, Var):
            if t not in self.backmap:
                if t in self.own and (t.kind == GROUND
                                      or t not in self.ground):
                    self.backmap[t] = t
                else:   # an a-variable made ground is upgraded
                    self.backmap[t] = self.fresh.var(
                        GROUND if t in self.ground else ANY)
            return self.backmap[t]
        if isinstance(t, Const):
            if isinstance(t.name, int):
                if t.name not in self.int_cache:
                    self.int_cache[t.name] = self.fresh.var(GROUND)
                return self.int_cache[t.name]
            return t
        return Struct(t.functor, tuple(self._abs(a) for a in t.args))

    def theta_x(self) -> ASub:
        out = {}
        for v in self.own:
            result = self.abstract(v)
            if result != v:
                out[v] = result
        return ASub(out)


def reference_abstract_unify_with_clause(a, clause, fresh):
    """``absdom.abstract_unify_with_clause`` on ``MixedUnifier``."""
    if a.indicator != clause.head.indicator:
        return None
    mu = MixedUnifier(fresh)
    if not mu.unify(a.args, clause.head.args):
        return None
    body = tuple(Atom(b.pred, tuple(mu.abstract(t) for t in b.args))
                 for b in clause.body)
    return body, mu.theta_x()


def reference_full_eval_output(a, pattern, output, fresh):
    """``absdom.full_eval_output`` on ``MixedUnifier``."""
    post = output.apply(pattern)
    post = ASub({v: AVar(v.kind, -1 - v.index)
                 for v in avars(post)}).apply(post)
    mu = MixedUnifier(fresh)
    if not mu.unify(a.args, post.args):
        return None
    return mu.theta_x()


def reference_case_split(m, fresh):
    """``multi.case_split`` on ``MixedUnifier``."""
    init, final = m.init_map, m.final_map
    clashes = [v for v in m.pattern_vars()
               if v in init and v in final and init[v] != final[v]]
    one_sub = ASub()
    if clashes:
        mu = MixedUnifier(fresh)
        if not mu.unify_same_side(tuple(init[v] for v in clashes),
                                  tuple(final[v] for v in clashes)):
            raise AbstractDomainError(
                f"irreconcilable init/final constraints in {m}")
        one_sub = mu.theta_x()
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


# --- partial-deduction declarations --------------------------------------

def interpreter_filter_text() -> str:
    """The default filters in their declaration syntax."""
    return "mi(state, static).\n"


def list_filter_text() -> str:
    """The generic filters of the goal list, the default before the
    state's conjunction was: each element is known down to its top
    functor, so a cmulti element is ``cmulti(_)``, and a repeated
    variable is one argument per occurrence."""
    return "mi(type(list(nonvar)), static).\n"


def block_filter_text() -> str:
    """The filters before those, in which a cmulti element is known
    down to the atom skeletons of its first building block.  They
    memoize a state once for each way a cmulti reaches it (primes 74
    memo entries for 53 states, queens 57 for 41), and they are the
    declaration that takes ``OneOf``, ``StructOf`` and the undoing of a
    failed alternative on the corpus."""
    elem = ("struct(cmulti,[struct(.,[struct(building_block,"
            "[type(list(nonvar))]),dynamic])]) ; nonvar")
    return f"mi(type(list({elem})), static).\n"


def interpreter_annotation_text() -> str:
    """The default annotations in their declaration syntax."""
    return ("ann(memo, mi/2).\n"
            "ann(rescall, bb_append/3).\n")


# --- filter generalization: binding types with a separate fit test -------
#
# Each type says whether a term fits (``admits``) and, separately, how it
# generalizes; ``OneOf`` and ``StructOf`` ask ``admits`` before they
# generalize, so no failed try ever draws a variable or appends a part.

class ReferenceStatic:
    def admits(self, term):
        return not term_vars(term)

    def generalize(self, term, fresh, parts):
        if term_vars(term):
            raise pd.PDError(
                f"static argument {print_term(term)} is not ground")
        return term


class ReferenceDynamic:
    def admits(self, term):
        return True

    def generalize(self, term, fresh, parts):
        parts.append(term)
        return fresh.var()


class ReferenceNonvar:
    def admits(self, term):
        return not isinstance(term, Var)

    def generalize(self, term, fresh, parts):
        if isinstance(term, Var):
            raise pd.PDError("nonvar argument is a variable")
        if isinstance(term, Const):
            return term
        parts.extend(term.args)
        return Struct(term.functor, tuple(fresh.var() for _ in term.args))


def _is_closed_list(term):
    return list_parts(term)[1] == Const(NIL)


@dataclass(frozen=True)
class ReferenceListOf:
    elem: object

    def admits(self, term):
        return _is_closed_list(term) and \
            all(self.elem.admits(x) for x in list_parts(term)[0])

    def generalize(self, term, fresh, parts):
        if not _is_closed_list(term):
            raise pd.PDError(
                f"list-typed argument {print_term(term)} has an open tail")
        items, _ = list_parts(term)
        return mklist([self.elem.generalize(x, fresh, parts) for x in items])


@dataclass(frozen=True)
class ReferenceStructOf:
    functor: str
    args: tuple

    def admits(self, term):
        if isinstance(term, Const):
            return term.name == self.functor and not self.args
        return isinstance(term, Struct) and term.functor == self.functor \
            and len(term.args) == len(self.args) \
            and all(t.admits(a) for t, a in zip(self.args, term.args))

    def generalize(self, term, fresh, parts):
        if not self.admits(term):
            raise pd.PDError(
                f"{print_term(term)} does not fit struct "
                f"{self.functor}/{len(self.args)}")
        if isinstance(term, Const):
            return term
        return Struct(self.functor,
                      tuple(t.generalize(a, fresh, parts)
                            for t, a in zip(self.args, term.args)))


@dataclass(frozen=True)
class ReferenceOneOf:
    alternatives: tuple

    def admits(self, term):
        return any(a.admits(term) for a in self.alternatives)

    def generalize(self, term, fresh, parts):
        for a in self.alternatives:
            if a.admits(term):
                return a.generalize(term, fresh, parts)
        raise pd.PDError(f"{print_term(term)} fits no alternative")


def reference_binding_type(t):
    """The reference type with the structure of the ``pd`` type ``t``."""
    if isinstance(t, pd.ListOf):
        return ReferenceListOf(reference_binding_type(t.elem))
    if isinstance(t, pd.StructOf):
        return ReferenceStructOf(
            t.functor, tuple(map(reference_binding_type, t.args)))
    if isinstance(t, pd.OneOf):
        return ReferenceOneOf(
            tuple(map(reference_binding_type, t.alternatives)))
    return {pd.Static: ReferenceStatic, pd.Dynamic: ReferenceDynamic,
            pd.Nonvar: ReferenceNonvar}[type(t)]()


def reference_generalize_call(atom, types, fresh, parts):
    """``pd.generalize_call`` over the reference types of ``types``."""
    if len(types) != len(atom.args):
        raise pd.PDError(f"filter arity mismatch for {print_atom(atom)}")
    return Atom(atom.pred,
                tuple(reference_binding_type(t).generalize(a, fresh, parts)
                      for t, a in zip(types, atom.args)))


# --- the resolution step -------------------------------------------------

def resolve_one(atom, clause, fresh, store, occurs_check=True):
    """One clause's resolution step, as the interpreter takes a table row:
    ``terms.resolve_all`` over the clause's one-clause ``Switch``, giving
    the body and the bindings, or None when the head does not unify.  An
    atom of another predicate, which no row gives, is not resolved: it
    gives None, and ``fresh`` advances by the clause's variable count, as
    in ``reference_resolve_in``."""
    if atom.indicator != clause.head.indicator:
        fresh.n += len(clause.variables)
        return None
    succ = resolve_all(atom, Switch((clause,)), (), None, fresh, store,
                       occurs_check)
    return (succ[0][0], succ[0][2]) if succ else None


def resolve(atom, clause, fresh, occurs_check=True):
    """One resolution step in substitution form: ``resolve_one`` on an
    empty store, the body instantiated by its bindings, and the bindings,
    in the order made, as the unifier to apply to the rest of the goal;
    None when the head does not unify."""
    res = resolve_one(atom, clause, fresh, {}, occurs_check)
    if res is None:
        return None
    body, made = res
    bindings = dict(reversed(made))
    return substitute(body, bindings), Substitution(bindings)


def _unify_pairs(work, b, occurs_check, fresh_var=None, renamed=None):
    """The work-list unifier of clause heads, the reference for the
    generated head code of ``terms``.

    A pair is ``(x, y, depth)``.  ``x`` is a term of the goal; so is ``y``
    when ``depth`` is None.  Otherwise ``y`` is a subterm of a clause not
    yet renamed apart, ``depth`` deep in its literal (a head argument is 1
    deep), and ``fresh_var`` gives each of its variables its new name, or
    what ``renamed`` maps it to.  Pairs are taken last first, and a
    variable of ``x`` is bound before one of ``y``.  A clause structure is
    renamed only when a variable is bound to it, or when it is not ground
    and ``_MAX_NESTING`` deep: then it is renamed whole and unified as a
    goal pair.  A clause variable not yet in ``renamed`` is at its first
    occurrence.  When ``x`` is an unbound variable, ``x`` is bound to the
    clause variable's new name, without the occurs check; otherwise
    ``renamed`` maps the clause variable to ``x`` and nothing is bound."""
    seen = None if occurs_check else set()
    while work:
        x, y, depth = work.pop()
        while isinstance(x, Var):
            t = b.get(x)
            if t is None:
                break
            x = t
        if depth is not None:
            if isinstance(y, Struct) and depth >= _MAX_NESTING and \
                    term_vars(y):
                y = replace_vars(y, fresh_var)
            elif isinstance(y, Struct):
                if isinstance(x, Var):
                    y = replace_vars(y, fresh_var)
                    if occurs_check and _occurs(x, y, b):
                        return False
                    b[x] = y
                elif isinstance(x, Struct) and x.functor == y.functor \
                        and len(x.args) == len(y.args):
                    work.extend(zip(x.args, y.args, repeat(depth + 1)))
                else:
                    return False
                continue
            elif isinstance(y, Var):
                r = renamed.get(y)
                if r is None:
                    if isinstance(x, Var):
                        b[x] = fresh_var(y)
                    else:
                        renamed[y] = x
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
                pair = (id(x), id(y))
                if pair in seen:
                    continue
                seen.add(pair)
            work.extend(zip(x.args, y.args, repeat(None)))
        else:
            return False
    return True


def unify_head(atom, clause, fresh, b, occurs_check=True):
    """Unify ``atom`` with the head of ``clause`` renamed apart, by
    extending the bindings ``b``: the clause's renaming when the head
    unifies, else None.  The renaming maps a variable whose first
    occurrence met a goal term other than an unbound variable to that
    term, and any other variable to its new name.  ``fresh`` advances by
    the clause's variable count whether or not the head unifies."""
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

    if not _unify_pairs(list(zip(atom.args, head.args, repeat(1))), b,
                        occurs_check, fresh_var, renamed):
        return None
    return fresh_var


def reference_resolve_in(atom, clause, fresh, store, occurs_check=True):
    """One clause's resolution step (``resolve_one``) by the work-list
    unifier, with no first-argument switch and the body renamed by
    ``replace_vars``: the reference the generated head code must match,
    binding for binding."""
    mark = len(store)
    rename = unify_head(atom, clause, fresh, store, occurs_check)
    bindings = take_back(store, mark)
    if rename is None:
        return None
    return replace_vars(clause.body, rename), bindings


def reference_resolve_all(atom, clauses, rest, state, fresh, store,
                          occurs_check=True, last_first=False):
    """``terms.resolve_all`` as ``reference_resolve_in`` on each clause of
    the predicate in turn, with no switch: in textual order, or in the
    reverse order with the successors then put back in textual order."""
    order = tuple(reversed(clauses)) if last_first else clauses
    successors = []
    for clause in order:
        res = reference_resolve_in(atom, clause, fresh, store, occurs_check)
        if res is not None:
            successors.append((res[0] + rest, state, res[1]))
    return successors[::-1] if last_first else successors


# --- the builtins by rebuilding --------------------------------------------
# ``engine``'s builtins as they were before they read their arguments
# through the binding store: each takes its atom already resolved through
# the store and returns idempotent substitutions, ``select/3`` building
# every remainder as a new list and unifying with a fresh dict.

def _int(t, atom):
    if isinstance(t, Const) and isinstance(t.name, int):
        return t.name
    raise ModeError(f"expected integer argument in {atom}")


def _bi_select(args, atom):
    x, lst, rest = args
    items, tail = list_parts(lst)
    if tail != Const(NIL):
        raise ModeError(f"select/3 needs a closed list: {atom}")
    out = []
    for i in range(len(items)):
        removed = items[i]
        remainder = mklist(items[:i] + items[i + 1:])
        # ``unify`` takes an atom's argument pairs last first: x = removed
        # is solved before rest = remainder
        s = unify(Atom("select", (rest, x)),
                  Atom("select", (remainder, removed)))
        if s is not None:
            out.append(s)
    return out


def _bi_leq(args, atom):
    a, b = (_int(t, atom) for t in args)
    return [Substitution()] if a <= b else []


def _arith3(args, atom, fwd, inv_left, inv_right):
    """Three-place arithmetic over the naturals: any one argument may be
    computed from the other two; a negative result fails instead of
    producing a value outside the domain."""
    a, b, c = args
    known = [isinstance(t, Const) and isinstance(t.name, int) for t in args]
    if known[0] and known[1]:
        r = fwd(a.name, b.name)
    elif known[0] and known[2]:
        r = inv_right(a.name, c.name)
    elif known[1] and known[2]:
        r = inv_left(b.name, c.name)
    else:
        r = None
    if r is not None:
        if r < 0:
            return []
        target = args[known.index(False)] if False in known else None
        if target is None:
            return [Substitution()] if fwd(a.name, b.name) == c.name else []
        s = unify(target, Const(r))
        return [s] if s is not None else []
    raise ModeError(f"need two integer arguments in {atom}")


def _bi_plus(args, atom):
    return _arith3(args, atom, lambda a, b: a + b,
                   lambda b, c: c - b, lambda a, c: c - a)


def _bi_minus(args, atom):
    return _arith3(args, atom, lambda a, b: a - b,
                   lambda b, c: b + c, lambda a, c: a - c)


def _bi_divides(args, atom):
    n, m = (_int(t, atom) for t in args)
    return [Substitution()] if n != 0 and m % n == 0 else []


def _bi_does_not_divide(args, atom):
    n, m = (_int(t, atom) for t in args)
    return [Substitution()] if n == 0 or m % n != 0 else []


def _bi_noattack(args, atom):
    q1, q2, d = (_int(t, atom) for t in args)
    return [Substitution()] if q1 != q2 and abs(q1 - q2) != d else []


REFERENCE_BUILTINS = {
    ("select", 3): _bi_select,
    ("=<", 2): _bi_leq,
    ("plus", 3): _bi_plus,
    ("minus", 3): _bi_minus,
    ("divides", 2): _bi_divides,
    ("does_not_divide", 2): _bi_does_not_divide,
    ("noattack", 3): _bi_noattack,
}


def reference_evaluate(atom: Atom, store: dict) -> list:
    """The outputs of the builtin call ``atom`` as substitutions of its
    atom resolved through ``store``."""
    atom = substitute(atom, store)
    return REFERENCE_BUILTINS[atom.indicator](atom.args, atom)


# --- the interpreter's goal surgery by rebuilding --------------------------
# ``metaint``'s split and grouping steps on cmulti elements in their term
# form, as the encoded interpreter holds them: on a goal already resolved
# through the store, they take every cmulti apart into atom blocks and
# build the successor's cmulti afresh.

def is_cmulti(x) -> bool:
    """Whether a goal element is a cmulti in its term form."""
    return isinstance(x, Atom) and x.pred == CMULTI and len(x.args) == 1


def make_cmulti(blocks) -> Atom:
    """cmulti([building_block([...]), ...]) over concrete atom blocks."""
    return Atom(CMULTI, (mklist([building_block(b) for b in blocks]),))


def cmulti_blocks(x: Atom):
    """The list of atom blocks wrapped in a cmulti goal element."""
    if not is_cmulti(x):
        raise MetaintError(f"not a cmulti element: {x!r}")
    bbs, tail = list_parts(x.args[0])
    if tail != Const(NIL):
        raise MetaintError(f"open building-block list in {x!r}")
    blocks = []
    for bb in bbs:
        if not (isinstance(bb, Struct) and bb.functor == BUILDING_BLOCK
                and len(bb.args) == 1):
            raise MetaintError(f"malformed building block {bb!r}")
        atoms, btail = list_parts(bb.args[0])
        if btail != Const(NIL):
            raise MetaintError(f"open building block {bb!r}")
        block = tuple(term_to_atom(t) for t in atoms)
        if None in block:
            raise MetaintError(f"not a callable term in {bb!r}")
        blocks.append(block)
    return blocks


def reference_split(goal, idx):
    """The split of the resolved cmulti at ``idx``: ("one", successor) or
    ("many", successor)."""
    blocks = cmulti_blocks(goal[idx])
    before, after = tuple(goal[:idx]), tuple(goal[idx + 1:])
    if len(blocks) == 1:
        return "one", before + blocks[0] + after
    return "many", before + blocks[0] + (make_cmulti(blocks[1:]),) + after


def _atoms_only(elems):
    for e in elems:
        if is_cmulti(e):
            raise MetaintError(f"cannot re-group cmulti element {e!r}")
    return tuple(elems)


def reference_apply_groupings(goal, ev):
    """The grouping ``ev`` of a goal whose cmulti elements are resolved."""
    goal = list(goal)
    s, p = ev.start, ev.plen
    if ev.kind == "new":
        if s + 2 * p > len(goal):
            raise MetaintError(f"grouping {ev} out of range for goal of "
                               f"{len(goal)}")
        blocks = [_atoms_only(goal[s: s + p]),
                  _atoms_only(goal[s + p: s + 2 * p])]
        return tuple(goal[:s] + [make_cmulti(blocks)] + goal[s + 2 * p:])
    if ev.kind == "left":
        block = _atoms_only(goal[s: s + p])
        rest = cmulti_blocks(goal[s + p])
        return tuple(goal[:s] + [make_cmulti([block] + rest)]
                     + goal[s + p + 1:])
    if ev.kind == "right":
        blocks = cmulti_blocks(goal[s])
        block = _atoms_only(goal[s + 1: s + 1 + p])
        return tuple(goal[:s] + [make_cmulti(blocks + [block])]
                     + goal[s + 1 + p:])
    if ev.kind == "merge":
        b1 = cmulti_blocks(goal[s])
        b2 = cmulti_blocks(goal[s + 1])
        return tuple(goal[:s] + [make_cmulti(b1 + b2)] + goal[s + 2:])
    raise MetaintError(f"unknown grouping kind {ev.kind!r}")


# --- the recursive term walks --------------------------------------------
# ``terms.substitute``, ``terms.replace_vars`` and ``terms.print_term`` as
# they were before one explicit-stack walk replaced their recursion: the
# references a differential test holds the walks to on terms shallow
# enough for the host's recursion limit.

def reference_substitute(x, b: dict):
    """``x`` with each variable bound in ``b`` replaced by the instance of
    its binding, by recursion; a part with no bound variable is returned
    as it is."""
    while isinstance(x, Var):
        t = b.get(x)
        if t is None:
            return x
        x = t
    if isinstance(x, Struct):
        if x.functor == CONS and len(x.args) == 2:
            return _reference_substitute_list(x, b)
        args = _reference_substitute_all(x.args, b)
        return x if args is x.args else Struct(x.functor, args)
    if isinstance(x, Atom):
        args = _reference_substitute_all(x.args, b)
        return x if args is x.args else Atom(x.pred, args)
    if isinstance(x, tuple):
        return _reference_substitute_all(x, b)
    if isinstance(x, list):
        return [reference_substitute(a, b) for a in x]
    return x


def _reference_substitute_list(x: Struct, b: dict):
    """The spine of a list in a loop, the elements by recursion; a cell
    met again through a bound tail variable raises RecursionError."""
    cells, heads = [], []
    via_binding = set()
    while True:
        cells.append(x)
        heads.append(reference_substitute(x.args[0], b))
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
    out = reference_substitute(t, b)
    for cell, head in zip(reversed(cells), reversed(heads)):
        if head is not cell.args[0] or out is not cell.args[1]:
            out = Struct(CONS, (head, out))
        else:
            out = cell
    return out


def _reference_substitute_all(xs: tuple, b: dict) -> tuple:
    new = [reference_substitute(x, b) for x in xs]
    for y, x in zip(new, xs):
        if y is not x:
            return tuple(new)
    return xs


def reference_replace_vars(x, rename):
    """Simultaneous variable replacement by ``rename``, by recursion; every
    part is rebuilt."""
    if isinstance(x, Var):
        return rename(x)
    if isinstance(x, Struct):
        return Struct(x.functor, tuple([reference_replace_vars(a, rename)
                                       for a in x.args]))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple([reference_replace_vars(a, rename)
                                   for a in x.args]))
    if isinstance(x, tuple):
        return tuple([reference_replace_vars(a, rename) for a in x])
    return x


def reference_print_term(t) -> str:
    """The text of a term, by recursion."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.name)
    if t.functor == CONS and len(t.args) == 2:
        items, tail = list_parts(t)
        inner = ",".join(reference_print_term(x) for x in items)
        if tail == Const(NIL):
            return f"[{inner}]"
        return f"[{inner}|{reference_print_term(tail)}]"
    inner = ",".join(reference_print_term(a) for a in t.args)
    return f"{t.functor}({inner})"


# --- the character-loop lexer ----------------------------------------------

_PUNCT = [":-", "=<", "->", "(", ")", "[", "]", "{", "}", "|", ",",
          "<", "=", ";", ".", "/", ":"]


def reference_tokens(text):
    """The tokens of ``text`` and the (line, column) of its end, scanned
    a character at a time, with every punctuation string tried in turn at
    each token, as ``terms._Lexer`` once did.  A character that
    ``str.isdigit`` takes for a digit but ``int`` cannot read, such as
    "²", raises ValueError here."""
    tokens = []
    pos, line, col = 0, 1, 1

    def advance(n):
        nonlocal pos, line, col
        for ch in text[pos:pos + n]:
            if ch == "\n":
                line, col = line + 1, 1
            else:
                col += 1
        pos += n

    def word_end():
        j = pos
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        return j

    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "%":
            nl = text.find("\n", pos)
            advance((nl if nl >= 0 else len(text)) - pos)
            continue
        loc = (line, col)
        punct = next((p for p in _PUNCT if text.startswith(p, pos)), None)
        if punct is not None:
            tokens.append((punct, punct, loc))
            advance(len(punct))
        elif ch.isdigit() or (ch == "-" and pos + 1 < len(text)
                              and text[pos + 1].isdigit()):
            j = pos + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[pos:j]), loc))
            advance(j - pos)
        elif ch.islower() or ch.isupper() or ch == "_":
            j = word_end()
            tokens.append(("name" if ch.islower() else "var", text[pos:j],
                           loc))
            advance(j - pos)
        else:
            raise ParseError(f"unexpected character {ch!r}", *loc)
    return tokens, (line, col)


# --- random concrete terms -----------------------------------------------

def random_term(rng, depth, vars_pool):
    roll = rng.random()
    if roll < 0.25 and vars_pool:
        return Var(rng.choice(vars_pool))
    if depth <= 0 or roll < 0.55:
        return Const(rng.choice(["c", "d", 0, 1]))
    f = rng.choice(["f", "g"])
    n = rng.randint(1, 2)
    return Struct(f, tuple(random_term(rng, depth - 1, vars_pool)
                           for _ in range(n)))


def _ground_universe(max_depth):
    """All ground terms over a tiny signature up to the given depth."""
    layers = [[Const("c"), Const(0)]]
    for _ in range(max_depth):
        prev = [t for layer in layers for t in layer]
        new = [Struct("f", (t,)) for t in prev]
        new += [Struct("g", (a, b)) for a in layers[0] for b in layers[0]]
        layers.append(new)
    return [t for layer in layers for t in layer]


def _subst(t, assignment):
    if isinstance(t, Var):
        return assignment.get(t.name, t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(_subst(a, assignment)
                                       for a in t.args))
    return t


def brute_force_unifiable(t1, t2, universe):
    """Whether some assignment of universe terms to variables makes the
    two terms syntactically equal."""
    names = []
    for t in (t1, t2):
        stack = [t]
        while stack:
            x = stack.pop()
            if isinstance(x, Var) and x.name not in names:
                names.append(x.name)
            elif isinstance(x, Struct):
                stack.extend(x.args)
    def go(i, assignment):
        if i == len(names):
            return _subst(t1, assignment) == _subst(t2, assignment)
        for u in universe:
            assignment[names[i]] = u
            if go(i + 1, assignment):
                return True
        del assignment[names[i]]
        return False
    return go(0, {})


def atoms_like(rng, head: Atom, count: int, vars_pool):
    """Atoms of the head's predicate, most of them instances of the head:
    its variables bound to random terms over ``vars_pool``, and now and
    then an argument replaced by a random term."""
    names = sorted({v.name for v in term_vars(head)})
    for _ in range(count):
        binding = {n: random_term(rng, 2, vars_pool) for n in names
                   if rng.random() < 0.7}
        yield Atom(head.pred, tuple(
            random_term(rng, 2, vars_pool) if rng.random() < 0.2
            else _subst(a, binding) for a in head.args))


def check_unify_against_brute_force(cases=1000, seed=0):
    """mgu computation versus unifier enumeration; returns failures."""
    rng = random.Random(seed)
    universe = _ground_universe(2)
    failures = []
    for i in range(cases):
        t1 = random_term(rng, 2, ["X", "Y"])
        t2 = random_term(rng, 2, ["X", "Y"])
        mgu = unify(t1, t2)
        brute = brute_force_unifiable(t1, t2, universe)
        if mgu is not None:
            if mgu.apply(t1) != mgu.apply(t2):
                failures.append((i, t1, t2, "mgu does not equalize"))
        elif brute:
            failures.append((i, t1, t2, "brute force unifies, mgu is None"))
    return failures


# --- widening monotonicity -----------------------------------------------

def aterm_depth(t) -> int:
    """Nesting depth of an abstract term's structures (an atom's is that
    of its deepest argument)."""
    if isinstance(t, (AVar, MVar, Const)):
        return 0
    if isinstance(t, Struct):
        return 1 + max(aterm_depth(a) for a in t.args)
    if isinstance(t, Atom):
        return max((aterm_depth(a) for a in t.args), default=0)
    raise AbstractDomainError(f"no depth for {t!r}")


def check_widen_monotone(aterms, k=2, samples_per=4, seed=0):
    """Every sampled member of an abstract term stays a member after
    depth-k widening; returns failures."""
    rng = random.Random(seed)
    sampler = Sampler(rng)
    failures = []
    for at in aterms:
        wt = widen_depth_k(at, k)
        for _ in range(samples_per):
            ct = sampler.term(at, {})
            if abstract_instance(ct, at) is None:
                continue    # aliasing made the sample inconsistent
            if abstract_instance(ct, wt) is None:
                failures.append((at, wt, ct))
    return failures


# --- case-split completeness ---------------------------------------------

def check_case_split_complete(m, one, head, rest, lengths=(1, 2, 3, 4),
                              samples_per=10, seed=0):
    """Concrete instance lists of each length fall into exactly the
    predicted alternative; returns failures."""
    rng = random.Random(seed)
    failures = []
    for n in lengths:
        for _ in range(samples_per):
            sampler = Sampler(random.Random(rng.random()))
            env = {}
            atoms = sampler.multi(m, env, n)
            if not multi_member(atoms, m):
                continue    # conflicting constraints; sample rejected
            in_one = conj_member(atoms, tuple(one))
            in_many = conj_member(atoms, tuple(head) + (rest,))
            if n == 1 and not in_one:
                failures.append((n, atoms, "missed the one-instance case"))
            if n > 1 and not in_many:
                failures.append((n, atoms, "missed the many-instance case"))
            if not (in_one or in_many):
                failures.append((n, atoms, "covered by neither case"))
    return failures


# --- arithmetic ----------------------------------------------------------

def first_primes(n):
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def queen_boards(n):
    """All safe placements by brute force over permutations."""
    import itertools
    boards = []
    for perm in itertools.permutations(range(1, n + 1)):
        if all(abs(perm[i] - perm[j]) != j - i
               for i in range(n) for j in range(i + 1, n)):
            boards.append(list(perm))
    return boards


# --- a generated program family ------------------------------------------

_ORD_SHAPES = ("[]", "[g1]", "[g1|a1]", "[g1,g2|a1]", "a1")

ORDERED_COPIES_QUERIES = ("p([3,1,2],S)", "p([2,1,3,4],S)")


def ordered_copies(k, seed=None):
    """Permsort with ``k`` renamed copies of its ``ord/1`` test (ROADMAP
    item 20): the program ``p(L,S) :- perm(L,S), ord0(S), ...,
    ord{k-1}(S).`` with permsort's ``perm/2``, and a policy with
    permsort's two ``preprior`` pairs for each copy, its two ``fulleval``
    declarations, and ``ord_i(s) < ord_j(s)`` for each i < j and each
    list shape s.  Returns (program text, policy text); the queries are
    ``ORDERED_COPIES_QUERIES``.  A ``seed`` shuffles the policy's
    ``preprior`` declarations, which names the same order."""
    ords = [f"ord{i}" for i in range(k)]
    lines = ["p(L,S) :- perm(L,S), " +
             ", ".join(f"{o}(S)" for o in ords) + ".",
             "perm([],[]).",
             "perm([X|Y],[U|V]) :- select(U,[X|Y],W), perm(W,V)."]
    for o in ords:
        lines += [f"{o}([]).", f"{o}([X]).",
                  f"{o}([X,Y|Z]) :- X =< Y, {o}([Y|Z])."]
    preprior = []
    for o in ords:
        preprior += [f"perm(g1,a1) < {o}([g1|a1])",
                     f"{o}([g1,g2|a1]) < perm(g1,a1)"]
    for i in range(k):
        for j in range(i + 1, k):
            preprior += [f"{ords[i]}({s}) < {ords[j]}({s})"
                         for s in _ORD_SHAPES]
    if seed is not None:
        random.Random(seed).shuffle(preprior)
    policy = (["entry: p(g1,a1)."] +
              [f"preprior: {pair}." for pair in preprior] +
              ["fulleval: select(a1,[g1|g2],a2) -> { a1=g3, a2=g4 } "
               "via builtin select/3.",
               "fulleval: g1 =< g2 -> { } via builtin =</2."])
    return "\n".join(lines) + "\n", "\n".join(policy) + "\n"
