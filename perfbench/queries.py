"""Query sets of the workloads and their compiler-independent references.

A query is written as text, parsed here by a small parser of our own and
by ``ccontrol`` separately, so the expected answers never pass through the
code under test. The reference answers come from first principles:
brute-force permutations filtered by sortedness, alternation, countdown
steps or queen safety, and trial-division primes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass
class Query:
    entry: str               # corpus entry whose programs answer it
    text: str                # goal text without the final full stop
    variants: tuple          # which of the five ways run it
    expected: list           # sorted answer keys, see answer_key()
    goal: tuple = ()         # the parsed ccontrol goal, set during setup


# --- a parser for the query language: pred(arg, ...) over integers,
# closed lists and variables

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Z_][A-Za-z0-9_]*)|([a-z][A-Za-z0-9_]*)"
                    r"|(.))")


def _tokens(text):
    for m in _TOKEN.finditer(text):
        num, var, atom, punct = m.groups()
        if num is not None:
            yield int(num)
        elif var is not None:
            yield Var(var)
        elif atom is not None:
            yield ("atom", atom)
        elif punct.strip():
            yield punct


def parse_query(text):
    """``pred(a1,...,an)`` -> (pred, (a1, ..., an)) with lists as tuples."""
    toks = list(_tokens(text))
    pos = 0

    def take(expect=None):
        nonlocal pos
        tok = toks[pos]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r} in {text!r}")
        pos += 1
        return tok

    def arg():
        tok = take()
        if tok == "[":
            items = []
            if toks[pos] != "]":
                items.append(arg())
                while toks[pos] == ",":
                    take(",")
                    items.append(arg())
            take("]")
            return tuple(items)
        if isinstance(tok, (int, Var)):
            return tok
        raise ValueError(f"unsupported argument {tok!r} in {text!r}")

    _, pred = take()
    take("(")
    args = [arg()]
    while toks[pos] == ",":
        take(",")
        args.append(arg())
    take(")")
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return pred, tuple(args)


# --- first-principles references -----------------------------------------

def _sorted(p):
    return all(a <= b for a, b in zip(p, p[1:]))


def _alternates(p):
    # zig: rise first, then fall, rise ... (non-strict)
    return all((a <= b) if i % 2 == 0 else (b <= a)
               for i, (a, b) in enumerate(zip(p, p[1:])))


def _counts_down(p):
    return all(a == b + 1 for a, b in zip(p, p[1:]))


def _safe_board(p):
    return all(p[i] != p[j] and abs(p[i] - p[j]) != j - i
               for i in range(len(p)) for j in range(i + 1, len(p)))


PERMUTATION_FILTERS = {"permsort": _sorted, "zigzag": _alternates,
                       "countdown": _counts_down, "queens": _safe_board}


def first_primes(n):
    """The first ``n`` primes by trial division."""
    out = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return tuple(out)


def reference_answers(text):
    """Sorted answer keys of a query, computed without ccontrol.

    Permutations are enumerated by position, as ``select/3`` does, so a
    list with repeated elements yields repeated answers. The primes program
    sifts every finite stream ``[2..k]`` and keeps those with ``n`` primes,
    so it answers once for each ``k`` from the n-th prime up to the next
    prime.
    """
    pred, (first, second) = parse_query(text)
    if pred == "primes":
        ps = first_primes(first + 1)
        solutions = [ps[:-1]] * (ps[-1] - ps[-2])
    else:
        keep = PERMUTATION_FILTERS[pred]
        solutions = [p for p in itertools.permutations(first) if keep(p)]
    if isinstance(second, Var):
        keys = [((second.name, p),) for p in solutions]
    else:
        keys = [() for p in solutions if p == second]
    return sorted(keys)


def to_py(terms, t):
    """A ccontrol term as a Python value: integers, tuples for closed lists,
    ``Var`` for an unbound variable."""
    if isinstance(t, terms.Var):
        return Var(t.name)
    if isinstance(t, terms.Const):
        return () if t.name == terms.NIL else t.name
    items, tail = terms.list_parts(t)
    if items and tail == terms.Const(terms.NIL):
        return tuple(to_py(terms, x) for x in items)
    return (t.functor,) + tuple(to_py(terms, a) for a in t.args)


def answer_key(terms, result):
    """Sorted answer multiset of a RunResult, comparable with
    ``reference_answers``."""
    return sorted(tuple(sorted((v.name, to_py(terms, t))
                               for v, t in sub.bindings.items()))
                  for sub in result.answers)


# --- the workloads' query sets --------------------------------------------

RUN_VARIANTS = ("naive", "mi", "classic", "futamura")
ALL_VARIANTS = ("naive", "mi", "encoded", "classic", "futamura")


def _without_naive(entry, variants):
    # the naive primes program searches an infinite candidate stream and
    # never terminates under left-to-right execution
    return tuple(v for v in variants if not (entry == "primes" and v == "naive"))


def _lst(xs):
    return "[" + ",".join(map(str, xs)) + "]"


def _query(entry, text, variants):
    return Query(entry, text, _without_naive(entry, variants),
                 reference_answers(text))


def _ranked(rng, ranks):
    """Random distinct values assigned to ``ranks`` (equal ranks give equal
    values), in random order. Comparisons see only the ranks, so every seed
    does the same amount of search."""
    values = sorted(rng.sample(range(1, 100), max(ranks) + 1))
    items = [values[r] for r in ranks]
    rng.shuffle(items)
    return items


def _shifted_shuffle(rng, columns):
    """``columns`` moved by a random offset and shuffled; differences are
    kept, so queen attacks and countdown steps are unchanged."""
    offset = rng.randint(0, 40)
    items = [c + offset for c in columns]
    rng.shuffle(items)
    return items


def search_queries(rng):
    """Generate-and-test queries of the ``search-compiled`` workload.

    Sizes and duplicate patterns are fixed; the seed picks values and
    orders, which leaves inference counts unchanged (the answer multiset is
    the same up to renaming of values). ``queens([1..6],Q)`` is always
    present for the recorded parity fixture. The encoded interpreter runs
    only the permsort queries of up to 5 elements and the 4-element zigzag
    and countdown queries, since it is about 20 times slower than the
    compiled programs.
    """
    enc = RUN_VARIANTS + ("encoded",)
    qs = []
    for ranks in ((0, 0, 1, 2, 3, 4), (0, 1, 1, 2, 3), (0, 1, 2, 3)):
        qs.append(_query("permsort", f"permsort({_lst(_ranked(rng, ranks))},S)",
                         enc if len(ranks) <= 5 else RUN_VARIANTS))
    qs.append(_query("queens", "queens([1,2,3,4,5,6],Q)", RUN_VARIANTS))
    for n in (5, 4):
        cols = _shifted_shuffle(rng, range(1, n + 1))
        qs.append(_query("queens", f"queens({_lst(cols)},Q)", RUN_VARIANTS))
    for ranks in ((0, 1, 2, 3, 4), (0, 0, 1, 2)):
        qs.append(_query("zigzag", f"zigzag({_lst(_ranked(rng, ranks))},Z)",
                         enc if len(ranks) == 4 else RUN_VARIANTS))
    qs.append(_query("countdown", "countdown("
                     f"{_lst(_shifted_shuffle(rng, range(1, 6)))},C)",
                     RUN_VARIANTS))
    qs.append(_query("countdown", "countdown("
                     f"{_lst(_shifted_shuffle(rng, (1, 2, 3, 5)))},C)", enc))
    for n in (8, 5):
        qs.append(_query("primes", f"primes({n},P)", RUN_VARIANTS))
    rng.shuffle(qs)
    return qs


def corpus_queries(queries_text, keep):
    """The goals of a corpus ``.queries`` file that ``keep`` accepts."""
    goals = (line.strip().removesuffix(".")
             for line in queries_text.splitlines())
    return [g for g in goals if g and keep(g)]


def interpreted_queries(rng, texts, corpus):
    """The corpus ``.queries`` files, minus queens queries over more than 4
    columns, run all five ways; the seed orders them."""
    def small(text):
        pred, (first, _) = parse_query(text)
        return pred != "queens" or len(first) <= 4
    qs = [_query(name, text, ALL_VARIANTS)
          for name in corpus for text in corpus_queries(texts[name][2], small)]
    rng.shuffle(qs)
    return qs


def check_queries(texts, corpus):
    """The membership queries (second argument given) of every corpus
    entry: the check ``compile-corpus`` runs on each round's fresh outputs."""
    def ground(text):
        _, (_, second) = parse_query(text)
        return not isinstance(second, Var)
    return [_query(name, text, ALL_VARIANTS)
            for name in corpus
            for text in corpus_queries(texts[name][2], ground)]
