"""Shared fixtures: parsed corpus entries and their compiled artifacts."""

import pytest

from ccontrol.analysis import analyze
from ccontrol.engine import answer_set, solve  # answer_set re-exported
from ccontrol.metaint import atom_to_term, build_tables, mi_run
from ccontrol.pd import specialize_encoded
from ccontrol.policy import parse_policy
from ccontrol.synthesis import synthesize
from ccontrol.terms import Atom, mklist, parse_goal, parse_program

from importlib import resources

CORPUS_NAMES = ("permsort", "primes", "queens", "zigzag", "countdown")


def corpus_text(name, suffix):
    return resources.files("ccontrol.corpus").joinpath(
        f"{name}{suffix}").read_text()


class Entry:
    """A corpus entry with lazily built artifacts."""

    def __init__(self, name):
        self.name = name
        self.program = parse_program(corpus_text(name, ".lp"))
        self.policy = parse_policy(corpus_text(name, ".policy"))
        self.queries = [parse_goal(line.rstrip().removesuffix("."))
                        for line in corpus_text(name, ".queries").splitlines()
                        if line.strip()]
        self._graph = self._tables = self._classic = self._futamura = None

    @property
    def graph(self):
        if self._graph is None:
            self._graph = analyze(self.program, self.policy)
        return self._graph

    @property
    def tables(self):
        if self._tables is None:
            self._tables = build_tables(self.graph, self.program,
                                        self.policy)
        return self._tables

    @property
    def variant(self):
        return self.tables.variant

    @property
    def classic(self):
        if self._classic is None:
            self._classic = synthesize(self.graph, self.program, self.policy)
        return self._classic

    @property
    def futamura(self):
        if self._futamura is None:
            self._futamura = specialize_encoded(self.tables)
        return self._futamura

    def run_naive(self, goal, limits=None):
        return solve(self.program, goal, limits=limits)

    def run_mi(self, goal, limits=None):
        return mi_run(self.tables, goal, limits=limits)

    def run_classic(self, goal, limits=None):
        return solve(self.classic.program, goal, limits=limits)

    def run_futamura(self, goal, limits=None):
        wrapped = (Atom("compute",
                        (mklist([atom_to_term(a) for a in goal]),)),)
        return solve(self.futamura.program, wrapped, limits=limits)


_cache = {}


@pytest.fixture(scope="session")
def corpus():
    def get(name):
        if name not in _cache:
            _cache[name] = Entry(name)
        return _cache[name]
    return get


def query_deviation(row):
    """Relative difference of one compared query's two inference counts,
    from the exact counts rather than the report's rounded field."""
    a, b = row["inferences"]
    return abs(a - b) / max(a, b, 1)
