"""Shared fixtures: parsed corpus entries and their compiled artifacts."""

import json
import pathlib

import pytest

from ccontrol.analysis import AnalysisOptions, analyze, render_graph
from ccontrol.engine import answer_set, solve  # answer_set re-exported
from ccontrol.metaint import atom_to_term, build_tables, mi_run
from ccontrol.pd import specialize_encoded
from ccontrol.policy import parse_policy
from ccontrol.synthesis import synthesize
from ccontrol.terms import (Atom, mklist, parse_goal, parse_program,
                            print_program)

from importlib import resources

CORPUS_NAMES = ("permsort", "primes", "queens", "zigzag", "countdown")

SMALL_OUTPUTS = pathlib.Path(__file__).parent / "fixtures" / \
    "small_outputs.json"


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


def small_outputs(program, policy, depth_k=None) -> dict:
    """The state graph's JSON and dot renderings and the classic and
    futamura programs compiled from it: the texts that
    ``fixtures/small_outputs.json`` pins for small programs whose paths
    (widening, user full evaluations) the corpus does not take.

    Regenerate the fixture (only for a deliberate output change) with
    ``PYTHONPATH=src:tests python tests/test_synthesis.py``."""
    graph = analyze(program, policy, AnalysisOptions(depth_k=depth_k))
    tables = build_tables(graph, program, policy)
    return {
        "graph": render_graph(graph, "json"),
        "dot": render_graph(graph, "dot"),
        "classic": print_program(synthesize(graph, program, policy).program),
        "futamura": print_program(specialize_encoded(tables).program),
    }


def pinned_small_outputs(key) -> dict:
    return json.loads(SMALL_OUTPUTS.read_text())[key]
