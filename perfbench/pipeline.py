"""The compile path and the five ways to run a query, as the benchmark uses them.

Every call into ``ccontrol`` goes through a module attribute
(``terms.parse_program``, ``engine.solve`` ...) at call time, so the
wrappers that ``tracer.py`` installs on those attributes see each call.

Run as a script, this module compiles the whole corpus once and prints the
determinism fingerprint of every entry as JSON; ``run.py`` starts it under
another ``PYTHONHASHSEED`` to check that the compiled outputs do not depend
on string hashing.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CORPUS = ("permsort", "primes", "queens", "zigzag", "countdown")
VARIANTS = ("naive", "mi", "encoded", "classic", "futamura")


class SourceMissing(RuntimeError):
    """The checkout has no ``src/ccontrol`` to benchmark."""


def import_ccontrol():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ccontrol" / "__init__.py").is_file():
        raise SourceMissing(f"no ccontrol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ccontrol
    from ccontrol import (analysis, cli, engine, metaint, pd, policy,
                          synthesis, terms)
    if Path(ccontrol.__file__).resolve().parent != SRC / "ccontrol":
        raise SourceMissing(f"ccontrol imported from {ccontrol.__file__}")
    return Lib(terms, engine, policy, analysis, metaint, pd, synthesis,
               cli.TOLERANCE)


@dataclass
class Lib:
    terms: object
    engine: object
    policy: object
    analysis: object
    metaint: object
    pd: object
    synthesis: object
    tolerance: float


def corpus_texts(lib, name):
    """The (program, policy, queries) texts of a corpus entry."""
    corpus = Path(lib.terms.__file__).parent / "corpus"
    return tuple((corpus / f"{name}{suffix}").read_text()
                 for suffix in (".lp", ".policy", ".queries"))


@dataclass
class Compiled:
    """One corpus entry compiled both ways, with the time of each stage."""
    name: str
    program: object
    graph: object
    tables: object
    variant: str
    classic: object          # SynthesizedProgram
    encoded: object          # Program of the encoded interpreter
    futamura: object         # ResidualProgram
    closed: bool
    stage_s: dict            # stage name -> [raw seconds, scaled seconds]


def plain_timer(fn, *args):
    """(result, seconds, seconds) of fn(*args): no scaling."""
    t0 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t0
    return result, dt, dt


def compile_entry(lib, name, lp_text, policy_text, timed=plain_timer):
    """Parse, analyze, build tables, synthesize, encode, specialize and
    check closedness, timing each stage with ``timed``."""
    stage_s = {}

    def stage(label, fn, *args):
        result, raw, scaled = timed(fn, *args)
        acc = stage_s.setdefault(label, [0.0, 0.0])
        acc[0] += raw
        acc[1] += scaled
        return result

    program = stage("parse", lib.terms.parse_program, lp_text)
    pol = stage("parse", lib.policy.parse_policy, policy_text)
    graph = stage("analyze", lib.analysis.analyze, program, pol)
    tables = stage("build_tables", lib.metaint.build_tables, graph, program,
                   pol)
    variant = "extended" if tables.split_states or tables.grouping \
        else "simple"
    classic = stage("synthesize", lib.synthesis.synthesize, graph, program,
                    pol)
    encoded = stage("encode", lib.metaint.encode_as_logic_program, tables,
                    variant)
    futamura = stage("specialize", lib.pd.specialize_encoded, tables,
                     variant)
    closed, _ = stage("check_closedness", lib.pd.check_closedness, futamura)
    return Compiled(name, program, graph, tables, variant, classic, encoded,
                    futamura, closed, stage_s)


def compile_corpus(lib, texts):
    """Compile every corpus entry; returns {name: Compiled}."""
    return {name: compile_entry(lib, name, texts[name][0], texts[name][1])
            for name in CORPUS}


def fingerprint(lib, c: Compiled) -> str:
    """SHA-256 of the graph JSON, the classic and the futamura program."""
    h = hashlib.sha256()
    for text in (lib.analysis.render_graph(c.graph, "json"),
                 lib.terms.print_program(c.classic.program),
                 lib.terms.print_program(c.futamura.program)):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def compiled_clauses(compiled) -> int:
    """Code size: clauses of the classic and futamura outputs, summed."""
    return sum(len(c.classic.program.clauses) +
               len(c.futamura.program.clauses) for c in compiled.values())


def run_query(lib, c: Compiled, variant, goal, limits=None):
    """Run ``goal`` one of the five ways; returns the engine's RunResult."""
    if variant == "naive":
        return lib.engine.solve(c.program, goal, limits=limits)
    if variant == "mi":
        return lib.metaint.mi_run(c.tables, goal, c.variant, limits=limits)
    if variant == "classic":
        return lib.engine.solve(c.classic.program, goal, limits=limits)
    wrapped = (lib.terms.Atom("compute", (lib.terms.mklist(
        [lib.metaint.atom_to_term(a) for a in goal]),)),)
    if variant == "encoded":
        return lib.engine.solve(c.encoded, wrapped, limits=limits)
    if variant == "futamura":
        return lib.engine.solve(c.futamura.program, wrapped, limits=limits)
    raise ValueError(f"unknown variant {variant!r}")


def main():
    lib = import_ccontrol()
    texts = {name: corpus_texts(lib, name) for name in CORPUS}
    compiled = compile_corpus(lib, texts)
    print(json.dumps({name: fingerprint(lib, c)
                      for name, c in compiled.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
