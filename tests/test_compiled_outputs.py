"""SHA-256 of every compiled artifact of every corpus entry.

The fixture pins, per corpus entry, the digest of the state graph's JSON
rendering, of the classic (synthesized) program, and of the encoded
interpreter and its futamura residual under each interpreter variant the
graph admits (both when the graph has no multi abstractions, otherwise
only ``extended``).  A refactor of the analysis, the tables, the encoding,
synthesis or partial deduction must leave all of them byte-identical.

Regenerate the fixture (only for a deliberate output change) with
``PYTHONPATH=src:tests python tests/test_compiled_outputs.py``.
"""

import hashlib
import json
import pathlib

from ccontrol.analysis import render_graph
from ccontrol.metaint import encode_as_logic_program
from ccontrol.pd import specialize_encoded
from ccontrol.terms import print_program

from conftest import CORPUS_NAMES, Entry

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "compiled_outputs.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compiled_outputs(get_entry):
    out = {}
    for name in CORPUS_NAMES:
        entry = get_entry(name)
        row = out[name] = {
            "graph": _sha(render_graph(entry.graph, "json")),
            "classic": _sha(print_program(entry.classic.program)),
        }
        variants = ("simple", "extended") if entry.variant == "simple" \
            else ("extended",)
        for v in variants:
            row[f"encoded_{v}"] = _sha(print_program(
                encode_as_logic_program(entry.tables, v)))
            row[f"futamura_{v}"] = _sha(print_program(
                specialize_encoded(entry.tables, v).program))
    return out


def test_compiled_outputs_match_fixture(corpus):
    expected = json.loads(FIXTURE.read_text())
    assert compiled_outputs(corpus) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compiled_outputs(Entry), indent=1) + "\n")
