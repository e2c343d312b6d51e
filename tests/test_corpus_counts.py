"""Exact answer and inference counts of every corpus query.

The fixture pins, for each goal in the five corpus ``.queries`` files and
each way of running it (naive, ``mi_run``, classic, futamura), the number
of answers, the number of inferences and whether the search was
exhausted.  Any change to the search loop that moves one of these numbers
is a behaviour change.  The naive primes runs are left out: without the
analyzed control that program searches an infinite candidate stream.

Regenerate the fixture (only for a deliberate behaviour change) with
``PYTHONPATH=src:tests python tests/test_corpus_counts.py``.
"""

import json
import pathlib
import re

from ccontrol.terms import print_atom

from conftest import CORPUS_NAMES, Entry

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "corpus_counts.json"
RUNNERS = ("naive", "mi", "classic", "futamura")
NAIVE_SKIP = {"primes"}


def corpus_counts(get_entry):
    counts = {}
    for name in CORPUS_NAMES:
        entry = get_entry(name)
        rows = counts[name] = {}
        for goal in entry.queries:
            row = rows[" , ".join(print_atom(a) for a in goal)] = {}
            for runner in RUNNERS:
                if runner == "naive" and name in NAIVE_SKIP:
                    continue
                res = getattr(entry, f"run_{runner}")(goal)
                row[runner] = [len(res.answers), res.inference_count,
                               res.exhausted]
    return counts


def test_corpus_counts_match_fixture(corpus):
    expected = json.loads(FIXTURE.read_text())
    assert corpus_counts(corpus) == expected


if __name__ == "__main__":
    # one line per run keeps the fixture diffable
    text = json.dumps(corpus_counts(Entry), indent=1)
    FIXTURE.write_text(re.sub(r"\[\s+([^][]*?)\s+\]",
                              lambda m: "[" + re.sub(r"\s+", " ",
                                                     m.group(1)) + "]",
                              text) + "\n")
