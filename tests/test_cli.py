"""Command-line interface: commands, artifacts, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ccontrol
from ccontrol.analysis import parse_graph
from ccontrol.cli import main
from ccontrol.multi import Multi
from ccontrol.terms import Atom

from conftest import CORPUS_NAMES, corpus_text
from oracles import (block_filter_text, interpreter_annotation_text,
                     interpreter_filter_text)


@pytest.fixture()
def permsort_files(tmp_path):
    lp = tmp_path / "permsort.lp"
    pol = tmp_path / "permsort.policy"
    q = tmp_path / "permsort.queries"
    lp.write_text(corpus_text("permsort", ".lp"))
    pol.write_text(corpus_text("permsort", ".policy"))
    q.write_text(corpus_text("permsort", ".queries"))
    return lp, pol, q


def test_run_prints_answers_and_inferences(capsys):
    rc = main(["run", "/dev/stdin", "--query", "plus(1,2,X)"])
    # /dev/stdin is empty here; a program-less builtin query still runs
    out = capsys.readouterr().out
    assert rc == 0
    assert "X = 3" in out and "inferences: 1" in out


def test_run_count_flag(permsort_files, capsys):
    lp, _, _ = permsort_files
    rc = main(["run", str(lp), "--query", "permsort([2,1],S)", "--count"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "answers: 1" in out and "inferences:" in out


def test_missing_file_exits_2_and_names_path(capsys):
    rc = main(["run", "/no/such/file.lp", "--query", "p"])
    assert rc == 2
    assert "/no/such/file.lp" in capsys.readouterr().err


def test_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    lp = tmp_path / "latin1.lp"
    lp.write_bytes(b"p(\xe9).\n")
    rc = main(["run", str(lp), "--query", "p(X)"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"cannot read {lp}: not UTF-8 text" in err


def test_bad_query_exits_2(permsort_files, capsys):
    lp, _, _ = permsort_files
    rc = main(["run", str(lp), "--query", "permsort(]"])
    assert rc == 2


def test_analyze_writes_graph(permsort_files, tmp_path, capsys):
    lp, pol, _ = permsort_files
    out = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    rc = main(["analyze", str(lp), str(pol), "--out", str(out),
               "--dot", str(dot)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 9
    assert dot.read_text().startswith("digraph")


def test_analyze_growth_exits_1(tmp_path, capsys):
    lp = tmp_path / "primes.lp"
    pol = tmp_path / "primes.policy"
    lp.write_text(corpus_text("primes", ".lp"))
    pol.write_text(corpus_text("primes", ".policy"))
    rc = main(["analyze", str(lp), str(pol), "--no-multi",
               "--max-states", "150"])
    assert rc == 1
    assert "grows from ancestor" in capsys.readouterr().err


def test_analyze_of_a_term_that_grows_at_every_call_exits_1(tmp_path,
                                                            capsys):
    # grow's argument deepens by one at every state until the default
    # budget runs out; no walk of the analysis recurses on that depth
    lp, pol = tmp_path / "grow.lp", tmp_path / "grow.policy"
    lp.write_text("grow(X,X).\ngrow(X,Y) :- grow(s(X),Y).\n")
    pol.write_text("entry: grow(g1,a1).\n")
    assert main(["analyze", str(lp), str(pol)]) == 1
    assert capsys.readouterr().err.startswith(
        "analysis failed: state budget exceeded (500)")


def test_analyze_growth_diagnostic_is_pinned(tmp_path, capsys):
    # the abstract printer's text of the growing state and its ancestor
    lp = tmp_path / "queens.lp"
    pol = tmp_path / "queens.policy"
    lp.write_text(corpus_text("queens", ".lp"))
    pol.write_text(corpus_text("queens", ".policy"))
    rc = main(["analyze", str(lp), str(pol), "--no-multi",
               "--max-states", "200"])
    assert rc == 1
    nodiags = [f"nodiag(g{i},a1,g{i + 1})" for i in range(2, 15, 2)]
    assert capsys.readouterr().err == (
        "analysis failed: state budget exceeded (200); state 201 ("
        + " , ".join(["perm(g1,a1)"] + nodiags + [
            "nodiag(g16,[g17|a1],g18)", "nodiag(g19,[g17|a1],g20)",
            "nodiag(g21,[g17|a1],g22)", "safe([g17|a1])"])
        + ") grows from ancestor 176 ("
        + " , ".join(["perm(g1,a1)"] + nodiags + [
            "nodiag(g16,a1,g17)", "nodiag(g18,a1,g19)", "safe([g20|a1])"])
        + "); consider a multi-enabling policy or depth-k widening\n")


def test_analyze_reflexive_preprior_exits_2(permsort_files, tmp_path,
                                            capsys):
    lp, _, _ = permsort_files
    pol = tmp_path / "reflexive.policy"
    pol.write_text("entry: permsort(g1,a1).\n"
                   "preprior: perm(g1,a1) < perm(g2,a2).\n")
    rc = main(["analyze", str(lp), str(pol)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"cc analyze: {pol}: selection order is reflexive at "
                   "perm(g1,a1)\n")


def test_full_command_chain(permsort_files, tmp_path, capsys):
    lp, pol, q = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    assert main(["mi-run", str(graph), str(lp), "--policy", str(pol),
                 "--query", "permsort([2,1],S)"]) == 0
    assert "S = [1,2]" in capsys.readouterr().out

    enc = tmp_path / "enc.lp"
    cls = tmp_path / "classic.lp"
    fut = tmp_path / "futamura.lp"
    report = tmp_path / "report.json"
    assert main(["encode", str(graph), str(lp), "--policy", str(pol),
                 "--out", str(enc)]) == 0
    assert main(["specialize", str(graph), str(lp), "--policy", str(pol),
                 "--out", str(fut)]) == 0
    assert main(["synthesize", str(graph), str(lp), str(pol),
                 "--mode", "classic", "--out", str(cls)]) == 0
    assert main(["compare", str(cls), str(fut), "--queries", str(q),
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["all_match"] and doc["deviation"] <= 0.05


def test_pipeline_both_modes(permsort_files, tmp_path, capsys):
    lp, pol, _ = permsort_files
    out = tmp_path / "artifacts"
    rc = main(["pipeline", str(lp), str(pol), "--mode", "both",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "graph.json").exists()
    assert (out / "compiled_classic.lp").exists()
    assert (out / "compiled_futamura.lp").exists()
    assert json.loads((out / "report.json").read_text())["all_match"]


def test_pipeline_classic_only_skips_specialization(permsort_files,
                                                    tmp_path, capsys):
    lp, pol, _ = permsort_files
    out = tmp_path / "artifacts"
    rc = main(["pipeline", str(lp), str(pol), "--mode", "classic",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "compiled_classic.lp").exists()
    assert not (out / "compiled_futamura.lp").exists()
    assert not (out / "report.json").exists()


def test_pipeline_missing_policy_exits_2(permsort_files, capsys):
    lp, _, _ = permsort_files
    rc = main(["pipeline", str(lp), "/missing/x.policy"])
    assert rc == 2
    assert "/missing/x.policy" in capsys.readouterr().err


def test_selftest_filter(capsys):
    rc = main(["selftest", "--filter", "countdown"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "countdown" in out and "ok" in out


def test_selftest_samples_three_permsort_queries(capsys):
    # permsort runs its corpus queries and three sampled permsort/2 calls
    assert main(["selftest", "--filter", "permsort", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["entries"]
    corpus_queries = [line for line in
                      corpus_text("permsort", ".queries").splitlines()
                      if line.strip()]
    assert row["ok"] and row["queries"] == len(corpus_queries) + 3


def test_selftest_fails_an_entry_whose_counts_miss_the_identity(
        monkeypatch, capsys):
    # futamura's inference count is classic's plus the answer count on
    # every exhausted query; one more inference in futamura's runs is a miss
    from ccontrol import cli
    run_compiled = cli.run_compiled

    def run(program, goal, limits=None):
        result = run_compiled(program, goal, limits)
        if program.clauses_for("compute", 1):
            result.inference_count += 1
        return result

    assert main(["selftest", "--filter", "countdown", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["entries"]
    assert row["counts_fit"] == row["counts_checked"] == 5 and row["ok"]
    monkeypatch.setattr(cli, "run_compiled", run)
    assert main(["selftest", "--filter", "countdown"]) == 1
    assert capsys.readouterr().out == \
        "countdown  FAIL    9 states  closed=yes  5/5 queries agree  " \
        "0/5 counts fit\n"


def test_selftest_unknown_filter_exits_2(capsys):
    rc = main(["selftest", "--filter", "nonesuch"])
    assert rc == 2


def test_parse_json_output(permsort_files, capsys):
    lp, _, _ = permsort_files
    rc = main(["parse", str(lp), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "permsort/2" in doc["predicates"]


def test_deep_term_answers(tmp_path, capsys):
    lp = tmp_path / "nat.lp"
    lp.write_text("nat(0).\nnat(s(N)) :- nat(N).\n")
    # deeper than the host's recursion limit on every supported Python
    term = "s(" * 5000 + "0" + ")" * 5000
    rc = main(["run", str(lp), "--query", f"nat({term})"])
    assert rc == 0
    assert capsys.readouterr().out == "true\n\ninferences: 5001\n"


NAT = ("nat(z).\nnat(s(X)) :- nat(X).\n"
       "p(z,z).\np(s(N),s(X)) :- p(N,X).\n")
DEEP = "s(" * 5000 + "z" + ")" * 5000
CONSTRUCTIONS = ("naive", "mi_run", "classic", "futamura")


def _nat_commands(tmp_path, entry):
    """For the entry ``nat`` or ``p`` of ``NAT``, a function from each
    construction and a goal to the command line that runs the goal on it;
    the futamura output is run through its ``compute/1`` wrapper."""
    lp = tmp_path / "nat.lp"
    lp.write_text(NAT)
    pol = tmp_path / f"{entry}.policy"
    pol.write_text("entry: nat(a1).\n" if entry == "nat"
                   else "entry: p(a1,a2).\n")
    graph = tmp_path / f"{entry}.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    compiled = {}
    for mode in ("classic", "futamura"):
        compiled[mode] = tmp_path / f"{entry}.{mode}.lp"
        assert main(["synthesize", str(graph), str(lp), str(pol), "--mode",
                     mode, "--out", str(compiled[mode])]) == 0

    def command(construction, goal):
        if construction == "mi_run":
            return ["mi-run", str(graph), str(lp), "--policy", str(pol),
                    "--query", goal]
        if construction == "futamura":
            goal = f"compute([{goal}])"
        return ["run", str(compiled.get(construction, lp)), "--query", goal]

    return command


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_deep_terms_answer_on_every_construction(tmp_path, capsys,
                                                 construction):
    # a 5,000-deep query, and a 5,000-deep answer built by the search
    extra = CONSTRUCTIONS.index(construction) - 1
    for entry, goal, answer in (("nat", f"nat({DEEP})", "true"),
                                ("p", f"p({DEEP},X)", f"X = {DEEP}")):
        command = _nat_commands(tmp_path, entry)
        capsys.readouterr()
        rc = main(command(construction, goal))
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert out == f"{answer}\n\ninferences: {5001 + max(extra, 0)}\n"


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_a_thousand_answers_of_nat_on_every_construction(tmp_path, capsys,
                                                         construction):
    # the n-th answer is n-1 levels deep
    command = _nat_commands(tmp_path, "nat")
    capsys.readouterr()
    rc = main(command(construction, "nat(X)") + ["--max-answers", "1000",
                                                 "--json"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    answers = json.loads(out)["answers"]
    assert len(answers) == 1000
    assert answers[-1] == {"X": "s(" * 999 + "z" + ")" * 999}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_a_truncated_run_names_its_limit(tmp_path, capsys, construction):
    command = _nat_commands(tmp_path, "nat")
    for goal, limit, stopped_by in (
            ("nat(X)", ["--max-infer", "5"], ["max_inferences"]),
            ("nat(X)", ["--max-answers", "1"], ["max_answers"]),
            ("nat(z)", [], None)):
        capsys.readouterr()
        assert main(command(construction, goal) + limit + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("stopped_by") == stopped_by, (goal, limit)
        assert doc["exhausted"] is (stopped_by is None)
    assert main(command(construction, "nat(X)") + ["--max-infer", "5"]) == 0
    assert capsys.readouterr().out.endswith(
        "\nsearch truncated by limits: max_inferences\n")


def test_a_depth_cut_run_is_not_exhausted_at_its_last_answer(tmp_path,
                                                              capsys):
    # the depth limit cuts loop/0 before p(a) answers; reaching the answer
    # limit as the stack empties once marked the run exhausted
    lp = tmp_path / "loop.lp"
    lp.write_text("p(X) :- loop.\np(a).\nloop :- loop.\n")
    for limit in ([], ["--max-answers", "1"]):
        capsys.readouterr()
        assert main(["run", str(lp), "--query", "p(X)", "--max-depth", "3",
                     "--json"] + limit) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["exhausted"], doc.get("stopped_by")) == \
            (False, ["max_depth"]), limit


def test_long_list_answers(tmp_path, capsys):
    # a list parses into a right-nested term as deep as it is long; the
    # engine's term routines walk it without host recursion
    lp = tmp_path / "len.lp"
    lp.write_text("len([],0).\nlen([X|T],N) :- len(T,M), plus(M,1,N).\n")
    items = ",".join(str(i) for i in range(5000))
    rc = main(["run", str(lp), "--query", f"len([{items}],N)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "N = 5000" in out and "inferences: 10001" in out


def test_deep_list_answers(tmp_path, capsys):
    lp = tmp_path / "len.lp"
    lp.write_text("len([],0).\nlen([X|T],N) :- len(T,M), plus(M,1,N).\n")
    items = ",".join(str(i) for i in range(400))
    rc = main(["run", str(lp), "--query", f"len([{items}],N)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "N = 400" in out and "inferences: 801" in out


def test_long_list_built_by_the_search_answers(tmp_path, capsys):
    # the answer is a 2,000-element list that the search binds cell by
    # cell; resolving it through the bindings walks the spine in a loop
    lp = tmp_path / "app.lp"
    lp.write_text("app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).\n")
    items = ",".join(str(i) for i in range(2000))
    rc = main(["run", str(lp), "--query", f"app(X,[],[{items}])",
               "--count"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "answers: 1" in out and "inferences: 2001" in out


def test_deep_clause_literals_answer(tmp_path, capsys):
    # 5,000-element lists written in clause heads and bodies, one with a
    # variable before its ground rest and one with a variable tail; the
    # generated head code takes a ground part as a constant and the rest
    # of a list past ``_MAX_NESTING`` cells as one template, and an equal
    # list in the query is unified with the constant cell by cell
    items = ",".join(str(i) for i in range(5000))
    lp = tmp_path / "deep.lp"
    lp.write_text(f"p([{items}]).\n"
                  f"q(X) :- r([X,{items}]).\n"
                  "r(L).\n"
                  f"s([X|T]) :- t([{items}|T]).\n"
                  "t(L).\n")
    rest = ",".join(str(i) for i in range(1, 5000))
    for query, answer, count in (("p(X)", f"X = [{items}]", 1),
                                 ("q(a)", "true", 2),
                                 ("p([0|T])", f"T = [{rest}]", 1),
                                 (f"p([{items}])", "true", 1),
                                 ("s([a,b])", "true", 2)):
        rc = main(["run", str(lp), "--query", query])
        out, err = capsys.readouterr()
        assert rc == 0, (query, err)
        assert out.splitlines()[0] == answer, query
        assert f"inferences: {count}" in out, query


DEEP_X = "s(" * 5000 + "X" + ")" * 5000


@pytest.mark.parametrize("program,query,inferences", [
    (f"p({DEEP}).\n", "p(A)", 1),
    (f"p({DEEP_X},X).\n", "p(A,B)", 1),
    (f"q(X) :- p({DEEP_X}).\np(Y).\n", "q(z)", 2)],
    ids=["ground", "shared", "body"])
def test_clause_literals_5000_deep_answer_on_naive(tmp_path, capsys, program,
                                                   query, inferences):
    # a ground literal is one constant, and a structure 16 deep that is
    # not ground is one template, so the clause's code stays shallow
    lp = tmp_path / "deep.lp"
    lp.write_text(program)
    rc = main(["run", str(lp), "--query", query, "--count"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out == f"answers: 1\ninferences: {inferences}\n"


@pytest.mark.parametrize("program,entry,query,answer,states,inferences", [
    (f"p({DEEP}).\n", "p(a1)", "p(A)", f"A = {DEEP}\n", 1, 1),
    (f"p({DEEP_X},X).\n", "p(a1,a2)", "p(A,B)",
     f"A = {DEEP_X.replace('X', '_V1')}\nB = _V1\n", 1, 1),
    (f"q(X) :- p({DEEP_X}).\np(Y).\n", "q(a1)", "q(z)", "true\n", 2, 2)],
    ids=["ground", "shared", "body"])
def test_clause_literals_5000_deep_answer_on_every_construction(
        tmp_path, capsys, program, entry, query, answer, states, inferences):
    # the analysis unifies through a store and walks every literal, in a
    # clause's head or body, on an explicit stack
    lp, pol = tmp_path / "deep.lp", tmp_path / "deep.policy"
    lp.write_text(program)
    pol.write_text(f"entry: {entry}.\n")
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    capsys.readouterr()
    assert len(json.loads(graph.read_text())["states"]) == states
    assert main(["mi-run", str(graph), str(lp), "--policy", str(pol),
                 "--query", query]) == 0
    assert capsys.readouterr().out == \
        f"{answer}\ninferences: {inferences}\n"
    for mode, goal, extra in (("classic", query, 1),
                              ("futamura", f"compute([{query}])", 2)):
        out = tmp_path / f"{mode}.lp"
        assert main(["synthesize", str(graph), str(lp), str(pol), "--mode",
                     mode, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--query", goal, "--count"]) == 0
        assert capsys.readouterr().out == \
            f"answers: 1\ninferences: {inferences + extra}\n"


def test_cyclic_answer_exits_2_without_traceback(tmp_path, capsys):
    # without the occurs check the answer may be a cyclic term, through a
    # list's tail or any other argument; it is refused, never walked
    lp = tmp_path / "eq.lp"
    lp.write_text("eq(X,X).\n")
    for query in ("eq(X,[a|X])", "eq(X,f(X))", "eq(X,f(Y)),eq(Y,g(X))",
                  "eq(X,[f(X)])"):
        rc = main(["run", str(lp), "--query", query, "--no-occurs-check"])
        err = capsys.readouterr().err
        assert rc == 2, query
        assert err == "cc run: term nesting too deep\n", query


@pytest.mark.parametrize("query", [
    "h(E,R)", "eq(L,[1|L]), select(E,L,R)", "eq(N,s(N)), plus(N,1,M)"])
def test_cyclic_builtin_argument_exits_2_without_traceback(tmp_path, query):
    # a builtin never walks a cyclic argument, which would not end: the
    # store of a run without the occurs check is resolved first, and the
    # cycle refused; in a process of its own, so that a hang times out
    lp = tmp_path / "cyclic.lp"
    lp.write_text("eq(X,X).\nh(E,R) :- eq(X,f(X)), select(E,[X],R).\n")
    src = str(pathlib.Path(ccontrol.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ccontrol.cli", "run", str(lp), "--query",
         query, "--no-occurs-check"], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == \
        (2, "cc run: term nesting too deep\n")


def test_growing_stream_truncates_instead_of_overflowing(tmp_path, capsys):
    # the naive engine's integer stream outgrows any fixed nesting depth;
    # the budget, not the term routines, must end the run
    lp = tmp_path / "primes.lp"
    lp.write_text(corpus_text("primes", ".lp"))
    rc = main(["run", str(lp), "--query", "primes(3,[3,5,7])",
               "--max-infer", "3000"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "inferences: 3001" in captured.out
    assert "search truncated by limits" in captured.out
    assert " = " not in captured.out and "Traceback" not in captured.err


def test_query_variables_named_like_fresh_ones_answer(tmp_path, capsys):
    lp = tmp_path / "capture.lp"
    lp.write_text("p(X) :- q(X,Y).\nq(a,b).\nt(A).\nr(X,Y) :- q(X,Z).\n")
    for query, want in (("p(_V2)", "_V2 = a\n\ninferences: 2\n"),
                        ("p(Z)", "Z = a\n\ninferences: 2\n"),
                        ("t(f(_V1))", "true\n\ninferences: 1\n")):
        rc = main(["run", str(lp), "--query", query])
        assert rc == 0
        assert capsys.readouterr().out == want, query
    # an answer holding a fresh variable prints it by name, as does --json
    rc = main(["run", str(lp), "--query", "r(A,B)", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == \
        {"answers": [{"A": "a", "B": "_V2"}], "inferences": 2,
         "exhausted": True}


def test_specialize_with_default_declarations_matches_plain_run(tmp_path,
                                                                capsys):
    """Declaring the default annotations and filters explicitly gives the
    same residual program: undeclared builtins are executed, not
    unfolded."""
    ann = tmp_path / "i.ann"
    flt = tmp_path / "i.flt"
    ann.write_text(interpreter_annotation_text())
    flt.write_text(interpreter_filter_text())
    for name in CORPUS_NAMES:
        lp = tmp_path / f"{name}.lp"
        pol = tmp_path / f"{name}.policy"
        graph = tmp_path / f"{name}.json"
        lp.write_text(corpus_text(name, ".lp"))
        pol.write_text(corpus_text(name, ".policy"))
        assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
        table = [str(graph), str(lp), "--policy", str(pol)]
        plain = tmp_path / f"{name}.plain.lp"
        assert main(["specialize", *table, "--out", str(plain)]) == 0
        declared = tmp_path / f"{name}.declared.lp"
        assert main(["specialize", *table, "--ann", str(ann),
                     "--filters", str(flt), "--out", str(declared)]) == 0
        assert declared.read_text() == plain.read_text(), name


@pytest.mark.parametrize("name, memo", [("primes", 74), ("queens", 57)])
def test_specialize_with_the_block_filters_memoizes_a_state_per_cmulti_shape(
        tmp_path, capsys, name, memo):
    """The earlier default filters, declared through ``--filters``, still
    memoize a state once for each way a cmulti reaches it, and their
    residual gives the default residual's answers and inferences."""
    lp, pol, q = (tmp_path / f"{name}{s}"
                  for s in (".lp", ".policy", ".queries"))
    for path in (lp, pol, q):
        path.write_text(corpus_text(name, path.suffix))
    flt = tmp_path / "block.flt"
    flt.write_text(block_filter_text())
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    table = [str(graph), str(lp), "--policy", str(pol)]
    plain, block = tmp_path / "plain.lp", tmp_path / "block.lp"
    assert main(["specialize", *table, "--out", str(plain)]) == 0
    capsys.readouterr()
    assert main(["specialize", *table, "--filters", str(flt),
                 "--out", str(block)]) == 0
    assert f", {memo} memo entries -> " in capsys.readouterr().out
    assert main(["compare", str(plain), str(block), "--queries", str(q),
                 "--tolerance", "0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(a == b for r in report["queries"]
               for a, b in (r["answers"], r["inferences"]))


def test_specialize_without_a_call_declaration_matches_plain_run(
        permsort_files, tmp_path, capsys):
    """An undeclared ``call/1`` is kept in the residual program, so an
    annotation file need not mention it."""
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    ann = tmp_path / "memo.ann"
    ann.write_text("ann(memo, mi/2).\n")
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    table = [str(graph), str(lp), "--policy", str(pol)]
    plain = tmp_path / "plain.lp"
    assert main(["specialize", *table, "--out", str(plain)]) == 0
    declared = tmp_path / "declared.lp"
    assert main(["specialize", *table, "--ann", str(ann),
                 "--out", str(declared)]) == 0
    assert declared.read_text() == plain.read_text()


def test_policy_variable_index_zero_analyzes_like_any_other(permsort_files,
                                                            tmp_path,
                                                            capsys):
    lp, pol, _ = permsort_files
    stock = tmp_path / "stock.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(stock)]) == 0
    renamed = tmp_path / "g0.policy"
    text = pol.read_text()
    assert "fulleval: g1 =< g2" in text
    renamed.write_text(text.replace("fulleval: g1 =< g2",
                                    "fulleval: g0 =< g2"))
    graph = tmp_path / "g0.json"
    assert main(["analyze", str(lp), str(renamed), "--out", str(graph)]) == 0
    assert graph.read_text() == stock.read_text()


@pytest.mark.parametrize("flag", ["--filters", "--ann", "--policy"])
def test_specialize_with_an_unreadable_declaration_file_exits_2(
        permsort_files, tmp_path, capsys, flag):
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    missing = tmp_path / "missing.decl"
    # a repeated --policy overrides the first one
    rc = main(["specialize", str(graph), str(lp), "--policy", str(pol),
               flag, str(missing), "--out", str(tmp_path / "out.lp")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"cannot read {missing}" in err


def _specialize_permsort_with(permsort_files, tmp_path, capsys, flag, text,
                              *extra):
    """``cc specialize`` on permsort with ``text`` as the file of ``flag``
    and the arguments ``extra``: the exit code, the file's path and what
    was written to stderr."""
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    decl = tmp_path / "given.decl"
    decl.write_text(text)
    rc = main(["specialize", str(graph), str(lp), "--policy", str(pol),
               flag, str(decl), *extra, "--out", str(tmp_path / "out.lp")])
    return rc, decl, capsys.readouterr().err


@pytest.mark.parametrize("flag, text, where", [
    # the default filter declared twice
    ("--filters", interpreter_filter_text() * 2, "line 2, column 1"),
    ("--ann", "ann(memo, mi/2).\nann(unfold, mi/2).\n", "line 2, column 13"),
], ids=["filters", "ann"])
def test_specialize_with_a_repeated_declaration_exits_2(
        permsort_files, tmp_path, capsys, flag, text, where):
    rc, decl, err = _specialize_permsort_with(permsort_files, tmp_path,
                                              capsys, flag, text)
    assert rc == 2
    assert err == (f"cc specialize: {decl}: repeated declaration for mi/2 "
                   f"at {where}\n")


@pytest.mark.parametrize("text, message", [
    ("mi(struct(.,[nonvar,dynamic]),static).\n",
     "argument 1 of mi(_V148,3) does not fit struct(.,[nonvar, dynamic]) "
     "in the filter mi(struct(.,[nonvar, dynamic]),static)"),
    ("mi(list(static),static).\n",
     "argument 1 of mi([permsort(X1,X2)],1) does not fit list(static) in "
     "the filter mi(list(static),static)"),
    ("mi(list(nonvar),struct(s,[]) ; list(dynamic)).\n",
     "argument 2 of mi([permsort(X1,X2)],1) does not fit "
     "struct(s,[]) ; list(dynamic) in the filter "
     "mi(list(nonvar),struct(s,[]) ; list(dynamic))"),
], ids=["struct", "list", "alternatives"])
def test_specialize_with_a_misfitting_filter_exits_2(
        permsort_files, tmp_path, capsys, text, message):
    rc, _, err = _specialize_permsort_with(permsort_files, tmp_path, capsys,
                                           "--filters", text)
    assert rc == 2
    assert err == f"cc specialize: {message}\n"


@pytest.mark.parametrize("ann, filters, message", [
    ("ann(call, dg_append/3).\n", "",
     "call annotation on non-builtin "
     "dg_append([],[_V29|_V30],[permsort(_V1,_V2)])"),
    ("ann(memo, mi_len/2).\n", "mi_len(dynamic,dynamic).\n",
     "builtin 1 =< _V101 is insufficiently instantiated at specialization "
     "time: expected integer argument in 1 =< _V101"),
], ids=["call", "memo"])
def test_specialize_with_a_misfitting_annotation_exits_2(
        permsort_files, tmp_path, capsys, ann, filters, message):
    # the default annotations and filters, and one more of each: a call
    # annotation on a user predicate, and a memoized mi_len/2 whose
    # dynamic index leaves a comparison unknown at specialization time
    given = tmp_path / "given.filters"
    given.write_text(interpreter_filter_text() + filters)
    rc, _, err = _specialize_permsort_with(
        permsort_files, tmp_path, capsys, "--ann",
        interpreter_annotation_text() + ann, "--filters", str(given))
    assert rc == 2
    assert err == f"cc specialize: {message}\n"


def _queens_graph_with(tmp_path, mismatch):
    """The queens graph, with a program and policy of which ``mismatch``
    does not belong to it."""
    files = {}
    for name in ("queens", "permsort"):
        for suffix in (".lp", ".policy"):
            path = tmp_path / f"{name}{suffix}"
            path.write_text(corpus_text(name, suffix))
            files[name + suffix] = path
    graph = tmp_path / "queens.json"
    assert main(["analyze", str(files["queens.lp"]),
                 str(files["queens.policy"]), "--out", str(graph)]) == 0
    lp, pol = files["queens.lp"], files["queens.policy"]
    if mismatch == "entry":
        pol = files["permsort.policy"]
    elif mismatch == "clause":
        lp = files["permsort.lp"]
    else:            # the same declarations in another order
        lines = corpus_text("queens", ".policy").splitlines()
        decls = [x for x in lines if x.startswith("fulleval:")]
        pol = tmp_path / "reordered.policy"
        pol.write_text("\n".join([x for x in lines if x not in decls]
                                 + decls[::-1]) + "\n")
    return graph, lp, pol


@pytest.mark.parametrize("shape", [
    "[1,2]", '"x"', "states [1]", 'action ["group",0]', "action []",
    'cause [["x"]]', 'cause "clause"', "no actions"])
def test_graph_file_of_the_wrong_shape_exits_2(permsort_files, tmp_path,
                                               capsys, shape):
    # valid JSON that is not a graph: each case once crashed with a
    # traceback, on reading the file or later on running the query, or,
    # without the actions cc analyze always writes, was refused only by
    # the tables
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    what, _, value = shape.partition(" ")
    if what == "states":
        doc["states"] = json.loads(value)
    elif what == "action":
        doc["actions"][next(iter(doc["actions"]))] = json.loads(value)
    elif what == "cause":
        doc["transitions"][0]["cause"] = json.loads(value)
    elif what == "no":
        del doc[value]
    else:
        doc = json.loads(shape)
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["mi-run", str(graph), str(lp), "--policy", str(pol),
               "--query", "permsort([2,1],S)"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"cc mi-run: {graph}: not a valid graph file (")
    assert err.count("\n") == 1


GRAPH_DEFECTS = {
    "missing state": "the graph names state 99, which it does not define",
    "select mark": "select action of state 1 marked 'fold', neither "
                   "'unfold' nor 'fulleval'",
    "repeated state": "state 2 is defined twice",
    "state without action": "state 2 has no action"}


@pytest.mark.parametrize("defect", sorted(GRAPH_DEFECTS))
@pytest.mark.parametrize("command", ["mi-run", "encode", "specialize",
                                     "synthesize"])
def test_graph_file_that_names_no_state_or_a_bad_mark_exits_2(
        permsort_files, tmp_path, capsys, command, defect):
    # each once crashed, exited 1, or ran as if the graph were sound
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    if defect == "missing state":
        doc["transitions"][-1]["to"] = 99
    elif defect == "select mark":
        assert doc["actions"]["1"][0] == "select"
        doc["actions"]["1"][2] = "fold"
    elif defect == "state without action":
        del doc["actions"]["2"]
    else:
        doc["states"].append(dict(doc["states"][1]))
    graph.write_text(json.dumps(doc))
    out = str(tmp_path / "out.lp")
    args = {"mi-run": ["--policy", str(pol), "--query", "permsort([2,1],S)"],
            "encode": ["--policy", str(pol), "--out", out],
            "specialize": ["--policy", str(pol), "--out", out],
            "synthesize": [str(pol), "--out", out]}
    capsys.readouterr()
    rc = main([command, str(graph), str(lp)] + args[command])
    assert (rc, capsys.readouterr().err) == (
        2, f"cc {command}: {graph}: not a valid graph file "
           f"({GRAPH_DEFECTS[defect]})\n")


@pytest.mark.parametrize("query", ["foo(X)", "cmulti(foo)"])
def test_mi_run_rejects_a_query_the_program_cannot_run(
        permsort_files, tmp_path, capsys, query):
    # as cc run does; cmulti/1 is no predicate of the program either
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    pred = query.partition("(")[0]
    for argv in (["run", str(lp)],
                 ["mi-run", str(graph), str(lp), "--policy", str(pol)]):
        capsys.readouterr()
        rc = main(argv + ["--query", query])
        assert (rc, capsys.readouterr().err) == \
            (2, f"cc {argv[0]}: unknown predicate {pred}/1\n")


def test_mi_run_rejects_a_goal_that_is_not_the_entry_pattern(
        permsort_files, tmp_path, capsys):
    # cc run answers it; the interpreter starts every goal in the entry
    # state, whose transitions resolve permsort/2 only, so it would answer
    # nothing
    lp, pol, _ = permsort_files
    graph = tmp_path / "graph.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    capsys.readouterr()
    assert main(["run", str(lp), "--query", "perm([1,2],X)"]) == 0
    assert capsys.readouterr().out.count("X = ") == 2
    for query, named in (("perm([1,2],X)", "perm/2"),
                         ("permsort([1],S), perm([1],X)",
                          "permsort/2, perm/2")):
        rc = main(["mi-run", str(graph), str(lp), "--policy", str(pol),
                   "--query", query])
        assert (rc, capsys.readouterr().err) == \
            (2, f"cc mi-run: goal {named} does not name the entry state's "
                "predicates permsort/2\n")


@pytest.mark.parametrize("edit, message", [
    ("split", 'state 15\'s action ["split", 1] does not fit its conjunction '
              "multi((nodiag(mg1,ma1,mg2)), init{ma1=[]}, consec{ma1=ma1}, "
              "final{ma1=[]}, id=1) , safe([])"),
    ("left", 'state 13: the grouping ["group", 1, 1, "left"] does not apply '
             "to perm(g1,a1) , nodiag(g2,a1,g3) , nodiag(g4,a1,g5) , "
             "safe(a1)")], ids=["split", "left"])
def test_graph_that_splits_or_groups_an_atom_exits_2(tmp_path, capsys, edit,
                                                     message):
    # the pipeline's queens graph, with split state 15 selecting safe/1, or
    # grouping state 13 absorbing a block into an atom; the tables refuse
    # it before the query runs
    for suffix in (".lp", ".policy", ".queries"):
        (tmp_path / f"queens{suffix}").write_text(
            corpus_text("queens", suffix))
    lp, pol = tmp_path / "queens.lp", tmp_path / "queens.policy"
    out = tmp_path / "out"
    assert main(["pipeline", str(lp), str(pol), "--out-dir", str(out)]) == 0
    graph = out / "graph.json"
    doc = json.loads(graph.read_text())
    if edit == "split":
        assert doc["actions"]["15"] == ["split", 0]
        doc["actions"]["15"] = ["split", 1]
    else:
        assert doc["actions"]["13"] == ["group", 1, 1, "new"]
        doc["actions"]["13"] = ["group", 1, 1, "left"]
        for t in doc["transitions"]:
            if t["from"] == 13:
                t["cause"] = ["grouping", "left"]
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["mi-run", str(graph), str(lp), "--policy", str(pol),
               "--query", "queens([1,2,3,4],Q)"])
    assert (rc, capsys.readouterr().err) == \
        (2, f"cc mi-run: cannot build control tables: {message}\n")


MISMATCH_MESSAGES = {
    "entry": "is not the policy's entry pattern",
    "clause": "state 1: cannot unfold predicate queens/2",
    "fulleval": "state 4 has the transitions fulleval 0 0, where its action "
                "makes fulleval 2 0",
}

# edits of the primes graph, each state found by its action, and what the
# message that refuses the edited graph says
PRIMES_DEFECTS = {
    "select of a multi": 'state 17\'s action ["select", 1, "unfold"] does '
                         "not fit its conjunction",
    "split of an atom": 'state 20\'s action ["split", 1] does not fit its '
                        "conjunction",
    "new as merge": 'state 16: the grouping ["group", 1, 1, "merge"] does '
                    "not apply to",
    "clause to another layout": "the clause 1 transition of state 1 leads to "
                                "state 1, which does not cover its "
                                "successor integers(g2,a2) , sift(a2,a1) , "
                                "length(a1,g1)",
    "unfold as fulleval": "state 1: no full-evaluation declaration covers "
                          "primes(g1,a1)",
    "output out of range": "state 4 has the transitions fulleval 0 9, where "
                           "its action makes fulleval 0 0",
    # a declaration has one output, so a graph of a second output's
    # transition comes from no policy
    "second output": "state 4 has the transitions fulleval 0 1, where its "
                     "action makes fulleval 0 0",
    "sideways": "group action of state 16 of unknown kind 'sideways'",
    "fulleval without transitions": "state 4 has the transitions none, "
                                    "where its action makes fulleval 0 0",
    "split without many": "state 20 has the transitions one, where its "
                          "action makes one, many",
}

# edits of the permsort graph, and what the message that refuses the
# edited graph says
PERMSORT_DEFECTS = {
    "without clause 2": "state 2 has the transitions clause 3, where its "
                        "action makes clause 2, clause 3",
    "longer list": "the clause 2 transition of state 5 leads to state 6, "
                   "which does not cover its successor ord([g2])",
}


def _primes_graph_with(tmp_path, defect):
    """The primes graph, edited as ``defect`` says, with its program and
    policy."""
    lp, pol = tmp_path / "primes.lp", tmp_path / "primes.policy"
    lp.write_text(corpus_text("primes", ".lp"))
    pol.write_text(corpus_text("primes", ".policy"))
    graph = tmp_path / "primes.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    states = parse_graph(graph.read_text()).states
    actions, entry = doc["actions"], doc["entry"]

    def retarget(kind, cls):
        """Point the first action of ``kind`` whose state holds an element
        of class ``cls`` at that element."""
        sid = min(int(sid) for sid, a in actions.items() if a[0] == kind
                  and any(isinstance(c, cls) for c in states[int(sid)]))
        actions[str(sid)][1] = next(i for i, c in enumerate(states[sid])
                                    if isinstance(c, cls))

    new = min(int(sid) for sid, a in actions.items()
              if a[0] == "group" and a[3] == "new")
    if defect == "select of a multi":
        retarget("select", Multi)
    elif defect == "split of an atom":
        retarget("split", Atom)
    elif defect in ("new as merge", "sideways"):
        kind = defect.split()[-1]
        actions[str(new)][3] = kind
        for t in doc["transitions"]:
            if t["from"] == new:
                t["cause"] = ["grouping", kind]
    elif defect == "clause to another layout":
        next(t for t in doc["transitions"] if t["from"] == entry)["to"] = \
            entry
    elif defect == "unfold as fulleval":
        actions[str(entry)][2] = "fulleval"
    elif defect in ("output out of range", "second output"):
        next(t for t in doc["transitions"]
             if t["cause"][0] == "fulleval")["cause"][2] = \
            9 if defect == "output out of range" else 1
    elif defect == "fulleval without transitions":
        sid = min(int(sid) for sid, a in actions.items()
                  if a[0] == "select" and a[2] == "fulleval")
        doc["transitions"] = [t for t in doc["transitions"]
                              if t["from"] != sid]
    else:
        sid = min(int(sid) for sid, a in actions.items() if a[0] == "split")
        doc["transitions"].remove({"from": sid, "to": next(
            t["to"] for t in doc["transitions"]
            if t["from"] == sid and t["cause"] == ["many"]),
            "cause": ["many"], "selected_index": actions[str(sid)][1]})
    graph.write_text(json.dumps(doc))
    return graph, lp, pol


def _permsort_graph_with(tmp_path, defect):
    """The permsort graph, with state 2's clause 2 transition left out or
    state 6's conjunction ord([g1]) made ord([g1,g2]), with its program
    and policy."""
    lp, pol = tmp_path / "permsort.lp", tmp_path / "permsort.policy"
    lp.write_text(corpus_text("permsort", ".lp"))
    pol.write_text(corpus_text("permsort", ".policy"))
    graph = tmp_path / "permsort.json"
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    if defect == "without clause 2":
        doc["transitions"].remove({"from": 2, "to": 3,
                                   "cause": ["clause", 2],
                                   "selected_index": 0})
    else:
        assert doc["states"][5] == {"id": 6, "conjunction": "ord([g1])"}
        doc["states"][5]["conjunction"] = "ord([g1,g2])"
    graph.write_text(json.dumps(doc))
    return graph, lp, pol


@pytest.mark.parametrize("command,mismatch", [
    ("mi-run", "entry"), ("encode", "clause"), ("specialize", "fulleval"),
    ("synthesize", "entry")] + [
    (command, defect) for command in ("mi-run", "encode", "specialize",
                                      "synthesize")
    for defect in [*PRIMES_DEFECTS, *PERMSORT_DEFECTS]])
def test_graph_program_and_policy_that_do_not_belong_together_exit_2(
        tmp_path, capsys, command, mismatch):
    # each primes and permsort edit once crashed a command with a
    # traceback, exited 0 with no answer or a program, exited 1 after the
    # work, or was refused by some table commands only; every table
    # command now refuses it before any
    if mismatch in PRIMES_DEFECTS:
        graph, lp, pol = _primes_graph_with(tmp_path, mismatch)
        query, message = "primes(3,P)", PRIMES_DEFECTS[mismatch]
    elif mismatch in PERMSORT_DEFECTS:
        graph, lp, pol = _permsort_graph_with(tmp_path, mismatch)
        query, message = "permsort([],S)", PERMSORT_DEFECTS[mismatch]
    else:
        graph, lp, pol = _queens_graph_with(tmp_path, mismatch)
        query, message = "queens([1,2,3],Q)", MISMATCH_MESSAGES[mismatch]
    out = str(tmp_path / "out.lp")
    args = {"mi-run": ["--policy", str(pol), "--query", query],
            "encode": ["--policy", str(pol), "--out", out],
            "specialize": ["--policy", str(pol), "--out", out],
            "synthesize": [str(pol), "--mode", "classic", "--out", out]}
    capsys.readouterr()
    rc = main([command, str(graph), str(lp)] + args[command])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith(f"cc {command}: {graph}: not a valid graph file ("
                          if mismatch == "sideways" else
                          f"cc {command}: cannot build control tables: ")
    assert message in err


@pytest.mark.parametrize("constant", ["a1", "g2", "ma1", "mg2"])
def test_constant_named_like_an_abstract_variable_is_not_written(
        tmp_path, capsys, constant):
    # the state q(g1,a1) would read back from graph.json with a1 as a
    # variable, and the compiled program would lose the constant
    lp = tmp_path / "p.lp"
    pol = tmp_path / "p.policy"
    lp.write_text(f"p(X) :- q(X,{constant}).\nq(Y,{constant}).\n")
    pol.write_text("entry: p(g1).\n")
    (tmp_path / "p.queries").write_text("p(1).\n")
    message = f"constant {constant} cannot be written to a graph file"
    rc = main(["analyze", str(lp), str(pol),
               "--out", str(tmp_path / "graph.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    rc = main(["pipeline", str(lp), str(pol),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err


def test_concrete_variable_in_a_policy_exits_2(permsort_files, tmp_path,
                                               capsys):
    lp, _, _ = permsort_files
    pol = tmp_path / "concrete.policy"
    pol.write_text("entry: permsort(X,a1).\n")
    rc = main(["analyze", str(lp), str(pol)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"cc analyze: {pol}: concrete variable X in "
                          "abstract notation")


def test_name_with_a_non_ascii_digit_is_a_constant(tmp_path, capsys):
    lp = tmp_path / "p.lp"
    pol = tmp_path / "p.policy"
    lp.write_text("p(X).\n")
    pol.write_text("entry: p(a\u00b2).\n")
    assert main(["analyze", str(lp), str(pol)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"][0]["conjunction"] == "p(a\u00b2)"


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--max-answers", "0"), ("run", "--max-answers", "-3"),
    ("run", "--max-infer", "0"), ("run", "--max-infer", "-1"),
    ("run", "--max-depth", "0"), ("analyze", "--max-states", "0"),
    ("analyze", "--max-states", "-5"), ("analyze", "--depth-k", "0"),
    ("pipeline", "--depth-k", "-2"), ("specialize", "--budget", "0"),
    ("selftest", "--max-infer", "1.5")])
def test_budget_that_is_not_a_positive_integer_exits_2(
        permsort_files, capsys, command, flag, value):
    lp, pol, _ = permsort_files
    args = {"run": [str(lp), "--query", "permsort([2,1],S)"],
            "analyze": [str(lp), str(pol)],
            "pipeline": [str(lp), str(pol)],
            "specialize": ["graph.json", str(lp), "--policy", str(pol),
                           "--out", "out.lp"],
            "selftest": []}
    with pytest.raises(SystemExit) as e:
        main([command, *args[command], flag, value])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert err.startswith("usage: cc ")
    assert f"argument {flag}: {value!r} is not a positive integer" in err


def test_positive_budgets_apply(tmp_path, capsys):
    lp = tmp_path / "three.lp"
    lp.write_text("p(1).\np(2).\np(3).\n")
    assert main(["run", str(lp), "--query", "p(X)", "--count",
                 "--max-answers", "2"]) == 0
    assert capsys.readouterr().out.startswith("answers: 2\n")
    assert main(["run", str(lp), "--query", "p(X)", "--count",
                 "--max-infer", "1"]) == 0
    # the first step resolves against all three clauses and exceeds it
    assert capsys.readouterr().out.startswith("answers: 0\n")


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "five"])
@pytest.mark.parametrize("command", ["compare", "pipeline"])
def test_tolerance_that_is_not_a_finite_non_negative_number_exits_2(
        permsort_files, capsys, command, value):
    # nan and -1 once failed every check, agreeing answers too, with exit 1
    lp, pol, q = permsort_files
    args = {"compare": [str(lp), str(lp), "--queries", str(q)],
            "pipeline": [str(lp), str(pol)]}
    with pytest.raises(SystemExit) as e:
        main([command, *args[command], "--tolerance", value])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert err.startswith("usage: cc ")
    assert f"argument --tolerance: {value!r} is not a finite, non-negative " \
        "number" in err


def test_a_zero_tolerance_passes_agreeing_programs(permsort_files, capsys):
    lp, _, q = permsort_files
    assert main(["compare", str(lp), str(lp), "--queries", str(q),
                 "--tolerance", "0"]) == 0


def test_compare_keys_answers_up_to_renaming(tmp_path, capsys):
    # Y = f(_V1) against Y = f(_V2): one answer under two fresh names
    a, b, q = tmp_path / "a.lp", tmp_path / "b.lp", tmp_path / "q.txt"
    a.write_text("p(f(X)).\n")
    b.write_text("p(Z) :- r(Z).\nr(f(W)).\n")
    q.write_text("p(Y)\n")
    assert main(["compare", str(a), str(b), "--queries", str(q),
                 "--tolerance", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_match"]


def test_pipeline_runs_a_compute_entry_as_it_is(tmp_path, capsys):
    # the program defines compute/1 itself: only the residual goes
    # through the wrapper compute([compute(X1)])
    lp, pol = tmp_path / "c.lp", tmp_path / "c.policy"
    lp.write_text("compute(z).\ncompute(s(X)) :- compute(X).\n")
    pol.write_text("entry: compute(g1).\n")
    (tmp_path / "c.queries").write_text("compute(s(s(z)))\ncompute(s(a))\n")
    assert main(["pipeline", str(lp), str(pol), "--out-dir",
                 str(tmp_path / "out"), "--tolerance", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "compute(s(s(z))): agree" in out and "compute(s(a)): agree" in out
    assert "workload deviation 14.29% (within 30% tolerance)" in out


def test_a_closed_output_exits_2_without_traceback(tmp_path):
    # the reader stops after one line: the next write finds the pipe closed
    lp = tmp_path / "nat.lp"
    lp.write_text("nat(z).\nnat(s(X)) :- nat(X).\n")
    src = str(pathlib.Path(ccontrol.__file__).resolve().parents[1])
    with subprocess.Popen(
            [sys.executable, "-m", "ccontrol.cli", "run", str(lp),
             "--query", "nat(X)", "--max-answers", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (first, proc.wait(timeout=60)) == ("X = z\n", 2)
    assert err == "cc run: standard output closed\n"


def test_a_closed_pipe_on_an_artifact_is_that_file_s_write_error(
        permsort_files, monkeypatch, capsys):
    # only standard output's closing is reported as such
    lp, pol, _ = permsort_files
    out = lp.parent / "graph.json"

    def closed(path, *args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(pathlib.Path, "write_text", closed)
    assert main(["analyze", str(lp), str(pol), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"cc analyze: cannot write {out}: Broken pipe\n"


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
def test_a_via_link_to_another_predicate_exits_2(tmp_path, capsys,
                                                 command):
    # classic called r/2 here (t(1,Y) gave one), the interpreters q/2
    # (wrong), and the pipeline failed its closedness check
    lp, pol = tmp_path / "t.lp", tmp_path / "t.policy"
    lp.write_text("t(X,Y) :- q(X,Y).\nr(1,one).\nr(2,two).\nq(1,wrong).\n")
    pol.write_text("entry: t(g1,a1).\n"
                   "fulleval: q(g1,a1) -> { a1=g2 } via user r/2.\n")
    extra = ["--out-dir", str(tmp_path / "out")] \
        if command == "pipeline" else []
    assert main([command, str(lp), str(pol)] + extra) == 2
    assert capsys.readouterr().err == (
        f"cc {command}: {pol}: link user r/2 is not the pattern's own "
        "predicate q/2 at line 2, column 42\n")


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
@pytest.mark.parametrize("entry, decl", [
    ("q(a1)", "q(a1) -> { } via user q/1"),
    ("select(a1,[g1|g2],a2)",
     "select(a1,[g1|g2],a2) -> { } via builtin select/3"),
], ids=["user", "builtin"])
def test_a_fully_evaluated_entry_exits_2(tmp_path, capsys, command, entry,
                                         decl):
    # classic's entry wrapper q(A1) :- q_s1(A1) called itself through the
    # support copy of q/1 (q(X) ran 10,001 inferences to no answer), or
    # defined a clause of select/3, where the other constructions answered
    lp, pol = tmp_path / "q.lp", tmp_path / "q.policy"
    lp.write_text("p(X) :- q(X).\nq(a).\n")
    pol.write_text(f"entry: {entry}.\nfulleval: {decl}.\n")
    extra = ["--out-dir", str(tmp_path / "out")] \
        if command == "pipeline" else []
    assert main([command, str(lp), str(pol)] + extra) == 2
    assert capsys.readouterr().err == \
        f"cc {command}: {pol}: the entry pattern {entry} is fully evaluated\n"


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
def test_a_structured_full_evaluation_output_exits_2(tmp_path, capsys,
                                                     command):
    # mi_run and futamura answered X=f(1),Y=1 and X=f(2),Y=2, where
    # classic refused the output f(g1)
    lp, pol = tmp_path / "s.lp", tmp_path / "s.policy"
    lp.write_text("p(X,Y) :- mk(X), use(X,Y).\nmk(f(1)).\nmk(f(2)).\n"
                  "use(f(N),N).\n")
    pol.write_text("entry: p(a1,a2).\n"
                   "fulleval: mk(a1) -> { a1 = f(g1) } via user mk/1.\n")
    extra = ["--out-dir", str(tmp_path / "out")] \
        if command == "pipeline" else []
    assert main([command, str(lp), str(pol)] + extra) == 2
    assert capsys.readouterr().err == (
        f"cc {command}: {pol}: output binds a1 to f(g1), which is not an "
        "abstract variable\n")
