"""Command-line interface: commands, artifacts, exit codes."""

import json

import pytest

from ccontrol.cli import main

from conftest import corpus_text
from oracles import interpreter_annotation_text, interpreter_filter_text


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


def test_selftest_unknown_filter_exits_2(capsys):
    rc = main(["selftest", "--filter", "nonesuch"])
    assert rc == 2


def test_parse_json_output(permsort_files, capsys):
    lp, _, _ = permsort_files
    rc = main(["parse", str(lp), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "permsort/2" in doc["predicates"]


def test_deep_term_exits_2_without_traceback(tmp_path, capsys):
    lp = tmp_path / "nat.lp"
    lp.write_text("nat(0).\nnat(s(N)) :- nat(N).\n")
    # too deep for the recursive parser on every supported Python
    term = "s(" * 5000 + "0" + ")" * 5000
    rc = main(["run", str(lp), "--query", f"nat({term})"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "term nesting too deep" in err and "Traceback" not in err


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
    # generated head code takes a ground part as a constant and builds a
    # long list from a flat tuple of its elements, and an equal list in
    # the query is unified with the constant cell by cell
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


def test_cyclic_answer_exits_2_without_traceback(tmp_path, capsys):
    lp = tmp_path / "eq.lp"
    lp.write_text("eq(X,X).\n")
    rc = main(["run", str(lp), "--query", "eq(X,[a|X])",
               "--no-occurs-check"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "term nesting too deep" in err and "Traceback" not in err


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
    lp = tmp_path / "queens.lp"
    pol = tmp_path / "queens.policy"
    graph = tmp_path / "graph.json"
    ann = tmp_path / "i.ann"
    flt = tmp_path / "i.flt"
    lp.write_text(corpus_text("queens", ".lp"))
    pol.write_text(corpus_text("queens", ".policy"))
    ann.write_text(interpreter_annotation_text())
    flt.write_text(interpreter_filter_text())
    assert main(["analyze", str(lp), str(pol), "--out", str(graph)]) == 0
    table = [str(graph), str(lp), "--policy", str(pol)]
    plain = tmp_path / "plain.lp"
    assert main(["specialize", *table, "--out", str(plain)]) == 0
    declared = tmp_path / "declared.lp"
    assert main(["specialize", *table, "--ann", str(ann),
                 "--filters", str(flt), "--out", str(declared)]) == 0
    assert declared.read_text() == plain.read_text()


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


MISMATCH_MESSAGES = {
    "entry": "is not the policy's entry pattern",
    "clause": "which the program does not define for it",
    "fulleval": "which the policy does not declare for it",
}


@pytest.mark.parametrize("command,mismatch", [
    ("mi-run", "entry"), ("encode", "clause"), ("specialize", "fulleval"),
    ("synthesize", "entry")])
def test_graph_program_and_policy_that_do_not_belong_together_exit_2(
        tmp_path, capsys, command, mismatch):
    graph, lp, pol = _queens_graph_with(tmp_path, mismatch)
    out = str(tmp_path / "out.lp")
    args = {"mi-run": ["--policy", str(pol), "--query", "queens([1,2,3],Q)"],
            "encode": ["--policy", str(pol), "--out", out],
            "specialize": ["--policy", str(pol), "--out", out],
            "synthesize": [str(pol), "--mode", "classic", "--out", out]}
    capsys.readouterr()
    rc = main([command, str(graph), str(lp)] + args[command])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"cc {command}: cannot build control tables: ")
    assert MISMATCH_MESSAGES[mismatch] in err


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
