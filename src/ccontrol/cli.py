"""Command-line interface wiring the toolchain together.

The ``cc`` executable exposes each stage (parse, run, analyze, mi-run,
encode, specialize, synthesize, compare) plus a ``pipeline`` command that
chains them and a ``selftest`` that runs the bundled corpus end to end.

Exit codes: 0 on success, 1 when a check fails (analysis growth, lost
closedness, answer mismatch, deviation above tolerance), 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from importlib import resources
from pathlib import Path

from .analysis import (AnalysisError, AnalysisOptions, DEFAULT_MAX_STATES,
                       analyze, parse_graph, render_graph)
from .engine import (DEFAULT_MAX_DEPTH, DEFAULT_MAX_INFERENCES, Limits,
                     answer_set, solve)
from .metaint import build_tables, encode_as_logic_program, mi_run
from .pd import (DEFAULT_BUDGET, check_closedness, parse_annotations,
                 parse_filters, specialize_encoded)
from .policy import parse_policy
from .synthesis import compare_programs, run_compiled, synthesize
from .terms import (LogicError, parse_goal, parse_program, print_program,
                    print_term)

TOLERANCE = 0.05


class CliError(Exception):
    """A usage or input error: the command exits 2."""


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not UTF-8 text")


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror}")


def _load(path, parse):
    """Parse an input file (program, policy, filters or annotations); an
    unreadable or malformed file is a usage error naming the path."""
    try:
        return parse(_read(path))
    except LogicError as e:
        raise CliError(f"{path}: {e}")


def _load_graph(path):
    try:
        return parse_graph(_read(path))
    except (LogicError, ValueError, KeyError) as e:
        raise CliError(f"{path}: not a valid graph file ({e})")


def _parse_query(text):
    try:
        return parse_goal(text.strip().removesuffix("."))
    except LogicError as e:
        raise CliError(f"bad query {text!r}: {e}")


def _load_queries(path):
    return [_parse_query(line)
            for line in _read(path).splitlines() if line.strip()]


def _limits(args) -> Limits:
    return Limits(args.max_infer, args.max_depth, args.max_answers)


def _tables(args):
    """The control tables of a table command's graph, program and
    policy."""
    graph = _load_graph(args.graph)
    program = _load(args.program, parse_program)
    policy = _load(args.policy, parse_policy)
    try:
        return build_tables(graph, program, policy)
    except LogicError as e:
        raise CliError(f"cannot build control tables: {e}")


def _closed(residual) -> bool:
    """Check closedness of a residual program, naming what is undefined."""
    ok, missing = check_closedness(residual)
    if not ok:
        preds = ", ".join(f"{p}/{n}" for p, n in missing)
        print(f"closedness violated: undefined {preds}", file=sys.stderr)
    return ok


def _print_answers(result, as_json):
    if as_json:
        doc = {"answers": [{v.name: print_term(t)
                            for v, t in sub.bindings.items()}
                           for sub in result.answers],
               "inferences": result.inference_count,
               "exhausted": result.exhausted}
        if not result.exhausted:
            doc["stopped_by"] = list(result.stopped_by)
        print(json.dumps(doc, indent=2))
        return
    for sub in result.answers:
        if not sub.bindings:
            print("true")
        for v, t in sorted(sub.bindings.items(), key=lambda p: p[0].name):
            print(f"{v.name} = {print_term(t)}")
        print()
    print(f"inferences: {result.inference_count}")
    if not result.exhausted:
        print(f"search truncated by limits: {', '.join(result.stopped_by)}")


# --- commands -------------------------------------------------------------

def cmd_parse(args):
    program = _load(args.program, parse_program)
    if args.json:
        doc = {"clauses": len(program.clauses),
               "predicates": sorted(f"{p}/{n}"
                                    for p, n in program.predicates)}
        print(json.dumps(doc, indent=2))
    else:
        print(print_program(program), end="")
    return 0


def cmd_run(args):
    program = _load(args.program, parse_program)
    goal = _parse_query(args.query)
    result = solve(program, goal, limits=_limits(args),
                   occurs_check=not args.no_occurs_check)
    if args.count:
        print(f"answers: {len(result.answers)}")
        print(f"inferences: {result.inference_count}")
    else:
        _print_answers(result, args.json)
    return 0


def cmd_analyze(args):
    program = _load(args.program, parse_program)
    policy = _load(args.policy, parse_policy)
    opts = AnalysisOptions(depth_k=args.depth_k, max_states=args.max_states,
                           enable_multi=not args.no_multi)
    try:
        graph = analyze(program, policy, opts)
    except AnalysisError as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 1
    text = render_graph(graph, "json")
    if args.out:
        _write(args.out, text)
        print(f"{len(graph.states)} states, {len(graph.transitions)} "
              f"transitions -> {args.out}")
    else:
        print(text, end="")
    if args.dot:
        _write(args.dot, render_graph(graph, "dot"))
    return 0


def cmd_mi_run(args):
    tables = _tables(args)
    goal = _parse_query(args.query)
    result = mi_run(tables, goal, limits=_limits(args))
    _print_answers(result, args.json)
    return 0


def cmd_encode(args):
    tables = _tables(args)
    program = encode_as_logic_program(tables)
    _write(args.out, print_program(program))
    print(f"{len(program.clauses)} clauses ({tables.variant} variant) "
          f"-> {args.out}")
    return 0


def cmd_specialize(args):
    tables = _tables(args)
    filters = _load(args.filters, parse_filters) if args.filters else None
    annotations = _load(args.ann, parse_annotations) if args.ann else None
    residual = specialize_encoded(tables, budget=args.budget,
                                  annotations=annotations, filters=filters)
    _write(args.out, print_program(residual.program))
    print(f"{len(residual.program.clauses)} residual clauses, "
          f"{len(residual.memo)} memo entries -> {args.out}")
    return 0 if _closed(residual) else 1


def cmd_synthesize(args):
    tables = _tables(args)
    if args.mode == "classic":
        compiled = synthesize(tables.graph, tables.program,
                              tables.policy).program
    else:
        residual = specialize_encoded(tables)
        if not _closed(residual):
            return 1
        compiled = residual.program
    _write(args.out, print_program(compiled))
    print(f"{len(compiled.clauses)} clauses ({args.mode}) -> {args.out}")
    return 0


def cmd_compare(args):
    prog_a = _load(args.program_a, parse_program)
    prog_b = _load(args.program_b, parse_program)
    queries = _load_queries(args.queries)
    report = compare_programs(prog_a, prog_b, queries, _limits(args))
    text = json.dumps(report, indent=2) + "\n"
    if args.report:
        _write(args.report, text)
    if args.json or not args.report:
        print(text, end="")
    else:
        for r in report["queries"]:
            status = "agree" if r["answers_match"] else "DISAGREE"
            print(f"{r['goal']}: {status}, inferences {r['inferences'][0]} "
                  f"vs {r['inferences'][1]} "
                  f"(deviation {r['deviation']:.2%})")
        print(f"workload deviation: {report['deviation']:.2%}")
    ok = report["all_match"] and report["deviation"] <= args.tolerance
    return 0 if ok else 1


def cmd_pipeline(args):
    program = _load(args.program, parse_program)
    policy = _load(args.policy, parse_policy)
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create {out}: {e.strerror}")
    opts = AnalysisOptions(depth_k=args.depth_k)
    try:
        graph = analyze(program, policy, opts)
    except AnalysisError as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 1
    _write(out / "graph.json", render_graph(graph, "json"))
    tables = build_tables(graph, program, policy)
    print(f"analyzed: {len(graph.states)} states, "
          f"{len(graph.transitions)} transitions")

    classic = futamura = None
    if args.mode in ("classic", "both"):
        classic = synthesize(graph, program, policy)
        _write(out / "compiled_classic.lp", print_program(classic.program))
        print(f"classic synthesis: {len(classic.program.clauses)} clauses")
    if args.mode in ("futamura", "both"):
        residual = specialize_encoded(tables)
        if not _closed(residual):
            return 1
        futamura = residual
        _write(out / "compiled_futamura.lp",
               print_program(residual.program))
        print(f"interpreter specialization: "
              f"{len(residual.program.clauses)} clauses (closed)")

    if args.mode != "both":
        return 0
    queries_path = args.queries or Path(args.program).with_suffix(".queries")
    queries = _load_queries(queries_path)
    report = compare_programs(classic.program, futamura.program, queries,
                              _limits(args))
    _write(out / "report.json", json.dumps(report, indent=2) + "\n")
    for r in report["queries"]:
        status = "agree" if r["answers_match"] else "DISAGREE"
        print(f"  {r['goal']}: {status} "
              f"(deviation {r['deviation']:.2%})")
    ok = report["all_match"] and report["deviation"] <= args.tolerance
    print(f"workload deviation {report['deviation']:.2%} "
          f"({'within' if ok else 'ABOVE'} {args.tolerance:.0%} tolerance)")
    return 0 if ok else 1


# --- selftest -------------------------------------------------------------

CORPUS = ("permsort", "primes", "queens", "zigzag", "countdown")
# The naive primes program searches an infinite candidate stream, so under
# plain left-to-right execution it never exhausts; the corpus entry is
# compared through the analyzed variants only.
NAIVE_SKIP = {"primes"}


def _corpus_text(name, suffix):
    return resources.files("ccontrol.corpus").joinpath(
        f"{name}{suffix}").read_text()


def _selftest_entry(name, limits, rng):
    program = parse_program(_corpus_text(name, ".lp"))
    policy = parse_policy(_corpus_text(name, ".policy"))
    graph = analyze(program, policy)
    tables = build_tables(graph, program, policy)
    classic = synthesize(graph, program, policy)
    futamura = specialize_encoded(tables)
    closed, _ = check_closedness(futamura)

    queries = [_parse_query(line) for line in
               _corpus_text(name, ".queries").splitlines() if line.strip()]
    if name == "permsort":
        for _ in range(3):
            xs = rng.sample(range(1, 7), rng.randint(0, 4))
            queries.append(_parse_query(
                f"permsort([{','.join(map(str, xs))}],S)"))
    agree = checked = fit = 0
    for goal in queries:
        runs = [run_compiled(classic.program, goal, limits),
                run_compiled(futamura.program, goal, limits)]
        keys = [answer_set(mi_run(tables, goal, limits=limits))]
        keys += map(answer_set, runs)
        if name not in NAIVE_SKIP:
            keys.append(answer_set(solve(program, goal, limits=limits)))
        agree += all(k == keys[0] for k in keys)
        # futamura takes classic's steps plus one call of mi__s0 per answer
        if runs[0].exhausted and runs[1].exhausted:
            checked += 1
            fit += runs[1].inference_count == \
                runs[0].inference_count + len(runs[0].answers)
    return {
        "entry": name,
        "states": len(graph.states),
        "closed": closed,
        "queries": len(queries),
        "agreeing": agree,
        "counts_checked": checked,
        "counts_fit": fit,
        "ok": closed and agree == len(queries) and fit == checked,
    }


def cmd_selftest(args):
    rng = random.Random(args.seed)
    limits = _limits(args)
    rows = []
    for name in CORPUS:
        if args.filter and args.filter not in name:
            continue
        try:
            rows.append(_selftest_entry(name, limits, rng))
        except LogicError as e:
            rows.append({"entry": name, "error": str(e), "ok": False})
    if not rows:
        raise CliError(f"no corpus entry matches {args.filter!r}")
    if args.json:
        print(json.dumps({"entries": rows,
                          "ok": all(r["ok"] for r in rows)}, indent=2))
    else:
        for r in rows:
            if "error" in r:
                print(f"{r['entry']:<10} FAIL  {r['error']}")
            else:
                mark = "ok  " if r["ok"] else "FAIL"
                print(f"{r['entry']:<10} {mark}  {r['states']:>3} states  "
                      f"closed={'yes' if r['closed'] else 'NO'}  "
                      f"{r['agreeing']}/{r['queries']} queries agree  "
                      f"{r['counts_fit']}/{r['counts_checked']} counts fit")
    return 0 if all(r["ok"] for r in rows) else 1


# --- argument parsing -----------------------------------------------------

def _positive(text) -> int:
    """A budget or bound given on the command line: a positive integer."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return int(text)


def _tolerance(text) -> float:
    """A deviation tolerance given on the command line: a finite,
    non-negative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite, non-negative number")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-infer", type=_positive, metavar="N",
                        default=DEFAULT_MAX_INFERENCES,
                        help="inference budget per run")
    common.add_argument("--max-depth", type=_positive, metavar="N",
                        default=DEFAULT_MAX_DEPTH,
                        help="derivation depth budget")
    common.add_argument("--max-answers", type=_positive, metavar="N",
                        help="stop after N answers")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled queries")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p = argparse.ArgumentParser(
        prog="cc",
        description="Compile coroutining control out of pure logic "
                    "programs.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", parents=[common],
                        help="parse a program and print it back")
    sp.add_argument("program")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("run", parents=[common],
                        help="run a query left-to-right")
    sp.add_argument("program")
    sp.add_argument("--query", required=True)
    sp.add_argument("--count", action="store_true",
                    help="print only answer and inference counts")
    sp.add_argument("--no-occurs-check", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("analyze", parents=[common],
                        help="extract the control state graph")
    sp.add_argument("program")
    sp.add_argument("policy")
    sp.add_argument("--out", help="graph file (json); stdout if omitted")
    sp.add_argument("--dot", help="also write a dot rendering")
    sp.add_argument("--depth-k", type=_positive, metavar="K",
                    help="depth-k widening bound")
    sp.add_argument("--max-states", type=_positive, metavar="N",
                    default=DEFAULT_MAX_STATES)
    sp.add_argument("--no-multi", action="store_true",
                    help="disable the multi abstraction")
    sp.set_defaults(func=cmd_analyze)

    def table_parser(name, help):
        q = sub.add_parser(name, parents=[common], help=help)
        q.add_argument("graph")
        q.add_argument("program")
        q.add_argument("--policy", required=True,
                       help="selection policy the graph was built with")
        return q

    sp = table_parser("mi-run", "run a query under the analyzed control")
    sp.add_argument("--query", required=True)
    sp.set_defaults(func=cmd_mi_run)

    sp = table_parser("encode", "emit the interpreter + tables as a "
                                "logic program")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = table_parser("specialize", "specialize the encoded interpreter "
                                    "(first projection)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--filters", help="binding-type declarations (.flt)")
    sp.add_argument("--ann", help="call annotations (.ann)")
    sp.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    sp.set_defaults(func=cmd_specialize)

    sp = sub.add_parser("synthesize", parents=[common],
                        help="compile the analyzed program")
    sp.add_argument("graph")
    sp.add_argument("program")
    sp.add_argument("policy")
    sp.add_argument("--mode", choices=("classic", "futamura"),
                    default="classic")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("compare", parents=[common],
                        help="run a query batch on two compiled programs")
    sp.add_argument("program_a")
    sp.add_argument("program_b")
    sp.add_argument("--queries", required=True,
                    help="file with one goal per line")
    sp.add_argument("--report", help="write the json report here")
    sp.add_argument("--tolerance", type=_tolerance, default=TOLERANCE)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("pipeline", parents=[common],
                        help="analyze, compile both ways, and compare")
    sp.add_argument("program")
    sp.add_argument("policy")
    sp.add_argument("--mode", choices=("classic", "futamura", "both"),
                    default="both")
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--queries",
                    help="goal file (default: program path with .queries)")
    sp.add_argument("--depth-k", type=_positive, metavar="K")
    sp.add_argument("--tolerance", type=_tolerance, default=TOLERANCE)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the bundled corpus end to end")
    sp.add_argument("--filter", help="run only matching corpus entries")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CliError, LogicError) as e:
        print(f"cc {args.command}: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"cc {args.command}: term nesting too deep", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's pipe (``_write`` reports a file's); what is left to
        # flush at exit goes to the null device, so it does not raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"cc {args.command}: standard output closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
