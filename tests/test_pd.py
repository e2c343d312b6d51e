"""Offline specialization of the encoded interpreter."""

from collections import Counter

import pytest

from ccontrol import pd
from ccontrol.absdom import avars
from ccontrol.analysis import AnalysisOptions, analyze
from ccontrol.engine import solve
from ccontrol.metaint import (atom_to_term, build_tables,
                              encode_as_logic_program)
from ccontrol.pd import (Dynamic, ListOf, Nonvar, PDError, Static,
                         check_closedness, generalize_call,
                         interpreter_filters, parse_annotations,
                         parse_filters, specialize, specialize_encoded,
                         _Specializer)
from ccontrol.policy import parse_policy
from ccontrol.synthesis import synthesize
from ccontrol.terms import (Atom, Const, FreshNames, ParseError, Struct, Var,
                            list_parts, parse_atom, parse_goal,
                            parse_program, parse_term, print_atom,
                            mklist, print_program, print_term, term_vars)

from conftest import CORPUS_NAMES, answer_set
from oracles import (block_filter_text, interpreter_annotation_text,
                     interpreter_filter_text, list_filter_text,
                     reference_generalize_call)


# --- binding types --------------------------------------------------------

def test_binding_type_generalization():
    fresh = FreshNames()
    assert Static().generalize(parse_term("f(a)"), fresh, []) == \
        parse_term("f(a)")
    assert isinstance(Dynamic().generalize(parse_term("f(a)"), fresh, []),
                      Var)
    g = Nonvar().generalize(parse_term("f(a,[1])"), fresh, [])
    assert g.functor == "f" and all(isinstance(a, Var) for a in g.args)
    g = ListOf(Nonvar()).generalize(parse_term("[p(1),q(2)]"), fresh, [])
    assert print_term(g).startswith("[p(")


def test_binding_type_open_list_rejected():
    with pytest.raises(PDError):
        generalize_call(parse_atom("p([a|T])"), (ListOf(Dynamic()),),
                        FreshNames(), [])


def _generalize_both_ways(atom, types, n=0):
    """``generalize_call`` and the reference's, each from a ``fresh``
    that has drawn ``n`` names: the printed call, the unknown parts and
    the count left, or "PDError"; the two must agree."""
    outcomes = []
    for generalize in (generalize_call, reference_generalize_call):
        fresh, parts = FreshNames(), []
        fresh.n = n
        try:
            call = print_atom(generalize(atom, types, fresh, parts))
        except PDError:
            outcomes.append("PDError")
        else:
            outcomes.append((call, parts, fresh.n))
    assert outcomes[0] == outcomes[1], (print_atom(atom), types)
    return outcomes[0]


def _small_tables():
    from test_metaint import _via_user_tables
    from test_synthesis import WIDENED
    for lp, policy_text, k in WIDENED.values():
        program, policy = parse_program(lp), parse_policy(policy_text)
        graph = analyze(program, policy, AnalysisOptions(depth_k=k))
        yield build_tables(graph, program, policy)
    yield _via_user_tables()[1]


def test_generalization_matches_the_reference_on_every_request(
        corpus, monkeypatch):
    requests = []

    def recording(atom, types, fresh, parts):
        requests.append((atom, types, fresh.n))
        return generalize_call(atom, types, fresh, parts)

    monkeypatch.setattr(pd, "generalize_call", recording)
    counts = []
    # the block filters are the declaration that takes OneOf, StructOf and
    # the undoing of a failed alternative on these programs
    for filters in (parse_filters(list_filter_text()),
                    parse_filters(block_filter_text())):
        before = len(requests)
        for name in CORPUS_NAMES:
            specialize_encoded(corpus(name).tables, filters=filters)
        for tables in _small_tables():
            specialize_encoded(tables, filters=filters)
        counts.append(len(requests) - before)
    # memo requests: 158 on the corpus and 71 on the small programs under
    # the generic list filters, 203 and 71 under the block filters
    assert counts == [229, 274]
    for atom, types, n in requests:
        assert _generalize_both_ways(atom, types, n) != "PDError"


@pytest.mark.parametrize("filter_text, call, outcome", [
    # an open list tail
    ("p(list(dynamic)).", "p([a|T])", "PDError"),
    # a static argument that is not ground
    ("p(static,dynamic).", "p(f(X),a)", "PDError"),
    # a variable under nonvar
    ("p(nonvar).", "p(X)", "PDError"),
    # a constant against a zero-arity struct, and a misfitting one
    ("p(struct(f,[])).", "p(f)", ("p(f)", [], 0)),
    ("p(struct(f,[])).", "p(g)", "PDError"),
    ("p(struct(f,[])).", "p(f(a))", "PDError"),
    ("p(struct(f,[static])).", "p(f)", "PDError"),
    # the first alternative draws _V1 and appends X before its static
    # argument fails; the second starts from the same count and parts
    ("p(struct(f,[dynamic,static]) ; nonvar).", "p(f(X,Y))",
     ("p(f(_V1,_V2))", [Var("X"), Var("Y")], 2)),
    ("p(list(struct(f,[dynamic,static]) ; dynamic)).", "p([f(X,a),f(Y,Z)])",
     ("p([f(_V1,a),_V2])", [Var("X"), parse_term("f(Y,Z)")], 2)),
])
def test_generalization_matches_the_reference_by_hand(filter_text, call,
                                                      outcome):
    atom = parse_atom(call)
    types = parse_filters(filter_text).for_atom(atom)
    assert _generalize_both_ways(atom, types) == outcome


def test_a_misfit_names_the_argument_the_call_and_the_filter():
    atom = parse_atom("mi([p(X)|T],1)")
    types = parse_filters("mi(list(nonvar),static).").for_atom(atom)
    with pytest.raises(PDError) as err:
        generalize_call(atom, types, FreshNames(), [])
    assert str(err.value) == ("argument 1 of mi([p(X)|T],1) does not fit "
                              "list(nonvar) in the filter "
                              "mi(list(nonvar),static)")


def test_parse_filters_grammar():
    filters = parse_filters("mi(type(list(nonvar)),static).\n"
                            "p(dynamic,struct(f,[static;nonvar])).\n")
    types = filters.for_atom(parse_atom("mi(X,Y)"))
    assert repr(types[0]) == "list(nonvar)"
    assert repr(types[1]) == "static"
    assert filters.for_atom(parse_atom("p(A,B)"))
    with pytest.raises(PDError):
        filters.for_atom(parse_atom("q(A)"))


@pytest.mark.parametrize("parse, text, message", [
    (parse_filters, "mi(list(nonvar),static).\np(dynamic).\n"
     "  mi(dynamic,static).\n",
     "repeated declaration for mi/2 at line 3, column 3"),
    (parse_annotations, "ann(memo, mi/2). ann(unfold, mi/2).",
     "repeated declaration for mi/2 at line 1, column 30"),
])
def test_a_repeated_declaration_is_a_parse_error(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_one_name_at_two_arities_is_two_declarations():
    assert len(parse_filters("mi(static).\nmi(dynamic,static).").table) == 2
    assert len(parse_annotations(
        "ann(memo, mi/2). ann(unfold, mi/3).").table) == 2


def test_parse_annotations_grammar():
    ann = parse_annotations("ann(memo, mi/2).\nann(rescall, call/1).\n")
    assert ann.of(parse_atom("mi(G,S)")) == "memo"
    assert ann.of(parse_atom("call(G)")) == "rescall"
    assert ann.of(parse_atom("plus(1,2,X)")) == "call"    # builtin default
    assert ann.of(parse_atom("helper(X)")) == "unfold"    # plain default


def test_default_declarations_parse_with_their_own_grammar():
    assert repr(parse_filters(interpreter_filter_text()).table) == \
        repr(interpreter_filters().table)
    parse_annotations(interpreter_annotation_text())


def test_generalize_call_variant_shape():
    fresh = FreshNames()
    types = parse_filters("mi(type(list(nonvar)),static).") \
        .for_atom(parse_atom("mi(X,Y)"))
    call = generalize_call(parse_atom("mi([perm([1],X),ord(X)],1)"), types,
                           fresh, [])
    assert call.pred == "mi"
    # the state argument is static, the goal atoms keep only their skeleton
    assert print_term(call.args[1]) == "1"
    from ccontrol.terms import list_parts
    items, _ = list_parts(call.args[0])
    assert [t.functor for t in items] == ["perm", "ord"]
    assert all(isinstance(a, Var) for t in items for a in t.args)


def test_generalization_returns_the_unknown_parts_and_keys_variants():
    filters = parse_filters("mi(type(list(nonvar)),static).")
    atom = parse_atom("mi([perm([1],X),ord(X)],1)")
    parts = []
    generalize_call(atom, filters.for_atom(atom), FreshNames(), parts)
    assert parts == [parse_term("[1]"), Var("X"), Var("X")]
    sp = _Specializer(parse_program("mi(G,S)."),
                      parse_annotations("ann(memo, mi/2)."), filters, 100)
    first = sp.request(atom)
    variant = sp.request(parse_atom("mi([perm(A,B),ord(c)],1)"))
    other = sp.request(parse_atom("mi([perm(A,B),ord(c)],2)"))
    assert print_atom(first) == f"{first.pred}([1],X,X)"
    assert print_atom(variant) == f"{first.pred}(A,B,c)"
    assert other.pred != first.pred
    assert [e.name for e in sp.memo] == [first.pred, other.pred]


def _memo_specializer(filter_text):
    pred = filter_text.split("(")[0]
    arity = filter_text.count(",") + 1
    return _Specializer(parse_program(f"{pred}({','.join('X' * arity)})."),
                        parse_annotations(f"ann(memo, {pred}/{arity})."),
                        parse_filters(filter_text), 100)


def test_variant_generalizations_share_one_memo_entry():
    # the generalizations of these calls differ only in their variables'
    # names, so each is keyed as the first
    sp = _memo_specializer("p(nonvar,dynamic,static).")
    calls = ["p(f(X,Y),Z,g(a,[1,2]))", "p(f(U,U),g(V),g(a,[1,2]))",
             "p(f(a,b),c,g(a,[1,2]))"]
    residual = [sp.request(parse_atom(c)) for c in calls]
    assert len(sp.memo) == 1
    assert {r.pred for r in residual} == {sp.memo[0].name}
    assert [print_atom(r) for r in residual] == [
        f"{sp.memo[0].name}(X,Y,Z)", f"{sp.memo[0].name}(U,U,g(V))",
        f"{sp.memo[0].name}(a,b,c)"]
    assert sp.memo[0].arity == 3


FIRST = "p(f(X,Y),g(a,[1,2]))"


@pytest.mark.parametrize("first, other", [
    (FIRST, "p(f(X,Y),g(a,[1,3]))"),     # one constant of the static part
    (FIRST, "p(f(X,Y),g(b,[1,2]))"),
    (FIRST, "p(f(X,Y),g(a,[1,2|c]))"),   # a list's tail
    (FIRST, "p(f(X,Y),h(a,[1,2]))"),     # a functor
    (FIRST, "p(f(X,Y),g(a,[1,2],c))"),   # an arity
    (FIRST, "p(f(X,Y),g)"),              # a constant named as the functor
    (FIRST, "p(h(X,Y),g(a,[1,2]))"),     # the functor that nonvar keeps
    (FIRST, "p(f(X),g(a,[1,2]))"),
    (FIRST, "p(f,g(a,[1,2]))"),
    # the same symbols in the same order, nested another way
    ("p(f(X),k(h(a),b))", "p(f(X),k(h(a,b)))"),
    ("p(f(X,Y),a)", "p(f(X),a)"),
])
def test_calls_that_differ_in_a_known_part_have_their_own_entries(first,
                                                                  other):
    sp = _memo_specializer("p(nonvar,static).")
    first = sp.request(parse_atom(first))
    second = sp.request(parse_atom(other))
    assert len(sp.memo) == 2 and first.pred != second.pred


def test_a_deep_generalized_call_is_keyed_without_recursion():
    def nested(leaf):
        t = Const(leaf)
        for _ in range(5000):
            t = Struct("s", (t,))
        return t

    sp = _memo_specializer("p(static,dynamic).")
    first = sp.request(Atom("p", (nested("z"), Var("X"))))
    again = sp.request(Atom("p", (nested("z"), Const("a"))))
    other = sp.request(Atom("p", (nested("y"), Var("X"))))
    assert first.pred == again.pred != other.pred
    assert len(sp.memo) == 2


# --- specialization of a small program ------------------------------------

def test_specialize_unfolds_interpretation_away():
    program = parse_program(
        "app([],L,L).\n"
        "app([X|Xs],Y,[X|Zs]) :- app(Xs,Y,Zs).\n")
    annotations = parse_annotations("ann(memo, app/3).")
    filters = parse_filters("app(dynamic,dynamic,dynamic).")
    residual = specialize(program, parse_atom("app(A,B,C)"), annotations,
                          filters, budget=1000)
    ok, missing = check_closedness(residual)
    assert ok, missing
    # the memoized call's clauses are renamed last first and its
    # resultants kept in textual order, which fixes every fresh name
    assert print_program(residual.program) == (
        "app__g0([],_V8,_V8).\n"
        "app__g0([_V4|_V5],_V6,[_V4|_V7]) :- app__g0(_V5,_V6,_V7).\n")
    assert print_atom(residual.entry_call) == "app__g0(A,B,C)"
    # the residual enumerates the same (infinite) answer stream
    from ccontrol.engine import Limits
    r = solve(residual.program, (residual.entry_call,),
              limits=Limits(max_answers=3))
    d = solve(program, parse_goal("app(A,B,C)"),
              limits=Limits(max_answers=3))
    assert len(r.answers) == len(d.answers) == 3


def test_filters_propagate_only_the_unknown_parts():
    program = parse_program(
        "app([],L,L).\n"
        "app([X|Xs],Ys,[X|Zs]) :- app(Xs,Ys,Zs).\n"
        "run(M,[]).\n"
        "run(fast,[G|Gs]) :- call(G), run(fast,Gs).\n"
        "run(slow,[G|Gs]) :- run(slow,Gs), call(G).\n")
    entry = parse_atom("run(fast,[app(A,B,[1,2]),app(A,[],C)])")
    residual = specialize(program, entry,
                          parse_annotations("ann(memo, run/2)."),
                          parse_filters("run(static,list(nonvar))."),
                          budget=1000)
    # the static mode is dropped and the goal list flattened into the
    # arguments of its atoms
    assert print_atom(residual.entry_call) == \
        f"{residual.memo[0].name}(A,B,[1,2],A,[],C)"
    heads = {c.head.pred: c.head for c in residual.program.clauses}
    assert [len(heads[e.name].args) for e in residual.memo] == [6, 3, 0]
    for e in residual.memo:
        assert all(isinstance(a, Var) for a in heads[e.name].args)
    assert check_closedness(residual)[0]
    # every residual name is a plain predicate name
    assert parse_program(print_program(residual.program)) == residual.program
    assert answer_set(solve(residual.program, (residual.entry_call,))) == \
        answer_set(solve(program, (entry,)))
    assert len(answer_set(solve(program, (entry,)))) == 3


def test_check_closedness_flags_undefined_predicates():
    program = parse_program("p(X) :- q(X).\n")
    from ccontrol.pd import ResidualProgram
    residual = ResidualProgram(program, parse_atom("p(X)"), (), 0)
    ok, missing = check_closedness(residual)
    assert not ok and missing == [("q", 1)]


# --- the interpreter specialization ---------------------------------------

def test_residual_is_closed_on_corpus(corpus):
    for name in ("permsort", "primes", "queens", "zigzag", "countdown"):
        residual = corpus(name).futamura
        ok, missing = check_closedness(residual)
        assert ok, (name, missing)


def test_residual_matches_encoded_program(corpus):
    for name in ("permsort", "zigzag", "countdown"):
        entry = corpus(name)
        encoded = encode_as_logic_program(entry.tables)
        for goal in entry.queries:
            from ccontrol.metaint import atom_to_term
            from ccontrol.terms import mklist
            wrapped = (Atom("compute",
                            (mklist([atom_to_term(a) for a in goal]),)),)
            assert answer_set(solve(encoded, wrapped)) == \
                answer_set(entry.run_futamura(goal)), (name, goal)


def test_the_tables_are_encoded_once(monkeypatch):
    # encode_as_logic_program and specialize_encoded share the program
    # that the tables carry
    from ccontrol import metaint
    built = []

    def recording(tables):
        built.append(tables)
        return encode(tables)

    encode = metaint._encode
    monkeypatch.setattr(metaint, "_encode", recording)
    for tables in _small_tables():
        encoded = encode_as_logic_program(tables)
        specialize_encoded(tables)
        assert encode_as_logic_program(tables) is encoded
        assert built == [tables]
        built.clear()


def test_residual_predicates_are_per_state(corpus):
    entry = corpus("permsort")
    preds = {c.head.pred for c in entry.futamura.program.clauses}
    assert any(p.startswith("mi__s") for p in preds)
    assert "compute" in preds


def test_residual_predicates_take_only_the_unknown_parts(corpus):
    for name in ("permsort", "primes", "queens", "zigzag", "countdown"):
        entry = corpus(name)
        residual = entry.futamura
        source = {p for p, _ in entry.program.predicates} | {"cmulti"}
        # one argument per variable of the call pattern: the state id is
        # static, so it is not one of them
        arity = {e.name: len(term_vars(e.call)) for e in residual.memo}
        assert all(isinstance(e.call.args[1], Const) for e in residual.memo)

        def check(atom):
            assert len(atom.args) == arity[atom.pred], (name, atom)
            for a in atom.args:
                # no goal list among the arguments
                assert not (list_parts(a)[1] == Const("[]") and any(
                    isinstance(x, Struct) and x.functor in source
                    for x in list_parts(a)[0])), (name, atom)

        wrappers = []
        for clause in residual.program.clauses:
            if clause.head.pred == "compute":
                wrappers.append(clause)
            elif clause.head.pred in arity:
                check(clause.head)
            for a in clause.body:
                if a.pred in arity:
                    check(a)
        # compute([p(X1,...,Xn)]) :- <entry call>.
        (wrapper,) = wrappers
        (goal,) = list_parts(wrapper.head.args[0])[0]
        entry_atom = entry.graph.states[entry.tables.entry][0]
        assert goal.functor == entry_atom.pred
        assert len(set(goal.args)) == len(goal.args) == len(entry_atom.args)
        assert all(isinstance(a, Var) for a in goal.args)
        assert wrapper.body == (residual.entry_call,)
        assert residual.entry_call == Atom(residual.memo[0].name, goal.args)


def test_budget_exhaustion_is_an_error(corpus):
    with pytest.raises(PDError):
        specialize_encoded(corpus("queens").tables, "extended", budget=5)


# unfolding steps, memo entries and residual clauses (with the wrapper)
PD_SIZES = {"permsort": ("simple", 195, 10, 13),
            "primes": ("extended", 1709, 54, 70),
            "queens": ("extended", 1378, 42, 52),
            "zigzag": ("simple", 310, 15, 19),
            "countdown": ("simple", 195, 10, 13)}


@pytest.mark.parametrize("name", sorted(PD_SIZES))
def test_specialization_sizes_are_pinned(corpus, name):
    entry = corpus(name)
    residual = entry.futamura
    assert (entry.variant, residual.unfold_steps, len(residual.memo),
            len(residual.program.clauses)) == PD_SIZES[name]


def _clauses_by_role(program, state_pred, entry):
    """Clause counts of ``program``: a state predicate's under its state
    id (``state_pred`` maps a name to it), the entry's under "entry",
    any other predicate's under its indicator."""
    counts = Counter()
    for c in program.clauses:
        sid = state_pred.get(c.head.pred)
        if sid is not None:
            counts[sid] += 1
        else:
            counts["entry" if c.head.indicator == entry
                   else c.head.indicator] += 1
    return counts


def test_one_memo_entry_per_state(corpus):
    """Futamura memoizes each state once, as ``mi__s<id>``, plus the
    empty-goal state ``mi__s0``, and gives each state as many clauses as
    classic's ``<entry>_s<id>``.  The only other differences are the
    ``mi__s0`` fact and the ``compute/1`` wrapper in place of classic's
    entry clause."""
    compiled = [(name, corpus(name).graph, corpus(name).classic,
                 corpus(name).futamura) for name in CORPUS_NAMES]
    for tables in _small_tables():
        graph = tables.graph
        compiled.append((graph.states[tables.entry][0].pred, graph,
                         synthesize(graph, tables.program, tables.policy),
                         specialize_encoded(tables)))
    for name, graph, classic, residual in compiled:
        names = {f"mi__s{sid}": sid for sid in (0, *graph.states)}
        assert sorted(e.name for e in residual.memo) == sorted(names), name
        futamura = _clauses_by_role(residual.program, names, ("compute", 1))
        assert futamura.pop(0) == 1, name
        state_pred = {p: sid for sid, p in classic.state_predicates.items()}
        assert futamura == _clauses_by_role(classic.program, state_pred,
                                            classic.entry), name


def test_budget_boundary_is_the_unfold_step_count(corpus):
    # the budget ticks once per resultant step on every entry, whichever
    # clauses the first-argument switch leaves out
    for name, (_, steps, _, _) in PD_SIZES.items():
        tables = corpus(name).tables
        with pytest.raises(PDError, match=f"unfold budget exceeded "
                                          f"\\({steps - 1} steps\\)"):
            specialize_encoded(tables, budget=steps - 1)
        assert specialize_encoded(tables, budget=steps).unfold_steps == \
            steps, name



# --- the state filter -------------------------------------------------------

def _compilations(corpus):
    """(name, graph, classic, residual) of the five corpus entries and the
    four pinned small programs, futamura under the default filters."""
    out = [(name, corpus(name).graph, corpus(name).classic,
            corpus(name).futamura) for name in CORPUS_NAMES]
    for tables in _small_tables():
        graph = tables.graph
        out.append((graph.states[tables.entry][0].pred, graph,
                    synthesize(graph, tables.program, tables.policy),
                    specialize_encoded(tables)))
    return out


def _state_calls(program, names):
    return [a for c in program.clauses for a in c.body if a.pred in names]


def _aliased(call) -> bool:
    """Whether ``call`` passes one variable in two argument positions."""
    variables = [t for t in call.args if isinstance(t, Var)]
    return len(set(variables)) < len(variables)


def test_no_state_call_passes_one_variable_twice(corpus):
    for name, graph, _, residual in _compilations(corpus):
        names = {f"mi__s{sid}" for sid in (0, *graph.states)}
        calls = _state_calls(residual.program, names)
        assert calls and not [print_atom(a) for a in calls if _aliased(a)], \
            name


def test_the_list_filters_keep_the_generic_residual(corpus):
    """Declared, the generic filters of the goal list give the residual
    that was the default before the state filter: more unfold steps, and
    state calls that pass one variable twice."""
    filters = parse_filters(list_filter_text())
    sizes = {}
    for name in CORPUS_NAMES:
        residual = specialize_encoded(corpus(name).tables, filters=filters)
        calls = _state_calls(residual.program,
                             {e.name for e in residual.memo})
        sizes[name] = (residual.unfold_steps, len(residual.memo),
                       sum(map(_aliased, calls)), len(calls))
    assert sizes == {"permsort": (201, 10, 3, 12),
                     "primes": (1726, 54, 21, 67),
                     "queens": (1390, 42, 13, 49),
                     "zigzag": (320, 15, 4, 18),
                     "countdown": (201, 10, 3, 12)}


def _classic_positions(conj) -> list:
    """For each argument of futamura's predicate of a state whose
    conjunction is ``conj``, its position in classic's predicate of the
    state: both take each abstract variable of the atoms once, in
    first-occurrence order, and one block list per multi; futamura in the
    conjunction's order, classic with the block lists last."""
    order = []
    for i, c in enumerate(conj):
        if isinstance(c, Atom):
            order += [v for v in avars(c) if v not in order]
        else:
            order.append(i)
    classic = [x for x in order if not isinstance(x, int)] + \
        [x for x in order if isinstance(x, int)]
    return [classic.index(x) for x in order]


def _clauses_by_state(program, state_pred):
    by_state = {}
    for c in program.clauses:
        sid = state_pred.get(c.head.pred)
        if sid is not None:
            by_state.setdefault(sid, []).append(c)
    return by_state


def test_a_state_call_passes_a_structure_only_where_classic_does(corpus):
    """Futamura's clauses of a state come in classic's order, and each
    calls the states classic's calls; a call passes a structure only in
    arguments where classic's passes one.  On the corpus they pass
    structures in the same calls (primes 12, queens 7, the others none).
    Classic may pass more where a widened state covers the successor:
    from ``acc`` state 10 it passes ``s(_V3)`` to state 11, whose
    conjunction knows the ``s/1``, so futamura's head holds it instead."""
    passing = Counter()
    for name, graph, classic, residual in _compilations(corpus):
        fnames = {f"mi__s{sid}": sid for sid in graph.states}
        cnames = {p: sid for sid, p in classic.state_predicates.items()}
        fclauses = _clauses_by_state(residual.program, fnames)
        cclauses = _clauses_by_state(classic.program, cnames)
        assert fclauses.keys() == cclauses.keys(), name
        for sid, clauses in cclauses.items():
            for fc, cc in zip(fclauses[sid], clauses, strict=True):
                fcalls = [a for a in fc.body if a.pred in fnames]
                ccalls = [a for a in cc.body if a.pred in cnames]
                assert [fnames[a.pred] for a in fcalls] == \
                    [cnames[a.pred] for a in ccalls], (name, sid)
                for f, c in zip(fcalls, ccalls):
                    at = _classic_positions(graph.states[fnames[f.pred]])
                    assert all(isinstance(c.args[j], Struct)
                               for t, j in zip(f.args, at)
                               if isinstance(t, Struct)), \
                        (name, print_atom(f), print_atom(c))
                    for side, call in (("futamura", f), ("classic", c)):
                        passing[name, side] += any(
                            isinstance(t, Struct) for t in call.args)
    for side in ("futamura", "classic"):
        assert [passing[name, side] for name in CORPUS_NAMES] == \
            [0, 12, 7, 0, 0]


def _state_specializer(tables):
    return _Specializer(tables.encoded, pd.interpreter_annotations(),
                        interpreter_filters(), 100, tables.graph.states)


def test_the_state_filter_binds_what_the_conjunction_knows(corpus):
    # state 10 is filter(g1,[],a1) , sift(a1,a2) , length(a2,g2)
    tables = corpus("primes").tables
    sp = _state_specializer(tables)
    call = sp.request(parse_atom(
        "mi([filter(P,L,F),sift(F,S),length(S,N)],10)"))
    assert print_atom(call) == "mi__s10(P,F,S,N)"
    assert sp.store == {Var("L"): Const("[]")}
    assert print_atom(sp.memo[0].call) == \
        "mi([filter(_V1,[],_V2),sift(_V2,_V3),length(_V3,_V4)],10)"
    # a later occurrence of a1 is unified with the first one's term
    sp.store.clear()
    call = sp.request(parse_atom(
        "mi([filter(P,[],f(X)),sift(f(Y),S),length(S,N)],10)"))
    assert print_atom(call) == "mi__s10(P,f(X),S,N)"
    assert sp.store == {Var("Y"): Var("X")}
    assert len(sp.memo) == 1
    # the one-block split of state 20 leads to state 10: the block's
    # unbound list is [] in the resultant's head
    heads = [c.head for c in corpus("primes").futamura.program.clauses
             if c.head.pred == "mi__s20" and c.body[0].pred == "mi__s10"]
    (head,) = heads
    (block,) = list_parts(head.args[0])[0]
    (goal,) = list_parts(block.args[0])[0]
    assert goal.functor == "filter" and goal.args[1] == Const("[]")


@pytest.mark.parametrize("goals", [
    "[filter(P,[a],F),sift(F,S),length(S,N)]",      # a constant
    "[filter(P,L,f(X)),sift(g(Y),S),length(S,N)]",  # a repeated variable
    "[filter(P,L,F),sift(F,S)]",                    # the goal list
    "[filter(P,L,F),sift(F,S),length(S,N),sift(S,T)]",
    "[sift(F,S),filter(P,L,F),length(S,N)]",        # an atom's predicate
])
def test_a_call_that_is_no_instance_of_its_state_is_an_error(corpus, goals):
    sp = _state_specializer(corpus("primes").tables)
    with pytest.raises(PDError) as err:
        sp.request(parse_atom(f"mi({goals},10)"))
    assert str(err.value) == (
        f"the call mi({goals},10) is not an instance of state 10's "
        "conjunction filter(g1,[],a1) , sift(a1,a2) , length(a2,g2)")
    assert sp.store == {}


def test_the_state_filter_needs_a_state_of_the_graph(corpus):
    tables = corpus("permsort").tables
    entry = parse_atom("mi([permsort(X,Y)],1)")
    with pytest.raises(PDError, match="needs the state graph"):
        specialize(tables.encoded, entry, pd.interpreter_annotations(),
                   interpreter_filters())
    with pytest.raises(PDError, match=r"^mi\(\[permsort\(X,Y\)\],99\) "
                                      "names no state of the graph$"):
        _state_specializer(tables).request(
            parse_atom("mi([permsort(X,Y)],99)"))


@pytest.mark.parametrize("text, message", [
    (text, "the state binding type is declared only as mi(state, static)")
    for text in ("p(state).", "mi(static,state).", "mi(state,dynamic).",
                 "mi(state,static,static).", "mi(list(state),static).",
                 "mi(nonvar ; state,static).")
] + [("mi(state ; nonvar,static).", "expected ')', found ';'")])
def test_the_state_type_is_only_the_goal_list_of_mi(text, message):
    with pytest.raises(ParseError) as err:
        parse_filters(text)
    assert str(err.value).startswith(f"{message} at line 1, column ")


def test_an_entry_pattern_with_a_repeated_variable_and_a_constant():
    """What the entry state's conjunction knows of the entry call is in
    the ``compute/1`` wrapper, as it is in classic's entry clause."""
    program = parse_program("p(X,Y,Z) :- q(X,Y,Z).\nq(a,a,[]).\n"
                            "q(b,b,[]).\nq(a,b,[]).\n")
    policy = parse_policy("entry: p(a1,a1,[]).\n")
    tables = build_tables(analyze(program, policy), program, policy)
    residual = specialize_encoded(tables)
    wrapper = [c for c in residual.program.clauses
               if c.head.pred == "compute"]
    assert [print_atom(c.head) for c in wrapper] == ["compute([p(X1,X1,[])])"]
    assert print_atom(residual.entry_call) == "mi__s1(X1)"
    classic = synthesize(tables.graph, program, policy).program
    for text in ("p(A,B,C)", "p(A,A,C)", "p(a,b,C)", "p(A,B,[])"):
        goal = parse_goal(text)
        wrapped = (Atom("compute", (mklist([atom_to_term(a)
                                            for a in goal]),)),)
        assert answer_set(solve(residual.program, wrapped)) == \
            answer_set(solve(classic, goal)), text
