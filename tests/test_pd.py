"""Offline specialization of the encoded interpreter."""

from collections import Counter

import pytest

from ccontrol import pd
from ccontrol.analysis import AnalysisOptions, analyze
from ccontrol.engine import solve
from ccontrol.metaint import build_tables, encode_as_logic_program
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
                            print_program, print_term, term_vars)

from conftest import CORPUS_NAMES, answer_set
from oracles import (block_filter_text, interpreter_annotation_text,
                     interpreter_filter_text, reference_generalize_call)


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
    for filters in (None, parse_filters(block_filter_text())):
        before = len(requests)
        for name in CORPUS_NAMES:
            specialize_encoded(corpus(name).tables, filters=filters)
        for tables in _small_tables():
            specialize_encoded(tables, filters=filters)
        counts.append(len(requests) - before)
    # memo requests: 158 on the corpus and 71 on the small programs under
    # the default filters, 203 and 71 under the block filters
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
PD_SIZES = {"permsort": ("simple", 201, 10, 13),
            "primes": ("extended", 1726, 54, 70),
            "queens": ("extended", 1390, 42, 52),
            "zigzag": ("simple", 320, 15, 19),
            "countdown": ("simple", 201, 10, 13)}


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

