"""Multi abstractions: case split, membership, folding, simplification."""

import random

import pytest

from ccontrol.absdom import FreshAVars, parse_aconj, print_aconj
from ccontrol.multi import (FoldEvent, Multi, case_split, simplify_conj,
                            try_fold)
from ccontrol.terms import parse_goal

from oracles import (Sampler, check_case_split_complete, conj_member,
                     multi_member)

CHAIN = ("multi((filter(mg1,ma1,ma2)), init{ma1=a1}, consec{ma1=ma2}, "
         "final{ma2=a2}, id=1)")


def chain_multi():
    conj = parse_aconj(CHAIN)
    assert isinstance(conj[0], Multi)
    return conj[0]


def test_multi_parse_print_round_trip():
    m = chain_multi()
    assert m.plen == 1
    assert parse_aconj(print_aconj((m,)))[0] == m


def test_case_split_shapes():
    m = chain_multi()
    one, one_sub, (head, rest) = case_split(m, FreshAVars.above((m,)))
    # one occurrence carries both the init and the final constraint
    assert print_aconj(one) == "filter(g1,a1,a2)"
    # the many case chains the rest's init to the head instance
    assert print_aconj(head) == "filter(g2,a1,a3)"
    assert rest.init_map[list(rest.init_map)[0]] is not None
    assert rest.consecutive == m.consecutive
    assert rest.final == m.final


def test_case_split_completeness_lengths_1_to_4():
    m = chain_multi()
    one, _, (head, rest) = case_split(m, FreshAVars.above((m,)))
    failures = check_case_split_complete(m, one, head, rest, seed=3)
    assert not failures, failures[:3]


def test_multi_member_rejects_broken_chain():
    m = chain_multi()
    good = parse_goal("filter(2,l0,l1) , filter(3,l1,l2)")
    bad = parse_goal("filter(2,l0,l1) , filter(3,lx,l2)")
    assert multi_member(list(good), m)
    assert not multi_member(list(bad), m)


def test_conj_member_splits_concrete_atoms_between_conjuncts():
    conj = parse_aconj("integers(g1,a1) , " + CHAIN)
    # the multi's init aliases with integers' second argument
    atoms = parse_goal(
        "integers(9,l0) , filter(2,l0,l1) , filter(3,l1,l2)")
    assert conj_member(list(atoms), conj)
    assert not conj_member(list(atoms[:1]), conj)   # multi needs n >= 1


def test_try_fold_new_forms_a_multi():
    conj = parse_aconj("integers(g1,a1) , filter(g2,a1,a2) , "
                       "filter(g3,a2,a3) , sift(a3,a4)")
    res = try_fold(conj)
    assert res is not None
    folded, ev = res
    assert ev == FoldEvent(1, 1, "new")
    assert isinstance(folded[1], Multi)
    assert len(folded) == 3


def test_try_fold_left_absorbs_preceding_block():
    conj = parse_aconj("filter(g9,a9,a1) , " + CHAIN)
    res = try_fold(conj)
    assert res is not None
    folded, ev = res
    assert ev.kind == "left" and len(folded) == 1
    assert isinstance(folded[0], Multi)


def test_try_fold_right_absorbs_following_block():
    conj = parse_aconj(CHAIN + " , filter(g9,a2,a9)")
    res = try_fold(conj)
    assert res is not None
    folded, ev = res
    assert ev.kind == "right" and len(folded) == 1


CHAIN2 = ("multi((filter(mg1,ma1,ma2)), init{ma1=a2}, "
          "consec{ma1=ma2}, final{ma2=a3}, id=2)")


def test_try_fold_merge_joins_two_multis():
    conj = parse_aconj(CHAIN + " , " + CHAIN2)
    res = try_fold(conj)
    assert res is not None
    folded, ev = res
    assert ev.kind == "merge" and len(folded) == 1


# a block before the chain, and one after it: each takes the free end
LEFT = "p(a2) , filter(g9,a9,a1) , " + CHAIN
RIGHT = CHAIN + " , filter(g9,a2,a9) , p(a1)"


@pytest.mark.parametrize("text, kind, printed", [
    (LEFT, "left", "p(a2) , multi((filter(mg1,ma1,ma2)), init{ma1=a9}, "
     "consec{ma1=ma2}, final{ma2=a2}, id=1)"),
    (RIGHT, "right", "multi((filter(mg1,ma1,ma2)), init{ma1=a1}, "
     "consec{ma1=ma2}, final{ma2=a9}, id=1) , p(a1)"),
], ids=["left", "right"])
def test_a_side_fold_moves_the_end_it_absorbs(text, kind, printed):
    folded, ev = try_fold(parse_aconj(text))
    assert ev == FoldEvent(1 if kind == "left" else 0, 1, kind)
    assert print_aconj(folded) == printed


EXTRA = {"init": CHAIN.replace("init{ma1=a1}", "init{ma1=a1,mg1=g5}"),
         "final": CHAIN.replace("final{ma2=a2}", "final{ma2=a2,mg1=g5}")}


@pytest.mark.parametrize("text", [
    # the block does not continue the chain
    "filter(g9,a9,a5) , " + CHAIN,
    CHAIN + " , filter(g9,a5,a9)",
    # an end constraint on a variable the chain does not carry
    "filter(g9,a9,a1) , " + EXTRA["init"],
    EXTRA["final"] + " , filter(g9,a2,a9)",
    # the old end's chain variable occurs outside the fold
    "filter(g9,a9,a1) , " + CHAIN + " , p(a1)",
    "p(a2) , " + CHAIN + " , filter(g9,a2,a9)",
], ids=["left-unchained", "right-unchained", "left-extra-init",
        "right-extra-final", "left-leak", "right-leak"])
def test_a_side_fold_is_refused(text):
    assert try_fold(parse_aconj(text)) is None


def test_fold_preserves_concrete_members():
    for text in ("integers(g1,a1) , filter(g2,a1,a2) , filter(g3,a2,a3) , "
                 "sift(a3,a4)", LEFT, RIGHT, CHAIN + " , " + CHAIN2):
        conj = parse_aconj(text)
        folded, _ = try_fold(conj)
        rng = random.Random(4)
        for _ in range(25):
            atoms = Sampler(random.Random(rng.random())).conjunction(conj)
            if conj_member(atoms, conj):
                assert conj_member(atoms, folded), (text, atoms)


def test_simplify_conj_keeps_positions():
    conj = parse_aconj("p(a1) , " + CHAIN + " , q(a2)")
    simplified = simplify_conj(conj)
    assert len(simplified) == len(conj)
    assert simplified[0] == conj[0]
