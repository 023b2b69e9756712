import random

import pytest

from conftest import rand_example_set
from ltlqbe import horn
from ltlqbe.core import (
    DataInstance,
    ExampleSet,
    QueryClass,
    classify,
    eval_data,
    parse_query,
    temporal_depth,
)
from ltlqbe.oracle import brute_force_decide, enumerate_queries
from ltlqbe.qbe import Problem

D = DataInstance.of


def test_enumerate_depth_zero():
    out = set(map(str, enumerate_queries(QueryClass.PATH_DIAMOND, ["A"], 0, 1)))
    assert out == {"true", "A"}


def test_enumerate_depth_one_includes():
    out = set(map(str, enumerate_queries(QueryClass.PATH_DIAMOND, ["A"], 1, 1)))
    assert "F A" in out and "A & F A" in out


def test_enumerate_counts_closed_form():
    # diamond paths over {A, B}, conjunction width <= 2, depth <= 2:
    # heads are any of 4 conjunctions, every diamond lands on one of the
    # 3 nonempty ones, so 4 + 4*3 + 4*3*3 shapes
    out = list(enumerate_queries(QueryClass.PATH_DIAMOND, ["A", "B"], 2, 2))
    assert len(out) == len(set(out))
    assert len(out) == 4 + 4 * 3 + 4 * 9
    for q in out:
        assert QueryClass.PATH_DIAMOND in classify(q)


def test_enumerate_monotone_in_bounds():
    small = set(enumerate_queries(QueryClass.SIMPLE_UNTIL, ["A"], 1, 1))
    big = set(enumerate_queries(QueryClass.SIMPLE_UNTIL, ["A"], 2, 1))
    assert small <= big
    small_d = set(enumerate_queries(QueryClass.PATH_DIAMOND, ["A", "B"], 1, 1))
    big_d = set(enumerate_queries(QueryClass.PATH_DIAMOND, ["A", "B"], 2, 2))
    assert small_d <= big_d


def test_enumerate_respects_class():
    for cls in QueryClass:
        for q in enumerate_queries(cls, ["A", "B"], 2, 1):
            assert cls in classify(q)


def test_brute_force_trivial():
    e = ExampleSet.of([D([("A", 1)])], [D([("A", 1)])])
    for cls in QueryClass:
        assert not brute_force_decide(Problem(cls, e)).separable
    lopsided = ExampleSet.of([D([("A", 1)])], [])
    assert brute_force_decide(Problem(QueryClass.FULL_UNTIL, lopsided)).separable


def test_brute_force_witness_reverifies():
    rng = random.Random(31)
    for _ in range(20):
        e = rand_example_set(rng, max_ts=4, max_pos=2, max_neg=2)
        for cls in (QueryClass.PATH_DIAMOND, QueryClass.SIMPLE_UNTIL):
            v = brute_force_decide(Problem(cls, e))
            if v.separable:
                assert cls in classify(v.witness)
                assert all(eval_data(d, v.witness, 0) for d in e.positives)
                assert not any(eval_data(d, v.witness, 0) for d in e.negatives)


def test_brute_force_agrees_with_enumeration():
    # cross-check the vector machinery against literal query streaming
    rng = random.Random(77)
    for _ in range(25):
        e = rand_example_set(rng, atoms=("A", "B"), max_ts=2, max_pos=2, max_neg=2)
        p = Problem(QueryClass.PATH_DIAMOND, e)
        fast = brute_force_decide(p)
        slow = None
        for q in enumerate_queries(QueryClass.PATH_DIAMOND, ["A", "B"], 3, 2):
            if all(eval_data(d, q, 0) for d in e.positives) and not any(
                eval_data(d, q, 0) for d in e.negatives
            ):
                slow = q
                break
        assert fast.separable == (slow is not None)


def test_brute_force_paper_examples():
    ex1 = ExampleSet.of(
        [D([("T", 2), ("V", 4)]), D([("T", 1), ("V", 4)])],
        [D([("T", 1)]), D([("V", 4)]), D([("V", 1), ("T", 2)])],
    )
    assert brute_force_decide(Problem(QueryClass.PATH_DIAMOND, ex1)).separable
    ex2 = ExampleSet.of(
        [D([("T", 2), ("V", 4)]), D([("V", 1), ("T", 4)])],
        [D([("T", 1)]), D([("V", 4)])],
    )
    assert not brute_force_decide(Problem(QueryClass.PATH_DIAMOND, ex2)).separable
    assert brute_force_decide(Problem(QueryClass.BRANCH_DIAMOND, ex2)).separable
    upnt = ExampleSet.of(
        [D([("B", 2), ("C", 2)]), D([("A", 2), ("B", 3), ("B", 4), ("C", 4)])],
        [D([("A", 2), ("B", 3), ("B", 5), ("C", 5)])],
    )
    assert brute_force_decide(Problem(QueryClass.FULL_UNTIL, upnt)).separable
    assert not brute_force_decide(Problem(QueryClass.SIMPLE_UNTIL, upnt)).separable


def test_brute_force_keeps_everywhere_true_conjunction():
    # A holds at every position of both canonical models, so the diamond
    # steps of the witness land on A-blocks, not on all-top ones
    o = horn.load_ontology("A -> X A")
    e = ExampleSet.of(
        [D([("A", 0), ("A", 3), ("B", 3)])],
        [D([("A", 0), ("A", 1), ("A", 2), ("B", 1)])],
    )
    assert brute_force_decide(Problem(QueryClass.PATH_DIAMOND, e, o)).separable
