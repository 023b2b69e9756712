import json
import random
from itertools import combinations

import pytest

from conftest import BENCH, bench_problems, rand_example_set
from ltlqbe import horn
from ltlqbe.core import (
    Bot,
    DataInstance,
    Diamond,
    ExampleSet,
    Next,
    QueryClass,
    TOP,
    Until,
    atoms_conj,
    classify,
    conj,
    eval_data,
    in_class,
)
from ltlqbe.oracle import _all_subsets, brute_force_decide
from ltlqbe.qbe import Problem

D = DataInstance.of


# literal query streaming, the reference the oracle's truth vectors are
# checked against


def enumerate_queries(cls: QueryClass, sig, max_depth: int, max_conj: int):
    """Duplicate-free stream of class queries within the given bounds.

    max_conj caps conjunction width at a level and, for the branching and
    until-tree classes, the temporal branching factor.  Path classes stream
    single-spine chains; tree classes stream conjunction trees (left sides
    of untils are conjunctions or false, plus nested queries for the full
    class).  false itself is omitted: a query, but never informative.
    """
    names = sorted(set(sig))
    rhos = [atoms_conj(c) for c in _all_subsets(names) if len(c) <= max_conj]
    nonempty = [r for r in rhos if r is not TOP]
    seen: set[Query] = set()

    def emit(q):
        if q not in seen:
            seen.add(q)
            yield q

    if cls is QueryClass.PATH_DIAMOND:
        def chains(depth):
            if depth == 0:
                yield from nonempty
                return
            for tail in chains(depth - 1):
                for rho in nonempty:
                    yield conj([rho, Diamond(tail)])

        yield from (q for r in rhos for q in emit(r))
        for d in range(max_depth):
            for tail in chains(d):
                for rho in rhos:
                    yield from emit(conj([rho, Diamond(tail)]))
        return
    if cls in (
        QueryClass.PATH_NEXT_DIAMOND,
        QueryClass.PATH_DIAMOND_CIRC_BLOCKS,
        QueryClass.PATH_UNTIL,
    ):
        if cls is QueryClass.PATH_UNTIL:
            lefts = [Bot()] + rhos

            def steps(tail):
                for l in lefts:
                    yield Until(l, tail)

        else:

            def steps(tail):
                yield Next(tail)
                yield Diamond(tail)

        def chains(depth):
            yield from rhos
            if depth == 0:
                return
            for tail in chains(depth - 1):
                for step in steps(tail):
                    for rho in rhos:
                        yield conj([rho, step])

        for q in chains(max_depth):
            if in_class(q, cls):
                yield from emit(q)
        return
    if cls in (
        QueryClass.BRANCH_DIAMOND,
        QueryClass.BRANCH_NEXT_DIAMOND,
        QueryClass.SIMPLE_UNTIL,
        QueryClass.FULL_UNTIL,
    ):
        def trees(depth):
            yield from rhos
            if depth == 0:
                return
            subs = list(dict.fromkeys(trees(depth - 1)))
            if cls is QueryClass.BRANCH_DIAMOND:
                step_list = [Diamond(t) for t in subs]
            elif cls is QueryClass.BRANCH_NEXT_DIAMOND:
                step_list = [op(t) for t in subs for op in (Next, Diamond)]
            else:
                lefts = [Bot()] + nonempty
                if cls is QueryClass.FULL_UNTIL:
                    lefts = lefts + subs
                step_list = [Until(l, t) for t in subs for l in lefts]
            for rho in rhos:
                for width in range(1, max_conj + 1):
                    for kids in combinations(range(len(step_list)), width):
                        yield conj([rho] + [step_list[k] for k in kids])

        for q in trees(max_depth):
            if isinstance(q, Bot):
                continue
            if in_class(q, cls):
                yield from emit(q)
        return
    raise ValueError(f"unknown class {cls}")


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


@pytest.mark.parametrize("name", ["diamond-plain", "until-plain", "horn-explore", "prior-diamond"])
def test_oracle_reproduces_the_bench_oracle_file(name):
    """The first 100 sets of seed 1, every class, against the committed
    perfbench/oracle/<workload>.json ("?" marks a capped verdict)."""
    expected = json.loads((BENCH / "oracle" / f"{name}.json").read_text())["seeds"]["1"]
    calls = (p for problems in bench_problems(name, 1, 100) for p in problems)
    for k, p in enumerate(calls):
        if expected[k] != "?":
            assert "01"[brute_force_decide(p).separable] == expected[k], (k, p)
