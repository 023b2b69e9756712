import random

import pytest

from conftest import compile_next_to_diamond, rand_example_set
from ltlqbe import qbe
from ltlqbe.core import DataInstance, ExampleSet, QueryClass
from ltlqbe.oracle import brute_force_decide
from ltlqbe.qbe import Problem, decide
from ltlqbe.transform import split_per_negative
from test_acceptance import merge_negatives_for_path_until

D = DataInstance.of


def test_split_per_negative():
    e = ExampleSet.of([D([("A", 1)])], [D([("B", 1)]), D([("B", 2)])])
    parts = split_per_negative(e)
    assert len(parts) == 2
    assert all(part.positives == e.positives and len(part.negatives) == 1 for part in parts)
    assert split_per_negative(ExampleSet.of([D([])], [])) == []


def test_split_on_motivating_example():
    e = ExampleSet.of(
        [D([("T", 2), ("V", 4)]), D([("T", 1), ("V", 4)])],
        [D([("T", 1)]), D([("V", 4)]), D([("V", 1), ("T", 2)])],
    )
    parts = split_per_negative(e)
    assert len(parts) == 3
    for part in parts:
        assert decide(Problem(QueryClass.PATH_DIAMOND, part)).separable


def test_merge_negatives_layout():
    # two positives and two negatives, as in the pad construction picture
    e = ExampleSet.of(
        [D([("A", 1), ("B0", 2)]), D([("A", 2)])],
        [D([("A", 1)]), D([("B0", 1)])],
    )
    out = merge_negatives_for_path_until(e, pad_b="PB", pad_c="PC")
    m = max(d.max_timestamp for d in e.instances) + 2
    first, second = out.positives
    assert ("PB", 1) in first.facts and ("A", 2) in first.facts
    assert ("PB", m) in second.facts and ("A", m + 2) in second.facts
    (neg,) = out.negatives
    assert ("PB", m) in neg.facts and ("PB", 3 * m) in neg.facts
    assert ("A", m + 1) in neg.facts and ("B0", 3 * m + 1) in neg.facts
    # the pad fills the stretch after each block with PC
    assert ("PC", 2 * m - 1) in neg.facts and ("PC", 4 * m - 1) in neg.facts


def test_merge_negatives_pad_clash():
    e = ExampleSet.of([D([("B", 1)])], [])
    with pytest.raises(ValueError):
        merge_negatives_for_path_until(e)


def test_merge_negatives_empty_negatives():
    e = ExampleSet.of([D([("A", 1)])], [])
    out = merge_negatives_for_path_until(e)
    assert len(out.negatives) == 1 and out.negatives[0].facts == frozenset()


def test_merge_negatives_strips_time_zero():
    e = ExampleSet.of(
        [D([("A", 0), ("A", 1)]), D([("A", 0), ("A", 2)])],
        [D([("A", 1)]), D([("A", 0), ("A", 1)])],
    )
    out = merge_negatives_for_path_until(e)
    # the first negative misses the shared time-0 atom and is dropped
    (neg,) = out.negatives
    blocks = [t for a, t in neg.facts if a == "B"]
    assert len(blocks) == 1


@pytest.mark.parametrize("seed", range(25))
def test_merge_preserves_path_until_verdict(seed):
    rng = random.Random(500 + seed)
    e = rand_example_set(rng, atoms=("A", "D"), max_ts=3, max_pos=2, max_neg=2)
    out = merge_negatives_for_path_until(e)
    before = brute_force_decide(Problem(QueryClass.PATH_UNTIL, e))
    after = brute_force_decide(Problem(QueryClass.PATH_UNTIL, out))
    assert before.separable == after.separable
    engine_before = decide(Problem(QueryClass.PATH_UNTIL, e))
    engine_after = decide(Problem(QueryClass.PATH_UNTIL, out))
    assert engine_before.separable == before.separable
    assert engine_after.separable == after.separable


def test_compile_example():
    e = ExampleSet.of([D([("A", 1), ("B", 3)])], [])
    out = compile_next_to_diamond(e)
    d = out.positives[0]
    assert ("A__1", 0) in d.facts and ("B__3", 0) in d.facts
    assert ("B__2", 1) in d.facts and ("B__1", 2) in d.facts


def test_compile_time_zero_only():
    e = ExampleSet.of([D([("A", 0)])], [])
    out = compile_next_to_diamond(e)
    assert out.positives[0].facts == frozenset({("A", 0)})


def test_compile_clash():
    e = ExampleSet.of([D([("A", 1), ("A__1", 0)])], [])
    with pytest.raises(ValueError):
        compile_next_to_diamond(e)


def test_compile_makes_next_example_diamond_separable():
    e = ExampleSet.of([D([("A", 1)])], [D([("A", 2)])])
    out = compile_next_to_diamond(e)
    v = brute_force_decide(Problem(QueryClass.BRANCH_DIAMOND, out))
    assert v.separable  # F A__1 read at 0


@pytest.mark.parametrize("seed", range(25))
def test_compile_preserves_next_diamond_verdict(seed):
    rng = random.Random(900 + seed)
    e = rand_example_set(rng, atoms=("A", "B"), max_ts=3, max_pos=2, max_neg=2)
    out = compile_next_to_diamond(e)
    before = brute_force_decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, e))
    after = brute_force_decide(Problem(QueryClass.BRANCH_DIAMOND, out))
    assert before.separable == after.separable
    assert decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, e)).separable == before.separable
    assert decide(Problem(QueryClass.BRANCH_DIAMOND, out)).separable == after.separable


@pytest.mark.parametrize("seed", range(15))
def test_split_matches_conjunction_of_verdicts(seed):
    rng = random.Random(1300 + seed)
    e = rand_example_set(rng, max_ts=4, max_pos=2, max_neg=3)
    for cls in (
        QueryClass.BRANCH_DIAMOND,
        QueryClass.BRANCH_NEXT_DIAMOND,
        QueryClass.SIMPLE_UNTIL,
        QueryClass.FULL_UNTIL,
    ):
        # each decision on its own route, not from an earlier class's verdict
        qbe._record.cache_clear()
        whole = decide(Problem(cls, e)).separable
        split = True
        for part in split_per_negative(e):
            qbe._record.cache_clear()
            split = split and decide(Problem(cls, part)).separable
        assert whole == split
