"""A negative that holds a positive: `decide` answers not separable without a
search when some negative's facts contain a positive's, under any ontology,
or its `models` words each lie above a word of one positive
(`qbe._holds_a_positive`)."""

import random

import pytest

from conftest import rand_example_set, rand_horn_ontology
from ltlqbe import horn, prior, qbe
from ltlqbe.core import LassoModel, QueryClass
from ltlqbe.qbe import Problem, UnsupportedProblem, Verdict, decide
from test_lattice import _answer
from test_qbe import _prior_ontology, _two_sided_set, ex


def _kept(e, onto):
    """The set's examples after `_drop_inconsistent` and their `models`, or
    None when a negative has no model."""
    kept, found, early, _ = qbe._drop_inconsistent(e, onto)
    return None if early is not None else (kept, found)


def _fires(e, onto) -> bool:
    kept = _kept(e, onto)
    return kept is not None and qbe._holds_a_positive(*kept)


def _sets(kind: str) -> list:
    rng = random.Random({"plain": 57000, "horn": 58000, "box/diamond": 59000}[kind])
    if kind == "plain":
        return [(rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3), None) for _ in range(300)]
    if kind == "horn":
        sets = []
        for _ in range(100):
            onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
            sets.append((_two_sided_set(rng, ("A", "B"), 3), onto))
        return sets
    sets = []
    while len(sets) < 60:  # every instance with a least word
        onto = _prior_ontology(rng)
        e = _two_sided_set(rng, ("A", "B"), 2)
        if all(qbe.models(onto, d) is not None for d in e.instances):
            sets.append((e, onto))
    return sets


# the least number of sets, of 300 plain, 100 Horn and 60 box/diamond, on
# which the check fires
_MIN_FIRES = {"plain": 70, "horn": 40, "box/diamond": 25}


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_a_holding_negative_separates_in_no_class(monkeypatch, kind):
    # wherever the check fires, each class's own route, with the check off
    # and no known verdicts, finds the set not separable or raises as well
    held = [(e, onto) for e, onto in _sets(kind) if _fires(e, onto)]
    assert len(held) >= _MIN_FIRES[kind]
    for e, onto in held:
        for cls in QueryClass:
            qbe._record.cache_clear()
            answer = _answer(Problem(cls, e, onto))
            with monkeypatch.context() as m:
                m.setattr(qbe, "_holds_a_positive", lambda *a: False)
                m.setattr(qbe, "_share_no_atom", lambda *a: False)
                qbe._record.cache_clear()
                assert _answer(Problem(cls, e, onto)) == answer, (cls, e, onto)
            assert answer is False or answer == "UnsupportedProblem"


def _wordless_sets() -> list:
    """Box/diamond sets in which some instance has no least word."""
    rng = random.Random(60000)
    sets = []
    while len(sets) < 120:
        onto = _prior_ontology(rng)
        e = _two_sided_set(rng, ("A", "B"), 2)
        if any(qbe.models(onto, d) is None for d in e.instances):
            sets.append((e, onto))
    return sets


def test_a_negative_with_a_positive_s_facts_separates_in_no_class(monkeypatch):
    # a model of a negative is a model of each positive whose facts it
    # contains, word or not: wherever the check fires, each class's own
    # route, with both checks off and no known verdicts, finds the set not
    # separable or raises
    held = [(e, onto) for e, onto in _wordless_sets() if _fires(e, onto)]
    kept = [_kept(e, onto)[0] for e, onto in held]
    assert sum(any(d <= n for d in k.positives for n in k.negatives) for k in kept) >= 40
    monkeypatch.setattr(qbe, "_holds_a_positive", lambda *a: False)
    monkeypatch.setattr(qbe, "_share_no_atom", lambda *a: False)
    for e, onto in held:
        for cls in QueryClass:
            qbe._record.cache_clear()
            answer = _answer(Problem(cls, e, onto))
            assert answer is False or answer == "UnsupportedProblem", (cls, e, onto)


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_with_one_positive_the_check_is_path_next_diamond(monkeypatch, kind):
    # one positive's word, cut after the last position a negative misses,
    # is a path-next-diamond query; so that class separates exactly when no
    # negative holds the positive
    check = qbe._holds_a_positive
    monkeypatch.setattr(qbe, "_holds_a_positive", lambda *a: False)
    seen = []
    for e, onto in _sets(kind):
        kept = _kept(e, onto)
        if kept is None or len(kept[0].positives) != 1 or not kept[0].negatives:
            continue
        qbe._record.cache_clear()
        separable = decide(Problem(QueryClass.PATH_NEXT_DIAMOND, e, onto)).separable
        assert check(*kept) is not separable, (e, onto)
        seen.append(separable)
    assert {True, False} <= set(seen)


def _lasso(prefix: str, loop: str) -> LassoModel:
    """A lasso from letters written as strings of one-letter atoms, '.' empty."""
    return LassoModel(*(tuple(frozenset(c.strip(".")) for c in part.split()) for part in (prefix, loop)))


@pytest.mark.parametrize(
    "positive, negative, holds",
    [
        # prefixes of different lengths
        (_lasso("", "A"), _lasso("AB", "A"), True),
        (_lasso("AB", "A"), _lasso("", "A"), False),
        (_lasso(".", "A"), _lasso(". A", "A ."), False),  # apart at 3, past both prefixes
        (_lasso(". A", "A ."), _lasso(".", "A"), True),
        # coprime loops of 2 and 3: equal on the first max(pre) + max(per)
        # = 3 positions, apart at 4 < lcm = 6
        (_lasso("", "A ."), _lasso("", "A . A"), False),
        (_lasso("", "A . A"), _lasso("", "A ."), False),
        (_lasso("", "A ."), _lasso("", "AB A A"), True),
        (_lasso(".", "A ."), _lasso("B", "A . A"), False),
    ],
)
def test_words_are_compared_over_their_common_period(positive, negative, holds):
    # the facts are apart, so the words decide
    apart = ex([[("P", 0)]], [[("N", 0)]])
    assert qbe._holds_a_positive(apart, [(positive,), (negative,)]) is holds
    apart = ex([[("P", 0)], [("P", 1)]], [[("N", 0)], [("N", 1)]])
    assert qbe._holds_a_positive(apart, [None, (positive,), (negative,), None]) is holds


def test_an_instance_without_a_least_word_still_raises_first():
    # {A@1} has no least word under A -> F B; {B@2, B@4} holds {B@2}
    o = prior.load_prior_ontology("A -> F B")
    e = ex([[("A", 1)], [("B", 2)]], [[("B", 2), ("B", 4)]])
    assert qbe.models(o, e.positives[0]) is None and _fires(e, o)
    assert not decide(Problem(QueryClass.PATH_DIAMOND, e, o)).separable
    for cls in QueryClass:
        if cls not in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
            with pytest.raises(UnsupportedProblem):
                decide(Problem(cls, e, o))


def test_inconsistent_examples_keep_their_notes():
    o = horn.load_ontology("A -> false")
    inconsistent_negative = ex([[("B", 0)]], [[("A", 0)], [("B", 0)]])
    dropped_positive = ex([[("A", 0)], [("B", 0)]], [[("B", 0), ("C", 1)]])
    assert _fires(dropped_positive, o)
    for cls in QueryClass:
        v = decide(Problem(cls, inconsistent_negative, o))
        assert v == Verdict(False, note="a negative example is inconsistent with the ontology")
        v = decide(Problem(cls, dropped_positive, o))
        assert v == Verdict(False, note="dropped 1 inconsistent positive(s)")
