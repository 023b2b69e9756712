"""A negative that holds a positive: `decide` answers not separable without a
search when some negative's lower word (its `models` word, else its own
facts) holds each fact of one positive at the fact's folded position, under
any ontology (`qbe._holds_a_positive`)."""

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


# box/diamond sets whose positive {A@1} or {A@9, D@0} has no least word, and
# whose negative's least word holds that positive's facts though its own
# facts do not; in the last, A@9 is read in the word's loop
_LOWER_WORD_SETS = [
    ("C -> A\nA -> F B", [[("A", 1)]], [[("C", 1), ("B", 3)]]),
    ("C -> A\nA -> F B", [[("A", 1)], [("A", 2), ("B", 5)]], [[("B", 0)], [("C", 1), ("B", 3)]]),
    ("true -> A\nD -> F B", [[("A", 9), ("D", 0)]], [[("D", 0), ("B", 2)]]),
]


def test_a_negative_with_a_positive_s_facts_separates_in_no_class(monkeypatch):
    # a model of a negative is a model of each positive whose facts hold in
    # the negative's lower word, least word or not: wherever the check
    # fires, each class's own route, with both checks off and no known
    # verdicts, finds the set not separable or raises
    held = [(e, onto) for e, onto in _wordless_sets() if _fires(e, onto)]
    kept = [_kept(e, onto)[0] for e, onto in held]
    assert sum(any(d <= n for d in k.positives for n in k.negatives) for k in kept) >= 40
    for text, pos, neg in _LOWER_WORD_SETS:
        onto, e = prior.load_prior_ontology(text), ex(pos, neg)
        assert qbe.models(onto, e.positives[0]) is None and not any(d <= n for d in e.positives for n in e.negatives)
        assert _fires(e, onto), text
        held.append((e, onto))
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
        # prefix 2, loop 1: past the prefix only the loop letter is read
        ([("A", 3)], _lasso("AB .", "A"), True),
        ([("B", 2)], _lasso("AB .", "A"), False),
        # prefix 1, loop 2: A at the odd positions from 1 on
        ([("A", 4)], _lasso(".", "A ."), False),  # out of phase
        ([("A", 5), ("A", 1)], _lasso(".", "A ."), True),  # in phase
        # prefix 2, loop 3: positions 2 3 4 5 6 7 read A . A A . A
        ([("A", 6)], _lasso(". B", "A . A"), False),  # out of phase
        ([("B", 4)], _lasso(". B", "A . A"), False),  # B only in the prefix
        ([("A", 7), ("B", 1)], _lasso(". B", "A . A"), True),  # in phase
        # no prefix, loop 2: one fact of two missing
        ([("A", 2), ("C", 2)], _lasso("", "A ."), False),
    ],
)
def test_words_are_compared_over_their_common_period(positive, negative, holds):
    # the negative's own facts are apart from the positive's, so its lower
    # word decides, read at each fact's folded position; a positive's
    # `models` takes no part
    apart = ex([positive], [[("N", 0)]])
    assert qbe._holds_a_positive(apart, [None, (negative,)]) is holds
    # a negative with no word is read as its facts: {N@1} holds nothing
    apart = ex([positive, [("P", 0)]], [[("N", 0)], [("N", 1)]])
    assert qbe._holds_a_positive(apart, [None, None, (negative,), None]) is holds


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
