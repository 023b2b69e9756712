"""Positives in which no atom is anchored, and a set's record: `decide`
makes one record per example set (`qbe._record`), which drops the
inconsistent positives once and, when a negative holds a positive or no atom
is anchored in the positives' `models` words (`qbe._share_no_atom`), keeps
every class not separable.  An atom is anchored when it holds at 0 in every
word, or after 0 in every word; the check once fired only when no atom was
in every word (`_share_none`), and it still fires there."""

import random

import pytest

from conftest import kept_record, rand_horn_ontology, rand_instance
from ltlqbe import horn, prior, qbe, tsys
from ltlqbe.core import DataInstance, ExampleSet, QueryClass, parse_query
from ltlqbe.qbe import Problem, UnsupportedProblem, Verdict, decide
from test_holds import _kept
from test_qbe import ex

_ATOMS = ("A", "B", "C")


def _fires(e, onto, check=None) -> bool:
    kept = _kept(e, onto)
    return kept is not None and (check or qbe._share_no_atom)(kept[1][: len(kept[0].positives)])


def _share_none(pos: list) -> bool:
    """The check as it was: every positive has one word and no atom is in all."""
    return None not in pos and not frozenset.intersection(*(frozenset(word.word[0]) for (word,) in pos))


def _sets(kind: str) -> list:
    """Sets of two or three positives, each over one or two atoms of its
    own draw, so that they often share none, and one or two negatives."""
    rng = random.Random({"plain": 61000, "horn": 62000}[kind])
    sets = []
    for _ in range(200 if kind == "plain" else 70):
        pos = [rand_instance(rng, rng.sample(_ATOMS, rng.randint(1, 2)), 3, 3) for _ in range(rng.randint(2, 3))]
        neg = [rand_instance(rng, _ATOMS, 3, 3) for _ in range(rng.randint(1, 2))]
        onto = None if kind == "plain" else rand_horn_ontology(rng, atoms=_ATOMS, max_axioms=3)
        sets.append((ExampleSet.of(pos, neg), onto))
    return sets


# the least number of sets, of 200 plain and 70 Horn, on which the check
# fires, and of those, on which no negative holds a positive
_MIN_FIRES = {"plain": (150, 50), "horn": (40, 15)}


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_positives_that_share_no_atom_separate_in_no_class(monkeypatch, kind):
    # wherever the check fires, each class's own route, with both checks
    # off and no known verdicts, finds the set not separable as well
    fired = [(e, onto) for e, onto in _sets(kind) if _fires(e, onto)]
    held = [qbe._holds_a_positive(*_kept(e, onto)) for e, onto in fired]
    assert len(fired) >= _MIN_FIRES[kind][0] and held.count(False) >= _MIN_FIRES[kind][1]
    monkeypatch.setattr(qbe, "_share_no_atom", lambda *a: False)
    monkeypatch.setattr(qbe, "_holds_a_positive", lambda *a: False)
    for e, onto in fired:
        for cls in QueryClass:
            qbe._record.cache_clear()
            assert not decide(Problem(cls, e, onto)).separable, (cls, e, onto)


def _apart_positive(rng: random.Random) -> DataInstance:
    """One or two atoms, each at 0 or each only after 0."""
    facts = set()
    for a in rng.sample(_ATOMS, rng.randint(1, 2)):
        late = rng.random() < 0.5
        facts |= {(a, rng.randint(1, 3) if late else 0) for _ in range(rng.randint(1, 2))}
    return DataInstance.of(facts)


def _apart_sets(kind: str) -> list:
    """Sets of two or three positives that often share atoms at different
    anchors, as {A@0} and {A@2} do, and one or two negatives."""
    rng = random.Random({"plain": 63000, "horn": 64000}[kind])
    sets = []
    for _ in range(200 if kind == "plain" else 100):
        pos = [_apart_positive(rng) for _ in range(rng.randint(2, 3))]
        neg = [rand_instance(rng, _ATOMS, 3, 3) for _ in range(rng.randint(1, 2))]
        onto = None if kind == "plain" else rand_horn_ontology(rng, atoms=_ATOMS, max_axioms=3)
        sets.append((ExampleSet.of(pos, neg), onto))
    return sets


# the least number of sets, of 200 plain and 100 Horn, on which the check
# fires where the positives share an atom, and of those, on which no
# negative holds a positive
_MIN_APART = {"plain": (60, 50), "horn": (20, 15)}


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_positives_with_no_anchored_atom_separate_in_no_class(monkeypatch, kind):
    # where the positives share an atom, but none at 0 in all of them or
    # after 0 in all, each class's own route, with both checks off and no
    # known verdicts, finds the set not separable
    fired = [(e, onto) for e, onto in _apart_sets(kind) if _fires(e, onto) and not _fires(e, onto, _share_none)]
    held = [qbe._holds_a_positive(*_kept(e, onto)) for e, onto in fired]
    assert len(fired) >= _MIN_APART[kind][0] and held.count(False) >= _MIN_APART[kind][1]
    monkeypatch.setattr(qbe, "_share_no_atom", lambda *a: False)
    monkeypatch.setattr(qbe, "_holds_a_positive", lambda *a: False)
    for e, onto in fired:
        for cls in QueryClass:
            qbe._record.cache_clear()
            assert not decide(Problem(cls, e, onto)).separable, (cls, e, onto)


def test_a_loop_from_0_anchors_after_0():
    # A -> X A makes {A@0}'s word A^ω, a loop that starts at 0: A holds
    # after 0 there as in {A@2}
    onto = horn.load_ontology("A -> X A")
    e = ex([[("A", 0)], [("A", 2)]], [[("B", 0)]])
    assert not _fires(e, onto)
    for cls in QueryClass:
        assert decide(Problem(cls, e, onto)) == Verdict(True, parse_query("F A")), cls


_APART = ex([[("A", 1)], [("B", 1)]], [[("C", 0)]])
# C is in both positives, at 0 in one and only after 0 in the other
_C_APART = ex([[("C", 0), ("B", 3)], [("C", 2)]], [[("A", 0), ("B", 2)]])


def test_positives_apart_search_nothing(monkeypatch):
    calls = []
    for module, name in (
        (qbe, "dp_path"),
        (qbe, "_simulates_product"),
        (qbe, "_reduced_system"),
        (tsys, "_play"),
        (qbe, "failing_run"),
    ):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    for e in (_APART, _C_APART):
        for cls in QueryClass:
            assert decide(Problem(cls, e)) == Verdict(False), (cls, e)
    assert calls == []


def test_a_shared_atom_separates():
    # A after 0 in both positives, then A at 0 in both
    for e in (
        ex([[("A", 1)], [("A", 2)]], [[("C", 0)]]),
        ex([[("A", 0)], [("A", 0), ("B", 3)]], [[("B", 0)]]),
    ):
        assert not _fires(e, None)
        for cls in QueryClass:
            assert decide(Problem(cls, e)).separable, (cls, e)


def test_the_atoms_are_the_canonical_models():
    # A -> B gives both positives B, which the data lacks
    onto = horn.load_ontology("A -> B")
    assert not _fires(_APART, onto)
    for cls in QueryClass:
        assert decide(Problem(cls, _APART, onto)).separable, cls


def test_a_positive_without_a_least_word_turns_the_check_off(monkeypatch):
    # {A@1} has no least word under A -> F B; the other positives' words,
    # taken alone, share no atom
    o = prior.load_prior_ontology("A -> F B")
    e = ex([[("A", 1)], [("B", 1)], [("C", 1)]], [[("C", 0)]])
    assert qbe.models(o, e.positives[0]) is None and not _fires(e, o)
    searches = []
    search = qbe.prior_path_search
    monkeypatch.setattr(qbe, "prior_path_search", lambda *a, **k: searches.append(a) or search(*a, **k))
    assert not decide(Problem(QueryClass.PATH_DIAMOND, e, o)).separable
    assert len(searches) == 1


def test_a_negative_without_a_least_word_still_raises_first():
    # the positives' words share no atom; {A@1} has no least word
    o = prior.load_prior_ontology("A -> F B")
    e = ex([[("C", 1)], [("D", 1)]], [[("A", 1)]])
    assert qbe.models(o, e.negatives[0]) is None and _fires(e, o)
    for cls in QueryClass:
        if cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
            assert decide(Problem(cls, e, o)) == Verdict(False)
        else:
            with pytest.raises(UnsupportedProblem):
                decide(Problem(cls, e, o))


@pytest.mark.parametrize(
    "e, held",
    [
        # the positives share A, and {A@1, C@2} holds the positive {A@1}
        (ex([[("A", 1)], [("A", 2), ("B", 3)]], [[("A", 1), ("C", 2)]]), True),
        # no certificate: every class runs its own route
        (ex([[("A", 1), ("B", 2)], [("A", 1)]], [[("A", 2)], [("B", 1)]]), False),
    ],
    ids=["held", "no certificate"],
)
def test_a_set_drops_and_checks_once_for_every_class(monkeypatch, e, held):
    counts = {"_drop_inconsistent": 0, "_holds_a_positive": 0}
    for name in counts:
        fn = getattr(qbe, name)
        monkeypatch.setattr(qbe, name, lambda *a, fn=fn, name=name: counts.__setitem__(name, counts[name] + 1) or fn(*a))
    verdicts = [decide(Problem(cls, e)) for cls in QueryClass]
    assert counts == {"_drop_inconsistent": 1, "_holds_a_positive": 1}
    assert held is not any(v.separable for v in verdicts)
    if held:
        record = kept_record(e)
        assert record == dict.fromkeys(QueryClass, Verdict(False))
