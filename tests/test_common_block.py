"""The positives' common block, `qbe._common_block`: the letters that all
positives' `models` words share at 0, 1, 2, …, cut to the shortest prefix
that every negative's word fails.  Its X-chain answers every class with X
before any search, and each of those classes' own routes must agree."""

import random

import pytest

from conftest import module_caches, rand_example_set, rand_horn_ontology
from ltlqbe import qbe, tsys
from ltlqbe.core import DataInstance, ExampleSet, QueryClass, in_class, parse_query
from ltlqbe.qbe import Problem, WitnessError, decide
from test_qbe import _two_sided_set

D = DataInstance.of
X_CLASSES = [cls for cls in QueryClass if cls not in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND)]


def _clear():
    for cache in module_caches().values():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    _clear()
    yield
    _clear()


def _block(e, onto):
    """The block's verdict for the set, or None where it does not reach the
    block: an early answer, a check that settles it, or a word missing."""
    known = qbe._record(e, onto)
    kept, found, early, _ = known.dropped
    if early is not None or not kept.positives or not kept.negatives or None in found or known:
        return None
    return qbe._common_block(known)


def _fired(kind: str, want: int) -> list:
    """The first `want` seeded sets of the kind whose block separates, with
    their ontology and the block's witness."""
    rng = random.Random({"plain": 71000, "horn": 72000}[kind])
    out = []
    while len(out) < want:
        if kind == "plain":
            e, onto = rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3), None
        else:
            onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
            e = _two_sided_set(rng, ("A", "B"), 3)
        verdict = _block(e, onto)
        if verdict is not None:
            out.append((e, onto, verdict.witness))
    return out


@pytest.mark.parametrize("kind,want", [("plain", 300), ("horn", 100)])
def test_each_class_with_x_separates_by_its_own_route_where_the_block_fires(monkeypatch, kind, want):
    sets = _fired(kind, want)
    monkeypatch.setattr(qbe, "_common_block", lambda known: None)
    for i, (e, onto, witness) in enumerate(sets):
        for cls in X_CLASSES:
            assert in_class(witness, cls)
            qbe._record.cache_clear()
            assert decide(Problem(cls, e, onto)).separable, (i, cls)


@pytest.mark.parametrize("kind,want", [("plain", 100), ("horn", 50)])
def test_the_block_is_dp_path_s_witness_on_the_diamond_classes(kind, want):
    for e, onto, witness in _fired(kind, want):
        kept, found, _, _ = qbe._record(e, onto).dropped
        words = [word for (word,) in found]
        for cls in (QueryClass.PATH_NEXT_DIAMOND, QueryClass.PATH_DIAMOND_CIRC_BLOCKS):
            assert qbe.dp_path(kept, words, cls) == qbe.Verdict(True, witness)


@pytest.mark.parametrize("cls", X_CLASSES, ids=lambda cls: cls.value)
def test_common_block_builds_no_system_and_plays_no_game(monkeypatch, cls):
    # the block is ∅ {A} ∅ {B}: the first negative fails it at 1, the
    # second at 3, and neither holds the positive
    e = ExampleSet.of([D([("A", 1), ("B", 3)])], [D([("B", 2)]), D([("A", 1), ("B", 2)])])
    calls = []
    for module, name in ((qbe, "_reduced_system"), (tsys, "_play"), (qbe, "failing_run"), (qbe, "dp_path")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    verdict = decide(Problem(cls, e))
    assert verdict.separable and verdict.witness == parse_query("X (A & X X B)")
    assert calls == []


def test_a_block_that_ignores_a_negative_raises(monkeypatch):
    # the positives share ∅ {A}; the first negative fails it at 1, the
    # second holds it, so the set has no block, but one built without the
    # second negative would be X A, which holds there
    e = ExampleSet.of([D([("A", 1), ("B", 2)]), D([("A", 1), ("C", 2)])], [D([("B", 1)]), D([("A", 1), ("B", 3)])])
    assert _block(e, None) is None
    block = qbe._common_block

    def mutant(known):
        kept, found, early, note = known.dropped
        fewer = qbe._Record()
        fewer.dropped = ExampleSet(kept.positives, kept.negatives[:-1]), found[:-1], early, note
        fewer.block = ...
        return block(fewer)

    monkeypatch.setattr(qbe, "_common_block", mutant)
    for cls in X_CLASSES:
        qbe._record.cache_clear()
        with pytest.raises(WitnessError):
            decide(Problem(cls, e))
