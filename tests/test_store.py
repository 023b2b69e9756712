"""The store of the until route's per-instance systems, `qbe._instance_systems`:
an `lru_cache` keyed by the word's shape (form, loop start, length, the used
atoms' position masks sorted by value), which holds no `LassoModel` and no
atom name; `qbe._reduced_system` relabels the stored system to the caller's
letter table."""

import dataclasses
import gc
import random
import weakref

import pytest

from conftest import EMPTY_ONTOLOGY, rand_example_set, rand_horn_ontology, rand_instance
from ltlqbe import horn, qbe
from ltlqbe.core import DataInstance, ExampleSet, LassoModel, QueryClass, data_word
from ltlqbe.horn import Inconsistent
from ltlqbe.qbe import UNTIL_CLASSES, Problem, decide
from ltlqbe.represent import letter_table, repr_horn, repr_horn_br, repr_plain, repr_plain_br
from ltlqbe.tsys import TransitionSystem, bisim_quotient, prune_dominated_edges

D = DataInstance.of
fs = frozenset


def _clear():
    qbe._record.cache_clear()
    qbe._instance_systems.cache_clear()


def _keys(monkeypatch) -> list:
    """The keys `_reduced_system` asks the store for, from now on."""
    keys, store = [], qbe._instance_systems
    monkeypatch.setattr(qbe, "_instance_systems", lambda *key: keys.append(key) or store(*key))
    return keys


@pytest.fixture(autouse=True)
def cold_store():
    _clear()
    yield
    _clear()


def _word(onto, d):
    (word,) = qbe.models(onto, d)
    return word


def _reference(onto, d, sig, black_red):
    if onto is None:
        word = data_word(d)
        ts = repr_plain_br(word, sig) if black_red else repr_plain(word, sig)
    else:
        ts = repr_horn_br(onto, d, sig) if black_red else repr_horn(onto, d, sig)
    return prune_dominated_edges(bisim_quotient(ts))


def _cases(seed):
    """(ontology or None, instance, signature) triples: plain and Horn data
    over a few signatures."""
    rng = random.Random(61000 + seed)
    out = []
    for _ in range(12):
        d = rand_instance(rng, ("A", "B"), max_ts=3, max_facts=4)
        sig = d.signature | fs(rng.sample(["A", "B", "C"], rng.randrange(0, 3)))
        out.append((None, d, sig))
        onto = rand_horn_ontology(rng, ("A", "B"), max_axioms=3)
        if horn.consistent(onto, d):
            out.append((onto, d, d.signature | onto.atoms))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_unpacked_entry_equals_a_fresh_build(seed):
    # the store warms over the seed's cases, so later ones also meet entries
    # made from other instances with the same key
    for onto, d, sig in _cases(seed):
        for black_red in (False, True):
            assert qbe._reduced_system(_word(onto, d), sig, black_red) == _reference(onto, d, sig, black_red)
    info = qbe._instance_systems.cache_info()
    assert info.hits > 0 and info.misses > 0


def test_miss_and_hit_give_out_equal_systems():
    d, sig = D([("A", 0), ("B", 2)]), fs({"A", "B"})
    first = qbe._reduced_system(data_word(d), sig, True)
    second = qbe._reduced_system(data_word(d), sig, True)
    assert first == second == _reference(None, d, sig, True)
    assert qbe._instance_systems.cache_info()[:2] == (1, 1)


def test_systems_over_one_signature_share_their_letter_table(monkeypatch):
    keys = _keys(monkeypatch)
    sig = fs({"A", "B"})
    plain = qbe._reduced_system(data_word(D([("A", 0)])), fs(sig), False)
    black_red = qbe._reduced_system(data_word(D([("B", 1)])), fs(sig), True)
    horn_ts = qbe._reduced_system(_word(horn.load_ontology("A -> X B"), D([("A", 0)])), fs(sig), False)
    assert plain.letters is black_red.letters is horn_ts.letters is letter_table(sig)
    # the keys hold no letter table and no atom name
    assert len(keys) == 3 and all(type(part) in (bool, int) for key in keys for part in key)


def test_key_bits_follow_the_sorted_signature(monkeypatch):
    # pinned keys: the form, the loop start, the length, then the position
    # masks (bit n for position n) of the signature's atoms that the word
    # uses, sorted by value under any hash seed; the names, and the atoms
    # the word never uses, are not in the key.  The key holds no tail form,
    # which the black/red builder reads off the spelled loop
    keys = _keys(monkeypatch)
    d = D([("C", 0), ("A", 0), ("B", 2)])
    qbe._reduced_system(data_word(d), fs({"C", "B", "A"}), True)
    qbe._reduced_system(data_word(d), fs({"C", "B", "A", "D"}), True)
    renamed = D([("Z", 0), ("B", 0), ("A", 2)])
    qbe._reduced_system(data_word(renamed), fs({"Z", "B", "A"}), True)
    onto = horn.load_ontology("A -> X C\nC -> X C")
    word = _word(onto, D([("A", 0)]))
    qbe._reduced_system(word, fs({"A", "C"}), True)
    qbe._reduced_system(word, fs({"A", "C"}), False)
    assert keys == [
        (True, 3, 4, 0b001, 0b001, 0b100),
        (True, 3, 4, 0b001, 0b001, 0b100),
        (True, 3, 4, 0b001, 0b001, 0b100),
        (True, 1, 2, 0b01, 0b10),
        (False, 1, 2, 0b01, 0b10),
    ]


def test_equal_words_share_an_entry_that_keeps_neither_alive():
    # two equal words, built apart: the store's key is the word's shape, so
    # the second is a hit and the first word can be collected
    def word():
        return LassoModel((fs({"A"}), fs(), fs({"B"})), (fs({"A", "B"}), fs()))

    sig = fs({"A", "B"})
    first, second = word(), word()
    assert first == second and first is not second
    ts = qbe._reduced_system(first, sig, True)
    assert qbe._reduced_system(second, sig, True) == ts == prune_dominated_edges(bisim_quotient(repr_plain_br(word(), sig)))
    assert qbe._instance_systems.cache_info()[:2] == (1, 1)
    gone = weakref.ref(first)
    del first
    gc.collect()
    assert gone() is None


def test_words_with_equal_letters_and_another_loop_start_do_not_share():
    # empty, A, then empty forever against empty, then A and empty repeating:
    # the same letters in the same order, with the loop starting at 2 and at 1
    onto = horn.load_ontology("A -> X X A")
    d, sig = D([("A", 1)]), fs({"A"})
    assert horn.canonical_model(onto, d).lasso.pre == 1
    for source in (None, onto, None):
        for black_red in (False, True):
            assert qbe._reduced_system(_word(source, d), sig, black_red) == _reference(source, d, sig, black_red)


def test_sets_sharing_an_instance_build_it_once(monkeypatch):
    calls = []
    original = qbe.repr_plain
    monkeypatch.setattr(qbe, "repr_plain", lambda *args: calls.append(args[0]) or original(*args))
    # every negative holds the positives' common block, so each set takes
    # the until route and builds its systems
    shared = D([("A", 1), ("B", 3)])
    first = ExampleSet.of([shared, D([("A", 2), ("B", 3)])], [D([("A", 0), ("B", 3)])])
    second = ExampleSet.of([D([("B", 1)]), shared], [D([("A", 3)]), D([("B", 0)])])
    for e in (first, second):
        decide(Problem(QueryClass.PATH_UNTIL, e))
    # the seven instances have six shapes: only the shared one recurs
    assert len(calls) == len(first.instances) + len(second.instances) - 1
    assert qbe._instance_systems.cache_info()[:2] == (1, 6)
    # another signature is a hit: the shared instance over {A, B, C}
    third = ExampleSet.of([D([("A", 1), ("C", 1)]), D([("A", 1), ("C", 2)])], [shared])
    decide(Problem(QueryClass.PATH_UNTIL, third))
    assert len(calls) == 8
    assert qbe._instance_systems.cache_info()[:2] == (2, 8)


def test_empty_ontology_data_hits_the_plain_entry():
    rng = random.Random(62000)
    sets = [rand_example_set(rng, ("A", "B"), max_ts=3) for _ in range(10)]
    sets = [e for e in sets if all(d.facts for d in e.instances) and e.negatives]
    assert sets
    for e in sets:
        for black_red in (False, True):
            plain = qbe._until_systems(qbe._record(e, None), black_red)
            hits, misses = qbe._instance_systems.cache_info()[:2]
            horn_data = qbe._until_systems(qbe._record(e, EMPTY_ONTOLOGY), black_red)
            assert qbe._instance_systems.cache_info()[:2] == (hits + len(e.instances), misses)
            assert horn_data == plain


def _until_answers(sets):
    out = []
    for e, onto in sets:
        for cls in UNTIL_CLASSES:
            try:
                v = decide(Problem(cls, e, onto))
            except Inconsistent:
                out.append(None)
                continue
            out.append((v.separable, str(v.witness)))
    return out


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_until_answers_equal_with_a_cold_and_a_warm_store(kind):
    rng = random.Random(63000 if kind == "plain" else 64000)
    sets = [
        (
            rand_example_set(rng, ("A", "B"), max_ts=3, max_pos=2, max_neg=2),
            None if kind == "plain" else rand_horn_ontology(rng, ("A", "B"), max_axioms=2),
        )
        for _ in range(30)
    ]
    cold = []
    for s in sets:
        _clear()
        cold += _until_answers([s])
    # warm: every entry was made by other sets first, in the reverse order
    qbe._record.cache_clear()
    _until_answers(sets[::-1])
    misses = qbe._instance_systems.cache_info().misses
    warm = []
    for s in sets:
        qbe._record.cache_clear()
        warm += _until_answers([s])
    assert warm == cold
    assert qbe._instance_systems.cache_info().misses == misses


def test_a_hit_gives_out_the_stored_system():
    # two sets over one signature that share a negative instance; a hit
    # gives out the stored system relabelled to the caller's letter table,
    # a new immutable system equal to a fresh build
    shared = D([("A", 1), ("B", 3)])
    first = ExampleSet.of([D([("A", 2)])], [shared])
    second = ExampleSet.of([D([("B", 1)])], [D([("A", 3)]), shared])
    sig = fs({"A", "B"})
    for black_red in (False, True):
        ts = qbe._until_systems(qbe._record(first, None), black_red)[1][0]
        assert qbe._until_systems(qbe._record(second, None), black_red)[1][1] == ts
        hits, misses = qbe._instance_systems.cache_info()[:2]
        again = qbe._reduced_system(data_word(shared), sig, black_red)
        assert qbe._instance_systems.cache_info()[:2] == (hits + 1, misses)
        assert again == ts == _reference(None, shared, sig, black_red)
        assert all(type(f) is tuple for f in (again.letters, again.labels, again.edges)) and type(again.initial) is int
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.edges = ()


def _renamed(word: LassoModel, names: dict) -> LassoModel:
    return LassoModel(*(tuple(fs(names[a] for a in x) for x in part) for part in (word.prefix, word.loop)))


@pytest.mark.parametrize("seed", range(4))
def test_a_renamed_word_under_extra_atoms_equals_a_fresh_build(seed):
    # plain and Horn words, their atoms renamed at random, over signatures
    # with atoms the word never uses: each on a cold store, then all on one
    # store, then all again on the warm store, in the reverse order
    rng = random.Random(65000 + seed)
    cases = []
    for _ in range(12):
        d = rand_instance(rng, ("A", "B", "C"), max_ts=3, max_facts=5)
        onto = rand_horn_ontology(rng, ("A", "B", "C"), max_axioms=3) if rng.random() < 0.5 else None
        if onto is not None and not horn.consistent(onto, d):
            continue
        word = _word(onto, d)
        used = sorted(word.word[0])
        names = dict(zip(used, rng.sample(["A", "B", "C", "D", "P", "Q"], len(used))))
        extra = rng.sample(["E", "F", "R", "S"], rng.randrange(0, 3))
        cases.append((_renamed(word, names), fs(names.values()) | fs(extra)))
    for black_red in (False, True):
        build = repr_plain_br if black_red else repr_plain
        fresh = [prune_dominated_edges(bisim_quotient(build(word, sig))) for word, sig in cases]
        for (word, sig), ts in zip(cases, fresh):
            qbe._instance_systems.cache_clear()
            assert qbe._reduced_system(word, sig, black_red) == ts
        for (word, sig), ts in zip(cases, fresh):
            assert qbe._reduced_system(word, sig, black_red) == ts
        hits, misses = qbe._instance_systems.cache_info()[:2]
        for (word, sig), ts in reversed(list(zip(cases, fresh))):
            assert qbe._reduced_system(word, sig, black_red) == ts
        assert qbe._instance_systems.cache_info()[:2] == (hits + len(cases), misses)


def test_a_renaming_over_another_signature_is_a_hit():
    sig = fs({"A", "B", "C"})
    for black_red in (False, True):
        _clear()
        for d in (D([("A", 0), ("B", 2)]), D([("B", 0), ("C", 2)])):
            assert qbe._reduced_system(data_word(d), sig, black_red) == _reference(None, d, sig, black_red)
        assert qbe._instance_systems.cache_info()[:2] == (1, 1)


def test_atoms_that_always_occur_together_may_take_either_tie_order():
    # A and B have one position mask, after C's: the stored system is the
    # same with its placeholder bits 1 and 2 swapped, so either order of A
    # and B relabels it to the fresh build
    d, sig = D([("A", 0), ("B", 0), ("C", 1), ("A", 2), ("B", 2)]), fs({"A", "B", "C", "D"})

    def swap(x: int) -> int:
        return x & ~0b110 | (x & 0b010) << 1 | (x & 0b100) >> 1

    for black_red in (False, True):
        assert qbe._reduced_system(data_word(d), sig, black_red) == _reference(None, d, sig, black_red)
        stored = qbe._instance_systems(black_red, 3, 4, 0b010, 0b101, 0b101)
        swapped = TransitionSystem(
            stored.letters,
            stored.initial,
            tuple(map(swap, stored.labels)),
            tuple((src, dst, swap(x), red) for src, dst, x, red in stored.edges),
            stored.colored,
        )
        assert swapped == stored
    assert qbe._instance_systems.cache_info()[:2] == (2, 2)
