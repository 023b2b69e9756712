"""The store of the until route's per-instance systems, `qbe._instance_systems`:
an `lru_cache` keyed by the word as the builders read it (form, letter
table, loop start, letter masks), which holds no `LassoModel`."""

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
from ltlqbe.represent import repr_horn, repr_horn_br, repr_plain, repr_plain_br
from ltlqbe.tsys import BOT, bisim_quotient, prune_dominated_edges

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
    assert first is second
    assert qbe._instance_systems.cache_info()[:2] == (1, 1)


def test_systems_over_one_signature_share_their_letter_table(monkeypatch):
    keys = _keys(monkeypatch)
    sig = fs({"A", "B"})
    plain = qbe._reduced_system(data_word(D([("A", 0)])), fs(sig), False)
    black_red = qbe._reduced_system(data_word(D([("B", 1)])), fs(sig), True)
    horn_ts = qbe._reduced_system(_word(horn.load_ontology("A -> X B"), D([("A", 0)])), fs(sig), False)
    assert plain.letters is black_red.letters is horn_ts.letters
    assert all(letters is plain.letters for _, letters, *_ in keys)


def test_key_bits_follow_the_sorted_signature(monkeypatch):
    # pinned keys: under any hash seed, bit i is the i-th atom of sorted(sig);
    # the key holds no tail form, which the black/red builder reads off the
    # spelled loop
    keys = _keys(monkeypatch)
    d = D([("C", 0), ("A", 0), ("B", 2)])
    qbe._reduced_system(data_word(d), fs({"C", "B", "A"}), True)
    onto = horn.load_ontology("A -> X C\nC -> X C")
    word = _word(onto, D([("A", 0)]))
    qbe._reduced_system(word, fs({"A", "C"}), True)
    qbe._reduced_system(word, fs({"A", "C"}), False)
    assert keys == [
        (True, ("A", "B", "C", BOT), 3, 0b101, 0, 0b010, 0),
        (True, ("A", "C", BOT), 1, 0b01, 0b10),
        (False, ("A", "C", BOT), 1, 0b01, 0b10),
    ]


def test_equal_words_share_an_entry_that_keeps_neither_alive():
    # two equal words, built apart: the store's key is what the builders
    # read, so the second is a hit and the first word can be collected
    def word():
        return LassoModel((fs({"A"}), fs(), fs({"B"})), (fs({"A", "B"}), fs()))

    sig = fs({"A", "B"})
    first, second = word(), word()
    assert first == second and first is not second
    ts = qbe._reduced_system(first, sig, True)
    assert qbe._reduced_system(second, sig, True) is ts
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
    shared = D([("A", 1), ("B", 3)])
    first = ExampleSet.of([shared], [D([("A", 2)])])
    second = ExampleSet.of([D([("B", 1)]), shared], [D([("A", 3)]), D([("B", 0)])])
    for e in (first, second):
        decide(Problem(QueryClass.PATH_UNTIL, e))
    assert calls.count(data_word(shared)) == 1
    assert len(calls) == len(first.instances) + len(second.instances) - 1
    # another signature is another key
    decide(Problem(QueryClass.PATH_UNTIL, ExampleSet.of([D([("C", 1)])], [shared])))
    assert calls.count(data_word(shared)) == 2


def test_empty_ontology_data_hits_the_plain_entry():
    rng = random.Random(62000)
    sets = [rand_example_set(rng, ("A", "B"), max_ts=3) for _ in range(10)]
    sets = [e for e in sets if all(d.facts for d in e.instances) and e.negatives]
    assert sets
    for e in sets:
        for black_red in (False, True):
            plain = qbe._until_systems(qbe._record(e, None), black_red)
            misses = qbe._instance_systems.cache_info().misses
            horn_data = qbe._until_systems(qbe._record(e, EMPTY_ONTOLOGY), black_red)
            assert qbe._instance_systems.cache_info().misses == misses
            assert all(a is b for a, b in zip(plain[1], horn_data[1], strict=True))


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
    # two sets over one signature that share a negative instance
    shared = D([("A", 1), ("B", 3)])
    first = ExampleSet.of([D([("A", 2)])], [shared])
    second = ExampleSet.of([D([("B", 1)])], [D([("A", 3)]), shared])
    for black_red in (False, True):
        ts = qbe._until_systems(qbe._record(first, None), black_red)[1][0]
        assert qbe._until_systems(qbe._record(second, None), black_red)[1][1] is ts
        misses = qbe._instance_systems.cache_info().misses
        assert qbe._reduced_system(data_word(shared), fs({"A", "B"}), black_red) is ts
        assert qbe._instance_systems.cache_info().misses == misses
        assert all(type(f) is tuple for f in (ts.letters, ts.labels, ts.edges)) and type(ts.initial) is int
        with pytest.raises(dataclasses.FrozenInstanceError):
            ts.edges = ()
