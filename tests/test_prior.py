import dataclasses
import itertools
import pickle
import random
import time

import pytest

from conftest import EMPTY_PRIOR, forbid_query_search, rand_instance, ref_eval_data, ref_eval_lasso
from ltlqbe import prior
from ltlqbe.core import (
    TOP,
    DataInstance,
    Diamond,
    ExampleSet,
    LassoModel,
    Prop,
    QueryClass,
    conj,
    data_word,
    eval_lasso,
    lasso_word,
    parse_query,
    positions,
    query_atoms,
)
from ltlqbe.qbe import Problem, decide

D = DataInstance.of
load = prior.load_prior_ontology


def test_parse_booleans():
    o = load("A -> F B\n!(A & B)\nA | B | !C")
    assert len(o.axioms) == 3
    assert o.atoms == frozenset({"A", "B", "C"})


def test_parse_rejects_next():
    with pytest.raises(prior.PriorParseError):
        load("X A -> A")


def test_parse_implication_right_assoc():
    f = load("A -> B -> C").axioms[0]
    assert isinstance(f, prior.PImp) and isinstance(f.right, prior.PImp)


def test_consistent_diamond_promise():
    o = load("A -> F B\n!(A & B)")
    assert prior.prior_consistent(o, D([("A", 0)]))


def test_inconsistent_diamond_top():
    # time is infinite under strict semantics, so F true cannot imply false
    o = load("F true -> false")
    assert not prior.prior_consistent(o, D([]))


def test_consistent_empty():
    assert prior.prior_consistent(EMPTY_PRIOR, D([("A", 3)]))


def test_entails_disjunctive_choice():
    # a model may choose T forever, so F T & F V is not certain
    o = load("T | V")
    assert not prior.prior_entails(o, D([("T", 1)]), parse_query("F T & F V"))
    assert prior.prior_entails(o, D([("T", 1)]), parse_query("F T"))


def test_entails_valid_query(monkeypatch):
    # !A -> F B has no chase rule and {} no least word; a valid query holds
    # on the empty data word
    o = load("!A -> F B")
    _clear_prior_caches()
    forbid_query_search(monkeypatch)
    assert prior.least_word(o, D([])) is None
    assert prior.prior_entails(o, D([]), parse_query("F true"))
    assert prior.prior_entails(o, D([]), parse_query("F F true"))


def test_a_query_true_on_the_data_word_is_certain_without_a_search(monkeypatch):
    # the promise of A@2 is not kept by the data, so it has no least word;
    # every model lies above the data word, on which both queries hold at 0
    o, d = load("A -> F B"), D([("B", 1), ("A", 2)])
    assert prior.least_word(o, d) is None
    _clear_prior_caches()
    with monkeypatch.context() as m:
        forbid_query_search(m)
        assert prior.prior_entails(o, d, parse_query("F (B & F A)"))
        assert prior.prior_entails(o, d, parse_query("F A"))
    # B holds on the data word at 1 only; read at 0 it needs the search
    assert positions(parse_query("B"), data_word(d).word) == 0b10
    assert not prior.prior_entails(o, d, parse_query("B"))


def test_entails_rejects_non_diamond_queries():
    with pytest.raises(ValueError):
        prior.prior_entails(EMPTY_PRIOR, D([]), parse_query("X A"))
    with pytest.raises(ValueError):
        prior.prior_entails(EMPTY_PRIOR, D([]), parse_query("A U B"))


def test_entails_box_forcing():
    o = load("G B | F A")
    # every model has A later or B forever; neither alone is certain
    d = D([])
    assert not prior.prior_entails(o, d, parse_query("F A"))
    assert not prior.prior_entails(o, d, parse_query("F B"))
    o2 = load("F A")
    assert prior.prior_entails(o2, d, parse_query("F A"))


@pytest.mark.parametrize("seed", range(20))
def test_empty_ontology_matches_eval_data(seed):
    rng = random.Random(8000 + seed)
    d = rand_instance(rng, atoms=("A", "B"), max_ts=3, max_facts=4)
    from ltlqbe.core import Diamond, Prop, Top, conj

    def dia_query(depth):
        kind = rng.choice(["atom", "top"] + (["dia", "and"] if depth else []))
        if kind == "atom":
            return Prop(rng.choice(("A", "B")))
        if kind == "top":
            return Top()
        if kind == "dia":
            return Diamond(dia_query(depth - 1))
        return conj([dia_query(depth - 1), dia_query(depth - 1)])

    for _ in range(10):
        q = dia_query(2)
        assert prior.prior_entails(EMPTY_PRIOR, d, q) == ref_eval_data(d, q, 0)


@pytest.mark.parametrize("seed", range(8))
def test_entails_antitone_in_ontology(seed):
    # strengthening the ontology never flips certain to uncertain
    rng = random.Random(8100 + seed)
    d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
    base = load("A -> F B")
    stronger = load("A -> F B\nB -> F A")
    from ltlqbe.core import Diamond, Prop, conj

    queries = [
        Diamond(Prop("A")),
        Diamond(Prop("B")),
        conj([Diamond(Prop("A")), Diamond(Prop("B"))]),
        Diamond(conj([Prop("A"), Diamond(Prop("B"))])),
    ]
    for q in queries:
        if prior.prior_entails(base, d, q):
            assert prior.prior_entails(stronger, d, q)


def _ref(f, word, n):
    """Truth of a box/diamond formula at timepoint n of the lasso, by definition."""
    n = word.fold(n)
    if isinstance(f, prior.PTrue):
        return True
    if isinstance(f, prior.PFalse):
        return False
    if isinstance(f, prior.PAtom):
        return f.name in word.letter(n)
    if isinstance(f, prior.PNot):
        return not _ref(f.arg, word, n)
    if isinstance(f, (prior.PDia, prior.PBox)):
        # these timepoints meet every letter position that follows n
        later = [_ref(f.arg, word, m) for m in range(n + 1, max(n, word.pre) + word.per + 1)]
        return any(later) if isinstance(f, prior.PDia) else all(later)
    left, right = _ref(f.left, word, n), _ref(f.right, word, n)
    if isinstance(f, prior.PAnd):
        return left and right
    if isinstance(f, prior.POr):
        return left or right
    return not left or right


def _is_model(onto, d, word):
    positions = range(word.pre + word.per)
    return all(_ref(a, word, n) for a in onto.axioms for n in positions) and all(
        name in word.letter(t) for name, t in d.facts
    )


def test_countermodel_satisfies_axioms():
    o = load("A -> F B\n!(A & B)")
    d = D([("A", 0)])
    sig = tuple(sorted(o.atoms | d.signature))
    word = prior._search_word(o, d, sig, None)
    assert word is not None
    assert _is_model(o, d, word)


# ---------------------------------------------------------------------------
# Bitmask evaluation of diamond queries and the countermodel store


def _dia_query(rng, atoms, depth):
    """A random query built from true, atoms, & and F."""
    kind = rng.choice(["atom", "top"] + (["dia", "dia", "and"] if depth else []))
    if kind == "atom":
        return Prop(rng.choice(atoms))
    if kind == "top":
        return TOP
    if kind == "dia":
        return Diamond(_dia_query(rng, atoms, depth - 1))
    return conj(_dia_query(rng, atoms, depth - 1) for _ in range(rng.randint(2, 4)))


def _rand_lasso(rng, atoms):
    def letter():
        return frozenset(a for a in atoms if rng.random() < 0.4)

    prefix = tuple(letter() for _ in range(rng.choice([0, 0, 1, 2, 3, 4])))
    per = rng.randint(1, 3)
    loop = (frozenset(),) * per if rng.random() < 0.25 else tuple(letter() for _ in range(per))
    return LassoModel(prefix, loop)


def _bit_values(q, lasso):
    held = positions(q, lasso_word(lasso.prefix, lasso.loop))
    return [bool(held >> n & 1) for n in range(lasso.pre + lasso.per)]


def test_bitmask_evaluator_matches_eval_lasso():
    rng = random.Random(8200)
    atoms = ("A", "B", "C")
    fixed = [
        parse_query("F F F A"),
        parse_query("F (A & F (B & F F C))"),
        parse_query("F A & F B & F (A & B) & F F C"),
        parse_query("A & F true & F F true"),
        TOP,
    ]
    for i in range(2400):
        q = fixed[i % len(fixed)] if i < 500 else _dia_query(rng, atoms, 4)
        lasso = _rand_lasso(rng, atoms)
        expected = [ref_eval_lasso(lasso, q, n) for n in range(lasso.pre + lasso.per)]
        assert _bit_values(q, lasso) == expected, (str(q), lasso)


def test_empty_letters_before_the_loop_keep_the_value_at_zero():
    # _search_word checks the data's own word once for every handle length;
    # the data has at least one letter, so position 0 is never in the gap
    rng = random.Random(8250)
    for _ in range(600):
        q = _dia_query(rng, ("A", "B"), 4)
        lasso = _rand_lasso(rng, ("A", "B"))
        if not lasso.prefix:
            lasso = LassoModel(lasso.loop[:1], lasso.loop)
        gap = (frozenset(),) * rng.randint(1, 3)
        longer = LassoModel(lasso.prefix + gap, lasso.loop)
        assert eval_lasso(lasso, q, 0) == eval_lasso(longer, q, 0), (str(q), lasso)


def test_entailment_rejects_queries_outside_the_fragment():
    d = D([("A", 0)])
    for onto in (EMPTY_PRIOR, load("A -> F B")):
        for text in ("X A", "A U B", "F (A & X B)", "F false"):
            with pytest.raises(ValueError):
                prior.prior_entails(onto, d, parse_query(text))


_AXIOMS = (
    "{a} -> F {b}",
    "G {a} -> {b}",
    "{a} & {b} -> F {a}",
    "{a} | F {b}",
    "!({a} & {b})",
    "G {b} | F {b}",
    "{a} -> G {b}",
    "F {a} -> {b}",
    "!{a} | F {b}",
)


def _rand_prior_ontology(rng):
    lines = []
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(["A", "B"], 2)
        lines.append(rng.choice(_AXIOMS).format(a=a, b=b))
    return load("\n".join(lines))


def _clear_prior_caches():
    prior.prior_entails.cache_clear()
    prior.prior_consistent.cache_clear()
    prior._countermodels.cache_clear()


def test_countermodel_store_keeps_every_answer(monkeypatch):
    rng = random.Random(8300)
    triples = []
    while len(triples) < 320:
        onto = _rand_prior_ontology(rng)
        d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
        triples += [(onto, d, _dia_query(rng, ("A", "B"), 3)) for _ in range(8)]
    cold = []
    for t in triples:
        _clear_prior_caches()
        cold.append(prior.prior_entails(*t))

    searches = []
    search = prior._search_word
    monkeypatch.setattr(prior, "_search_word", lambda *args: searches.append(1) or search(*args))
    order = list(range(len(triples)))
    rng.shuffle(order)
    _clear_prior_caches()
    warm = {i: prior.prior_entails(*triples[i]) for i in order}
    assert [warm[i] for i in range(len(triples))] == cold
    # the store answered some "not entailed" without a search
    distinct = len(set(triples))
    assert 0 < cold.count(False) and len(searches) < distinct


def test_countermodel_store_is_bounded():
    o = load("A -> F B")
    d = D([("A", 0)])
    _clear_prior_caches()
    model = LassoModel((frozenset({"A"}),), (frozenset({"B"}),))
    for _ in range(3 * prior._KEPT):
        prior._keep(o, d, model)
    assert len(prior._countermodels(o, d)) == prior._KEPT
    assert prior._countermodels.cache_info().maxsize is not None


def _rename(x, names):
    """x, an ontology, a box/diamond formula, a diamond query or a tuple of
    them, with its atoms renamed by `names`, read off the dataclass fields."""
    if isinstance(x, (prior.PAtom, Prop)):
        return type(x)(names[x.name])
    if isinstance(x, tuple):
        return tuple(_rename(y, names) for y in x)
    return type(x)(*(_rename(getattr(x, f.name), names) for f in dataclasses.fields(x)))


def test_search_store_answers_renamed_copies_alike(monkeypatch):
    # (O, D) pairs with no least word and their queries, over ontology atoms
    # A and B, the data-only atom C and the query-only atom D, are renamed by
    # a seeded bijection onto fresh atoms.  The copy is answered alike with
    # no new store miss; every model the store hands back is a model of its
    # (O, D) falsifying its query, by definition; no store key or value
    # holds a given atom name.
    rng = random.Random(9100)
    given = ("A", "B", "C", "D")
    store, search = prior._shape_search, prior._search_word
    entries, handed = [], []

    def recorded(*key):
        entries.append((key, store(*key)))
        return entries[-1][1]

    def checked(onto, data, sig, query=None):
        handed.append((onto, data, query, search(onto, data, sig, query)))
        return handed[-1][-1]

    monkeypatch.setattr(prior, "_shape_search", recorded)
    monkeypatch.setattr(prior, "_search_word", checked)
    pairs = 0
    while pairs < 60:
        onto = _rand_prior_ontology(rng)
        d = rand_instance(rng, atoms=given[:3], max_ts=2, max_facts=3)
        if prior.least_word(onto, d) is not None:
            continue
        pairs += 1
        queries = [_dia_query(rng, given, 3) for _ in range(3)]
        fresh = dict(zip(given, rng.sample([f"N{i}" for i in range(20)], len(given))))
        answers = []
        copy = (_rename(onto, fresh), D((fresh[a], t) for a, t in d.facts), _rename(tuple(queries), fresh))
        for o, data, qs in ((onto, d, queries), copy):
            _clear_prior_caches()
            misses = store.cache_info().misses
            answers.append([prior.prior_consistent(o, data), *(prior.prior_entails(o, data, q) for q in qs)])
            # the search itself, which the stored models above may spare
            sigs = [prior._sig_tuple(o, data, extra=query_atoms(q)) for q in qs]
            assert answers[-1][1:] == [prior._search_word(o, data, sig, q) is None for sig, q in zip(sigs, qs)]
        assert answers[0] == answers[1], (onto, d, [str(q) for q in queries])
        assert store.cache_info().misses == misses, (onto, d, [str(q) for q in queries])
    found = [(o, data, q, model) for o, data, q, model in handed if model is not None]
    for o, data, q, model in found:
        assert _is_model(o, data, model) and (q is None or not ref_eval_lasso(model, q, 0)), (o, data, q, model)
    names = set(given) | {f"N{i}" for i in range(20)}
    for (o, facts, sig, q), model in entries:
        held = set(o.atoms).union(*facts, sig, query_atoms(q) if q is not None else ())
        if model is not None:
            held.update(*model.prefix, *model.loop)
        assert not held & names, held & names
    # both kinds of search found models and refuted some
    assert {q is None for *_, q, _ in found} == {True, False}
    assert any(model is None for *_, model in handed)
    # the copies outnumber `data_word`'s entries, so a least word cached
    # before, which is its instance's `data_word`, may now differ from it
    prior.least_word.cache_clear()


def _rand_formula(rng, depth):
    kind = rng.choice(["atom", "atom", "const"] + (["not", "bin", "bin", "F", "G"] if depth else []))
    if kind == "atom":
        return prior.PAtom(rng.choice("AB"))
    if kind == "const":
        return rng.choice([prior.PTrue(), prior.PFalse()])
    if kind == "not":
        return prior.PNot(_rand_formula(rng, depth - 1))
    if kind in ("F", "G"):
        return (prior.PDia if kind == "F" else prior.PBox)(_rand_formula(rng, depth - 1))
    op = rng.choice([prior.PAnd, prior.POr, prior.PImp])
    return op(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def test_axiom_bitmasks_match_the_definition():
    rng = random.Random(8400)
    for _ in range(1500):
        f = _rand_formula(rng, 3)
        lasso = _rand_lasso(rng, ("A", "B"))
        held = prior._values(f, *lasso_word(lasso.prefix, lasso.loop))
        expected = [_ref(f, lasso, n) for n in range(lasso.pre + lasso.per)]
        assert [bool(held >> n & 1) for n in range(lasso.pre + lasso.per)] == expected, (f, lasso)


def _is_model_loop(onto, loop):
    return all(_ref(a, LassoModel((), loop), j) for a in onto.axioms for j in range(len(loop)))


def test_valid_loops_are_every_model_loop_in_order():
    # a loop is searched as its set of letters: the valid loops of length l
    # are the l-subsets of the letters, in combinations order, that are models
    rng = random.Random(8500)
    sig = ("A", "B")
    choices = list(prior._letter_choices(sig, frozenset()))
    for _ in range(40):
        onto = prior.PriorOntology(tuple(_rand_formula(rng, 3) for _ in range(rng.randint(1, 2))))
        for loop_len in (1, 2, 3, 4):
            expected = tuple(loop for loop in itertools.combinations(choices, loop_len) if _is_model_loop(onto, loop))
            assert prior._valid_loops(onto, sig, loop_len) == expected, onto


def test_loop_sets_stand_for_every_model_loop_sequence():
    rng = random.Random(8550)
    sig = ("A", "B")
    choices = list(prior._letter_choices(sig, frozenset()))
    for _ in range(40):
        onto = prior.PriorOntology(tuple(_rand_formula(rng, 3) for _ in range(rng.randint(1, 3))))
        valid = {loop for n in range(1, len(choices) + 1) for loop in prior._valid_loops(onto, sig, n)}
        for loop_len in (1, 2, 3):
            for loop in itertools.product(choices, repeat=loop_len):
                if _is_model_loop(onto, loop):
                    assert tuple(c for c in choices if c in loop) in valid, (onto, loop)
        for letters in valid:
            for order in itertools.permutations(letters):
                assert _is_model_loop(onto, order + order[::-1]), (onto, order)


# Sets of 4-6 axioms on which the box/diamond search took 16 s or more on a
# 2-core machine, or ran past 20 s, when it enumerated loops as sequences:
# (ontology, positives, negatives, branch-diamond witness, path-diamond
# witness), None for not separable.
_FORMERLY_CAPPED = [
    ("G B -> D; D & A -> A | F D; B -> F D; G A -> C | F A",
     ["B0,C0", "C1"], ["C0,C2", "A3,D0"], None, None),
    ("C -> A | F C; A -> F C; G D -> A; A -> D | F A; D & A -> A",
     ["A2,C0,D1", "A3,B0,D3"], ["C2", "A2,B1,B2"], "F A & F D", "F D"),
    ("A -> D; B & C -> F C; A -> F D; B & A -> F A; C -> B | F C; G A -> C",
     ["C3,D3", "D3"], ["B0,B1,C2", "A0"], "F D & F F D", None),
    ("B -> A; G C -> B; A & C -> C; G B -> F D; C -> B | F C; B & C -> C",
     ["B0,C3", "C0"], ["C2", "D1"], None, None),
]


@pytest.mark.parametrize("case", range(len(_FORMERLY_CAPPED)))
def test_formerly_capped_sets_decide_within_a_second(case):
    axioms, pos, neg, *witnesses = _FORMERLY_CAPPED[case]
    onto = load(axioms.replace("; ", "\n"))

    def instance(facts):
        return D([(f[0], int(f[1:])) for f in facts.split(",")])

    e = ExampleSet.of([instance(p) for p in pos], [instance(n) for n in neg])
    for cls, witness in zip((QueryClass.BRANCH_DIAMOND, QueryClass.PATH_DIAMOND), witnesses):
        start = time.perf_counter()
        verdict = decide(Problem(cls, e, onto))  # checks the witness it returns
        assert time.perf_counter() - start < 1, (case, cls)
        assert verdict.separable == (witness is not None), (case, cls)
        if witness is not None:
            assert verdict.witness == parse_query(witness), (case, cls)


def test_found_words_are_models():
    rng = random.Random(8600)
    for _ in range(120):
        onto = _rand_prior_ontology(rng)
        d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
        word = prior._search_word(onto, d, ("A", "B"), None)
        assert word is None or _is_model(onto, d, word), (onto, d)


def _bounded_models(onto, d, sig):
    """Every lasso model of (onto, d) with the handle and loop bounds of the
    word search, by enumeration."""
    size = onto.temporal_count + 1
    letters = list(prior._letter_choices(sig, frozenset()))
    out = []
    for pre in range(d.max_timestamp + 1, d.max_timestamp + size + 2):
        for per in range(1, size + 1):
            for word in itertools.product(letters, repeat=pre + per):
                lasso = LassoModel(word[:pre], word[pre:])
                if _is_model(onto, d, lasso):
                    out.append(lasso)
    return out


def test_entails_matches_bounded_enumeration():
    rng = random.Random(8700)
    one_step = [a for a in _AXIOMS if load(a.format(a="A", b="B")).temporal_count == 1]
    for _ in range(12):
        a, b = rng.sample(["A", "B"], 2)
        onto = load(rng.choice(one_step).format(a=a, b=b))
        d = rand_instance(rng, atoms=("A", "B"), max_ts=1, max_facts=2)
        models = _bounded_models(onto, d, ("A", "B"))
        assert prior.prior_consistent(onto, d) == bool(models)
        for _ in range(8):
            q = _dia_query(rng, ("A", "B"), 3)
            certain = all(eval_lasso(m, q, 0) for m in models)
            assert prior.prior_entails(onto, d, q) == certain, (onto, d, str(q))


def test_least_word_rule_matches_the_search():
    # When (onto, d) has a least word, prior_entails answers on it alone;
    # without one, a query true at 0 on d's own word is answered on that
    # word.  _search_word never takes either shortcut.
    checked = {True: 0, False: 0}
    wordless = {"data word": 0, "search": 0}
    rng = random.Random(8800)
    while min(checked.values()) < 400:
        onto = _rand_prior_ontology(rng)
        d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
        has_word = prior.least_word(onto, d) is not None
        checked[has_word] += 1
        assert prior.prior_consistent(onto, d) == (
            prior._search_word(onto, d, prior._sig_tuple(onto, d), None) is not None
        ), (onto, d)
        for _ in range(2):
            q = _dia_query(rng, ("A", "B"), 3)
            sig = prior._sig_tuple(onto, d, extra=query_atoms(q))
            expected = prior._search_word(onto, d, sig, q) is None
            assert prior.prior_entails(onto, d, q) == expected, (onto, d, str(q))
            if not has_word:
                wordless["data word" if positions(q, data_word(d).word) & 1 else "search"] += 1
    # both routes of a wordless instance were taken
    assert min(wordless.values()) >= 50, wordless


def test_least_word_rule_checks_every_position():
    # the axiom holds at 0 but fails at 1, where the chase adds B
    o, d = load("A -> B"), D([("A", 1)])
    assert prior.least_word(o, d) == LassoModel((frozenset(), frozenset("AB")), (frozenset(),))
    assert prior.prior_entails(o, d, parse_query("F B"))
    # the promise at 2 is not kept by the data's empty tail, and no rule
    # has an atom head to keep it
    o, d = load("A -> F B"), D([("A", 2)])
    assert prior.least_word(o, d) is None
    assert prior.prior_entails(o, d, parse_query("F B"))
    d = D([("A", 1), ("B", 2)])
    assert prior.least_word(o, d) is data_word(d)


def test_a_chased_word_keeps_the_letters_the_chase_did_not_change():
    o, d = load("A -> B"), D([("A", 1), ("C", 3)])
    own, word = data_word(d), prior.least_word(o, d)
    assert word.letter(1) == frozenset("AB")
    assert all(word.letter(n) is own.letter(n) for n in (0, 2, 3, 4))


def test_chase_rules_are_the_monotone_atom_headed_axioms():
    o = load("A -> B & C\nG (A | F B) -> A\nB\n!A -> B\nA -> F B\nA -> B | C\n(A -> B) -> C")
    assert [head for _, head in o.chase_rules] == [("B", "C"), ("A",), ("B",)]
    assert isinstance(o.chase_rules[2][0], prior.PTrue)


# Axioms with atom heads, with and without a monotone body, that the chase
# fires on or must not fire on, and that can turn its word into a non-model
_CHASED_AXIOMS = (
    "{a} -> {b}",
    "G {a} -> {b}",
    "F {a} -> {b} & {a}",
    "{a} & F {b} -> {b}",
    "{a} | G {b} -> {b}",
    "!{a} -> {b}",
    "{b} -> F {a}",
    "!({a} & {b})",
)


def test_chased_words_are_least_models():
    # independent of the engine: the axioms are evaluated by definition
    # (_ref), queries by the reference evaluator, and certainty by the
    # word search, which never chases
    for text, consistent in (("A -> B\n!(A & B)", False), ("A -> B\nB -> F A", True)):
        o, d = load(text), D([("A", 1)])
        assert prior.least_word(o, d) is None  # the chase reaches a non-model
        assert prior.prior_consistent(o, d) == consistent
    rng = random.Random(8900)
    chased = 0
    while chased < 400:
        lines = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(["A", "B"], 2)
            lines.append(rng.choice(_AXIOMS + _CHASED_AXIOMS).format(a=a, b=b))
        onto = load("\n".join(lines))
        d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
        word = prior.least_word(onto, d)
        found = prior._search_word(onto, d, prior._sig_tuple(onto, d), None)
        assert prior.prior_consistent(onto, d) == (found is not None), (onto, d)
        if word is None or word == data_word(d):
            continue
        chased += 1
        assert _is_model(onto, d, word), (onto, d, word)
        for _ in range(3):
            q = _dia_query(rng, ("A", "B"), 3)
            sig = prior._sig_tuple(onto, d, extra=query_atoms(q))
            certain = prior._search_word(onto, d, sig, q) is None
            assert ref_eval_lasso(word, q, 0) == certain, (onto, d, str(q))


def test_failed_fill_states_include_the_query_future():
    # With the loop {A}, position 1 must hold B (C -> B), and B & F A then
    # holds there, so filling 0..1 fails.  The loop {B, C} gives the same
    # axiom state at 1 but no A after it, and its words refute the query.
    o = load("C -> B\nA | C")
    d = D([("C", 1)])
    q = parse_query("F (B & F A)")
    assert not prior.prior_entails(o, d, q)
    word = prior._search_word(o, d, ("A", "B", "C"), q)
    assert _is_model(o, d, word) and not eval_lasso(word, q, 0)


def _nodes(f) -> list:
    """f and its subformulas, outermost first, left before right, read off
    the dataclass fields."""
    out = [f]
    for field in dataclasses.fields(f):
        child = getattr(f, field.name)
        if isinstance(child, prior.PFormula):
            out += _nodes(child)
    return out


def test_ontology_hash_and_constants_are_cached_values():
    rng = random.Random(8400)
    for _ in range(200):
        text = "\n".join(
            rng.choice(_AXIOMS).format(**dict(zip("ab", rng.sample(["A", "B", "C"], 2))))
            for _ in range(rng.randint(1, 3))
        )
        o, twin = load(text), load(text)
        assert set(vars(o)) == {"axioms"}  # nothing is computed at parse time
        if rng.random() < 0.5:
            hash(o)
        nodes = [f for a in o.axioms for f in _nodes(a)]
        assert o.atoms == frozenset(f.name for f in nodes if isinstance(f, prior.PAtom))
        assert o.size_measure == len(nodes)
        parts = [f for f in nodes if isinstance(f, (prior.PBox, prior.PDia))]
        assert o.temporal_count == len(parts)
        assert o.temporal_parts == tuple(dict.fromkeys(parts))
        assert hash(o) == hash((o.axioms,)) == hash(twin) and o == twin
        assert {o: 1}[twin] == 1
        assert set(vars(pickle.loads(pickle.dumps(o)))) == {"axioms"}
