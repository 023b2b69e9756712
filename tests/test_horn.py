import random

import pytest

from conftest import (
    all_instances,
    lasso_is_model,
    lasso_models_of,
    rand_horn_ontology,
    rand_instance,
    rand_query,
)
from ltlqbe import horn
from ltlqbe.core import DataInstance, eval_data, eval_lasso, parse_query

D = DataInstance.of


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_axiom():
    o = horn.load_ontology("X H -> T")
    assert len(o.axioms) == 1
    (ax,) = o.axioms
    assert ax.body == (horn.HornLiteral(1, False, "H"),)
    assert ax.head == horn.HornLiteral(0, False, "T")


def test_parse_rejects_conjunctive_head():
    with pytest.raises(horn.OntologyParseError):
        horn.load_ontology("A -> C & X B")


def test_parse_rejects_diamond_head_and_empty_body():
    with pytest.raises(horn.OntologyParseError):
        horn.load_ontology("A -> F B")
    with pytest.raises(horn.OntologyParseError):
        horn.load_ontology("-> B")


def test_parse_reports_position():
    with pytest.raises(horn.OntologyParseError) as err:
        horn.load_ontology("A -> C\nA -> ?")
    assert "line 2" in str(err.value)


def test_diamond_body_rewrite():
    o = horn.load_ontology("F A -> B")
    assert len(o.axioms) == 3
    assert len(o.fresh_atoms) == 1
    # chain atom semantics: B holds exactly before an A
    cm = horn.canonical_model(o, D([("A", 3)]))
    for t in range(3):
        assert "B" in cm.lasso.letter(t)
    assert "B" not in cm.lasso.letter(3)
    assert "B" not in cm.lasso.letter(10)


def test_box_and_next_prefixes_commute():
    a = horn.load_ontology("G X A -> B").axioms[0].body[0]
    b = horn.load_ontology("X G A -> B").axioms[0].body[0]
    assert a == b == horn.HornLiteral(2, True, "A")


def test_comments_and_blank_lines():
    o = horn.load_ontology("# nothing\n\nA -> B\n")
    assert len(o.axioms) == 1


# ---------------------------------------------------------------------------
# canonical models


def test_canonical_model_theorem_figure():
    o = horn.load_ontology("A -> C\nA -> X B\nB -> X X B\nB -> X C")
    cm = horn.canonical_model(o, D([("A", 0)]))
    assert cm.handle == 2 and cm.period == 2
    expected = [{"A", "C"}, {"B"}, {"C"}, {"B"}, {"C"}, {"B"}]
    for n, atoms in enumerate(expected):
        assert cm.lasso.letter(n) == frozenset(atoms)


def test_canonical_model_empty_ontology():
    cm = horn.canonical_model(horn.EMPTY_ONTOLOGY, D([("T", 2)]))
    assert cm.handle <= 1 and cm.period == 1
    assert list(cm.lasso.prefix) == [frozenset(), frozenset(), frozenset({"T"})]
    assert cm.lasso.loop == (frozenset(),)


def test_canonical_model_inconsistent():
    o = horn.load_ontology("A -> false")
    with pytest.raises(horn.Inconsistent):
        horn.canonical_model(o, D([("A", 0)]))
    assert not horn.consistent(o, D([("A", 0)]))
    assert horn.consistent(o, D([("B", 0)]))


def test_canonical_model_box_head_and_body():
    o = horn.load_ontology("A -> X A\nG A -> B")
    cm = horn.canonical_model(o, D([("A", 0)]))
    assert "B" in cm.lasso.letter(0) and "A" in cm.lasso.letter(7)
    o2 = horn.load_ontology("A -> G B")
    cm2 = horn.canonical_model(o2, D([("A", 2)]))
    assert "B" not in cm2.lasso.letter(2) and "B" in cm2.lasso.letter(3)
    assert "B" in cm2.lasso.letter(11)


def test_canonical_backward_propagation():
    # bodies reading forward force heads at earlier points
    o = horn.load_ontology("X H -> T")
    cm = horn.canonical_model(o, D([("H", 3), ("V", 4)]))
    assert "T" in cm.lasso.letter(2)
    assert "T" not in cm.lasso.letter(3)


def test_certain_answer_motivating_example():
    o = horn.load_ontology("X H -> T")
    q = parse_query("F(T & F F V)")
    assert horn.certain_answer(o, D([("H", 3), ("V", 4)]), q, 0)


def test_certain_answer_arbitrary_timepoint_folds():
    o = horn.load_ontology("A -> X A")
    d = D([("A", 0)])
    assert horn.certain_answer(o, d, parse_query("A"), 500)


def test_fresh_atom_clash_rejected():
    o = horn.load_ontology("F A -> B")
    (fresh,) = o.fresh_atoms
    with pytest.raises(ValueError):
        horn.canonical_model(o, D([(fresh, 0)]))


# ---------------------------------------------------------------------------
# fuzzed invariants


@pytest.mark.parametrize("seed", range(40))
def test_periodicity_invariant(seed):
    rng = random.Random(4000 + seed)
    o = rand_horn_ontology(rng)
    d = rand_instance(rng, max_ts=4)
    try:
        cm = horn.canonical_model(o, d)
    except horn.Inconsistent:
        return
    start = d.max_timestamp + cm.handle
    for n in range(start, start + 3 * cm.period):
        assert cm.lasso.letter(n) == cm.lasso.letter(n + cm.period)
    assert lasso_is_model(o, d, cm.lasso)


@pytest.mark.parametrize("seed", range(12))
def test_minimality_against_enumerated_models(seed):
    rng = random.Random(5000 + seed)
    o = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=2)
    d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
    try:
        cm = horn.canonical_model(o, d)
    except horn.Inconsistent:
        models = list(lasso_models_of(o, d, ("A", "B"), max_pre_extra=2, max_per=2))
        assert models == []
        return
    count = 0
    for model in lasso_models_of(o, d, ("A", "B"), max_pre_extra=2, max_per=2):
        count += 1
        horizon = max(cm.horizon, model.pre + model.per) + 2
        for n in range(horizon):
            assert cm.lasso.letter(n) <= model.letter(n), (n, o.axioms)
        if count >= 40:
            break
    assert count > 0  # the canonical model itself has a bounded-shape twin


@pytest.mark.parametrize("seed", range(10))
def test_certain_answer_vs_countermodels(seed):
    rng = random.Random(6000 + seed)
    o = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=2)
    d = rand_instance(rng, atoms=("A", "B"), max_ts=2, max_facts=3)
    if not horn.consistent(o, d):
        return
    for _ in range(4):
        q = rand_query(rng, atoms=("A", "B"), depth=2)
        answer = horn.certain_answer(o, d, q, 0)
        refuted = False
        for model in lasso_models_of(o, d, ("A", "B"), max_pre_extra=2, max_per=2):
            if not eval_lasso(model, q, model.fold(0)):
                refuted = True
                break
        if answer:
            assert not refuted
        if refuted:
            assert not answer


@pytest.mark.parametrize("seed", range(25))
def test_empty_ontology_matches_eval_data(seed):
    rng = random.Random(7000 + seed)
    d = rand_instance(rng, max_ts=4)
    for _ in range(20):
        q = rand_query(rng, depth=3)
        at = rng.randrange(0, 3)
        assert horn.certain_answer(horn.EMPTY_ONTOLOGY, d, q, at) == eval_data(d, q, at)
