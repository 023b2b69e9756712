"""Diamond classes settled by one product simulation: once a path class's
search finds no separator, `decide` asks whether some negative's `models`
word simulates the product of the positives' words under X and F
(`qbe._simulates_product`); if one does, no diamond class separates."""

import json

import pytest

from conftest import kept_record
from ltlqbe import cli, qbe
from ltlqbe.core import DataInstance, ExampleSet, Prop, QueryClass, Until
from ltlqbe.qbe import LatticeError, Problem, decide
from test_holds import _kept, _lasso, _sets
from test_qbe import ex


def _fires(kept) -> bool:
    e, found = kept
    return qbe._simulates_product(found, len(e.positives))


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_the_check_fires_iff_branch_next_diamond_is_not_separable(kind):
    # the logic of atoms, ∧, X and F is the one simulation preserves, so the
    # check is exact for branch-next-diamond, the largest diamond class
    seen = set()
    for e, onto in _sets(kind):
        kept = _kept(e, onto)
        if kept is None or not kept[0].positives or not kept[0].negatives:
            continue
        qbe._record.cache_clear()
        separable = decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, e, onto)).separable
        assert _fires(kept) is not separable, (e, onto)
        seen.add((len(kept[0].positives), separable))
    both = {(n, s) for n in ((2, 3) if kind == "plain" else (2,)) for s in (True, False)}
    assert both <= seen


def _branch_next_diamond_separates(positives, negatives) -> bool:
    """branch-next-diamond's own route over the words: one circ-blocks search
    per negative, all-top blocks allowed."""
    for neg in negatives:
        e = ExampleSet((DataInstance.of([]),) * len(positives), (DataInstance.of([]),))
        v = qbe.dp_path(e, [*positives, neg], QueryClass.PATH_DIAMOND_CIRC_BLOCKS, allow_empty_blocks=True)
        if not v.separable:
            return False
    return True


@pytest.mark.parametrize(
    "positives, negative, fires",
    [
        # coprime loops of 2 and 3: A holds on both at the multiples of 6 only
        (("", "A ."), ("", "A . ."), True),
        (("", "A ."), ("", "A . . . . ."), True),
        (("", "A ."), ("", "A . . . ."), False),  # X^6 A
        (("", "A ."), ("", "A . . A . ."), True),
        (("", "A ."), ("", ". A . . . ."), False),  # A
        (("", "A ."), (".", "A . . . . ."), False),  # A
        # prefixes of different lengths before the loops
        ((". B", "A ."), (". B", "A . . . . ."), True),
        ((". B", "A ."), (". B", ". A . . . ."), False),  # X X A
        ((". B", "A ."), (". B", "A . . . . . ."), False),  # X^8 A
        ((". B", "A ."), ("B", "A . . . . ."), False),  # X B
        (("B A", "A ."), ("B", "A . . . . ."), False),  # X X A
        (("AB", "A ."), ("B", "A . . . . ."), False),  # A
    ],
)
def test_lassos_with_coprime_loops(positives, negative, fires):
    # the first positive is `positives`, the second the same prefix with
    # the loop of length 3: A at its first letter only
    first = _lasso(*positives)
    second = _lasso(positives[0], "A . .")
    neg = _lasso(*negative)
    found = [(first,), (second,), (neg,)]
    assert qbe._simulates_product(found, 2) is fires
    assert _branch_next_diamond_separates([first, second], [neg]) is not fires
    # a second negative that is the empty word changes nothing
    empty = _lasso("", ".")
    assert qbe._simulates_product(found + [(empty,)], 2) is fires
    assert qbe._simulates_product([(first,), (second,), (empty,), (neg,)], 2) is fires


@pytest.mark.parametrize("negative, fires", [((".", "A B"), True), (("AB", ". AB ."), False)])
def test_loops_of_one_length_out_of_phase(negative, fires):
    # (A B)^ω and (B A)^ω hold no atom together at one position, but the
    # product's F-successors of (0, 0) include (0, 1), so both hold F(A ∧ X B)
    positives = [_lasso("", "A B"), _lasso("", "B A")]
    neg = _lasso(*negative)
    assert qbe._simulates_product([(w,) for w in (*positives, neg)], 2) is fires
    assert _branch_next_diamond_separates(positives, [neg]) is not fires


def test_the_check_is_not_sound_for_until():
    # {B@5} simulates the product of {B@1} and {A@1, B@2}, so no diamond
    # class separates; A U B does, in every until class
    e = ex([[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 5)]])
    assert _fires(_kept(e, None))
    verdicts = [decide(Problem(cls, e)) for cls in QueryClass]
    for cls, v in zip(QueryClass, verdicts):
        if cls in qbe.DIAMOND_CLASSES:
            assert not v.separable, cls
        else:
            assert v.witness == Until(Prop("A"), Prop("B")), cls


# both positives hold F A ∧ F B, neither negative does; every path-diamond
# query both positives hold, one of the negatives holds too
_BRANCH_ONLY = ex([[("A", 1), ("B", 2)], [("B", 1), ("A", 2)]], [[("A", 1)], [("B", 1)]])


def test_a_firing_check_against_a_kept_separable_verdict_is_an_error(monkeypatch):
    monkeypatch.setattr(qbe, "_simulates_product", lambda *a: True)
    assert decide(Problem(QueryClass.BRANCH_DIAMOND, _BRANCH_ONLY)).separable
    with pytest.raises(LatticeError):
        decide(Problem(QueryClass.PATH_DIAMOND, _BRANCH_ONLY))
    # neither verdict replaces the kept one: no class joins as not
    # separable, and the record keeps branch-diamond's checked witness, with
    # the classes above branch-diamond that it answers too
    known = kept_record(_BRANCH_ONLY)
    assert not known
    above = {QueryClass.BRANCH_DIAMOND, QueryClass.BRANCH_NEXT_DIAMOND, QueryClass.SIMPLE_UNTIL, QueryClass.FULL_UNTIL}
    assert [(v.separable, classes) for v, classes in known.checked.items()] == [(True, above)]


def test_a_lattice_contradiction_exits_five(monkeypatch, tmp_path, capsys):
    doc = {
        "format": 1,
        "positives": [{"facts": [["A", 1], ["B", 2]]}, {"facts": [["B", 1], ["A", 2]]}],
        "negatives": [{"facts": [["A", 1]]}, {"facts": [["B", 1]]}],
    }
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(qbe, "_simulates_product", lambda *a: True)
    assert cli.main(["separable", "--class", "branch-diamond", "--input", str(path)]) == 0
    assert cli.main(["separable", "--class", "path-diamond", "--input", str(path)]) == 5
    assert "LatticeError" in capsys.readouterr().err


def test_without_a_kept_witness_the_firing_check_settles_every_diamond_class():
    e = ex([[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 5)]])
    assert not decide(Problem(QueryClass.PATH_DIAMOND, e)).separable
    known = kept_record(e)
    assert set(known) == set(qbe.DIAMOND_CLASSES)
    assert not any(v.separable for v in known.values())
    # a set the check does not settle keeps only the class decided
    qbe._record.cache_clear()
    assert not decide(Problem(QueryClass.PATH_DIAMOND, _BRANCH_ONLY)).separable
    known = kept_record(_BRANCH_ONLY)
    assert list(known) == [QueryClass.PATH_DIAMOND]
