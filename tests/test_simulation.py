"""Diamond classes settled by one product simulation: once a path class's
search finds no separator on a set whose instances all have a `models`
word, `decide` refines the product of the positives' words against each
negative's word (`qbe._simulates_product`), in two levels.  A negative that
simulates the product under F alone settles path-diamond and
branch-diamond, the two classes without X; one that simulates it under X
and F settles all five diamond classes.  Each level is exact for the
branching class it settles: {A@1} against {A@2} fires the F level only, so
path-diamond and branch-diamond do not separate while path-next-diamond
answers X A.  A branch class the refinement left separable, that its own
route answers not separable, is a `LatticeError`."""

import itertools
import json
import random

import pytest

from conftest import kept_record, rand_example_set, rand_horn_ontology
from ltlqbe import cli, qbe
from ltlqbe.core import DataInstance, ExampleSet, Prop, QueryClass, Until, parse_query
from ltlqbe.qbe import LatticeError, Problem, Verdict, decide
from test_holds import _kept, _lasso, _sets
from test_qbe import _two_sided_set, ex

_F_LEVEL = (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND)


def _levels(found: list, npos: int) -> tuple[bool, bool]:
    """Whether the F level fires, and whether the X/F level does."""
    settled = qbe._simulates_product(found, npos)
    assert settled in ((), _F_LEVEL, qbe.DIAMOND_CLASSES)
    return QueryClass.BRANCH_DIAMOND in settled, QueryClass.BRANCH_NEXT_DIAMOND in settled


def _fires(kept) -> tuple[bool, bool]:
    e, found = kept
    return _levels(found, len(e.positives))


def _check_is_exact(kind: str, level: int, cls: QueryClass) -> None:
    """On the `test_holds` sets of `kind`, the level fires iff cls, decided
    alone, is not separable; both outcomes are seen, for 2 and 3 positives
    on plain data."""
    seen = set()
    for e, onto in _sets(kind):
        kept = _kept(e, onto)
        if kept is None or not kept[0].positives or not kept[0].negatives:
            continue
        qbe._record.cache_clear()
        separable = decide(Problem(cls, e, onto)).separable
        assert _fires(kept)[level] is not separable, (e, onto)
        seen.add((len(kept[0].positives), separable))
    both = {(n, s) for n in ((2, 3) if kind == "plain" else (2,)) for s in (True, False)}
    assert both <= seen


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_the_check_fires_iff_branch_next_diamond_is_not_separable(kind):
    # the logic of atoms, ∧, X and F is the one simulation preserves, so the
    # X/F level is exact for branch-next-diamond, the largest diamond class
    _check_is_exact(kind, 1, QueryClass.BRANCH_NEXT_DIAMOND)


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_the_f_level_fires_iff_branch_diamond_is_not_separable(kind):
    # the logic of atoms, ∧ and F is the one F-simulation preserves, so the
    # F level is exact for branch-diamond
    _check_is_exact(kind, 0, QueryClass.BRANCH_DIAMOND)


def _branch_separates(positives, negatives, cls) -> bool:
    """cls's own route over the words: one search per negative in its path
    class, all-top blocks allowed."""
    for neg in negatives:
        e = ExampleSet((DataInstance.of([]),) * len(positives), (DataInstance.of([]),))
        v = qbe.dp_path(e, [*positives, neg], qbe._BRANCH_TO_PATH[cls], allow_empty_blocks=True)
        if not v.separable:
            return False
    return True


def _branch_levels(positives, negatives) -> tuple[bool, bool]:
    """Whether branch-diamond, and whether branch-next-diamond, do not
    separate, by their own routes."""
    return tuple(not _branch_separates(positives, negatives, cls) for cls in qbe.BRANCH_CLASSES)


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
    levels = _levels(found, 2)
    assert levels[1] is fires
    assert levels == _branch_levels([first, second], [neg])
    # a second negative that is the empty word changes nothing
    empty = _lasso("", ".")
    assert _levels(found + [(empty,)], 2) == levels
    assert _levels([(first,), (second,), (empty,), (neg,)], 2) == levels


@pytest.mark.parametrize("negative, fires", [((".", "A B"), True), (("AB", ". AB ."), False)])
def test_loops_of_one_length_out_of_phase(negative, fires):
    # (A B)^ω and (B A)^ω hold no atom together at one position, but the
    # product's F-successors of (0, 0) include (0, 1), so both hold F(A ∧ X B)
    positives = [_lasso("", "A B"), _lasso("", "B A")]
    neg = _lasso(*negative)
    levels = _levels([(w,) for w in (*positives, neg)], 2)
    assert levels[1] is fires
    assert levels == _branch_levels(positives, [neg])


def test_the_check_is_not_sound_for_until():
    # {B@5} simulates the product of {B@1} and {A@1, B@2}, so no diamond
    # class separates; A U B does, in every until class
    e = ex([[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 5)]])
    assert _fires(_kept(e, None)) == (True, True)
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
    for settled in (qbe.DIAMOND_CLASSES, _F_LEVEL):
        qbe._record.cache_clear()
        monkeypatch.setattr(qbe, "_simulates_product", lambda *a: settled)
        assert decide(Problem(QueryClass.BRANCH_DIAMOND, _BRANCH_ONLY)).separable
        with pytest.raises(LatticeError):
            decide(Problem(QueryClass.PATH_DIAMOND, _BRANCH_ONLY))
        # neither verdict replaces the kept one: no class joins as not
        # separable, and the record keeps branch-diamond's checked witness,
        # with the classes above branch-diamond that it answers too
        known = kept_record(_BRANCH_ONLY)
        assert not known and known.settled is None
        above = {QueryClass.BRANCH_DIAMOND, QueryClass.BRANCH_NEXT_DIAMOND, QueryClass.SIMPLE_UNTIL, QueryClass.FULL_UNTIL}
        assert [(v.separable, classes) for v, classes in known.checked.items()] == [(True, above)]


# the positive holds A at 1, the negative at 2: both hold F A, so the
# negative F-simulates the product, but not under X, as X A tells them apart
_F_ONLY = ex([[("A", 1)]], [[("A", 2)]])


def test_only_the_f_level_fires_on_a_at_1_against_a_at_2(monkeypatch):
    assert _fires(_kept(_F_ONLY, None)) == (True, False)
    routes = []
    branch = qbe._decide_branch
    monkeypatch.setattr(qbe, "_decide_branch", lambda *a: routes.append(a[-1]) or branch(*a))
    verdicts = {cls: decide(Problem(cls, _F_ONLY)) for cls in qbe.DIAMOND_CLASSES}
    for cls, v in verdicts.items():
        assert v == (Verdict(False) if cls in _F_LEVEL else Verdict(True, parse_query("X A"))), cls
    known = kept_record(_F_ONLY)
    assert list(known) == list(_F_LEVEL) and known.settled == _F_LEVEL
    # branch-diamond is the record's, branch-next-diamond the common block's
    assert routes == []


@pytest.mark.parametrize(
    "e, cls",
    [(_BRANCH_ONLY, QueryClass.BRANCH_DIAMOND), (_BRANCH_ONLY, QueryClass.BRANCH_NEXT_DIAMOND),
     (_F_ONLY, QueryClass.BRANCH_NEXT_DIAMOND)],
)
def test_a_branch_class_the_refinement_left_separable_must_separate(monkeypatch, e, cls):
    # neither level fires on _BRANCH_ONLY, only the F level on _F_ONLY; a
    # branch route that answers not separable there contradicts the level
    monkeypatch.setattr(qbe, "_decide_branch", lambda *a: Verdict(False))
    monkeypatch.setattr(qbe, "_common_block", lambda known: None)
    assert not decide(Problem(QueryClass.PATH_DIAMOND, e)).separable
    with pytest.raises(LatticeError):
        decide(Problem(cls, e))
    known = kept_record(e)
    assert cls not in known and cls not in known.settled
    # asked before any path class, the route's answer has nothing to contradict
    qbe._record.cache_clear()
    assert decide(Problem(cls, e)) == Verdict(False)


def _exit_codes(tmp_path, classes) -> list[int]:
    """The CLI's exit codes for `_BRANCH_ONLY`'s classes asked in turn."""
    doc = {
        "format": 1,
        "positives": [{"facts": [["A", 1], ["B", 2]]}, {"facts": [["B", 1], ["A", 2]]}],
        "negatives": [{"facts": [["A", 1]]}, {"facts": [["B", 1]]}],
    }
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    return [cli.main(["separable", "--class", cls, "--input", str(path)]) for cls in classes]


def test_a_lattice_contradiction_exits_five(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(qbe, "_simulates_product", lambda *a: qbe.DIAMOND_CLASSES)
    assert _exit_codes(tmp_path, ["branch-diamond", "path-diamond"]) == [0, 5]
    assert "LatticeError" in capsys.readouterr().err


def test_a_branch_route_against_a_level_found_false_exits_five(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(qbe, "_decide_branch", lambda *a: Verdict(False))
    assert _exit_codes(tmp_path, ["path-diamond", "branch-diamond"]) == [1, 5]
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


# the sets `_f_only_sets` picks of each kind; of test_holds' 60 box/diamond
# sets, one fires the F level alone
_F_ONLY_SETS = {"plain": 300, "horn": 100, "box/diamond": 1}


def _f_only_sets(kind: str) -> list:
    """Sets on which deciding path-diamond runs the refinement and only its
    F level fires: the first 300 of seeded plain draws, the first 100 of
    seeded Horn draws, and all of `test_holds`' box/diamond sets."""
    rng = random.Random({"plain": 60000, "horn": 61000}.get(kind))
    if kind == "plain":
        draws = ((rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3), None) for _ in itertools.count())
    elif kind == "horn":
        draws = ((_two_sided_set(rng, ("A", "B"), 3), rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3))
                 for _ in itertools.count())
    else:
        draws = _sets(kind)
    picked = []
    for e, onto in draws:
        qbe._record.cache_clear()
        decide(Problem(QueryClass.PATH_DIAMOND, e, onto))
        if qbe._record(e, onto).settled == _F_LEVEL:
            picked.append((e, onto))
            if kind != "box/diamond" and len(picked) == _F_ONLY_SETS[kind]:
                break
    return picked


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_the_f_level_answers_as_the_searches(monkeypatch, kind):
    # path-diamond and branch-diamond decided in turn with the F level, and
    # each alone with only the X/F level and the record cleared, so that
    # branch-diamond runs its own per-negative searches
    sets = _f_only_sets(kind)
    assert len(sets) == _F_ONLY_SETS[kind]
    classes = (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND)
    on = []
    for e, onto in sets:
        qbe._record.cache_clear()
        on += [decide(Problem(cls, e, onto)) for cls in classes]
    simulates = qbe._simulates_product

    def x_f_level_only(*args):
        settled = simulates(*args)
        return settled if settled == qbe.DIAMOND_CLASSES else ()

    monkeypatch.setattr(qbe, "_simulates_product", x_f_level_only)
    off = []
    for e, onto in sets:
        for cls in classes:
            qbe._record.cache_clear()
            off.append(decide(Problem(cls, e, onto)))
    assert on == off
    assert not any(v.separable for v in on)
