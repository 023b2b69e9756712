"""A set's classes decided in turn along the class lattice, answered from
the per-set verdict memo `qbe._record` where a kept witness lies in them."""

import ast
import random
from operator import le

import pytest

from conftest import BENCH, module_caches, rand_example_set, rand_horn_ontology
from ltlqbe import qbe, tsys
from ltlqbe.core import QueryClass, in_class
from ltlqbe.qbe import Problem, decide
from test_qbe import _prior_ontology, _two_sided_set


def _answer(p: Problem):
    try:
        return decide(p).separable
    except Exception as exc:  # a class that raises must raise either way
        return type(exc).__name__


_SEARCHES = ("dp_path", "prior_path_search", "failing_run", "failing_subtree_of_union")


def _in_order_and_cold(monkeypatch, sets, classes) -> tuple[list, list, int, int]:
    """Each set's verdicts for `classes` decided in turn, and again with no
    known verdicts before each call; and how many searches ran each time."""
    searches = []
    for name in _SEARCHES:
        fn = getattr(qbe, name)
        monkeypatch.setattr(qbe, name, lambda *a, fn=fn, **k: searches.append(fn) or fn(*a, **k))
    in_order, cold = [], []
    for e, onto in sets:
        qbe._record.cache_clear()
        in_order += [_answer(Problem(cls, e, onto)) for cls in classes]
    warm = len(searches)
    for e, onto in sets:
        for cls in classes:
            qbe._record.cache_clear()
            cold.append(_answer(Problem(cls, e, onto)))
    return in_order, cold, warm, len(searches) - warm


@pytest.mark.parametrize("kind", ["plain", "horn", "box/diamond"])
def test_known_verdicts_answer_as_the_cold_routes(monkeypatch, kind):
    # a kept witness answers only the classes it lies in, so deciding the
    # classes in turn must give the verdicts each class gets on its own
    rng = random.Random({"plain": 54000, "horn": 55000, "box/diamond": 56000}[kind])
    classes = list(QueryClass)
    if kind == "plain":
        sets = [(rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3), None) for _ in range(300)]
    elif kind == "horn":
        sets = []
        for _ in range(100):
            onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
            sets.append((_two_sided_set(rng, ("A", "B"), 3), onto))
    else:
        # path-diamond first, then branch-diamond, then the classes that
        # raise on data without a least word, before and after a known witness
        sets = []
        for _ in range(60):
            onto = _prior_ontology(rng)
            sets.append((_two_sided_set(rng, ("A", "B"), 2), onto))
        classes = [QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND]
        classes += [cls for cls in QueryClass if cls not in classes]
    in_order, cold, warm_searches, cold_searches = _in_order_and_cold(monkeypatch, sets, classes)
    assert in_order == cold
    assert {True, False} <= set(cold)
    if kind == "box/diamond":
        assert "UnsupportedProblem" in cold
    # the known verdicts settle a share of the calls without a search
    assert warm_searches < cold_searches


# dp_path, tsys._play and failing_run calls per class, each class decided
# alone over the sets of _work_sets with every cache cleared before each
# call; counted before the set's verdicts were kept across classes, and
# before a negative that holds a positive was answered without a search
_WORK_BEFORE_CHECK = {
    QueryClass.PATH_DIAMOND: (34, 0, 0),
    QueryClass.PATH_NEXT_DIAMOND: (34, 0, 0),
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: (34, 0, 0),
    QueryClass.BRANCH_DIAMOND: (40, 0, 0),
    QueryClass.BRANCH_NEXT_DIAMOND: (40, 0, 0),
    QueryClass.PATH_UNTIL: (0, 94, 34),
    QueryClass.SIMPLE_UNTIL: (0, 110, 34),
    QueryClass.FULL_UNTIL: (0, 168, 34),
}

# the same counts with that check, before positives that share no atom were
# answered without a search
_WORK_BEFORE_SHARED_ATOMS = {
    QueryClass.PATH_DIAMOND: (20, 0, 0),
    QueryClass.PATH_NEXT_DIAMOND: (20, 0, 0),
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: (20, 0, 0),
    QueryClass.BRANCH_DIAMOND: (25, 0, 0),
    QueryClass.BRANCH_NEXT_DIAMOND: (25, 0, 0),
    QueryClass.PATH_UNTIL: (0, 55, 20),
    QueryClass.SIMPLE_UNTIL: (0, 56, 20),
    QueryClass.FULL_UNTIL: (0, 60, 20),
}

# the same counts with both checks, before the positives' common block
# answered the classes with X: the sets the checks settle run no search
_WORK_BEFORE_BLOCK = {
    QueryClass.PATH_DIAMOND: (19, 0, 0),
    QueryClass.PATH_NEXT_DIAMOND: (19, 0, 0),
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: (19, 0, 0),
    QueryClass.BRANCH_DIAMOND: (24, 0, 0),
    QueryClass.BRANCH_NEXT_DIAMOND: (24, 0, 0),
    QueryClass.PATH_UNTIL: (0, 52, 19),
    QueryClass.SIMPLE_UNTIL: (0, 52, 19),
    QueryClass.FULL_UNTIL: (0, 52, 19),
}

# the same counts with the common block too: the classes with X search
# only the sets whose negatives hold a prefix of it
_WORK = {
    QueryClass.PATH_DIAMOND: (19, 0, 0),
    QueryClass.PATH_NEXT_DIAMOND: (2, 0, 0),
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: (2, 0, 0),
    QueryClass.BRANCH_DIAMOND: (24, 0, 0),
    QueryClass.BRANCH_NEXT_DIAMOND: (2, 0, 0),
    QueryClass.PATH_UNTIL: (0, 6, 2),
    QueryClass.SIMPLE_UNTIL: (0, 6, 2),
    QueryClass.FULL_UNTIL: (0, 6, 2),
}

# of the 45 sets of _work_sets, those with a negative that holds a positive,
# those of the others whose positives share no atom, and those of the rest
# whose common block separates (for a class with X)
_HELD = 14
_SHARED = 1
_BLOCK = 17


def _work_sets():
    rng = random.Random(53000)
    sets = [(rand_example_set(rng, max_ts=4, max_pos=2, max_neg=2), None) for _ in range(30)]
    sets += [
        (_two_sided_set(rng, ("A", "B"), 3), rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3))
        for _ in range(15)
    ]
    return sets


def _alone(monkeypatch, cls) -> tuple[tuple[int, int, int], dict]:
    """The dp_path, _play and failing_run calls of cls decided alone over
    _work_sets, every cache cleared before each set, and each check's
    results."""
    log = []
    for module, name in ((qbe, "dp_path"), (tsys, "_play"), (qbe, "failing_run")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k: log.append(name) or fn(*a, **k))
    fired = {"_holds_a_positive": [], "_share_no_atom": [], "_common_block": []}
    for name, out in fired.items():
        check = getattr(qbe, name)
        monkeypatch.setattr(qbe, name, lambda *a, check=check, out=out: out.append(check(*a)) or out[-1])
    caches = module_caches().values()
    for e, onto in _work_sets():
        for cache in caches:
            cache.cache_clear()
        decide(Problem(cls, e, onto))
    return tuple(map(log.count, ("dp_path", "_play", "failing_run"))), fired


@pytest.mark.parametrize("cls", list(QueryClass), ids=lambda cls: cls.value)
def test_a_class_decided_alone_runs_the_same_searches(monkeypatch, cls):
    # a class asked alone searches as it did, but for the sets the checks
    # settle, which search nothing; with the common block off, as before it
    with monkeypatch.context() as m:
        m.setattr(qbe, "_common_block", lambda known: None)
        assert _alone(m, cls)[0] == _WORK_BEFORE_BLOCK[cls]
    counts, fired = _alone(monkeypatch, cls)
    assert counts == _WORK[cls]
    assert all(map(le, counts, _WORK_BEFORE_BLOCK[cls]))
    assert all(map(le, _WORK_BEFORE_BLOCK[cls], _WORK_BEFORE_SHARED_ATOMS[cls]))
    assert all(map(le, _WORK_BEFORE_SHARED_ATOMS[cls], _WORK_BEFORE_CHECK[cls]))
    assert (fired["_holds_a_positive"].count(True), fired["_share_no_atom"].count(True)) == (_HELD, _SHARED)
    blocks = sum(v is not None for v in fired["_common_block"])
    assert blocks == (0 if cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND) else _BLOCK)


# dp_path calls with the five diamond classes of each set of _work_sets
# decided in turn, every cache cleared before each set: with the product
# simulation off, and on; and the number of sets it settles.  Before
# positives that share no atom were answered without a search, and with
# that check (the one set the simulation settled is then settled first),
# both before the positives' common block answered the classes with X; and
# with the block too
_IN_ORDER_DP_PATH_BEFORE_SHARED_ATOMS = (32, 28)
_SETTLED_BEFORE_SHARED_ATOMS = 1
_IN_ORDER_DP_PATH_BEFORE_BLOCK = (27, 27)
_SETTLED_BEFORE_BLOCK = 0
_IN_ORDER_DP_PATH = (24, 24)


def _diamond_classes_in_turn(monkeypatch) -> list[tuple[int, bool]]:
    """Per set of _work_sets: the dp_path calls of its five diamond classes
    decided in turn, and whether the product simulation settled it."""
    log = []
    dp_path, simulates = qbe.dp_path, qbe._simulates_product
    monkeypatch.setattr(qbe, "dp_path", lambda *a, **k: log.append("dp_path") or dp_path(*a, **k))
    monkeypatch.setattr(qbe, "_simulates_product", lambda *a: log.append(simulates(*a)) or log[-1])
    caches = module_caches().values()
    per_set = []
    for e, onto in _work_sets():
        for cache in caches:
            cache.cache_clear()
        del log[:]
        for cls in qbe.DIAMOND_CLASSES:
            decide(Problem(cls, e, onto))
        per_set.append((log.count("dp_path"), True in log))
    return per_set


def _simulation_off_and_on(monkeypatch) -> tuple[list, list]:
    with monkeypatch.context() as m:
        m.setattr(qbe, "_simulates_product", lambda *a: False)
        before = _diamond_classes_in_turn(m)
    return before, _diamond_classes_in_turn(monkeypatch)


def _diamond_classes_before_the_block(monkeypatch) -> tuple[list, list]:
    with monkeypatch.context() as m:
        m.setattr(qbe, "_share_no_atom", lambda *a: False)
        before, after = _simulation_off_and_on(m)
    assert (sum(n for n, _ in before), sum(n for n, _ in after)) == _IN_ORDER_DP_PATH_BEFORE_SHARED_ATOMS
    settled = [i for i, (_, fired) in enumerate(after) if fired]
    assert len(settled) == _SETTLED_BEFORE_SHARED_ATOMS
    for i, ((old, _), (new, fired)) in enumerate(zip(before, after)):
        assert new == (1 if fired else old), i
    # with the shared-atom check, no set searches more
    shared = _simulation_off_and_on(monkeypatch)
    assert tuple(sum(n for n, _ in run) for run in shared) == _IN_ORDER_DP_PATH_BEFORE_BLOCK
    assert sum(fired for _, fired in shared[1]) == _SETTLED_BEFORE_BLOCK
    for run in shared:
        assert all(new <= old for (new, _), (old, _) in zip(run, after))
    return shared


def test_diamond_classes_in_turn_search_a_settled_set_once(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(qbe, "_common_block", lambda known: None)
        shared = _diamond_classes_before_the_block(m)
    # with the block, no set searches more, and the simulation settles none
    block = _simulation_off_and_on(monkeypatch)
    assert tuple(sum(n for n, _ in run) for run in block) == _IN_ORDER_DP_PATH
    assert not any(fired for _, fired in block[1])
    for run, old_run in zip(block, shared):
        assert all(new <= old for (new, _), (old, _) in zip(run, old_run))


# verify_witness calls per class with the classes of each set of _work_sets
# decided in turn, every cache cleared before each set: before a set's
# record kept the witnesses it had checked, when every separable verdict
# re-verified its witness, and with them, when a kept witness answers a
# later class after one in_class walk
_CHECKS_BEFORE_KEPT_WITNESSES = {
    QueryClass.PATH_DIAMOND: 26,
    QueryClass.PATH_NEXT_DIAMOND: 30,
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: 30,
    QueryClass.BRANCH_DIAMOND: 30,
    QueryClass.BRANCH_NEXT_DIAMOND: 30,
    QueryClass.PATH_UNTIL: 30,
    QueryClass.SIMPLE_UNTIL: 30,
    QueryClass.FULL_UNTIL: 30,
}
_CHECKS = {
    QueryClass.PATH_DIAMOND: 26,
    QueryClass.PATH_NEXT_DIAMOND: 4,
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS: 0,
    QueryClass.BRANCH_DIAMOND: 4,
    QueryClass.BRANCH_NEXT_DIAMOND: 0,
    QueryClass.PATH_UNTIL: 0,
    QueryClass.SIMPLE_UNTIL: 0,
    QueryClass.FULL_UNTIL: 0,
}


def test_a_kept_witness_is_verified_once_per_set(monkeypatch):
    log = []  # (set index, class, witness) per verify_witness call
    verify = qbe.verify_witness
    monkeypatch.setattr(qbe, "verify_witness", lambda p, q: log.append((i, p.cls, q)) or verify(p, q))
    caches = module_caches().values()
    for i, (e, onto) in enumerate(_work_sets()):
        for cache in caches:
            cache.cache_clear()
        for cls in QueryClass:
            decide(Problem(cls, e, onto))
    counts = {cls: sum(c is cls for _, c, _ in log) for cls in QueryClass}
    assert counts == _CHECKS
    assert all(counts[cls] <= _CHECKS_BEFORE_KEPT_WITNESSES[cls] for cls in QueryClass)
    checked = [(i, q) for i, _, q in log]
    assert len(set(checked)) == len(checked)


def _bench_inclusions() -> set:
    """The pairs of perfbench/run.py's INCLUSIONS, read off its source."""
    tree = ast.parse((BENCH / "run.py").read_text())
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)]
    (value,) = [node.value for node in assigns if getattr(node.targets[0], "id", None) == "INCLUSIONS"]
    return set(ast.literal_eval(value))


def test_the_inclusion_table_is_the_bench_s():
    assert {(a.value, b.value) for a, b in qbe._INCLUSIONS} == _bench_inclusions()
    assert len(qbe._INCLUSIONS) == 10
    assert qbe._UP[QueryClass.PATH_DIAMOND] == set(QueryClass)
    assert qbe._UP[QueryClass.FULL_UNTIL] == {QueryClass.FULL_UNTIL}
    for small, large in qbe._INCLUSIONS:
        assert qbe._UP[large] < qbe._UP[small]


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_a_witness_in_a_class_lies_in_every_class_above(kind):
    # the lattice answers of _checked and _known_verdict skip the in_class
    # walk for the classes above one a witness was checked in
    rng = random.Random({"plain": 57000, "horn": 58000}[kind])
    witnesses = set()
    for _ in range(150):
        if kind == "plain":
            e, onto = rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3), None
        else:
            onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
            e = _two_sided_set(rng, ("A", "B"), 3)
        for cls in QueryClass:
            for cache in module_caches().values():
                cache.cache_clear()
            verdict = decide(Problem(cls, e, onto))
            if verdict.separable:
                witnesses.add(verdict.witness)
    assert len(witnesses) > 20
    for q in witnesses:
        for cls in QueryClass:
            if in_class(q, cls):
                assert all(in_class(q, above) for above in qbe._UP[cls]), (q, cls)
