import copy
import hashlib
import math
import pickle
import random

import pytest

from conftest import (
    EMPTY_ONTOLOGY,
    lasso_is_model,
    lasso_models_of,
    rand_horn_ontology,
    rand_instance,
    rand_query,
    ref_eval_data,
    rewrite_diamonds,
)
from ltlqbe import horn
from ltlqbe.core import DataInstance, LassoModel, Prop, eval_lasso, parse_query
from ltlqbe.horn import (
    _NO_ATOMS,
    CanonicalModel,
    ChaseWindowOverflow,
    HornOntology,
    Inconsistent,
    _Bottom,
    _GuardedAxiom,
    _reduce,
)

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


@pytest.mark.parametrize(
    "text, column", [("A -> X", 7), ("A & ", 5), ("A -> ", 6), ("A -> G X", 9), ("A", 2)]
)
def test_parse_reports_end_of_line_for_a_cut_off_literal(text, column):
    with pytest.raises(horn.OntologyParseError) as err:
        horn.load_ontology(f"B -> C\n{text}")
    assert err.value.line == 2 and err.value.column == column - 1
    assert f"(line 2, column {column})" in str(err.value)


def test_ontology_hash_and_constants_are_cached_values():
    rng = random.Random(4400)
    for _ in range(100):
        o = rand_horn_ontology(rng)
        twin = HornOntology(o.axioms)
        assert set(vars(o)) == {"axioms"}  # nothing computed at parse time
        if rng.random() < 0.5:
            hash(o)
        lits = [lit for ax in o.axioms for lit in ax.body + (ax.head,)]
        assert o.atoms == frozenset(lit.atom for lit in lits if lit.atom is not None)
        assert o.max_shift == max(lit.shift + lit.exists for lit in lits)
        assert hash(o) == hash(o.axioms) == hash(twin) and o == twin
        assert {o: 1}[twin] == 1
        for clone in (pickle.loads(pickle.dumps(o)), copy.copy(o), copy.deepcopy(o)):
            assert set(vars(clone)) == {"axioms"} and clone == o


def test_diamond_body_literal():
    o = horn.load_ontology("F A -> B\nF X G C & F X X A -> B")
    assert o.axioms[0].body == (horn.HornLiteral(0, False, "A", True),)
    assert o.axioms[1].body == (horn.HornLiteral(2, True, "C", True), horn.HornLiteral(2, False, "A", True))
    assert o.atoms == {"A", "B", "C"} and o.max_shift == 3
    # B holds exactly before an A
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
    cm = horn.canonical_model(EMPTY_ONTOLOGY, D([("T", 2)]))
    assert cm.handle <= 1 and cm.period == 1
    assert list(cm.lasso.prefix) == [frozenset(), frozenset(), frozenset({"T"})]
    assert cm.lasso.loop == (frozenset(),)


def test_canonical_model_inconsistent():
    o = horn.load_ontology("A -> false")
    with pytest.raises(horn.Inconsistent):
        horn.canonical_model(o, D([("A", 0)]))
    assert not horn.consistent(o, D([("A", 0)]))
    assert horn.consistent(o, D([("B", 0)]))


def test_inconsistent_outcome_is_cached():
    o = horn.load_ontology("A -> X B\nB -> false")
    d = D([("A", 0)])
    horn._canonical_model.cache_clear()
    for _ in range(3):
        with pytest.raises(horn.Inconsistent):
            horn.canonical_model(o, d)
    assert not horn.consistent(o, d)
    info = horn._canonical_model.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    # data may use any atom name, and its outcome is cached like any other
    f, d = horn.load_ontology("F A -> B"), D([("Dia__1", 0)])
    for _ in range(2):
        assert horn.canonical_model(f, d).lasso.letter(0) == {"Dia__1"}
    info = horn._canonical_model.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


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


def test_certain_answer_reads_f_bodies_on_the_canonical_lasso():
    # the canonical lasso holds only data and ontology atoms, and qbe.entailed agrees
    from ltlqbe import qbe

    o, d = horn.load_ontology("F A -> B"), D([("A", 2)])
    assert horn.canonical_model(o, d).lasso == LassoModel((frozenset("B"), frozenset("B"), frozenset("A")), (frozenset(),))
    for text, expected in [("B & X B", True), ("X X B", False), ("F A", True), ("X X X F B", False)]:
        q = parse_query(text)
        assert horn.certain_answer(o, d, q, 0) == qbe.entailed(o, d, q) == expected, text


def test_data_may_use_any_atom_name():
    o = horn.load_ontology("F A -> B")
    cm = horn.canonical_model(o, D([("Dia__1", 0), ("A", 2)]))
    assert cm.lasso.letter(0) == {"Dia__1", "B"} and cm.lasso.letter(1) == {"B"}
    assert horn.certain_answer(o, D([("Dia__1", 0), ("A", 2)]), Prop("Dia__1"), 0)


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
        assert horn.certain_answer(EMPTY_ONTOLOGY, d, q, at) == ref_eval_data(d, q, at)


# ---------------------------------------------------------------------------
# the bitmask chase against the set chase it replaced
#
# Verbatim copies of the set-based window chase, repetition search, folded
# re-chase, model check, box-free model and guard loop.  The bitmask versions
# must give the same atoms at every position, the same obligations in the
# same order (they decide where a stretch may fold), the same first fold
# candidate and the same models.  The engine checks that fold directly; the
# old design re-chased every candidate on its folded word first.


_INCOMPATIBLE = object()


def _old_window_chase(axioms: list[_GuardedAxiom], data: DataInstance, width: int):
    """Fixpoint on [0, width); body reads beyond the window count as false.

    An F literal reads the letters as they stood when the axiom's scan
    began; only the head atom changes during a scan.
    """
    atoms: list[set[str]] = [set() for _ in range(width)]
    for a, t in data.facts:
        if t < width:
            atoms[t].add(a)
    obligations: list[tuple[str, int]] = []
    changed = True
    while changed:
        changed = False
        for ax in axioms:
            before = [frozenset(s) for s in atoms]
            for n in range(ax.guard, width):
                ok = True
                for lit in ax.body:
                    t = n + lit.shift
                    if lit.atom is None:
                        ok = False
                    elif lit.exists:
                        ok = any(lit.atom in before[j] for j in range(t + 1, width))
                    else:
                        ok = t < width and lit.atom in atoms[t]
                    if not ok:
                        break
                if not ok:
                    continue
                head = ax.head
                if head.atom is None:
                    raise _Bottom
                t = n + head.shift
                if head.forall:
                    if all(head.atom in atoms[j] for j in range(t, width)):
                        continue
                    for j in range(t, width):
                        atoms[j].add(head.atom)
                    obligations.append((head.atom, t))
                    changed = True
                elif t < width and head.atom not in atoms[t]:
                    atoms[t].add(head.atom)
                    changed = True
    return atoms, obligations


def _old_candidates(atoms, obligations, start_at, width, hist, margin=None):
    """(m, n) pairs folding the first repeating chase states, oldest first,
    the window checked up to its last `margin` positions (2 * hist + 2 by
    default)."""
    if margin is None:
        margin = 2 * hist + 2
    seen: dict[tuple, int] = {}
    out = []
    for n in range(start_at, width - margin):
        window = tuple(
            frozenset(atoms[j]) if j >= 0 else None for j in range(n - hist + 1, n + 1)
        )
        active = frozenset(a for a, s in obligations if s <= n)
        state = (window, active)
        m = seen.get(state)
        if m is None:
            seen[state] = n
            continue
        p = n - m
        if all(atoms[q] == atoms[q - p] for q in range(n, width - margin)):
            # also offer loop-aligned later starts; a head fired from inside
            # the prefix may need a longer handle to stay representable
            for j in range(6):
                if n + j * p < width - margin:
                    out.append((m + j * p, n + j * p))
            if len(out) >= 4:
                break
    return out


def _old_folded_chase(axioms: list[_GuardedAxiom], data: DataInstance, prefix, loop):
    """Exact least fixpoint over words of the given lasso shape.

    Returns (prefix, loop) or _INCOMPATIBLE when a single-point head fired
    from a prefix position would land inside the loop: folding would smear
    it over every loop pass, so the shape cannot represent the least model.
    It stays on atom sets: a read that wraps round the loop sees the writes
    of the same scan or not depending on the anchors' order, and whether a
    prefix anchor's write into the loop is new depends on that state.
    """
    pre, per = len(prefix), len(loop)
    entries = [set(s) for s in prefix] + [set(s) for s in loop]
    for a, t in data.facts:
        if t >= pre + per:
            return _INCOMPATIBLE
        entries[t].add(a)

    def fold(t: int) -> int:
        return t if t < pre + per else pre + (t - pre) % per

    changed = True
    while changed:
        changed = False
        for ax in axioms:
            if ax.guard > pre:
                return _INCOMPATIBLE  # loop anchors must all satisfy the guard
            for n in range(ax.guard, pre + per):
                ok = True
                for lit in ax.body:
                    # false (atom None) is in no entry
                    if lit.exists:
                        ok = any(lit.atom in entries[j] for j in range(min(n + lit.shift + 1, pre), pre + per))
                    else:
                        ok = lit.atom in entries[fold(n + lit.shift)]
                    if not ok:
                        break
                if not ok:
                    continue
                head = ax.head
                if head.atom is None:
                    raise _Bottom
                t = n + head.shift
                if head.forall:
                    for j in range(min(t, pre), pre + per):
                        if (j >= t or j >= pre) and head.atom not in entries[j]:
                            entries[j].add(head.atom)
                            changed = True
                else:
                    ft = fold(t)
                    if head.atom in entries[ft]:
                        continue
                    if n < pre and t >= pre:
                        return _INCOMPATIBLE
                    entries[ft].add(head.atom)
                    changed = True
    # the cached models keep these letters; about 40 % of them are empty,
    # and those share one object
    word = tuple(frozenset(s) if s else _NO_ATOMS for s in entries)
    return word[:pre], word[pre:]


def _old_is_model(axioms: list[_GuardedAxiom], data: DataInstance, prefix, loop) -> bool:
    pre, per = len(prefix), len(loop)
    entries = list(prefix) + list(loop)

    def fold(t: int) -> int:
        return t if t < pre + per else pre + (t - pre) % per

    def holds(lit, n: int) -> bool:
        if lit.atom is None:
            return False
        if lit.exists:
            # some timepoint after n + shift; the next pre + per reach every loop position
            first = n + lit.shift + 1
            return any(lit.atom in entries[fold(j)] for j in range(first, first + pre + per))
        return lit.atom in entries[fold(n + lit.shift)]

    def holds_from(atom: str, start: int) -> bool:
        if any(atom not in entries[j] for j in range(pre, pre + per)):
            return False
        return all(atom in entries[j] for j in range(start, pre))

    for a, t in data.facts:
        if a not in entries[fold(t)]:
            return False
    for ax in axioms:
        if ax.guard > pre:
            return False
        for n in range(ax.guard, pre + per):
            if not all(holds(lit, n) for lit in ax.body):
                continue
            head = ax.head
            if head.atom is None:
                return False
            if head.forall:
                if not holds_from(head.atom, n + head.shift):
                    return False
            elif head.atom not in entries[fold(n + head.shift)]:
                return False
    return True


def _old_least_boxfree_model(
    axioms: list[_GuardedAxiom], data: DataInstance, hist: int, cap: int
) -> tuple[tuple, tuple, int, int]:
    """Exact least model of guarded box-free axioms, as (prefix, loop, m, p)."""
    max_ts = data.max_timestamp
    min_prefix = max([max_ts] + [ax.guard for ax in axioms])
    budget = 64
    while True:
        width = max_ts + budget
        if width <= min_prefix + 4 * hist + 8:
            width = min_prefix + 4 * hist + 8 + budget
        atoms, obligations = _old_window_chase(axioms, data, width)
        for m, n in _old_candidates(atoms, obligations, min_prefix, width, hist):
            prefix = tuple(frozenset(s) for s in atoms[:m])
            loop = tuple(frozenset(s) for s in atoms[m:n])
            res = _old_folded_chase(axioms, data, prefix, loop)
            if res is _INCOMPATIBLE:
                continue
            new_prefix, new_loop = res
            if _old_is_model(axioms, data, new_prefix, new_loop):
                return new_prefix, new_loop, m, n - m
        if width >= cap:
            raise ChaseWindowOverflow(
                f"no valid repetition within {width} positions; this indicates a bug"
            )
        budget *= 2


def _old_canonical_model(onto: HornOntology, data: DataInstance) -> CanonicalModel:
    max_ts = data.max_timestamp
    hist = max(1, onto.max_shift)
    subcount = sum(1 + len(ax.body) for ax in onto.axioms)
    cap = max_ts + min(2 ** min(subcount, 10) + 4 ** min(subcount, 5), 4096) + 64
    model = None
    for _ in range(4 * len(onto.axioms) * (cap + 1) + 8):
        reduced = _reduce(onto, model)
        try:
            prefix, loop, _, _ = _old_least_boxfree_model(reduced, data, hist, cap)
        except _Bottom:
            raise Inconsistent("false is derivable") from None
        if model == (prefix, loop):
            lasso = LassoModel(prefix, loop)
            return CanonicalModel(lasso, handle=len(prefix) - max_ts, period=len(loop))
        model = (prefix, loop)
    raise ChaseWindowOverflow("guard iteration failed to stabilize; this indicates a bug")


def _rand_guarded_axioms(rng: random.Random, atoms=("A", "B", "C"), loop=None) -> tuple[list, int]:
    """Random guarded axioms with X and F body literals, and how many of them
    drew an F G body literal.  The guard rounds resolve such a literal on the
    loop of the last model: the axiom keeps its guard when the atom fills
    every loop letter and is dropped otherwise.  `loop` stands for those
    letters, random ones by default."""
    if loop is None:
        loop = [frozenset(a for a in atoms if rng.random() < 0.6) for _ in range(rng.randrange(1, 3))]

    def lit() -> horn.HornLiteral:
        atom = None if rng.random() < 0.06 else rng.choice(atoms)
        return horn.HornLiteral(rng.randrange(0, 4), False, atom, rng.random() < 0.2)

    out, box_diamonds = [], 0
    for _ in range(rng.randrange(1, 6)):
        head = lit()
        head = horn.HornLiteral(head.shift, rng.random() < 0.3, head.atom)
        body = [lit() for _ in range(rng.randrange(0, 4))]
        if head.atom is not None and rng.random() < 0.4:
            # a body literal on the head atom, at or before the head's shift
            body.append(horn.HornLiteral(rng.randrange(0, head.shift + 1), False, head.atom, rng.random() < 0.25))
        rng.shuffle(body)
        guard = 0 if rng.random() < 0.6 else rng.randrange(1, 6)
        if rng.random() < 0.15:
            atom = rng.choice(atoms)
            if any(atom not in s for s in loop):
                continue
            box_diamonds += 1
        out.append(_GuardedAxiom(tuple(body), head, guard))
    return out, box_diamonds


def _rand_data(rng: random.Random, atoms=("A", "B", "C"), max_ts=6) -> DataInstance:
    return D([(rng.choice(atoms), rng.randrange(0, max_ts + 1)) for _ in range(rng.randrange(1, 5))])


def _chases(axioms, data, width):
    """(old, new) window chases as (letters, obligations), or 'bottom'."""
    try:
        atoms, obligations = _old_window_chase(axioms, data, width)
        old = ([frozenset(s) for s in atoms], obligations)
    except _Bottom:
        old = "bottom"
    try:
        masks, obligations = horn._window_chase(axioms, data, width)
        new = (list(horn._letters(masks, width)), obligations)
    except _Bottom:
        new = "bottom"
    return old, new


def _assert_same_chase(axioms, data, width, hists=(1, 2, 3)):
    old, new = _chases(axioms, data, width)
    assert new == old, (axioms, sorted(data.facts), width)
    if old == "bottom":
        return
    atoms, obligations = _old_window_chase(axioms, data, width)
    masks, _ = horn._window_chase(axioms, data, width)
    start = max([data.max_timestamp] + [ax.guard for ax in axioms])
    for hist in hists:
        for start_at in (0, start):
            # the fold's margin follows the window: a quarter of it or more
            first = _old_candidates(atoms, obligations, start_at, width, hist, max(2 * hist + 2, width // 4))[:1]
            assert horn._fold(masks, obligations, start_at, width, hist) == (first[0] if first else None), (
                axioms, sorted(data.facts), width, hist, start_at
            )


def test_chase_replays_own_writes_of_a_scan():
    # B -> X B fills B over the whole window in one ascending scan, so the
    # second pass of X B -> G A adds nothing; firing every anchor at once
    # would leave B at 2 unset for a pass and record a second obligation
    o = horn.load_ontology("X B -> G A\nB -> X B\nB -> A")
    axioms = _reduce(o, None)
    d = D([("B", 0), ("B", 3)])
    atoms, obligations = _old_window_chase(axioms, d, 67)
    assert obligations == [("A", 3)]
    _assert_same_chase(axioms, d, 67)


@pytest.mark.parametrize("text", ["A -> X X A", "A -> X X X A", "X X A -> A"])
def test_window_key_before_position_zero(text):
    # one atom and hist >= 2: windows reaching before 0 must not match a
    # full window whose first positions are empty
    o = horn.load_ontology(text)
    axioms = _reduce(o, None)
    for d in (D([("A", 0)]), D([("A", 1)]), D([("A", 0), ("A", 1)])):
        _assert_same_chase(axioms, d, 64, hists=(o.max_shift,))
        atoms, obligations = _old_window_chase(axioms, d, 64)
        assert _old_candidates(atoms, obligations, 0, 64, o.max_shift)


def test_mask_chase_equals_set_chase_on_random_guarded_axioms():
    rng = random.Random(44000)
    kinds = dict.fromkeys(
        ["G head", "own literal", "false head", "false body", "guard", "bottom", "F", "F on head atom", "F G"], 0
    )
    for _ in range(400):
        axioms, box_diamonds = _rand_guarded_axioms(rng)
        kinds["F G"] += box_diamonds
        data = _rand_data(rng)
        width = rng.randrange(12, 90)
        _assert_same_chase(axioms, data, width)
        for ax in axioms:
            kinds["G head"] += ax.head.forall
            kinds["own literal"] += any(
                l.atom == ax.head.atom and l.shift < ax.head.shift and not l.exists for l in ax.body
            ) and not ax.head.forall
            kinds["false head"] += ax.head.atom is None
            kinds["false body"] += any(l.atom is None for l in ax.body)
            kinds["guard"] += ax.guard > 0
            kinds["F"] += any(l.exists for l in ax.body)
            kinds["F on head atom"] += any(l.exists and l.atom == ax.head.atom for l in ax.body)
        kinds["bottom"] += _chases(axioms, data, width)[0] == "bottom"
    assert all(count >= 20 for count in kinds.values()), kinds


def test_mask_chase_equals_set_chase_on_reduced_ontologies():
    # X, G and F bodies, G and false heads, as the guard rounds see them
    rng = random.Random(45000)
    for _ in range(150):
        o = rand_horn_ontology(rng, atoms=("A", "B", "C"), max_axioms=4)
        d = rand_instance(rng, atoms=("A", "B", "C"), max_ts=4)
        models = [None]
        try:
            cm = horn.canonical_model(o, d)
            models.append((cm.lasso.prefix, cm.lasso.loop))
        except Inconsistent:
            pass
        for model in models:
            axioms = _reduce(o, model)
            for width in (d.max_timestamp + 64, 40):
                _assert_same_chase(axioms, d, width, hists=(max(1, o.max_shift),))


def test_mask_model_check_equals_set_model_check():
    rng = random.Random(46000)
    verdicts = set()
    for _ in range(600):
        data = _rand_data(rng, atoms=("A", "B"), max_ts=3)

        def letter():
            return frozenset(a for a in ("A", "B") if rng.random() < 0.7)

        prefix = tuple(letter() for _ in range(rng.randrange(data.max_timestamp + 1, 8)))
        loop = tuple(letter() for _ in range(rng.randrange(1, 4)))
        axioms, _ = _rand_guarded_axioms(rng, atoms=("A", "B"), loop=loop)
        got = horn._is_model(axioms, data, prefix, loop)
        assert got == _old_is_model(axioms, data, prefix, loop), (axioms, prefix, loop)
        verdicts.add(got)
        try:
            res = _old_folded_chase(axioms, data, prefix, loop)
        except _Bottom:
            continue
        if res is not _INCOMPATIBLE:
            assert horn._is_model(axioms, data, *res) == _old_is_model(axioms, data, *res)
    assert verdicts == {True, False}


def _outcome(build, onto, data):
    try:
        return build(onto, data)
    except Inconsistent:
        return "inconsistent"


def test_canonical_model_equals_set_guard_loop():
    rng = random.Random(47000)
    outcomes = set()
    for _ in range(300):
        o = rand_horn_ontology(rng, atoms=("A", "B", "C"), max_axioms=4)
        d = rand_instance(rng, atoms=("A", "B", "C"), max_ts=4)
        old = _outcome(_old_canonical_model, o, d)
        new = horn._canonical_model.__wrapped__(o, d) or "inconsistent"
        assert new == old, (o.axioms, sorted(d.facts))
        outcomes.add(type(new))
    assert outcomes == {str, CanonicalModel}


def _rand_cyclic_ontology(rng: random.Random, atoms=("A", "B", "C")) -> HornOntology:
    """Each atom passes to a random atom 1 to 7 steps later, so the least
    models run round cycles of several lengths at once and their loops are
    long; up to three more axioms read F, G and X X literals or fire a G head."""
    lines = [f"{a} -> {'X ' * rng.randint(1, 7)}{rng.choice(atoms)}" for a in atoms]
    forms = ["F {} & {} -> X {}", "G {} -> {}", "{} & X X {} -> G {}", "X {} -> {}", "F X X {} -> {}"]
    for form in rng.sample(forms, rng.randint(0, 3)):
        lines.append(form.format(*(rng.choice(atoms) for _ in range(3))))
    return horn.load_ontology("\n".join(lines))


def test_canonical_model_equals_set_guard_loop_on_long_loops():
    rng = random.Random(49000)
    longer_than_8 = longer_than_20 = 0
    for _ in range(1500):
        o = _rand_cyclic_ontology(rng)
        d = rand_instance(rng, atoms=("A", "B", "C"), max_ts=rng.randint(0, 12))
        new = horn._canonical_model.__wrapped__(o, d)
        assert (new or "inconsistent") == _outcome(_old_canonical_model, o, d), (o.axioms, sorted(d.facts))
        if new is not None:
            assert lasso_is_model(o, d, new.lasso), (o.axioms, sorted(d.facts))
            longer_than_8 += new.period > 8
            longer_than_20 += new.period > 20
    print(f"loops longer than 8 letters: {longer_than_8}, longer than 20: {longer_than_20}")
    assert longer_than_20 >= 25, longer_than_20


@pytest.mark.parametrize("text", ["A -> X B", "A -> X B\nB -> X X A", "A -> X X B\nB -> X A"])
def test_a_fold_that_is_no_model_widens_the_window(monkeypatch, text):
    # the first fold folds the first letter onto itself, which holds A but
    # not the B that A forces next: the model check must reject it and the
    # chase widen to the least model
    o, d = horn.load_ontology(text), D([("A", 0)])
    axioms, hist, cap = _reduce(o, None), max(1, o.max_shift), 4096
    least = horn._least_boxfree_model(axioms, d, hist, cap)
    original, widths = horn._fold, []

    def first_not_a_model(masks, obligations, start_at, width, hist):
        widths.append(width)
        return (0, 1) if len(widths) == 1 else original(masks, obligations, start_at, width, hist)

    monkeypatch.setattr(horn, "_fold", first_not_a_model)
    first = horn._letters(horn._window_chase(axioms, d, 64)[0], 1)
    assert not horn._is_model(axioms, d, (), first)
    assert horn._least_boxfree_model(axioms, d, hist, cap) == least
    assert len(widths) == 2 and widths[0] < widths[1]


# a backward chain longer than 2 * hist + 2 positions: at every width the
# last B has no later B in the window, so F B & B -> X A stops there, and
# X X X A -> A carries that gap back over the last 28 positions of A
LONG_CHAIN_ONTOLOGY = """B -> X X X X X X X X B
D -> X X X X X X X X X X X X D
X X X A -> A
F B & B -> X A
X B & C -> X X X X C"""


def test_a_fold_margin_that_follows_the_window_folds_a_long_backward_chain():
    o, d = horn.load_ontology(LONG_CHAIN_ONTOLOGY), D([("B", 0), ("D", 0)])
    cm = horn._canonical_model.__wrapped__(o, d)
    assert (cm.handle, cm.period) == (11, 24)
    assert lasso_is_model(o, d, cm.lasso)
    # least: no single atom occurrence can go
    letters = cm.lasso.prefix + cm.lasso.loop
    occurrences = [(j, a) for j, letter in enumerate(letters) for a in letter]
    assert len(occurrences) >= 20
    for j, a in occurrences:
        fewer = letters[:j] + (letters[j] - {a},) + letters[j + 1 :]
        assert not lasso_is_model(o, d, LassoModel(fewer[: cm.lasso.pre], fewer[cm.lasso.pre :])), (j, a)


def _x_chain_ontology(rng: random.Random, atoms=("A", "B", "C", "D")) -> HornOntology:
    """2-5 axioms `a -> X^n b` or `X^n a -> b` with n = 1..11: long forward
    and backward chains, which need a wide fold margin."""
    lines = []
    for _ in range(rng.randint(2, 5)):
        a, b, xs = rng.choice(atoms), rng.choice(atoms), "X " * rng.randint(1, 11)
        lines.append(f"{a} -> {xs}{b}" if rng.random() < 0.5 else f"{xs}{a} -> {b}")
    return horn.load_ontology("\n".join(lines))


# sha256 over the canonical models (or inconsistency) of the stress pairs below
_STRESS_DIGEST = "9c0b81e5ebd3ead23a741def8056ef09d2f70d44a1e75f1f5497d8ace6a4103c"


def test_canonical_models_of_random_and_long_chain_ontologies_are_models():
    atoms = ("A", "B", "C", "D")
    rng = random.Random(31337)
    digest = hashlib.sha256()
    models = inconsistent = 0
    for k in range(1500):
        if k % 2:
            o = _x_chain_ontology(rng, atoms)
        else:
            o = rand_horn_ontology(rng, atoms=atoms, max_axioms=5)
        d = rand_instance(rng, atoms=atoms, max_ts=4, max_facts=4)
        try:
            cm = horn._canonical_model.__wrapped__(o, d)
        except ChaseWindowOverflow:
            pytest.fail(f"window overflow on {o.axioms}, {sorted(d.facts)}")
        if cm is None:
            inconsistent += 1
            digest.update(b"inconsistent\n")
            continue
        assert lasso_is_model(o, d, cm.lasso), (o.axioms, sorted(d.facts))
        models += 1
        letters = [sorted(letter) for letter in cm.lasso.prefix + cm.lasso.loop]
        digest.update(f"{cm.lasso.pre}|{letters}\n".encode())
    print(f"models: {models}, inconsistent: {inconsistent}")
    assert digest.hexdigest() == _STRESS_DIGEST


# ---------------------------------------------------------------------------
# F body literals against the rewrite they replaced


def test_native_diamonds_equal_the_rewrite():
    # each F C once became a chain atom R with X C -> R and X R -> R; the
    # rewritten ontology's canonical lasso, without the chain atoms, must be
    # the same infinite word as the native one, and of the same shape
    rng = random.Random(48000)
    pairs = box_diamonds = moved = refolded = 0
    for _ in range(10_000):
        if pairs >= 2000 and box_diamonds >= 300:
            break
        o = rand_horn_ontology(rng)
        lits = [lit for ax in o.axioms for lit in ax.body]
        if not any(lit.exists for lit in lits):
            continue
        d = rand_instance(rng)
        pairs += 1
        box_diamonds += any(lit.exists and lit.forall for lit in lits)
        rewritten = rewrite_diamonds(o)
        chain = rewritten.atoms - o.atoms
        native = horn._canonical_model.__wrapped__(o, d)
        reference = horn._canonical_model.__wrapped__(rewritten, d)
        assert (native is None) == (reference is None), (o.axioms, sorted(d.facts))
        if native is None:
            continue
        a, b = native.lasso, reference.lasso
        moved += (a.pre, a.per) != (b.pre, b.per)
        for n in range(max(a.pre, b.pre) + math.lcm(a.per, b.per)):
            assert a.letter(n) == b.letter(n) - chain, (o.axioms, sorted(d.facts), n)
        # the folded chase alone, from the data on the lasso's shape, must
        # rebuild it: the least model is the least word of that shape
        empty = frozenset()
        rebuilt = _old_folded_chase(_reduce(o, (a.prefix, a.loop)), d, (empty,) * a.pre, (empty,) * a.per)
        if rebuilt is not _INCOMPATIBLE:
            assert rebuilt == (a.prefix, a.loop), (o.axioms, sorted(d.facts))
            refolded += 1
    print(f"{pairs} pairs, {box_diamonds} with F G: {moved} moved their (pre, per), {refolded} refolded")
    assert pairs >= 2000 and box_diamonds >= 300 and refolded >= 1000
    assert moved <= pairs // 1000, moved
