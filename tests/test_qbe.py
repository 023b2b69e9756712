from collections import deque
import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import (
    EMPTY_ONTOLOGY,
    EMPTY_PRIOR,
    module_caches,
    rand_example_set,
    rand_horn_ontology,
    rand_instance,
    rand_query,
)
import ltlqbe
from ltlqbe import horn, prior, qbe, transform
from ltlqbe.core import (
    Bot,
    DataInstance,
    Diamond,
    ExampleSet,
    LassoModel,
    Prop,
    Query,
    QueryClass,
    TOP,
    classify,
    conj,
    data_word,
    eval_data,
    in_class,
    parse_query,
)
from ltlqbe.oracle import brute_force_decide
from ltlqbe.qbe import (
    BRANCH_CLASSES,
    PATH_CLASSES,
    UNTIL_CLASSES,
    Problem,
    ResourceCap,
    UnsupportedProblem,
    Verdict,
    WitnessError,
    _blocks_to_query,
    decide,
    decide_until_family,
    dp_path,
    entailed,
    minimize_witness,
    models,
    prior_path_search,
    query_from_tree,
    verify_witness,
)
from ltlqbe.tsys import BLACK, BOT, RED, Tree

D = DataInstance.of
fs = frozenset


def _words(e):
    """Each instance's own word, as the diamond path search reads it."""
    return [data_word(d) for d in e.instances]


def ex(pos, neg):
    return ExampleSet.of([D(p) for p in pos], [D(n) for n in neg])


def test_identical_instances_not_separable():
    e = ex([[("A", 1)]], [[("A", 1)]])
    for cls in QueryClass:
        assert not decide(Problem(cls, e)).separable


def test_empty_negatives_separable_by_top():
    e = ex([[("A", 1)]], [])
    v = decide(Problem(QueryClass.PATH_DIAMOND, e))
    assert v.separable and str(v.witness) == "true"


def test_prior_problem_class_restriction():
    # {A(1)} is no model of A -> F B: only path- and branch-diamond search it,
    # and the early verdicts hold for every class
    o = prior.load_prior_ontology("A -> F B")
    e = ex([[("A", 1)]], [[("B", 1)]])
    for cls in QueryClass:
        assert decide(Problem(cls, ex([[("A", 1)]], []), o)).witness == TOP
        if cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
            assert decide(Problem(cls, e, o)).separable
        else:
            with pytest.raises(UnsupportedProblem):
                decide(Problem(cls, e, o))


def test_witnesses_belong_to_class():
    rng = random.Random(321)
    for seed in range(40):
        e = rand_example_set(random.Random(seed), max_ts=4)
        for cls in QueryClass:
            v = decide(Problem(cls, e))
            if v.separable:
                assert cls in classify(v.witness)


def test_dp_path_requires_path_class():
    e = ex([[("A", 1)]], [])
    with pytest.raises(ValueError):
        dp_path(e, _words(e), QueryClass.FULL_UNTIL)


def test_dp_path_node_cap():
    rng = random.Random(5)
    e = rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3)
    with pytest.raises(ResourceCap):
        dp_path(e, _words(e), QueryClass.PATH_NEXT_DIAMOND, node_cap=3)


def test_dp_path_node_cap_counts_every_insertion():
    # expanding the start node stores the node of F A before it reaches F B;
    # with room for one node, that store already passes the cap
    e = ex([[("A", 1), ("B", 2)]], [[("A", 1)]])
    with pytest.raises(ResourceCap):
        dp_path(e, _words(e), QueryClass.PATH_DIAMOND, node_cap=1)
    v = dp_path(e, _words(e), QueryClass.PATH_DIAMOND, node_cap=2)
    assert v.separable and str(v.witness) == "F B"


# dp_path as it was before it dropped dominated moves, verbatim but for its
# name: the reference that the new search must match, verdict and witness


def _old_dp_path(
    e: ExampleSet,
    models: list[LassoModel],
    cls: QueryClass,
    node_cap: int = 300_000,
    require_nonempty: bool = False,
    max_blocks: int | None = None,
    allow_empty_blocks: bool = False,
    max_anchor_c: int | None = None,
) -> Verdict:
    """Decide diamond-path separability over per-instance certain-truth words.

    A search node holds, per positive, the position its last block occupies
    and, per negative, the least position a matching assignment can occupy
    (None once no assignment survives).  Moves attach one more block: a
    diamond jump to fresh anchors plus a run of next-steps; each slot's
    conjunction is the intersection of the positive letters there, the
    strongest choice, which dominates every alternative.  The words are the
    data's own (`core.data_word`) or the canonical-model lassos of a Horn
    ontology (`horn_diamond_search`).

    Every word is periodic from position k on, so a node's successors depend
    on its positions only up to k: nodes store them clamped at k.  Each
    block, each node's list of moves and each negative's advance over a move
    is computed once per call.
    """
    if cls not in PATH_CLASSES:
        raise ValueError(f"dp_path does not handle {cls}")
    npos = len(e.positives)
    nneg = len(models) - npos
    k = max((m.pre for m in models), default=1)
    m_budget = 1
    for mm in models:
        m_budget *= mm.per
    top = k + m_budget
    c_range = range(0, top + 1) if cls is not QueryClass.PATH_DIAMOND else range(0, 1)
    anchored = cls is QueryClass.PATH_NEXT_DIAMOND  # Eq-1 chains: blocks may not overlap
    block_limit = max_blocks if max_blocks is not None else k + nneg + 2

    horizon = 2 * top + 2
    rows = [(m.prefix + m.loop * (horizon // m.per + 1))[: horizon + 1] for m in models]
    pos_letters, neg_letters = rows[:npos], rows[npos:]

    # A move attaches the block of width c at some anchors: (slots, next
    # clamped ends, last slot nonempty, steps, advances).  steps maps a node's
    # clamped negative positions to its (successor, accepts) under the move,
    # advances maps (negative, clamped position) to that negative's next one.
    # chains: anchors -> [(slots, move or None if the move is barred)] by width c
    chains: dict = {}

    def extend(chain: list, anchors: tuple[int, ...], c: int) -> None:
        while len(chain) <= c:
            t = len(chain)
            rho = None
            for letters, a in zip(pos_letters, anchors):
                rho = letters[a + t] if rho is None else rho & letters[a + t]
            slots = (chain[-1][0] if chain else ()) + (rho or frozenset(),)
            # a diamond step may not land on an all-top block, and an all-top
            # run that does not move the block's end adds nothing over c=0
            all_top = not any(slots)
            barred = (
                all_top and (not allow_empty_blocks or t > 0 and not anchored)
                or require_nonempty and not all(slots)
            )
            move = None
            if not barred:
                shift = t if anchored else 0
                move = (slots, tuple(min(a + shift, k) for a in anchors), bool(rho), {}, {})
            chain.append((slots, move))

    # clamped ends -> the moves open to a node, listed as the search first walks them
    tables: dict = {}

    def moves(ends):
        table = tables.get(ends)
        return table if table is not None else _fill_table(ends)

    def _fill_table(ends):
        table = []
        vecs = [
            (anchors, chains.setdefault(anchors, []))
            for anchors in itertools.product(*(range(x + 1, top + 1) for x in ends))
        ]
        for c in c_range:
            for anchors, chain in vecs:
                if len(chain) <= c:
                    extend(chain, anchors, c)
                move = chain[c][1]
                if move is not None:
                    table.append(move)
                    yield move
        tables[ends] = table

    def step(move, negs):
        slots, new_ends, last, steps, advances = move
        new_negs = []
        for j, p in enumerate(negs):
            if p is not None:
                if (j, p) not in advances:
                    advances[j, p] = neg_advance(j, p, slots)
                p = advances[j, p]
            new_negs.append(p)
        result = steps[negs] = (
            (new_ends, tuple(new_negs)),
            last and all(x is None for x in new_negs),
        )
        return result

    def neg_advance(j: int, prev: int, slots) -> int | None:
        c = len(slots) - 1
        row = neg_letters[j]
        need = [(t, s) for t, s in enumerate(slots) if s]
        for b in range(prev + 1, top + 1):
            if all(s <= row[b + t] for t, s in need):
                return min(b + c if anchored else b, k)
        return None

    parents: dict = {}
    queue: deque = deque()

    def push(node, prev, slots, depth: int) -> None:
        parents[node] = (prev, slots)
        if len(parents) > node_cap:
            raise ResourceCap(f"dp_path exceeded {node_cap} nodes")
        queue.append((node, depth))

    def witness(node, slots) -> Query:
        blocks = [slots]
        while node is not None:
            node, slots = parents[node]
            blocks.append(slots)
        blocks.reverse()
        return _blocks_to_query(blocks, cls)

    anchor_range = c_range if max_anchor_c is None else range(0, max_anchor_c + 1)
    zero = (0,) * npos
    for c in anchor_range:
        chain = chains.setdefault(zero, [])
        extend(chain, zero, c)
        slots = chain[c][0]
        start = min(c, k) if anchored else 0
        negs = tuple(
            start if all(s <= row[t] for t, s in enumerate(slots)) else None
            for row in neg_letters
        )
        if all(x is None for x in negs) and slots[-1]:
            return Verdict(True, witness(None, slots))
        node = ((start,) * npos, negs)
        if node not in parents:
            push(node, None, slots, 0)
    while queue:
        node, depth = queue.popleft()
        if depth >= block_limit:
            continue
        ends, negs = node
        for move in moves(ends):
            nxt, accept = move[3].get(negs) or step(move, negs)
            if accept:
                return Verdict(True, witness(node, move[0]))
            if nxt not in parents:
                push(nxt, node, move[0], depth + 1)
    return Verdict(False)


def _search_outcome(search, e, models, cls, options):
    try:
        v = search(e, models, cls, **options)
    except ResourceCap:
        return "cap"
    return v.separable, v.witness, str(v.witness)


# every flag value
_DP_OPTIONS = [{"allow_empty_blocks": empty} for empty in (False, True)]


def _assert_dp_path_equals_old(e, models, verdicts: set) -> None:
    for cls in PATH_CLASSES:
        for options in _DP_OPTIONS:
            old = _search_outcome(_old_dp_path, e, models, cls, options)
            new = _search_outcome(dp_path, e, models, cls, options)
            assert new == old, (cls, options, e)
            verdicts.add(old[0])


def test_dp_path_equals_old_on_plain_sets():
    verdicts: set = set()
    for seed in range(150):
        e = rand_example_set(random.Random(48000 + seed), max_ts=4, max_pos=3, max_neg=3)
        _assert_dp_path_equals_old(e, _words(e), verdicts)
    assert verdicts == {True, False}


def _sparse_set(rng):
    """One or two positives and one or two negatives of 1-4 facts each, at
    timestamps up to a largest one of 8-16."""
    max_ts = rng.randint(8, 16)

    def facts():
        return [(rng.choice("ABC"), rng.randint(0, max_ts)) for _ in range(rng.randint(1, 4))]

    return ex([facts() for _ in range(rng.randint(1, 2))], [facts() for _ in range(rng.randint(1, 2))])


def test_dp_path_equals_old_on_sparse_sets():
    # wide horizons, where a block's chain of widths is reused the most
    verdicts: set = set()
    for seed in range(20):
        e = _sparse_set(random.Random(51000 + seed))
        _assert_dp_path_equals_old(e, _words(e), verdicts)
    assert verdicts == {True, False}


def _cycling_ontology(rng):
    """Axioms `P -> X^j Q`, whose canonical lassos often loop with period > 1."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        head = "X " * rng.randint(1, 3) + rng.choice("AB")
        lines.append(f"{rng.choice('AB')} -> {head}")
    return horn.load_ontology("\n".join(lines))


def test_dp_path_equals_old_on_horn_lassos_with_long_loops():
    verdicts: set = set()
    checked = 0
    for seed in range(150):
        rng = random.Random(49000 + seed)
        onto = _cycling_ontology(rng)
        e = rand_example_set(rng, max_ts=3, max_pos=2, max_neg=1)
        models = [horn.canonical_model(onto, d).lasso for d in e.instances]
        if max(m.per for m in models) < 2:
            continue
        checked += 1
        _assert_dp_path_equals_old(e, models, verdicts)
    assert checked >= 40 and verdicts == {True, False}


def test_dp_path_walks_only_non_dominated_moves():
    # the search before dropping dominated moves stores 15 nodes on this
    # not-separable set; dropping them leaves 7
    e = ex(
        [[("A", 1), ("A", 2)], [("A", 1), ("A", 3), ("B", 0), ("B", 2)]],
        [[("A", 1), ("A", 2), ("B", 0), ("C", 0)]],
    )
    cls = QueryClass.PATH_NEXT_DIAMOND
    with pytest.raises(ResourceCap):
        _old_dp_path(e, _words(e), cls, node_cap=14)
    assert not _old_dp_path(e, _words(e), cls, node_cap=15).separable
    with pytest.raises(ResourceCap):
        dp_path(e, _words(e), cls, node_cap=6)
    assert not dp_path(e, _words(e), cls, node_cap=7).separable


# sha256 over the verdicts, and over the verdicts and witnesses, below.  The
# witness digest was recorded before dp_path clamped its search states and
# memoised its blocks and moves, and re-recorded when a set's classes came to
# be settled by its verdicts known so far: branch-next-diamond now answers
# with branch-diamond's witness where that separates.  The verdict digest was
# recorded before that change.
_WITNESS_VERDICT_DIGEST = "c21d1b0f061e7f9fb65ad17a66c3ed69acb3c01878c11a8f8f44877a6585caeb"
_WITNESS_DIGEST = "93ddb1445e147178eabc0e6409b8d2cb2981f28f35155ac91d9126f9c958044e"


def _witness_digests() -> tuple[str, str]:
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    for seed in range(80):
        e = rand_example_set(random.Random(18000 + seed), max_ts=4, max_pos=2, max_neg=2)
        found = [
            dp_path(e, _words(e), cls, allow_empty_blocks=empty)
            for cls in PATH_CLASSES
            for empty in (False, True)
        ]
        found += [decide(Problem(cls, e)) for cls in BRANCH_CLASSES]
        for v in found:
            verdicts.update(f"{v.separable}\n".encode())
            witnesses.update(f"{v.separable} {v.witness}\n".encode())
    return verdicts.hexdigest(), witnesses.hexdigest()


def test_witness_verdict_digest_is_unchanged():
    assert _witness_digests()[0] == _WITNESS_VERDICT_DIGEST


def test_witness_digest_is_unchanged():
    assert _witness_digests()[1] == _WITNESS_DIGEST


def test_horn_search_agrees_with_dp_on_empty_ontology():
    for seed in range(25):
        rng = random.Random(14000 + seed)
        e = rand_example_set(rng, max_ts=4, max_pos=2, max_neg=2)
        for cls in PATH_CLASSES + BRANCH_CLASSES:
            a = decide(Problem(cls, e))
            b = decide(Problem(cls, e, EMPTY_ONTOLOGY))
            assert a.separable == b.separable, (cls, e)


def _diamond_query(rng, depth=2) -> Query:
    """A random query of true, atoms A and B, & and F."""
    parts = [Prop(a) for a in "AB" if rng.random() < 0.4]
    if depth and rng.random() < 0.7:
        parts.append(Diamond(_diamond_query(rng, depth - 1)))
    return conj(parts) if parts else TOP


def _prior_ontology_with_constraint(rng):
    """`_prior_ontology`'s axiom, half the time with `!(A & B)` as well."""
    onto = _prior_ontology(rng)
    if rng.random() < 0.5:
        return onto
    return prior.PriorOntology(onto.axioms + prior.load_prior_ontology("!(A & B)").axioms)


def test_entailed_matches_the_answers_of_each_ontology_kind():
    seen = set()
    for seed in range(300):
        rng = random.Random(42000 + seed)
        d = rand_instance(rng, ("A", "B"), 3)
        q = rand_query(rng, atoms=("A", "B"))
        assert entailed(None, d, q) == eval_data(d, q, 0)
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        try:
            certain = horn.certain_answer(onto, d, q, 0)
        except horn.Inconsistent:
            certain = True
        assert entailed(onto, d, q) == certain, (onto, d, str(q))
        box = _prior_ontology_with_constraint(rng)
        dq = _diamond_query(rng)
        box_certain = prior.prior_entails(box, d, dq)
        assert entailed(box, d, dq) == box_certain, (box, d, str(dq))
        assert entailed(box, d, Bot()) == (not prior.prior_consistent(box, d))
        seen.add((certain, box_certain, models(box, d) is None))
    assert len(seen) == 8


def test_models_are_empty_iff_the_data_is_inconsistent():
    horn_empty, box_empty = set(), set()
    for seed in range(300):
        rng = random.Random(43000 + seed)
        d = rand_instance(rng, ("A", "B"), 3)
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        box = _prior_ontology_with_constraint(rng)
        assert (models(onto, d) == ()) == (not horn.consistent(onto, d)), (onto, d)
        assert (models(box, d) == ()) == (not prior.prior_consistent(box, d)), (box, d)
        horn_empty.add(models(onto, d) == ())
        box_empty.add(models(box, d) == ())
    assert horn_empty == box_empty == {True, False}


def test_horn_word_keeps_the_tail_form_of_the_canonical_lasso():
    # the until route builds the black/red form off the models word; under
    # F bodies it is the form of the canonical lasso, empty loop or not
    forms = set()
    for seed in range(600):
        rng = random.Random(45000 + seed)
        onto = rand_horn_ontology(rng, atoms=("A", "B", "C"), max_axioms=4)
        d = rand_instance(rng, ("A", "B", "C"), 5)
        if not any(lit.exists for ax in onto.axioms for lit in ax.body) or not horn.consistent(onto, d):
            continue
        lasso = horn.canonical_model(onto, d).lasso
        (word,) = models(onto, d)
        assert any(word.loop) == any(lasso.loop), (onto, d)
        forms.add(any(lasso.loop))
    assert forms == {True, False}


def test_horn_word_is_kept_with_the_canonical_model():
    # F bodies add no atoms: the word queries are answered on, and the
    # until route builds its systems from, is the cached canonical lasso
    checked = 0
    for seed in range(600):
        rng = random.Random(45000 + seed)
        onto = rand_horn_ontology(rng, atoms=("A", "B", "C"), max_axioms=4)
        d = rand_instance(rng, ("A", "B", "C"), 5)
        if not any(lit.exists for ax in onto.axioms for lit in ax.body) or not horn.consistent(onto, d):
            continue
        (word,) = models(onto, d)
        assert word is horn.canonical_model(onto, d).lasso
        assert frozenset().union(*word.prefix, *word.loop) <= d.signature | onto.atoms
        checked += 1
    assert checked >= 100


def test_empty_horn_ontology_spells_the_data_word():
    reshaped = 0
    for seed in range(300):
        d = rand_instance(random.Random(44000 + seed), max_ts=5)
        (a,), (b,) = models(None, d), models(EMPTY_ONTOLOGY, d)
        # lassos equal on max(pre) + lcm(per) positions are equal; per * per
        # is a multiple of that lcm
        span = max(a.pre, b.pre) + a.per * b.per
        assert [a.letter(n) for n in range(span)] == [b.letter(n) for n in range(span)], d
        reshaped += (a.pre, a.per) != (b.pre, b.per)
    assert reshaped


def test_horn_copy_axioms_block_separation():
    # the negative certainly satisfies everything the positive does
    o = horn.load_ontology("A -> B\nB -> A")
    e = ex([[("A", 1)]], [[("B", 1)]])
    for cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
        assert not decide(Problem(cls, e, o)).separable


def test_inconsistent_negative_blocks_everything():
    o = horn.load_ontology("A -> false")
    e = ex([[("B", 1)]], [[("A", 0)]])
    v = decide(Problem(QueryClass.PATH_DIAMOND, e, o))
    assert not v.separable and "inconsistent" in v.note


def test_inconsistent_positive_dropped():
    o = horn.load_ontology("A -> false")
    e = ex([[("A", 0)], [("B", 1)]], [[("C", 1)]])
    v = decide(Problem(QueryClass.PATH_DIAMOND, e, o))
    assert v.separable and v.note and "dropped" in v.note


def test_a_set_that_dropped_a_positive_keeps_one_noted_verdict_per_answer():
    # each call answers with the kept noted verdict, not a fresh copy: the
    # routed answers, the early answer of no positive left, and that of no
    # negative
    o = horn.load_ontology("A -> false")
    sets = [
        ex([[("A", 0)], [("B", 1)]], [[("C", 1)]]),
        ex([[("A", 0)], [("B", 1)]], [[("B", 1)]]),
        ex([[("A", 0)]], [[("C", 1)]]),
        ex([[("A", 0)], [("B", 1)]], []),
    ]
    for e in sets:
        for cls in QueryClass:
            first = decide(Problem(cls, e, o))
            assert first.note == "dropped 1 inconsistent positive(s)"
            assert decide(Problem(cls, e, o)) is first


def test_all_positives_inconsistent_yields_bot():
    o = horn.load_ontology("A -> false")
    e = ex([[("A", 0)]], [[("C", 1)]])
    v = decide(Problem(QueryClass.PATH_DIAMOND, e, o))
    assert v.separable and str(v.witness) == "false"


def test_query_from_run():
    # a failing run is a chain of black edges, spelled as a tree
    run = Tree(fs(), ((fs({BOT}), BLACK, Tree(fs({"T"}), ((fs({"T"}), BLACK, Tree(fs({"V"}))),))),))
    q = query_from_tree(run)
    assert str(q) == "false U T & (T U V)"
    assert QueryClass.PATH_UNTIL in classify(q)


def test_query_from_tree_single_node():
    assert str(query_from_tree(Tree(fs({"T"})))) == "T"


def test_query_from_tree_black_red():
    inner = Tree(fs({"B1"}))
    other = Tree(fs({"B2"}))
    node = Tree(fs(), ((fs({"A1"}), BLACK, inner), (fs({"A2"}), RED, other)))
    tree = Tree(fs(), ((fs(), BLACK, node),))
    q = query_from_tree(tree)
    # red children sit on the left of the until, black on the right
    assert str(q) == "(A2 U B2) U A1 U B1"


def test_query_from_tree_rejects_red_root():
    tree = Tree(fs(), ((fs(), RED, Tree(fs())),))
    with pytest.raises(ValueError):
        query_from_tree(tree)


def test_until_family_requires_positive():
    with pytest.raises(ValueError):
        decide_until_family(ExampleSet.of([], [D([])]), QueryClass.PATH_UNTIL, {})


def test_prior_path_search_examples():
    o = prior.load_prior_ontology("T | V")
    e = ex([[("T", 1)]], [[("V", 1)]])
    v = prior_path_search(o, e)
    assert v.separable  # F T is certain on the positive only
    # a negative that contains the positive can never be separated
    e2 = ex([[("T", 1)]], [[("T", 1), ("V", 1)]])
    assert not prior_path_search(o, e2).separable
    e3 = ex([[("T", 1)]], [])
    assert prior_path_search(o, e3).separable


def test_prior_path_diamond_skips_all_top_blocks():
    # F F B separates, but its middle block is all-top: branch-diamond only
    o = prior.load_prior_ontology("A -> B")
    e = ex([[("B", 2)]], [[("B", 1)]])
    assert not decide(Problem(QueryClass.PATH_DIAMOND, e, o)).separable
    assert not brute_force_decide(Problem(QueryClass.PATH_DIAMOND, e, o)).separable
    v = decide(Problem(QueryClass.BRANCH_DIAMOND, e, o))
    assert v.separable and str(v.witness) == "F F B"


def test_prior_all_positives_inconsistent_yields_bot():
    o = prior.load_prior_ontology("!(A & B)")
    e = ex([[("A", 0), ("B", 0)]], [[("A", 1)]])
    for cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
        v = decide(Problem(cls, e, o))
        assert v.separable and str(v.witness) == "false"


def test_prior_engine_matches_plain_on_empty_ontology():
    for seed in range(10):
        rng = random.Random(15000 + seed)
        e = rand_example_set(rng, atoms=("A", "B"), max_ts=2, max_pos=2, max_neg=2)
        for cls in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
            plain = decide(Problem(cls, e))
            under = decide(Problem(cls, e, EMPTY_PRIOR))
            assert plain.separable == under.separable


def test_prior_engine_blocker_example():
    # the ontology forces a diamond marker wherever B1 holds, so the marker
    # query separates even though no M fact appears in the data
    o = prior.load_prior_ontology("B1 -> F M")
    e = ex([[("B1", 0), ("S", 1)]], [[("T", 0), ("S", 1)]])
    v = decide(Problem(QueryClass.PATH_DIAMOND, e, o))
    assert v.separable
    assert entailed(o, D([("B1", 0)]), parse_query("F M"))
    assert not entailed(o, D([("T", 0)]), parse_query("F M"))
    # with the marker promised unconditionally it stops separating
    o2 = prior.load_prior_ontology("true -> F M")
    same = ex([[("S", 1)]], [[("S", 1), ("T", 0)]])
    v2 = decide(Problem(QueryClass.PATH_DIAMOND, same, o2))
    assert not v2.separable


def test_minimize_witness():
    e = ex([[("T", 2), ("V", 4)], [("T", 1), ("V", 4)]], [[("T", 1)], [("V", 4)]])
    p = Problem(QueryClass.BRANCH_DIAMOND, e)
    v = decide(p)
    assert v.separable
    small = minimize_witness(p, v.witness)
    assert verify_witness(p, small)
    assert len(str(small)) <= len(str(v.witness))


def test_verify_witness_checks_class():
    e = ex([[("A", 2)]], [[("A", 1)]])
    p = Problem(QueryClass.PATH_DIAMOND, e)
    # F F A separates but is not a diamond path (all-top block)
    assert not verify_witness(p, parse_query("F F A"))
    assert verify_witness(Problem(QueryClass.BRANCH_DIAMOND, e), parse_query("F F A"))


def test_a_witness_that_fails_its_check_answers_no_other_class(monkeypatch):
    # a separable verdict is kept for its set only once its witness checks:
    # a wrong path-diamond witness raises there, and the classes asked after
    # it decide as they do cold
    e = ex([[("A", 1)]], [[("B", 1)]])
    search = qbe._path_search

    def wrong_path_diamond(onto, e, found, cls, allow_empty_blocks=False):
        if cls is QueryClass.PATH_DIAMOND and not allow_empty_blocks:
            return Verdict(True, parse_query("F B"))
        return search(onto, e, found, cls, allow_empty_blocks)

    monkeypatch.setattr(qbe, "_path_search", wrong_path_diamond)
    later = (QueryClass.PATH_NEXT_DIAMOND, QueryClass.BRANCH_DIAMOND)
    cold = []
    for cls in later:
        qbe._record.cache_clear()
        cold.append(decide(Problem(cls, e)))
    assert str(cold[0].witness) == "X A" and cold[1].separable
    qbe._record.cache_clear()
    with pytest.raises(WitnessError, match="F B"):
        decide(Problem(QueryClass.PATH_DIAMOND, e))
    assert [decide(Problem(cls, e)) for cls in later] == cold


def test_a_kept_witness_is_checked_for_each_class_it_answers(monkeypatch):
    # A U B separates in every until class and passes its check there; a
    # route that returns it for path-diamond fails the class test
    e = ex([[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 5)]])
    until = parse_query("A U B")
    qbe._record.cache_clear()
    assert decide(Problem(QueryClass.FULL_UNTIL, e)).witness == until
    monkeypatch.setattr(qbe, "_path_search", lambda *a, **k: Verdict(True, until))
    with pytest.raises(WitnessError, match="path-diamond"):
        decide(Problem(QueryClass.PATH_DIAMOND, e))


def test_verify_witness_reads_no_record(monkeypatch):
    # a set's record keeps the witnesses it has checked, but verify_witness
    # does not consult it: on a kept witness it still asks entailed on every
    # instance, so tests that call it on decide's witnesses check them anew
    e = ex([[("A", 1)], [("A", 1), ("B", 3)]], [[("B", 1)], [("A", 0)]])
    qbe._record.cache_clear()
    verdict = decide(Problem(QueryClass.PATH_DIAMOND, e))
    assert verdict in qbe._record(e, None).checked
    witness = verdict.witness
    asked = []
    entailed = qbe.entailed
    monkeypatch.setattr(qbe, "entailed", lambda onto, d, q: asked.append(d) or entailed(onto, d, q))
    for cls in QueryClass:
        if in_class(witness, cls):
            del asked[:]
            assert verify_witness(Problem(cls, e), witness)
            assert asked == list(e.instances)
    # nor does it take the record's word for another set
    assert not verify_witness(Problem(QueryClass.PATH_DIAMOND, ExampleSet(e.negatives, e.positives)), witness)


@pytest.mark.parametrize("seed", range(20))
def test_class_monotonicity(seed):
    rng = random.Random(16000 + seed)
    e = rand_example_set(rng, max_ts=4, max_pos=2, max_neg=2)
    verdicts = {}
    for cls in QueryClass:
        # each class by its own route, not settled by another's verdict
        qbe._record.cache_clear()
        verdicts[cls] = decide(Problem(cls, e)).separable
    if verdicts[QueryClass.PATH_UNTIL]:
        assert verdicts[QueryClass.SIMPLE_UNTIL]
    if verdicts[QueryClass.SIMPLE_UNTIL]:
        assert verdicts[QueryClass.FULL_UNTIL]
    if verdicts[QueryClass.PATH_DIAMOND]:
        assert verdicts[QueryClass.PATH_NEXT_DIAMOND]
        assert verdicts[QueryClass.BRANCH_DIAMOND]
    if verdicts[QueryClass.BRANCH_DIAMOND]:
        assert verdicts[QueryClass.BRANCH_NEXT_DIAMOND]


@pytest.mark.parametrize("seed", range(20))
def test_example_monotonicity(seed):
    rng = random.Random(17000 + seed)
    e = rand_example_set(rng, max_ts=4, max_pos=3, max_neg=2)
    for cls in (QueryClass.PATH_DIAMOND, QueryClass.SIMPLE_UNTIL):
        base = decide(Problem(cls, e)).separable
        if len(e.negatives) > 1:
            fewer = ExampleSet(e.positives, e.negatives[1:])
            if base:
                assert decide(Problem(cls, fewer)).separable
        if len(e.positives) > 1:
            fewer = ExampleSet(e.positives[1:], e.negatives)
            if base:
                assert decide(Problem(cls, fewer)).separable


_DECIDE_FULL_UNTIL = """
from ltlqbe.core import DataInstance, ExampleSet, QueryClass
from ltlqbe.qbe import Problem, decide
D = DataInstance.of
e = ExampleSet.of(
    [D([("B", 5), ("B", 6), ("C", 5), ("C", 6)]), D([("A", 1), ("A", 5), ("A", 6), ("B", 6)])],
    [D([]), D([("A", 3), ("B", 6)])],
)
print(decide(Problem(QueryClass.FULL_UNTIL, e)).witness)
"""


def test_witness_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(ltlqbe.__file__))
    witnesses = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _DECIDE_FULL_UNTIL],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        witnesses.add(out.stdout.strip())
    assert len(witnesses) == 1


# sha256 over the verdicts and notes, and over the verdicts, witnesses and
# notes, of the sets below.  The verdict digest was recorded before the until
# classes were decided along their chain, and equals that of the code before.
# The witness digest was re-recorded then: simple-until and full-until answer
# with the witness of the least class of path-until ⊆ simple-until ⊆
# full-until that separates, where they played only their own games before.
# It was re-recorded again when the positives' common block came first
# (`qbe._common_block`): a set it separates answers every until class with
# the block's X-chain, where it answered with a spelled tree before.
_UNTIL_VERDICT_DIGEST = "acd21a740d313941dbf7c377b2c22ef09b1d37a22e4b6839c23dc0976341390d"
_UNTIL_DIGEST = "cba38bc2e3dc62f12a8c1381b50305bb4645d5c0093f0e42c48d5c5e28cea680"


def _two_sided_set(rng, atoms, max_ts):
    """One or two positives and one or two negatives."""
    pos = [rand_instance(rng, atoms, max_ts) for _ in range(rng.randint(1, 2))]
    neg = [rand_instance(rng, atoms, max_ts) for _ in range(rng.randint(1, 2))]
    return ExampleSet.of(pos, neg)


def _until_digests() -> tuple[str, str]:
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    for seed in range(60):
        rng = random.Random(35000 + seed)
        plain = _two_sided_set(rng, ("A", "B", "C"), 3)
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        horn_set = _two_sided_set(rng, ("A", "B"), 3)
        for e, o in ((plain, None), (horn_set, onto)):
            for cls in UNTIL_CLASSES:
                v = decide(Problem(cls, e, o))
                verdicts.update(f"{v.separable}|{v.note}\n".encode())
                witnesses.update(f"{v.separable}|{v.witness}|{v.note}\n".encode())
    return verdicts.hexdigest(), witnesses.hexdigest()


def test_until_verdict_digest_is_unchanged():
    assert _until_digests()[0] == _UNTIL_VERDICT_DIGEST


def test_until_witness_digest_is_unchanged():
    assert _until_digests()[1] == _UNTIL_DIGEST


def _direct_until_family(e, cls, known):
    """`decide_until_family` as it was before the chain and the fold: every
    class plays only its own game, full-until straight on the black/red
    systems, each on the quotient of the product of all positives' systems,
    and reads no known verdicts."""
    from ltlqbe import qbe, tsys

    e, found, _, _ = known.dropped
    words = [word for (word,) in found]
    sig = frozenset().union(*(word.word[0] for word in words))
    built = [qbe._reduced_system(word, sig, cls is QueryClass.FULL_UNTIL) for word in words]
    npos = len(e.positives)
    prod, neg = tsys.bisim_quotient(tsys.product(built[:npos])), built[npos:]
    if cls is QueryClass.PATH_UNTIL:
        tree = tsys.failing_run([prod], neg)
    else:
        tree = tsys.failing_subtree_of_union(prod, neg)
    return Verdict(False) if tree is None else Verdict(True, query_from_tree(tree))


def _chain_and_direct(monkeypatch, e, onto) -> list:
    """(chain verdict, direct verdict) per until class, both through decide.
    The direct route starts each class from no known verdicts, and the chain
    from none of the direct route's."""
    from ltlqbe import qbe

    direct = []
    with monkeypatch.context() as m:
        m.setattr(qbe, "decide_until_family", _direct_until_family)
        for cls in UNTIL_CLASSES:
            qbe._record.cache_clear()
            direct.append(decide(Problem(cls, e, onto)))
    qbe._record.cache_clear()
    return [(decide(Problem(cls, e, onto)), d) for cls, d in zip(UNTIL_CLASSES, direct)]


@pytest.mark.parametrize("kind", ["plain", "horn"])
def test_until_chain_equals_the_direct_routes(monkeypatch, kind):
    # a witness of a smaller class of the chain separates in every larger
    # one, so deciding along the chain must give each class's own verdict
    rng = random.Random(49000)
    seen = {}  # the least class that separates (or None) -> count
    for _ in range(300 if kind == "plain" else 100):
        if kind == "plain":
            e, onto = _two_sided_set(rng, ("A", "B", "C"), 3), None
        else:
            onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
            e = _two_sided_set(rng, ("A", "B"), 3)
        pairs = _chain_and_direct(monkeypatch, e, onto)
        assert [c.separable for c, _ in pairs] == [d.separable for _, d in pairs], (onto, e)
        least = next((cls for cls, (c, _) in zip(UNTIL_CLASSES, pairs) if c.separable), None)
        seen[least] = seen.get(least, 0) + 1
        (_, _), (simple, _), (full, _) = pairs
        if simple.separable:
            assert in_class(full.witness, QueryClass.SIMPLE_UNTIL), (onto, e)
    # simple-until is the least class on 1 of the 300 plain sets and on none
    # of the Horn sets
    assert set(seen) - {QueryClass.SIMPLE_UNTIL} == {QueryClass.PATH_UNTIL, QueryClass.FULL_UNTIL, None}, seen
    assert (QueryClass.SIMPLE_UNTIL in seen) == (kind == "plain"), seen


# sha256 over the verdicts and notes, and over the verdicts, witnesses and
# notes, of the diamond path and branch classes under random Horn ontologies,
# many with F-bodies and so with fresh atoms, decided in turn per set.  The
# witness digest was recorded before qbe.models chose the words, and
# re-recorded when a set's classes came to be settled by its verdicts known so
# far: a later class now answers with an earlier class's witness where that
# lies in it.  The verdict digest was recorded before that change.
_HORN_DIAMOND_VERDICT_DIGEST = "d9bb1c5250c87245be543e868b17ae857d1ff0f9246c5005d0d8bb4456146d3c"
_HORN_DIAMOND_DIGEST = "285ba7459f4482552136ecd1ba161beca17181aa0b890a6fed84ccef7bae61aa"


def _horn_diamond_digests() -> tuple[str, str]:
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    for seed in range(60):
        rng = random.Random(40000 + seed)
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        e = _two_sided_set(rng, ("A", "B"), 3)
        for cls in PATH_CLASSES + BRANCH_CLASSES:
            v = decide(Problem(cls, e, onto))
            verdicts.update(f"{cls}|{v.separable}|{v.note}\n".encode())
            witnesses.update(f"{cls}|{v.separable}|{v.witness}|{v.note}\n".encode())
    return verdicts.hexdigest(), witnesses.hexdigest()


def test_horn_diamond_verdict_digest_is_unchanged():
    assert _horn_diamond_digests()[0] == _HORN_DIAMOND_VERDICT_DIGEST


def test_horn_diamond_witness_digest_is_unchanged():
    assert _horn_diamond_digests()[1] == _HORN_DIAMOND_DIGEST


def _prior_ontology(rng):
    a, b = rng.sample(["A", "B"], 2)
    body = rng.choice(["{a}", "G {a}", "{a} & {b}"])
    head = rng.choice(["{b}", "F {b}", "{b} | F {a}"])
    return prior.load_prior_ontology(f"{body} -> {head}".format(a=a, b=b))


def _prior_digests(seed_base: int, cls: QueryClass) -> tuple[str, str]:
    """sha256 over the verdicts and notes, and over the verdicts, witnesses
    and notes, of 40 seeded box/diamond sets."""
    verdicts, witnesses = hashlib.sha256(), hashlib.sha256()
    for seed in range(40):
        rng = random.Random(seed_base + seed)
        onto = _prior_ontology(rng)
        e = _two_sided_set(rng, ("A", "B"), 2)
        v = decide(Problem(cls, e, onto))
        verdicts.update(f"{v.separable}|{v.note}\n".encode())
        witnesses.update(f"{v.separable}|{v.witness}|{v.note}\n".encode())
    return verdicts.hexdigest(), witnesses.hexdigest()


# The verdict digests were recorded when sets whose instances' own data words
# are models moved from prior_path_search to dp_path, and equal those of the
# code before.  The witness digests were re-recorded then: dp_path finds other
# separators than the prefix search on such sets, with the same verdicts.
# _PRIOR_DIGEST was re-recorded again when sets whose instances' least words
# are found by chasing atom-headed axioms moved to dp_path, for the same
# reason.  _PRIOR_PATH_DIGEST did not move: its one such set gets the same
# witness from both searches.
_PRIOR_VERDICT_DIGEST = "fb0c48b2814e5cafc94627e471ef5f5f7872dbe2a91e433a2d0d06e2d1f0d292"
_PRIOR_DIGEST = "b72fcfa601195c1fd58abfcc8f2b0d114a4a1a23901dac761e9a97e338c2655c"
_PRIOR_PATH_VERDICT_DIGEST = "1bc632191a777074bc4824b8f4a39411fb0471249db9a59f318026721e7c23dc"
_PRIOR_PATH_DIGEST = "3e9b1b9c0ca4e0f9cc6a15b427d2a472842987141c9283897ea13f43a1bd9b60"


def test_prior_branch_diamond_verdicts_are_unchanged():
    assert _prior_digests(36000, QueryClass.BRANCH_DIAMOND)[0] == _PRIOR_VERDICT_DIGEST


def test_prior_branch_diamond_digest_is_unchanged():
    assert _prior_digests(36000, QueryClass.BRANCH_DIAMOND)[1] == _PRIOR_DIGEST


def test_prior_path_diamond_verdicts_are_unchanged():
    assert _prior_digests(37000, QueryClass.PATH_DIAMOND)[0] == _PRIOR_PATH_VERDICT_DIGEST


def test_prior_path_diamond_digest_is_unchanged():
    assert _prior_digests(37000, QueryClass.PATH_DIAMOND)[1] == _PRIOR_PATH_DIGEST


def _least_word_sets(rng, plain: int, chased: int):
    """Seeded `_prior_ontology` sets whose instances all have a least word:
    `plain` sets where each is the data's own word and `chased` sets where
    some instance's is not, with the words; and the drawn sets where some
    instance has none, but every instance has a model."""
    out, counts, without = [], {False: 0, True: 0}, []
    while counts[False] < plain or counts[True] < chased:
        onto = _prior_ontology(rng)
        e = _two_sided_set(rng, ("A", "B"), 2)
        words = [prior.least_word(onto, d) for d in e.instances]
        if None in words:
            if all(prior.prior_consistent(onto, d) for d in e.instances):
                without.append((onto, e))
            continue
        kind = any(w != data_word(d) for w, d in zip(words, e.instances))
        if counts[kind] < (chased if kind else plain):
            counts[kind] += 1
            out.append((onto, e, words))
    return out, without


@pytest.mark.parametrize("cls", [QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND])
def test_data_that_is_a_model_takes_the_plain_route(monkeypatch, cls):
    # decide must not reach prior_path_search on sets whose instances have
    # a least word, yet agree with it
    from ltlqbe import qbe

    def refused(*args, **kwargs):
        raise AssertionError("prior_path_search on data with least words")

    monkeypatch.setattr(qbe, "prior_path_search", refused)
    rng = random.Random(38000 if cls is QueryClass.PATH_DIAMOND else 39000)
    sets, _ = _least_word_sets(rng, plain=200, chased=100)
    for onto, e, _ in sets:
        v = decide(Problem(cls, e, onto))
        if cls is QueryClass.PATH_DIAMOND:
            expected = prior_path_search(onto, e).separable
        else:
            expected = all(
                prior_path_search(onto, sub, allow_empty_blocks=True).separable
                for sub in transform.split_per_negative(e)
            )
        assert v.separable == expected, (onto, e)
        assert not v.separable or verify_witness(Problem(cls, e, onto), v.witness)


def _word_data(word: LassoModel) -> DataInstance:
    """The data whose own word is `word`, a word with an empty loop."""
    assert not any(word.loop)
    return D([(a, t) for t, letter in enumerate(word.prefix) for a in letter])


@pytest.mark.parametrize("cls", list(QueryClass), ids=lambda cls: cls.value)
def test_every_class_decides_box_diamond_data_that_is_a_model(cls):
    # every model holds the least word's letters and positive queries are
    # monotone, so a query is certain iff it holds on that word: the set is
    # decided as the plain data of the least words
    rng = random.Random(34000)
    sets, without = _least_word_sets(rng, plain=150, chased=100)
    verdicts = set()
    for onto, e, words in sets:
        npos = len(e.positives)
        least = ExampleSet.of(map(_word_data, words[:npos]), map(_word_data, words[npos:]))
        v, plain = decide(Problem(cls, e, onto)), decide(Problem(cls, least))
        assert (v.separable, v.witness) == (plain.separable, plain.witness), (onto, e)
        assert brute_force_decide(Problem(cls, e, onto)).separable == v.separable, (onto, e)
        verdicts.add(v.separable)
    assert verdicts == {True, False} and without
    if cls not in (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND):
        for onto, e in without:
            with pytest.raises(UnsupportedProblem):
                decide(Problem(cls, e, onto))


_CACHES = module_caches()


def test_cache_walk_finds_the_known_caches():
    known = {
        "prior_entails",
        "prior_consistent",
        "_countermodels",
        "_valid_loops",
        "_canonical_model",
        "_instance_systems",
        "_images",
        "_record",
        "letter_table",
    }
    assert known <= set(_CACHES)


@pytest.mark.parametrize("name", sorted(_CACHES))
def test_caches_are_bounded(name):
    assert _CACHES[name].cache_info().maxsize is not None


def _clear_until_caches():
    from ltlqbe import qbe

    for cache in (qbe._record, qbe._instance_systems):
        cache.cache_clear()


@pytest.mark.parametrize("onto", [None, horn.load_ontology("A -> X B")], ids=["plain", "horn"])
def test_until_classes_of_one_set_share_one_build(monkeypatch, onto):
    # the position systems are built once for the set's classes; deciding
    # them in order plays each class's game at most once, and full-until
    # builds no black/red system when path-until or simple-until separates
    from ltlqbe import qbe

    calls, games, builds = [], [], []

    def counted(name, log):
        fn = getattr(qbe, name)
        monkeypatch.setattr(qbe, name, lambda *args: log.append((name, args[0])) or fn(*args))

    counted("repr_plain", calls)
    counted("repr_plain_br", builds)
    counted("failing_run", games)
    counted("failing_subtree_of_union", games)
    _clear_until_caches()
    e = ex([[("A", 1), ("B", 3)], [("A", 2), ("B", 3)]], [[("A", 1)], [("B", 3)]])
    decide(Problem(QueryClass.PATH_UNTIL, e, onto))
    assert len(calls) == len(e.instances)
    decide(Problem(QueryClass.SIMPLE_UNTIL, e, onto))
    assert len(calls) == len(e.instances)
    assert decide(Problem(QueryClass.FULL_UNTIL, e, onto)).separable
    # path-until separates the plain set, simple-until the Horn one
    played = ["failing_run"] if onto is None else ["failing_run", "failing_subtree_of_union"]
    assert [name for name, _ in games] == played and not builds

    rng = random.Random(49000)
    seen = set()
    for _ in range(300 if onto is None else 100):
        o = None if onto is None else rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        e = _two_sided_set(rng, ("A", "B", "C") if o is None else ("A", "B"), 3)
        _clear_until_caches()
        games.clear()
        builds.clear()
        verdicts = [decide(Problem(cls, e, o)) for cls in UNTIL_CLASSES]
        assert len(games) == len({(name, id(s)) for name, s in games}) <= 3
        least = next((cls for cls, v in zip(UNTIL_CLASSES, verdicts) if v.separable), None)
        seen.add(least)
        if least in (QueryClass.PATH_UNTIL, QueryClass.SIMPLE_UNTIL):
            assert not builds, (o, e)
    assert {QueryClass.PATH_UNTIL, QueryClass.FULL_UNTIL, None} <= seen


@pytest.mark.parametrize(
    "cls, e",
    [
        (QueryClass.SIMPLE_UNTIL, ex([[("A", 1)], [("A", 2)]], [[("A", 3)], [("B", 2)]])),
        # full-until separates the set above; this one's positives hold A
        # at 0, and it has the fewest facts of a seeded search (two
        # positives and two negatives by rand_instance over A, B up to 3,
        # seeds 0-250, on which the games are played: seed 158)
        (
            QueryClass.FULL_UNTIL,
            ex([[("A", 0), ("A", 3), ("B", 3)], [("A", 0), ("B", 0)]], [[("A", 0), ("A", 1), ("B", 2)], []]),
        ),
    ],
    ids=["QueryClass.SIMPLE_UNTIL", "QueryClass.FULL_UNTIL"],
)
def test_simulating_first_negative_plays_one_game(monkeypatch, cls, e):
    # each simulation game of the chain up to cls, simple-until's on the
    # position systems and then full-until's own on the black/red ones,
    # ends at the first negative, which simulates the product; no negative
    # holds a positive and an atom is anchored in the positives, so the
    # games are played
    from ltlqbe import qbe, tsys

    _clear_until_caches()
    # pruning plays its own games
    systems = [qbe._until_systems(qbe._record(e, None), black_red) for black_red in (False, True)]
    games = []
    original = tsys._play
    monkeypatch.setattr(tsys, "_play", lambda *args: games.append(args) or original(*args))
    assert not decide(Problem(cls, e)).separable
    played = systems[: UNTIL_CLASSES.index(cls)]
    expected = [(tsys.bisim_quotient(tsys.product(factors)), neg[0]) for factors, neg in played]
    assert [(s, t) for s, _, t, _ in games] == expected


@pytest.mark.parametrize("cls", UNTIL_CLASSES, ids=lambda cls: cls.value)
def test_holding_negative_builds_no_system_and_plays_no_game(monkeypatch, cls):
    from ltlqbe import qbe, tsys

    pos = [("A", 1), ("B", 3)]
    e = ex([pos], [[("B", 2)], pos + [("A", 2)]])
    _clear_until_caches()
    calls = []
    for module, name in ((qbe, "_reduced_system"), (tsys, "_play"), (qbe, "failing_run")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert not decide(Problem(cls, e)).separable
    assert calls == []


@pytest.mark.parametrize("atoms", ["AB", "ABC"])
@pytest.mark.parametrize("allow_empty_blocks", [False, True])
def test_prefix_query_equals_blocks_to_query(atoms, allow_empty_blocks):
    from ltlqbe.qbe import _block_parts, _blocks_to_query, _prefix_query

    blocks = _block_parts(list(atoms))
    tails = blocks if allow_empty_blocks else [b for b in blocks if b[0]]
    prefixes = [(b,) for b in blocks]
    count = 0
    while prefixes:
        count += len(prefixes)
        for prefix in prefixes:
            got = _prefix_query(prefix)
            slots = [(fs(p.name for p in props),) for props, _ in prefix]
            want = _blocks_to_query(slots, QueryClass.PATH_DIAMOND)
            assert got == want and str(got) == str(want)
        prefixes = [p + (b,) for p in prefixes if len(p) < 4 for b in tails]
    n, m = len(blocks), len(tails)
    assert count == n * (1 + m + m**2 + m**3)


def test_prior_path_search_asks_the_cached_prior_entails():
    info = prior.prior_entails.cache_info()
    o = prior.load_prior_ontology("A -> F B")
    e = ex([[("A", 0)], [("B", 2)]], [[("C", 1)]])
    v = prior_path_search(o, e)
    assert v.separable and str(v.witness) == "F B"
    after = prior.prior_entails.cache_info()
    assert after.hits + after.misses > info.hits + info.misses


def test_decide_leaves_no_reference_cycles():
    # the cyclic collector saves what it finds under DEBUG_SAVEALL; a
    # recursive nested closure refers to itself through its cell, so each
    # call would leave one there
    import gc
    import types

    o = prior.load_prior_ontology("A -> F B")
    box_set = ex([[("A", 1)], [("B", 2), ("A", 2)]], [[("B", 1)]])
    assert models(o, box_set.positives[0]) is None  # so prior_path_search runs
    problems = [Problem(QueryClass.PATH_DIAMOND, box_set, o), Problem(QueryClass.BRANCH_DIAMOND, box_set, o)]
    for seed in range(6):
        rng = random.Random(46000 + seed)
        plain = _two_sided_set(rng, ("A", "B", "C"), 3)
        problems += [Problem(QueryClass.PATH_NEXT_DIAMOND, plain), Problem(QueryClass.FULL_UNTIL, plain)]
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        problems += [Problem(cls, _two_sided_set(rng, ("A", "B"), 3), onto) for cls in QueryClass]
    for cache in _CACHES.values():
        cache.cache_clear()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        verdicts = [decide(p) for p in problems]
        gc.collect()
        left = {
            f.__qualname__
            for f in gc.garbage
            if isinstance(f, types.FunctionType) and f.__module__.startswith("ltlqbe")
        }
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not left
    separable = {p.cls for p, v in zip(problems, verdicts) if v.separable}
    assert {QueryClass.PATH_DIAMOND, QueryClass.PATH_NEXT_DIAMOND, QueryClass.FULL_UNTIL} <= separable
