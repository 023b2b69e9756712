import random
from itertools import combinations

import pytest

from conftest import (
    EMPTY_ONTOLOGY,
    Edge,
    Named,
    atoms_at,
    lessdot,
    lessdot_mp,
    mu_mp,
    nabla,
    nabla_mp,
    named,
    numbered,
    rand_horn_ontology,
    rand_instance,
)
from ltlqbe import horn, qbe
from ltlqbe.core import DataInstance, LassoModel, data_word
from ltlqbe.represent import (
    _successor_sets,
    repr_horn,
    repr_horn_br,
    repr_plain,
    repr_plain_br,
)
from ltlqbe.tsys import BLACK, BOT, RED, simulates

D = DataInstance.of
fs = frozenset


# ---------------------------------------------------------------------------
# plain representation


def test_repr_plain_picture():
    d = D([("A", 1), ("B", 1), ("B", 2), ("C", 2)])
    sig = fs({"A", "B", "C"})
    ts = named(repr_plain(data_word(d), sig))
    assert ts.states == [0, 1, 2, 3]
    assert ts.label(1) == fs({"A", "B"}) and ts.label(3) == fs()
    by = {(e.src, e.dst): e.label for e in ts.edges}
    sigma_bot = sig | {BOT}
    assert by[(0, 2)] == fs({"A", "B"})
    assert by[(0, 1)] == sigma_bot  # empty interval
    assert by[(1, 3)] == fs({"B", "C"})
    assert by[(0, 3)] == fs({"B"})
    assert by[(3, 3)] == sigma_bot


def test_repr_plain_empty_data():
    ts = named(repr_plain(data_word(D([])), fs({"A"})))
    assert ts.states == [0, 1]
    by = {(e.src, e.dst): e.label for e in ts.edges}
    assert by[(0, 1)] == fs({"A", BOT})


def test_repr_plain_interval_labels():
    d = D([("B", 2)])
    ts = named(repr_plain(data_word(d), fs({"A", "B"})))
    by = {(e.src, e.dst): e.label for e in ts.edges}
    assert BOT in by[(0, 1)]  # empty interval
    assert by[(0, 2)] == fs()  # position 1 carries nothing
    assert by[(1, 3)] == fs({"B"})


def test_repr_plain_state_count():
    for seed in range(10):
        d = rand_instance(random.Random(seed), max_ts=5)
        ts = repr_plain(data_word(d), d.signature | {"Z"})
        assert len(ts.states) == d.max_timestamp + 2


# ---------------------------------------------------------------------------
# horn representation


def test_repr_horn_state_count_and_wraps():
    o = horn.load_ontology("A -> C\nA -> X B\nB -> X X B\nB -> X C")
    d = D([("A", 0)])
    cm = horn.canonical_model(o, d)
    ts = named(repr_horn(o, d))
    assert len(ts.states) == d.max_timestamp + cm.handle + cm.period
    # wrap edges exist inside the periodic zone
    m_start = d.max_timestamp + cm.handle
    wraps = [(e.src, e.dst) for e in ts.edges if e.src >= e.dst]
    assert all(src >= m_start and dst >= m_start for src, dst in wraps)
    assert (m_start, m_start) in wraps


def _same_ts(a, b):
    assert a == b


def test_repr_horn_empty_ontology_equivalent_to_plain():
    # the canonical lasso of nonempty data under no axioms is the data word;
    # empty data has a canonical prefix of length 0, the data word length 1
    rng = random.Random(42)
    for _ in range(10):
        d = rand_instance(rng, max_ts=4)
        sig = d.signature | {"Q"}
        a = repr_plain(data_word(d), sig)
        b = repr_horn(EMPTY_ONTOLOGY, d, sig)
        assert simulates(a, b) and simulates(b, a)
        if d.facts:
            _same_ts(a, b)


def test_repr_horn_empty_data():
    assert horn.canonical_model(EMPTY_ONTOLOGY, D([])).lasso.pre == 0
    ts = named(repr_horn(EMPTY_ONTOLOGY, D([]), fs({"A"})))
    assert ts.states == [0]
    assert ts.edges == [Edge(0, 0, fs({"A", BOT}))]


# ---------------------------------------------------------------------------
# the successor calculus


def test_lessdot_paper_examples():
    assert lessdot(fs({1, 2, 3}), fs({3, 4}))
    assert nabla(fs({1, 2, 3}), fs({3, 4})) == fs({2})
    assert not lessdot(fs({1, 2}), fs({3, 4}))
    assert not lessdot(fs({3, 4}), fs({1, 2}))
    assert lessdot(fs({0}), fs({1})) and nabla(fs({0}), fs({1})) == fs()


def test_lessdot_mp_paper_example():
    assert lessdot_mp(fs({1, 4, 6, 7}), fs({3, 5}), 2, 8)
    assert nabla_mp(fs({1, 4, 6, 7}), fs({3, 5}), 2, 8) == fs({2, 7})


def test_lessdot_mp_degenerate_matches_plain():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.randrange(1, 7)
        dset = fs(rng.sample(range(p), rng.randrange(1, p + 1)))
        eset = fs(rng.sample(range(p), rng.randrange(1, p + 1)))
        assert lessdot_mp(dset, eset, p, p) == lessdot(dset, eset)
        if lessdot(dset, eset):
            assert nabla_mp(dset, eset, p, p) == nabla(dset, eset)


def _direct_mu(dset, eset):
    mu = {}
    for x in sorted(dset):
        later = sorted(e for e in eset if e > x)
        if not later:
            return None
        mu[x] = later[0]
    return mu


@pytest.mark.parametrize("seed", range(8))
def test_lessdot_random_cross_check(seed):
    rng = random.Random(12000 + seed)
    for _ in range(150):
        p = rng.randrange(2, 9)
        m = rng.randrange(0, p + 1)
        universe = range(p)
        dset = fs(rng.sample(universe, rng.randrange(1, p + 1)))
        eset = fs(rng.sample(universe, rng.randrange(1, p + 1)))
        mu = _direct_mu(dset, eset)
        assert lessdot(dset, eset) == (mu is not None and set(mu.values()) == set(eset))
        if mu is not None:
            expected = set()
            for x, e in mu.items():
                expected.update(range(x + 1, e))
            assert nabla(dset, eset) == fs(expected)
        mu2 = mu_mp(dset, eset, m, p)
        assert lessdot_mp(dset, eset, m, p) == (
            mu2 is not None and set(mu2.values()) == set(eset)
        )
        if mu2 is not None:
            expected = set()
            for x, e in mu2.items():
                if x < e:
                    expected.update(range(x + 1, e))
                else:
                    expected.update(range(x + 1, p))
                    expected.update(range(m, e))
            assert nabla_mp(dset, eset, m, p) == fs(expected)


# ---------------------------------------------------------------------------
# black/red systems


def test_repr_plain_br_picture():
    d = D([("A", 1), ("B", 2), ("B", 3), ("C", 3)])
    sig = fs({"A", "B", "C"})
    ts = _same_system(repr_plain_br(data_word(d), sig), _reference_plain_br(d, sig))
    states = set(ts.states)
    assert ("p", fs(), fs({1})) in states
    assert ("p", fs({1}), fs({2})) in states
    # the red move from ({1},{2}) advances the left side to ({2},{3})
    red = next(
        e
        for e in ts.edges
        if e.src == ("p", fs({1}), fs({2})) and e.dst == ("p", fs({2}), fs({3})) and e.color == RED
    )
    assert red.label == fs({"B"})
    labels = ts.labels
    assert labels[("p", fs({2}), fs({3}))] == fs({"B", "C"})
    assert labels[("p", fs(), fs({1}))] == fs({"A"})


def test_repr_plain_br_empty_data():
    ts = _same_system(repr_plain_br(data_word(D([])), fs({"A"})), _reference_plain_br(D([]), fs({"A"})))
    assert set(ts.states) == {("0",), ("z",), ("u",)}


def test_repr_plain_br_wiring():
    d = D([("A", 1)])
    ts = _same_system(repr_plain_br(data_word(d), fs({"A"})), _reference_plain_br(d, fs({"A"})))
    by = {(e.src, e.dst, e.color) for e in ts.edges}
    z, u, origin = ("z",), ("u",), ("0",)
    assert (z, z, BLACK) in by and (z, z, RED) in by and (z, u, RED) in by
    assert (u, u, BLACK) in by and (u, u, RED) in by
    assert any(src == origin and dst == z for src, dst, _ in by)
    # empty-left pairs exit redly to u
    pair = ("p", fs(), fs({1}))
    assert (pair, u, RED) in by
    assert ts.labels[u] == fs({"A", BOT})


def test_repr_horn_br_small():
    o = horn.load_ontology("X A -> A")
    d = D([("A", 1)])
    ts = _same_system(repr_horn_br(o, d), _reference_horn_br(o, d, d.signature | o.atoms))
    # the canonical loop is empty, so the empty tail is z
    assert not any(horn.canonical_model(o, d).lasso.loop)
    assert ("u",) in ts.states and ("z",) in ts.states
    assert ts.initial == [("0",)]
    # canonical model makes A hold at 0 as well
    assert ts.labels[("0",)] == fs({"A"})


def _unsettled_record(e, onto):
    """e's record in `qbe._record` with no known verdicts, so that
    `decide_until_family` plays the games even where a certificate settles e."""
    record = qbe._record(e, onto)
    record.clear()
    return record


@pytest.mark.parametrize("seed", range(6))
def test_repr_horn_br_empty_ontology_matches_plain_verdicts(seed):
    rng = random.Random(13000 + seed)
    from ltlqbe.core import ExampleSet, QueryClass
    from ltlqbe.oracle import brute_force_decide
    from ltlqbe.qbe import Problem, decide_until_family

    pos = [rand_instance(rng, atoms=("A", "B"), max_ts=3) for _ in range(rng.randrange(1, 3))]
    neg = [rand_instance(rng, atoms=("A", "B"), max_ts=3) for _ in range(rng.randrange(1, 3))]
    e = ExampleSet.of(pos, neg)
    for d in e.instances:
        if d.facts:
            _same_ts(repr_plain_br(data_word(d), e.signature), repr_horn_br(EMPTY_ONTOLOGY, d, e.signature))
    with_onto = decide_until_family(e, QueryClass.FULL_UNTIL, _unsettled_record(e, EMPTY_ONTOLOGY))
    plain = decide_until_family(e, QueryClass.FULL_UNTIL, _unsettled_record(e, None))
    assert with_onto.separable == plain.separable
    assert plain.separable == brute_force_decide(Problem(QueryClass.FULL_UNTIL, e)).separable


# ---------------------------------------------------------------------------
# black/red systems against the all-subsets construction


def _build_br_reference(letters, n_positions, sigma_bot, less, gaps, with_z, max_ts):
    """The black/red worklist construction that tries every nonempty subset
    of the positions as a successor set, in size-then-combinations order."""
    sig = fs(a for a in sigma_bot if a != BOT)
    targets = [fs(c) for r in range(1, n_positions + 1) for c in combinations(range(n_positions), r)]
    origin, z, u = ("0",), ("z",), ("u",)

    def points_label(points):
        pts = list(points)
        if not pts:
            return sigma_bot
        return fs(set.intersection(*(set(letters(p)) for p in pts)) & sigma_bot)

    labels = {origin: letters(0) & sig, u: sigma_bot}
    if with_z:
        labels[z] = fs()
    edges = []
    states = [origin, u] + ([z] if with_z else [])
    seen = set(states)
    queue = [origin]

    def successors_from(points, src, color):
        for g in targets:
            if not less(points, g):
                continue
            f = gaps(points, g)
            tgt = ("p", f, g)
            if tgt not in labels:
                labels[tgt] = points_label(g)
            if tgt not in seen:
                seen.add(tgt)
                states.append(tgt)
                queue.append(tgt)
            edges.append(Edge(src, tgt, points_label(f), color))

    while queue:
        state = queue.pop()
        if state == origin:
            successors_from(fs({0}), origin, BLACK)
            if with_z:
                edges.append(Edge(origin, z, points_label(range(0, max_ts)), BLACK))
            continue
        if state in (z, u):
            continue
        _, phi, psi = state
        successors_from(psi, state, BLACK)
        if phi:
            successors_from(phi, state, RED)
        else:
            edges.append(Edge(state, u, sigma_bot, RED))
        if with_z:
            edges.append(Edge(state, z, points_label(range(max(psi), max_ts)), BLACK))
            if phi:
                edges.append(Edge(state, z, points_label(range(max(phi), max_ts)), RED))
    if with_z:
        edges += [Edge(z, z, sigma_bot, BLACK), Edge(z, z, sigma_bot, RED), Edge(z, u, sigma_bot, RED)]
    edges += [Edge(u, u, sigma_bot, BLACK), Edge(u, u, sigma_bot, RED)]
    return states, labels, edges


def _reference_plain_br(d, sig):
    return _build_br_reference(
        lambda t: atoms_at(d, t), d.max_timestamp + 1, sig | {BOT}, lessdot, nabla, True, d.max_timestamp
    )


def _reference_horn_br(onto, d, sig):
    """The z-tail form over the prefix when the canonical loop is all empty,
    otherwise the wrap-around form over prefix and loop."""
    cm = horn.canonical_model(onto, d)
    m, p = cm.lasso.pre, cm.lasso.pre + cm.period
    if not any(cm.lasso.loop):
        return _build_br_reference(cm.lasso.letter, m, sig | {BOT}, lessdot, nabla, True, m - 1)
    return _build_br_reference(
        cm.lasso.letter,
        p,
        sig | {BOT},
        lambda a, b: lessdot_mp(a, b, m, p),
        lambda a, b: nabla_mp(a, b, m, p),
        False,
        d.max_timestamp,
    )


@pytest.mark.parametrize("seed", range(4))
def test_successor_sets_match_filtered_subsets(seed):
    rng = random.Random(30500 + seed)
    for _ in range(150):
        p = rng.randrange(1, 9)
        m = rng.randrange(0, p + 1)  # m == p: plain lessdot
        dset = fs(rng.sample(range(p), rng.randrange(1, p + 1)))
        every = [fs(c) for r in range(1, p + 1) for c in combinations(range(p), r)]
        expected = [(eset, nabla_mp(dset, eset, m, p)) for eset in every if lessdot_mp(dset, eset, m, p)]
        assert list(_successor_sets(sorted(dset), p, m)) == expected


def _same_system(ts, reference) -> Named:
    """The reference system, once ts is checked to be it with its states
    numbered in the reference's list order."""
    states, labels, edges = reference
    named_reference = Named(states, [("0",)], labels, edges, colored=True)
    assert ts == numbered(named_reference, ts.letters)
    return named_reference


def _horn_explore_ontology(rng):
    """A Horn ontology shaped like the `horn-explore` benchmark's: one to
    three axioms over A and B, box/next literals, an occasional F body."""
    lines = []
    for _ in range(rng.randint(1, 3)):

        def lit(in_body):
            prefix = rng.choice(["", "", "X ", "G "])
            lead = "F " if in_body and rng.random() < 0.15 else ""
            pool = ["A", "B"] + (["false"] if not in_body and rng.random() < 0.08 else [])
            return f"{lead}{prefix}{rng.choice(pool)}"

        body = " & ".join(lit(True) for _ in range(rng.randint(1, 2)))
        lines.append(f"{body} -> {lit(False)}")
    return horn.load_ontology("\n".join(lines))


@pytest.mark.parametrize("seed", range(4))
def test_plain_br_matches_all_subsets_reference(seed):
    rng = random.Random(31000 + seed)
    for _ in range(50):
        d = rand_instance(rng, max_ts=rng.randrange(0, 6))
        sig = d.signature | fs(rng.sample(["A", "B", "C"], rng.randrange(0, 2)))
        _same_system(repr_plain_br(data_word(d), sig), _reference_plain_br(d, sig))


@pytest.mark.parametrize(
    "text, facts, prefix, loop",
    [
        # empty data: the canonical prefix has length 0
        ("", [], (), (fs(),)),
        # a prefix that ends in an empty letter
        ("X X B -> C", [("A", 0)], (fs({"A"}), fs()), (fs(),)),
        # derived facts before the data, then the empty tail
        ("X A -> A", [("A", 1)], (fs({"A"}), fs({"A"})), (fs(),)),
        # nonempty loops
        ("A -> X A", [("A", 0)], (), (fs({"A"}),)),
        ("A -> X B\nB -> X A", [("A", 1)], (fs(),), (fs({"A"}), fs({"B"}))),
        ("A -> X X A", [("A", 0)], (fs({"A"}),), (fs(), fs({"A"}))),
    ],
)
def test_horn_br_tail_form_follows_the_loop(text, facts, prefix, loop):
    onto = horn.load_ontology(text) if text else EMPTY_ONTOLOGY
    d = D(facts)
    assert horn.canonical_model(onto, d).lasso == LassoModel(prefix, loop)
    sig = d.signature | onto.atoms | {"A"}
    ts = _same_system(repr_horn_br(onto, d, sig), _reference_horn_br(onto, d, sig))
    assert (("z",) in ts.states) == (not any(loop))


@pytest.mark.parametrize("seed", range(4))
def test_horn_br_matches_all_subsets_reference(seed):
    rng = random.Random(32000 + seed)
    checked = 0
    empty_loops = set()
    while checked < 50:
        onto = rand_horn_ontology(rng, atoms=("A", "B"), max_axioms=3)
        d = rand_instance(rng, atoms=("A", "B"), max_ts=rng.randrange(0, 4), max_facts=4)
        if not horn.consistent(onto, d):
            continue
        sig = d.signature | onto.atoms
        _same_system(repr_horn_br(onto, d), _reference_horn_br(onto, d, sig))
        empty_loops.add(not any(horn.canonical_model(onto, d).lasso.loop))
        checked += 1
    assert empty_loops == {True, False}  # both tail forms were compared


def test_horn_br_matches_reference_on_benchmark_shaped_ontologies():
    rng = random.Random(33500)
    checked = 0
    while checked < 60:
        onto = _horn_explore_ontology(rng)
        d = rand_instance(rng, atoms=("A", "B"), max_ts=3, max_facts=4)
        if not horn.consistent(onto, d):
            continue
        sig = d.signature | onto.atoms
        _same_system(repr_horn_br(onto, d, sig), _reference_horn_br(onto, d, sig))
        checked += 1
