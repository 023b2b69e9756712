import random

import pytest

from ltlqbe.core import DataInstance
from ltlqbe.represent import repr_plain, repr_plain_br
from ltlqbe.tsys import (
    BLACK,
    BOT,
    RED,
    Edge,
    TransitionSystem,
    _simulation_ranks,
    bisim_quotient,
    contained_in,
    disjoint_union,
    embeds,
    extract_failing_run,
    extract_failing_subtree,
    product,
    prune_dominated_edges,
    run_embeds,
    simulates,
    to_dot,
)

D = DataInstance.of


def ts(states, initial, labels, edges, colored=False):
    return TransitionSystem(
        list(states),
        list(initial),
        {s: frozenset(l) for s, l in labels.items()},
        [Edge(a, b, frozenset(lab), color) for a, b, lab, color in edges],
        colored,
    )


def rand_system(rng: random.Random, n=4, colored=False):
    states = list(range(n))
    labels = {}
    for s in states:
        labels[s] = frozenset(a for a in "AB" if rng.random() < 0.4)
    edges = []
    for a in states:
        for b in states:
            if rng.random() < 0.45:
                lab = frozenset(x for x in ("A", "B", BOT) if rng.random() < 0.4)
                color = rng.choice([BLACK, RED]) if colored else BLACK
                edges.append((a, b, lab, color))
    initial = [0]
    return ts(states, initial, labels, edges, colored)


def test_duplicate_edge_rejected():
    # exact duplicates are rejected; parallel edges with distinct labels are
    # kept for bisimulation quotients
    with pytest.raises(ValueError):
        ts([0], [0], {0: set()}, [(0, 0, {"A"}, BLACK), (0, 0, {"A"}, BLACK)])
    ts([0], [0], {0: set()}, [(0, 0, {"A"}, BLACK), (0, 0, {"B"}, BLACK)])


def test_bisim_quotient_preserves_simulation():
    from ltlqbe.tsys import bisim_quotient

    rng = random.Random(77)
    for _ in range(60):
        colored = rng.random() < 0.5
        a = rand_system(rng, n=rng.randrange(2, 6), colored=colored)
        b = rand_system(rng, n=rng.randrange(2, 6), colored=colored)
        qa, qb = bisim_quotient(a), bisim_quotient(b)
        assert len(qa.states) <= len(a.states)
        assert simulates(a, b) == simulates(qa, qb) == simulates(qa, b) == simulates(a, qb)
        if not colored:
            assert contained_in(a, b) == contained_in(qa, qb)


def test_product_of_one_is_isomorphic():
    s = rand_system(random.Random(1))
    p = product([s])
    assert len(p.states) == len(s.states) and len(p.edges) == len(s.edges)
    assert simulates(p, s) and simulates(s, p)


def test_product_with_universal_unit():
    s = rand_system(random.Random(2))
    alphabet = {"A", "B", BOT}
    unit = ts(["u"], ["u"], {"u": {"A", "B"}}, [("u", "u", alphabet, BLACK)])
    p = product([s, unit])
    assert simulates(p, s) and simulates(s, p)


def test_product_on_motivating_pair():
    d1 = D([("A2", 4), ("B1", 4), ("B2", 5)])
    d2 = D([("A1", 2), ("B2", 2), ("B1", 3)])
    sig = frozenset({"A1", "A2", "B1", "B2"})
    p = product([repr_plain(d1, sig), repr_plain(d2, sig)])
    assert (3, 1) in p.states
    edge = next(e for e in p.edges if e.src == (3, 1) and e.dst == (4, 3))
    assert edge.label == frozenset({"A1", "B2"})


def test_disjoint_union_counts_and_simulation():
    a = rand_system(random.Random(3))
    b = rand_system(random.Random(4))
    u = disjoint_union([a, b])
    assert len(u.states) == len(a.states) + len(b.states)
    assert simulates(a, u) and simulates(b, u)
    assert disjoint_union([]).states == []
    single = disjoint_union([a])
    assert simulates(single, a) and simulates(a, single)


def test_simulates_reflexive_and_transitive():
    rng = random.Random(5)
    for colored in (False, True):
        triples = [rand_system(rng, colored=colored) for _ in range(3)]
        for s in triples:
            assert simulates(s, s)
        for _ in range(30):
            a, b, c = (rand_system(rng, colored=colored) for _ in range(3))
            if simulates(a, b) and simulates(b, c):
                assert simulates(a, c)


def test_simulation_implies_containment():
    rng = random.Random(6)
    for _ in range(40):
        a, b = rand_system(rng), rand_system(rng)
        if simulates(a, b):
            assert contained_in(a, b)


def test_containment_rejects_colored():
    a = rand_system(random.Random(7), colored=True)
    with pytest.raises(ValueError):
        contained_in(a, a)


def test_failing_run_single_state():
    a = ts([0], [0], {0: {"A"}}, [])
    b = ts([0], [0], {0: set()}, [])
    assert not contained_in(a, b)
    run = extract_failing_run(a, b)
    assert run.node_labels == (frozenset({"A"}),) and run.edge_labels == ()


def test_failing_subtree_single_node():
    a = ts([0], [0], {0: {"A"}}, [])
    b = ts([0], [0], {0: set()}, [])
    assert not simulates(a, b)
    tree = extract_failing_subtree(a, b)
    assert tree.label == frozenset({"A"}) and tree.children == ()
    assert not embeds(tree, b)


def test_extract_errors_when_relations_hold():
    a = ts([0], [0], {0: set()}, [])
    with pytest.raises(ValueError):
        extract_failing_run(a, a)
    with pytest.raises(ValueError):
        extract_failing_subtree(a, a)


@pytest.mark.parametrize("seed", range(60))
def test_extracted_witnesses_reverify(seed):
    rng = random.Random(9000 + seed)
    colored = rng.random() < 0.5
    a = rand_system(rng, n=rng.randrange(2, 5), colored=colored)
    b = rand_system(rng, n=rng.randrange(2, 5), colored=colored)
    if not simulates(a, b):
        tree = extract_failing_subtree(a, b)
        assert not embeds(tree, b)
        assert embeds(tree, a)  # it is a genuine subtree of a's computation tree
    if not colored and not contained_in(a, b):
        run = extract_failing_run(a, b)
        assert not run_embeds(run, b)
        assert run_embeds(run, a)


def test_to_dot_smoke():
    s = rand_system(random.Random(8), colored=True)
    text = to_dot(s)
    assert text.startswith("digraph") and "->" in text


def _prune_reference(t: TransitionSystem) -> list[Edge]:
    """prune_dominated_edges as a comparison of every pair of edges."""
    alive, _ = _simulation_ranks(t, t)
    keep = []
    for i, e in enumerate(t.edges):
        dominated = False
        for j, f in enumerate(t.edges):
            if i == j or e.src != f.src or e.color != f.color:
                continue
            if e.label <= f.label and (e.dst, f.dst) in alive:
                mutual = f.label <= e.label and (f.dst, e.dst) in alive
                if not mutual or j < i:
                    dominated = True
                    break
        if not dominated:
            keep.append(e)
    return keep


@pytest.mark.parametrize("seed", range(4))
def test_prune_dominated_edges_matches_pairwise_reference(seed):
    rng = random.Random(34000 + seed)
    sig = frozenset("ABC")
    for _ in range(25):
        kind = rng.randrange(3)
        if kind == 0:
            t = rand_system(rng, n=rng.randrange(1, 7), colored=rng.random() < 0.5)
        else:
            build = repr_plain if kind == 1 else repr_plain_br
            parts = [
                build(D({(rng.choice("ABC"), rng.randrange(0, 4)) for _ in range(rng.randrange(0, 5))}), sig)
                for _ in range(rng.randrange(1, 3))
            ]
            t = product(parts, reachable_only=True) if len(parts) > 1 else parts[0]
        q = bisim_quotient(t)
        pruned = prune_dominated_edges(q)
        assert pruned.edges == _prune_reference(q)
        assert pruned.states == q.states and pruned.initial == q.initial and pruned.labels == q.labels


def _random_quotient(rng: random.Random) -> TransitionSystem:
    sig = frozenset("ABC")
    if rng.random() < 0.5:
        return bisim_quotient(rand_system(rng, n=rng.randrange(1, 7), colored=rng.random() < 0.5))
    build = repr_plain if rng.random() < 0.5 else repr_plain_br
    parts = [
        build(D({(rng.choice("ABC"), rng.randrange(0, 4)) for _ in range(rng.randrange(0, 5))}), sig)
        for _ in range(rng.randrange(1, 3))
    ]
    return bisim_quotient(product(parts, reachable_only=True) if len(parts) > 1 else parts[0])


def test_derived_systems_pass_the_public_checks():
    # product, disjoint_union, bisim_quotient and prune_dominated_edges skip
    # the constructor's checks; rebuilding their outputs through it must
    # raise nothing and give the same out-lists
    rng = random.Random(41000)
    for _ in range(100):
        q, other = _random_quotient(rng), _random_quotient(rng)
        derived = [q, prune_dominated_edges(q)]
        if q.colored == other.colored:
            pair = [q, other]
            derived += [product(pair), product(pair, reachable_only=True), disjoint_union(pair)]
        for t in derived:
            again = TransitionSystem(t.states, t.initial, t.labels, t.edges, t.colored)
            assert all(again.out(x) == t.out(x) for x in t.states)


def test_product_keeps_one_of_equal_parallel_edge_intersections():
    s1 = ts([0, 1], [0], {0: set(), 1: set()}, [(0, 1, {"A", "B"}, BLACK), (0, 1, {"A", "C"}, BLACK)])
    s2 = ts([0, 1], [0], {0: set(), 1: set()}, [(0, 1, {"A"}, BLACK)])
    p = product([s1, s2], reachable_only=True)
    assert p.edges == [Edge((0, 0), (1, 1), frozenset({"A"}))]
    full = product([s1, s2])
    assert full.edges == p.edges


def test_product_of_quotients_keeps_every_distinct_edge():
    rng = random.Random(42000)
    for _ in range(60):
        a, b = _random_quotient(rng), _random_quotient(rng)
        if a.colored != b.colored:
            continue
        p = product([a, b], reachable_only=True)
        keys = [(e.src, e.dst, e.color, e.label) for e in p.edges]
        assert len(keys) == len(set(keys))
        for v in p.states:
            expect = {
                (f.dst, g.dst, f.color, f.label & g.label)
                for f in a.out(v[0])
                for g in b.out(v[1])
                if not a.colored or f.color == g.color
            }
            assert {((e.dst[0], e.dst[1], e.color, e.label)) for e in p.out(v)} == expect
