import random

import pytest

from conftest import Edge, Named, named, numbered, rand_example_set, rand_horn_ontology
from ltlqbe import qbe
from ltlqbe.core import DataInstance, data_word
from ltlqbe.represent import repr_plain, repr_plain_br
from ltlqbe.tsys import (
    BLACK,
    BOT,
    RED,
    TransitionSystem,
    Tree,
    _adjacency,
    _play,
    bisim_quotient,
    contained_in,
    extract_failing_run,
    extract_failing_subtree,
    failing_run,
    failing_subtree_of_union,
    product,
    prune_dominated_edges,
    simulates,
)

D = DataInstance.of


def embeds(tree: Tree, t: TransitionSystem) -> bool:
    """Brute-force check that `tree` maps into t's computation tree."""
    t = named(t)

    def fits(node: Tree, y) -> bool:
        if not node.label <= t.label(y):
            return False
        for lab, color, child in node.children:
            if not any(
                f.color == color and lab <= f.label and fits(child, f.dst)
                for f in t.out(y)
            ):
                return False
        return True

    return any(fits(tree, y) for y in t.initial)


def is_chain(tree: Tree) -> bool:
    """True iff every node of tree has at most one child, by a black edge."""
    while tree.children:
        if len(tree.children) > 1 or tree.children[0][1] != BLACK:
            return False
        tree = tree.children[0][2]
    return True


def to_dot(ts: TransitionSystem, name: str = "ts") -> str:
    """GraphViz rendering for debugging a failing test."""
    ts = named(ts)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    index = {x: i for i, x in enumerate(ts.states)}
    for x in ts.states:
        label = ",".join(sorted(ts.label(x))) or "∅"
        shape = "doublecircle" if x in ts.initial else "circle"
        lines.append(f'  n{index[x]} [label="{label}", shape={shape}];')
    for e in ts.edges:
        label = ",".join(sorted(e.label)) or "∅"
        color = "red" if e.color == RED else "black"
        lines.append(f'  n{index[e.src]} -> n{index[e.dst]} [label="{label}", color={color}];')
    lines.append("}")
    return "\n".join(lines)


def ts(states, initial, labels, edges, colored=False) -> TransitionSystem:
    return numbered(
        Named(
            states,
            initial,
            {s: frozenset(l) for s, l in labels.items()},
            [Edge(a, b, frozenset(lab), color) for a, b, lab, color in edges],
            colored,
        )
    )


def reachable(t: TransitionSystem) -> set[int]:
    seen = {t.initial}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for src, dst, _, _ in t.edges:
            if src == x and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _product_reference(systems: list[Named]) -> Named:
    """The synchronous product over named systems, its states the reachable
    tuple vectors in breadth-first order."""
    initial = [()]
    for s in systems:
        initial = [v + (x,) for v in initial for x in s.initial]
    states = list(initial)
    seen = set(states)
    edges = []
    for v in states:  # the list grows as the loop runs
        combos = [((), None, None)]
        for s, x in zip(systems, v):
            combos = [
                (tgt + (e.dst,), e.label if lab is None else lab & e.label, e.color)
                for tgt, lab, color in combos
                for e in s.out(x)
                if color is None or e.color == color
            ]
        for tgt, lab, color in dict.fromkeys(combos):
            if tgt not in seen:
                seen.add(tgt)
                states.append(tgt)
            edges.append(Edge(v, tgt, lab, color))
    labels = {v: frozenset.intersection(*(s.label(x) for s, x in zip(systems, v))) for v in states}
    return Named(states, initial, labels, edges, systems[0].colored)


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
    live = reachable(s)
    assert len(p.states) == len(live) and len(p.edges) == sum(e[0] in live for e in s.edges)
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
    a, b = repr_plain(data_word(d1), sig), repr_plain(data_word(d2), sig)
    p = product([a, b])
    reference = _product_reference([named(a), named(b)])
    assert p == numbered(reference, a.letters)
    index = {v: i for i, v in enumerate(reference.states)}
    labels = {(src, dst): p.spell(m) for src, dst, m, _ in p.edges}
    assert labels[index[3, 1], index[4, 3]] == frozenset({"A1", "B2"})


def test_systems_over_different_letter_tables_do_not_mix():
    a = ts([0], [0], {0: {"A"}}, [(0, 0, {"A"}, BLACK)])
    b = numbered(named(a), ("A", "B", BOT))
    for combine in (
        product,
        lambda pair: failing_subtree_of_union(pair[0], pair[1:]),
        lambda pair: failing_run(pair[:1], pair[1:]),
        lambda pair: failing_run(pair, pair[:1]),  # factors over different tables
    ):
        combine([a, a])
        with pytest.raises(ValueError, match="letter tables"):
            combine([a, b])


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
    assert extract_failing_run(a, b) == Tree(frozenset({"A"}))


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
        assert is_chain(run)
        assert not embeds(run, b)
        assert embeds(run, a)


def test_to_dot_smoke():
    s = rand_system(random.Random(8), colored=True)
    text = to_dot(s)
    assert text.startswith("digraph") and "->" in text


def _ranks(s: TransitionSystem, t: TransitionSystem):
    """The simulation game of s by t as `_play` plays it, with its pair codes
    decoded to (x, y) pairs: the surviving pairs and the rank map."""
    alive, rank = _play(s, _adjacency(s), t, _adjacency(t))
    n_t = len(t.labels)
    return {divmod(p, n_t) for p in alive}, {divmod(p, n_t): r for p, r in rank.items()}


def _prune_reference(t: TransitionSystem) -> list[Edge]:
    """prune_dominated_edges as a comparison of every pair of edges."""
    alive, _ = _ranks(t, t)
    t = named(t)
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
    for _ in range(25):
        kind = rng.randrange(3)
        if kind == 0:
            t = rand_system(rng, n=rng.randrange(1, 7), colored=rng.random() < 0.5)
        else:
            t = _repr_product(rng, colored=kind == 2)
        q = bisim_quotient(t)
        pruned = prune_dominated_edges(q)
        assert named(pruned).edges == _prune_reference(q)
        assert pruned.states == q.states and pruned.initial == q.initial and pruned.labels == q.labels


def _repr_product(rng: random.Random, colored: bool) -> TransitionSystem:
    """The reachable product of one or two random data systems (black/red
    when colored)."""
    sig = frozenset("ABC")
    build = repr_plain_br if colored else repr_plain
    parts = [
        build(data_word(D({(rng.choice("ABC"), rng.randrange(0, 4)) for _ in range(rng.randrange(0, 5))})), sig)
        for _ in range(rng.randrange(1, 3))
    ]
    return product(parts) if len(parts) > 1 else parts[0]


def _random_quotient(rng: random.Random) -> TransitionSystem:
    if rng.random() < 0.5:
        return bisim_quotient(rand_system(rng, n=rng.randrange(1, 7), colored=rng.random() < 0.5))
    return bisim_quotient(_repr_product(rng, colored=rng.random() >= 0.5))


def test_derived_systems_pass_the_public_checks():
    # product, bisim_quotient and prune_dominated_edges build through the
    # checked constructor; their fields are tuples, their initial state is
    # one int, and it and their edges lie among their states
    rng = random.Random(41000)
    for _ in range(100):
        q, other = _random_quotient(rng), _random_quotient(rng)
        derived = [q, prune_dominated_edges(q)]
        if q.colored == other.colored:
            pair = [q, other]
            derived.append(product(pair))
        for t in derived:
            assert all(type(f) is tuple for f in (t.labels, t.edges)) and type(t.initial) is int
            assert t.initial in t.states
            assert all(src in t.states and dst in t.states for src, dst, _, _ in t.edges)


def test_product_keeps_one_of_equal_parallel_edge_intersections():
    s1 = ts([0, 1], [0], {0: set(), 1: set()}, [(0, 1, {"A", "B"}, BLACK), (0, 1, {"A", "C"}, BLACK)])
    s2 = ts([0, 1], [0], {0: set(), 1: set()}, [(0, 1, {"A"}, BLACK)])
    p = product([s1, s2])
    assert named(p).edges == [Edge(0, 1, frozenset({"A"}))]


def test_product_of_quotients_keeps_every_distinct_edge():
    rng = random.Random(42000)
    for _ in range(60):
        a, b = _random_quotient(rng), _random_quotient(rng)
        if a.colored != b.colored:
            continue
        p = product([a, b])
        assert len(p.edges) == len(set(p.edges))
        na, nb = named(a), named(b)
        reference = _product_reference([na, nb])
        assert p == numbered(reference, a.letters)
        for v in reference.states:
            expect = {
                (f.dst, g.dst, f.color, f.label & g.label)
                for f in na.out(v[0])
                for g in nb.out(v[1])
                if not a.colored or f.color == g.color
            }
            assert {((e.dst[0], e.dst[1], e.color, e.label)) for e in reference.out(v)} == expect


# ---------------------------------------------------------------------------
# The integer game and refinement against the tuple-keyed code they replaced


def _label_masks_reference(systems):
    alphabet = sorted(
        {a for s in systems for lab in [*s.labels.values(), *(e.label for e in s.edges)] for a in lab}
    )
    index = {a: 1 << i for i, a in enumerate(alphabet)}

    def mask(label):
        m = 0
        for a in label:
            m |= index[a]
        return m

    return mask


def _simulation_ranks_reference(s, t):
    """The game with a rescan of every match after each death."""
    mask = _label_masks_reference([s, t])
    s_lab = {x: mask(s.label(x)) for x in s.states}
    t_lab = {y: mask(t.label(y)) for y in t.states}
    s_out = {x: [(e.dst, mask(e.label), e.color) for e in s.out(x)] for x in s.states}
    t_out = {y: [(f.dst, mask(f.label), f.color) for f in t.out(y)] for y in t.states}

    match_cache: dict = {}

    def matches(x, i, y):
        key = (x, i, y)
        got = match_cache.get(key)
        if got is None:
            _, lab, color = s_out[x][i]
            got = tuple(
                dst for dst, flab, fcolor in t_out[y] if fcolor == color and lab & flab == lab
            )
            match_cache[key] = got
        return got

    rank: dict = {}
    alive: set = set()
    found: list = []
    stack = [(x, y) for x in s.initial for y in t.initial]
    seen_pairs = set(stack)
    while stack:
        pair = stack.pop()
        x, y = pair
        if s_lab[x] & t_lab[y] != s_lab[x]:
            rank[pair] = 0
            continue
        alive.add(pair)
        found.append(pair)
        for i in range(len(s_out[x])):
            dst = s_out[x][i][0]
            for z in matches(x, i, y):
                nxt = (dst, z)
                if nxt not in seen_pairs:
                    seen_pairs.add(nxt)
                    stack.append(nxt)
    rev_s: dict = {}
    rev_t: dict = {}
    for e in s.edges:
        rev_s.setdefault(e.dst, []).append(e.src)
    for f in t.edges:
        rev_t.setdefault(f.dst, []).append(f.src)

    def defends(x, y) -> bool:
        for i in range(len(s_out[x])):
            dst = s_out[x][i][0]
            if not any((dst, z) in alive for z in matches(x, i, y)):
                return False
        return True

    counter = 0
    queue = list(found)
    queued = set(queue)
    while queue:
        pair = queue.pop()
        queued.discard(pair)
        if pair not in alive:
            continue
        x, y = pair
        if defends(x, y):
            continue
        alive.discard(pair)
        counter += 1
        rank[pair] = counter
        for xp in rev_s.get(x, ()):
            for yp in rev_t.get(y, ()):
                prev = (xp, yp)
                if prev in alive and prev not in queued:
                    queue.append(prev)
                    queued.add(prev)
    return alive, rank


def _failing_subtree_reference(s, t):
    """The attacker's tree built over the reference game's state pairs."""
    alive, rank = _simulation_ranks_reference(s, t)

    def build(x, targets: tuple) -> Tree:
        chosen: dict = {}
        for y in targets:
            assert (x, y) not in alive
            if rank[(x, y)] == 0:
                continue
            edge = None
            for e in s.out(x):
                matches = [f.dst for f in t.out(y) if f.color == e.color and e.label <= f.label]
                if all(
                    rank.get((e.dst, z), None) is not None and rank[(e.dst, z)] < rank[(x, y)]
                    for z in matches
                ):
                    edge = e
                    break
            assert edge is not None
            chosen.setdefault(edge, []).extend(
                f.dst for f in t.out(y) if f.color == edge.color and edge.label <= f.label
            )
        children = []
        for e, succs in chosen.items():
            children.append((e.label, e.color, build(e.dst, tuple(dict.fromkeys(succs)))))
        return Tree(s.label(x), tuple(children))

    for x in s.initial:
        if not any((x, y) in alive for y in t.initial):
            return build(x, tuple(t.initial))
    return None


def _bisim_quotient_reference(ts):
    """The refinement that recomputes every signature over state tuples."""
    cls: dict = {x: ts.label(x) for x in ts.states}
    while True:
        sig = {}
        for x in ts.states:
            moves = frozenset((e.color, e.label, cls[e.dst]) for e in ts.out(x))
            sig[x] = (ts.label(x), moves)
        if len(set(sig.values())) == len(set(cls.values())):
            break
        cls = sig
    rep: dict = {}
    for x in ts.states:
        rep.setdefault(cls[x], x)
    to_rep = {x: rep[cls[x]] for x in ts.states}
    states = list(dict.fromkeys(to_rep[x] for x in ts.states))
    labels = {s: ts.label(s) for s in states}
    grouped: dict = {}
    for e in ts.edges:
        if to_rep[e.src] != e.src:
            continue
        grouped.setdefault((e.src, to_rep[e.dst], e.color), {})[e.label] = None
    edges = []
    for (src, dst, color), labs in grouped.items():
        for lab in labs:
            if any(lab < other for other in labs):
                continue
            edges.append(Edge(src, dst, lab, color))
    initial = list(dict.fromkeys(to_rep[x] for x in ts.initial))
    return Named(states, initial, labels, edges, ts.colored)


def rand_parallel_system(rng: random.Random, n: int, colored: bool, tag=None):
    """A random system with a random initial state and up to three parallel
    edges with distinct labels between two states; states are ints, or
    (tag, int) tuples when a tag is given."""
    states = [i if tag is None else (tag, i) for i in range(n)]
    labels = {x: frozenset(a for a in "AB" if rng.random() < 0.35) for x in states}
    edges = []
    for a in states:
        for b in states:
            if rng.random() < 0.4:
                labs = {
                    frozenset(x for x in ("A", "B", BOT) if rng.random() < 0.4)
                    for _ in range(rng.choice((1, 1, 2, 3)))
                }
                for lab in labs:
                    color = rng.choice([BLACK, RED]) if colored else BLACK
                    edges.append((a, b, lab, color))
    return ts(states, [rng.choice(states)], labels, edges, colored)


def _game_cases(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        colored = k % 2 == 1
        if k % 5 == 4:
            s, t = _repr_product(rng, colored), _repr_product(rng, colored)
        else:
            s = rand_parallel_system(rng, rng.randint(1, 7), colored, tag="s" if k % 3 else None)
            tag = "t" if k % 3 == 1 else None
            t = rand_parallel_system(rng, rng.randint(1, 7), colored, tag=tag)
        yield s, t


@pytest.mark.parametrize("seed", range(4))
def test_simulation_ranks_match_the_rescan_reference(seed):
    # the same surviving pairs and the same death order, for s = t and s != t
    for s, t in _game_cases(43000 + seed, 100):
        for a, b in ((s, t), (s, s), (t, t)):
            assert _ranks(a, b) == _simulation_ranks_reference(named(a), named(b))


def test_parallel_matching_t_edges_count_once_per_edge():
    # (x1, y1) dies; (x0, y0)'s A-edge had two live t-matches, both into y1
    s = ts(
        ["x0", "x1", "x2"],
        ["x0"],
        {"x0": set(), "x1": set(), "x2": set()},
        [("x0", "x1", {"A"}, BLACK), ("x1", "x2", {"A"}, BLACK)],
    )
    t = ts(
        ["y0", "y1"],
        ["y0"],
        {"y0": set(), "y1": set()},
        [("y0", "y1", {"A"}, BLACK), ("y0", "y1", {"A", "B"}, BLACK)],
    )
    alive, rank = _ranks(s, t)
    assert (alive, rank) == _simulation_ranks_reference(named(s), named(t))
    # x0, x1 and y0, y1 are numbered 0, 1
    assert alive == set() and rank == {(0, 0): 2, (1, 1): 1}
    assert not simulates(s, t)


@pytest.mark.parametrize("seed", range(4))
def test_bisim_quotient_matches_the_tuple_reference(seed):
    # same representatives, initial states, labels and edges, in order
    for s, t in _game_cases(44000 + seed, 80):
        for x in (s, t):
            assert bisim_quotient(x) == numbered(_bisim_quotient_reference(named(x)), x.letters)


# ---------------------------------------------------------------------------
# Games and searches against parts, as against the glued copy they replaced


def _old_disjoint_union(parts: list[Named]) -> Named:
    """The parts side by side in one system, part k's state x renamed (k, x),
    with every part's initial states."""
    states, initial, labels, edges = [], [], {}, []
    for k, t in enumerate(parts):
        states += [(k, x) for x in t.states]
        initial += [(k, x) for x in t.initial]
        labels.update(((k, x), t.label(x)) for x in t.states)
        edges += [Edge((k, e.src), (k, e.dst), e.label, e.color) for e in t.edges]
    return Named(states, initial, labels, edges, parts[0].colored if parts else False)


def _old_failing_run(s: Named, t: Named) -> Tree | None:
    """A shortest run of s with no matching run of t, by the breadth-first
    search over (s-state, set of t-states) pairs from every pair of initial
    states, as a chain of black edges, or None if every run of s has one."""
    parents: dict = {}
    for x in s.initial:
        parents.setdefault((x, frozenset(y for y in t.initial if s.label(x) <= t.label(y))), None)
    queue = list(parents)
    for node in queue:  # the queue grows as the loop runs
        x, ys = node
        if not ys:
            break
        for e in s.out(x):
            nxt = (
                e.dst,
                frozenset(
                    f.dst
                    for y in ys
                    for f in t.out(y)
                    if e.label <= f.label and s.label(e.dst) <= t.label(f.dst)
                ),
            )
            if nxt not in parents:
                parents[nxt] = (node, e.label)
                queue.append(nxt)
    else:
        return None
    run = Tree(s.label(node[0]))
    while parents[node] is not None:
        node, lab = parents[node]
        run = Tree(s.label(node[0]), ((lab, BLACK, run),))
    return run


def _part_cases(seed: int, count: int, colorings=(False, True)):
    """(s, parts) pairs, colored in turn as `colorings` gives: random
    systems, and quotients of data products against pruned quotients, one
    to three parts each."""
    rng = random.Random(seed)
    for k in range(count):
        colored = colorings[k % len(colorings)]
        if k % 3 == 0:
            s = rand_parallel_system(rng, rng.randint(1, 6), colored)
            parts = [
                rand_parallel_system(rng, rng.randint(1, 6), colored)
                for _ in range(rng.randint(1, 3))
            ]
        else:
            s = bisim_quotient(_repr_product(rng, colored))
            parts = [
                prune_dominated_edges(bisim_quotient(_repr_product(rng, colored)))
                for _ in range(rng.randint(1, 3))
            ]
        yield s, parts


@pytest.mark.parametrize("seed", range(4))
def test_failing_subtree_of_union_equals_the_union_game(seed):
    for s, parts in _part_cases(45000 + seed, 60):
        union = _old_disjoint_union([named(t) for t in parts])
        tree = failing_subtree_of_union(s, parts)
        assert tree == _failing_subtree_reference(named(s), union)
        assert (tree is None) == any(simulates(s, t) for t in parts)


@pytest.mark.parametrize("seed", range(4))
def test_failing_run_equals_the_union_search(seed):
    runs = 0
    for s, parts in _part_cases(46000 + seed, 60, colorings=(False,)):
        run = failing_run([s], parts)
        assert run == _old_failing_run(named(s), _old_disjoint_union([named(t) for t in parts]))
        assert run == failing_run([s], parts[::-1])  # the parts' order does not matter
        if run is not None:
            runs += 1
            assert is_chain(run)
            assert all(not embeds(run, t) for t in parts) and embeds(run, s)
    assert 10 <= runs <= 50, runs


def test_failing_run_equals_the_union_search_on_until_systems():
    # the positives' factors and the negatives' position systems of random
    # sets, plain and under Horn ontologies, as path-until searches them
    rng = random.Random(47000)
    runs = 0
    for k in range(300):
        onto = rand_horn_ontology(rng, max_axioms=2) if k % 3 == 2 else None
        record = qbe._record(rand_example_set(rng, max_ts=4), onto)
        e, _, early, _ = record.dropped
        if early is not None or not e.positives:
            continue
        factors, neg = qbe._until_systems(record, False)
        run = failing_run(factors, neg)
        prod = named(product(factors))
        assert run == _old_failing_run(prod, _old_disjoint_union([named(t) for t in neg]))
        runs += run is not None
    assert runs >= 50, runs


# ---------------------------------------------------------------------------
# The positives' product folded one factor at a time, and walked on the fly


def _fold(factors: list) -> list:
    """The factors as `qbe._until_systems` folds them: [F1], else [fold, Fn],
    the fold F1 taken to the quotient of its product with each of F2..Fn-1."""
    fold = factors[0]
    for f in factors[1:-1]:
        fold = bisim_quotient(product([fold, f]))
    return [fold, *factors[1:][-1:]]


@pytest.mark.parametrize("k", range(1, 5))
def test_failing_run_on_factors_equals_it_on_their_product(k):
    # the same run, or None, as on the built product, over factors with
    # parallel edges whose intersections can meet
    rng = random.Random(48000 + k)
    runs = 0
    for _ in range(60):
        factors = [rand_parallel_system(rng, rng.randint(2, 4), False) for _ in range(k)]
        parts = [rand_parallel_system(rng, rng.randint(1, 5), False) for _ in range(rng.randint(1, 2))]
        run = failing_run(factors, parts)
        assert run == failing_run([product(factors)], parts)
        runs += run is not None
    assert 10 <= runs <= 50, runs


def _word_system(facts: set, colored: bool) -> TransitionSystem:
    """The reduced position (or black/red) system of a data word over A, B."""
    build = repr_plain_br if colored else repr_plain
    return prune_dominated_edges(bisim_quotient(build(data_word(D(facts)), frozenset("AB"))))


def _facts(rng: random.Random, n: int) -> set:
    return {(rng.choice("AB"), rng.randrange(0, 4)) for _ in range(n)}


@pytest.mark.parametrize("colored", [False, True], ids=["uncolored", "colored"])
def test_the_fold_keeps_containment_and_simulation_verdicts(colored):
    # against each part, in both directions, the folded product answers as
    # the unfolded one: 3-4 random systems, or data words that share a
    # base, as positives that a query might separate do
    rng = random.Random(49000 + colored)
    seen = set()
    for k in range(60):
        if k % 2:
            factors = [rand_parallel_system(rng, rng.randint(2, 4), colored) for _ in range(rng.randint(3, 4))]
            parts = [rand_parallel_system(rng, rng.randint(1, 4), colored) for _ in range(2)]
        else:
            base = _facts(rng, rng.randint(1, 3))
            factors = [_word_system(base | _facts(rng, rng.randint(0, 2)), colored) for _ in range(rng.randint(3, 4))]
            parts = [
                _word_system(_facts(rng, rng.randint(0, 4)) | set(rng.sample(sorted(base), rng.randint(0, len(base)))), colored)
                for _ in range(2)
            ]
        full, folded = product(factors), _fold(factors)
        quotient = bisim_quotient(product(folded))
        for t in parts:
            verdicts = (simulates(full, t), simulates(t, full))
            assert (simulates(quotient, t), simulates(t, quotient)) == verdicts
            if not colored:
                contained = (contained_in(full, t), contained_in(t, full))
                assert (failing_run(folded, [t]) is None, contained_in(t, quotient)) == contained
            seen.add(verdicts)
    assert len(seen) == 4, seen
