"""Finite labelled transition systems with label subsumption.

A system is integer-native: its states are 0..n-1, and every state and edge
label is a bitmask over the system's letter table `letters`, the sorted
signature followed by the pseudo-letter BOT ("no intermediate point
required").  Edges are (src, dst, label mask, red) tuples, red being 1 on
the red edges of a colored system.  Systems are immutable, so one system
can be stored and shared; each call builds the adjacency lists it needs
from the edges, in edge order.  Labels are spelled back into atom sets only
in the extracted `Tree`s; a failing run is a chain of black edges.

Simulation is the greatest relation refined to a fixpoint over the pairs
reachable in the game (`_play`), a pair (x, y) being the code x * n_t + y.
Each live pair keeps, per s-edge, a count of its live t-matches, and a pair
that dies decrements the counts that watch it (Henzinger, Henzinger & Kopke,
FOCS 1995), so checking a pair is one look at its counts, not a rescan of
its matches.  Pairs die in the order of a LIFO worklist seeded in discovery
order, which fixes every rank and so every failing subtree, whatever the
hash seed.  Against several systems, the parts, `failing_subtree_of_union`
plays one game per part and stops at the first part that simulates.
Containment is the run-wise weakening decided over (state, candidate-set)
pairs, the parts' states numbered one after another (`failing_run`).  Its
left side is given as factors, and their synchronous product is walked as
the search meets its state vectors, never built.

A product of many systems can be folded: bisimulation is a congruence for
the synchronous product (Milner 1989), so `bisim_quotient(product([a, b]))`
may stand for `product([a, b])` as a factor of a larger product.  The
quotient also drops parallel edges whose label is subsumed by a kept edge
of the same color and target; such an edge demands nothing extra from the
attacker and offers the defender nothing extra, in a product as alone (the
argument of `prune_dominated_edges`), so simulation and containment verdicts
against the folded product are the full product's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

BOT = "⊥"

BLACK = "black"
RED = "red"


@dataclass(frozen=True, slots=True)
class TransitionSystem:
    """States 0..n-1 with n = len(labels); `initial` is one state, `labels`
    a tuple of ints, `edges` a tuple of (src, dst, label mask, red) tuples."""

    letters: tuple[str, ...]
    initial: int
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    colored: bool = False

    def __post_init__(self):
        # representation builders emit at most one edge per (src, dst, color);
        # bisimulation quotients may merge targets and keep parallel edges
        # with incomparable labels, so only exact duplicates are rejected
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge")
        if not 0 <= self.initial < len(self.labels):
            raise ValueError("initial state out of range")
        if not self.colored and any(e[3] for e in self.edges):
            raise ValueError("colored edge in an uncolored system")

    @property
    def states(self) -> range:
        return range(len(self.labels))

    def spell(self, mask: int) -> frozenset[str]:
        """The letters whose bits are set in mask."""
        return frozenset(a for i, a in enumerate(self.letters) if mask >> i & 1)


def _common(systems: Sequence[TransitionSystem]) -> tuple[tuple[str, ...], bool]:
    """The letter table and coloring that the systems share."""
    first = systems[0]
    for s in systems:
        if s.colored != first.colored:
            raise ValueError("mixed colored and uncolored systems")
        if s.letters != first.letters:
            raise ValueError("systems over different letter tables")
    return first.letters, first.colored


def _adjacency(ts: TransitionSystem) -> tuple[list[list], list[list]]:
    """out[x]: the (dst, label mask, red) of x's edges; rev[y]: the sources
    of the edges into y; both in edge order."""
    out: list[list] = [[] for _ in ts.labels]
    rev: list[list] = [[] for _ in ts.labels]
    for src, dst, lab, red in ts.edges:
        out[src].append((dst, lab, red))
        rev[dst].append(src)
    return out, rev


def product(systems: Sequence[TransitionSystem]) -> TransitionSystem:
    """Synchronous product of the state vectors reachable from the initial
    one; node and edge labels intersect, colors must agree.

    States are numbered in the order the breadth-first queue meets their
    vectors, the initial vector first.
    """
    if not systems:
        raise ValueError("product of an empty list")
    letters, colored = _common(systems)
    full = (1 << len(letters)) - 1
    outs = [_adjacency(s)[0] for s in systems]
    queue = [tuple(s.initial for s in systems)]
    index = {queue[0]: 0}
    edges = []
    for i, v in enumerate(queue):  # the queue grows as the loop runs
        for tgt, lab, red in _moves(outs, v, full):
            j = index.get(tgt)
            if j is None:
                j = index[tgt] = len(queue)
                queue.append(tgt)
            edges.append((i, j, lab, red))
    labels = tuple(_label(systems, v, full) for v in queue)
    return TransitionSystem(letters, 0, labels, tuple(edges), colored)


def _moves(outs: list, v: tuple, full: int) -> list:
    """The product's edges out of vector v, given each factor's out-lists:
    (target vector, label mask, red) for every combination of one edge per
    factor whose colors agree, in `itertools.product` order of the factors'
    edge orders, exact duplicates dropped."""
    combos = [((), full, -1)]
    for out, x in zip(outs, v):
        combos = [
            (tgt + (dst,), lab & flab, red)
            for tgt, lab, color in combos
            for dst, flab, red in out[x]
            if color < 0 or red == color  # an uncolored system's edges all have red 0
        ]
    # parallel edges with different labels can meet in one intersection
    return list(dict.fromkeys(combos))


def _label(systems: Sequence[TransitionSystem], v: tuple, full: int) -> int:
    """The product label of vector v: the AND of its factors' labels."""
    lab = full
    for s, x in zip(systems, v):
        lab &= s.labels[x]
    return lab


def bisim_quotient(ts: TransitionSystem) -> TransitionSystem:
    """Collapse exact-bisimilar states; simulation verdicts are unchanged.

    Partition refinement on class ids: each round maps every state's
    signature (its class, and the set of (label, color, target class) moves)
    to a new id with one dict, until the number of classes stops growing or
    equals the number of states.  Ids are given in state order, so class c
    is the quotient's state c, represented by its first state, and the
    quotient's edges are the representatives' edges in input order.
    Parallel quotient edges whose labels are subsumed by another edge of the
    same color and target are dropped: they help neither the attacker
    (weaker demands) nor the defender (weaker offers).
    """
    n = len(ts.labels)
    moves: list[list] = [[] for _ in range(n)]
    for src, dst, lab, red in ts.edges:
        moves[src].append(((lab << 1 | red) * n, dst))
    ids: dict = {}
    cls = [ids.setdefault(lab, len(ids)) for lab in ts.labels]
    count = len(ids)
    while count < n:  # a partition into singletons is stable
        ids = {}
        new = [
            ids.setdefault((c, frozenset([k + cls[d] for k, d in ms])), len(ids))
            for c, ms in zip(cls, moves)
        ]
        if len(ids) == count:
            break
        cls, count = new, len(ids)
    rep: dict = {}
    for x, c in enumerate(cls):
        rep.setdefault(c, x)
    grouped: dict = {}
    for src, dst, lab, red in ts.edges:
        c = cls[src]
        if rep[c] == src:
            # a dict, not a set: edges come out in input order, whatever the hash seed
            grouped.setdefault((c, cls[dst], red), {})[lab] = None
    edges = tuple(
        (src, dst, lab, red)
        for (src, dst, red), labs in grouped.items()
        for lab in labs
        if len(labs) == 1 or not any(lab & other == lab != other for other in labs)
    )
    labels = tuple(ts.labels[x] for x in rep.values())
    return TransitionSystem(ts.letters, cls[ts.initial], labels, edges, ts.colored)


def prune_dominated_edges(ts: TransitionSystem) -> TransitionSystem:
    """Drop edges dominated by a same-color sibling with a larger label and a
    simulating target.

    A dominated edge offers the defender strictly less and demands nothing
    extra from the attacker, so simulation and containment verdicts against
    (or from) the pruned system are unchanged, in products too.
    """
    adj = _adjacency(ts)
    alive, _ = _play(ts, adj, ts, adj)
    n = len(ts.labels)
    siblings: dict = {}
    for i, (src, dst, lab, red) in enumerate(ts.edges):
        siblings.setdefault((src, red), []).append((i, dst, lab))
    dropped = bytearray(len(ts.edges))
    for group in siblings.values():
        if len(group) < 2:
            continue
        for i, dst, lab in group:
            for j, fdst, flab in group:
                if j != i and lab & flab == lab and dst * n + fdst in alive:
                    # of two mutually dominating edges the earlier one stays
                    mutual = flab & lab == flab and fdst * n + dst in alive
                    if not mutual or j < i:
                        dropped[i] = 1
                        break
    keep = tuple(e for e, gone in zip(ts.edges, dropped) if not gone)
    return TransitionSystem(ts.letters, ts.initial, ts.labels, keep, ts.colored)


def _play(s: TransitionSystem, s_adj, t: TransitionSystem, t_adj):
    """The simulation game of s by t on pair codes x * n_t + y, given both
    systems' `_adjacency`.

    Returns the greatest simulation's surviving pairs and the death order
    of the removed ones: rank 0 marks pairs dead on labels alone, and
    surviving pairs are absent from the rank map.  A pair dies only when
    some s-edge has all its t-matches already dead, so ranks strictly
    decrease along the attacker strategy.  Only pairs reachable from the
    initial pair are played.
    Each live pair keeps, per s-edge, the count of its live t-matches (one
    per matching t-edge); a dead pair decrements the counts that watch it,
    so a pair defends iff none of its counts is 0.  Deaths follow a LIFO
    worklist seeded with the pairs in discovery order, and each death pushes
    its live, unqueued predecessor pairs in edge order.
    """
    n_t = len(t.labels)
    s_lab, t_lab = s.labels, t.labels
    (s_out, rev_s), (t_out, rev_t) = s_adj, t_adj
    rank: dict[int, int] = {}
    found: list[int] = []
    counts: dict[int, list] = {}
    watchers: dict[int, list] = {}  # pair -> (counts of a pair, s-edge), once per t-edge into it
    # only pairs reachable in the game can influence the verdict at the
    # initial pair, so the refinement is restricted to them
    stack = [s.initial * n_t + t.initial]
    seen = set(stack)
    while stack:
        p = stack.pop()
        x, y = divmod(p, n_t)
        lx = s_lab[x]
        if lx & t_lab[y] != lx:
            rank[p] = 0
            continue
        found.append(p)
        ty = t_out[y]
        live = counts[p] = []
        for i, (dst, lab, red) in enumerate(s_out[x]):
            base = dst * n_t
            row = [base + z for z, flab, fred in ty if fred == red and lab & flab == lab]
            for q in row:
                w = watchers.get(q)
                if w is None:
                    watchers[q] = [(live, i)]
                else:
                    w.append((live, i))
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
            live.append(len(row))
    # pairs dead on labels never were live matches
    for q in rank:
        for live, i in watchers.get(q, ()):
            live[i] -= 1
    alive = set(found)
    counter = 0
    queue = list(found)  # discovery order, so the refinement does not follow set hashing
    queued = set(queue)
    while queue:
        p = queue.pop()
        queued.discard(p)
        if p not in alive or 0 not in counts[p]:
            continue
        alive.discard(p)
        counter += 1
        rank[p] = counter
        for live, i in watchers.get(p, ()):
            live[i] -= 1
        x, y = divmod(p, n_t)
        preds_t = rev_t[y]
        for xp in rev_s[x]:
            base = xp * n_t
            for yp in preds_t:
                q = base + yp
                if q in alive and q not in queued:
                    queue.append(q)
                    queued.add(q)
    return alive, rank


def simulates(s: TransitionSystem, t: TransitionSystem) -> bool:
    """True iff every finite subtree of s's computation tree embeds into t's."""
    return failing_subtree_of_union(s, [t]) is None


def contained_in(s: TransitionSystem, t: TransitionSystem) -> bool:
    """True iff every run of s is label-subsumed by an equal-length run of t."""
    return _containment_search([s], [t])[0]


def _containment_search(factors: Sequence[TransitionSystem], parts: Sequence[TransitionSystem]):
    """Breadth-first search over pairs of a vector of factor states and the
    set of the parts' states, numbered one after another, that end a
    matching run.  Returns whether every run of the factors' product is
    matched, the first pair with an empty set, and the parent map.

    The product is built as the search walks it: a vector's label is the
    AND of its factors' labels, and its moves are `product`'s edges out of
    it (`_moves`), made when the search first expands the vector.  The
    search meets the same pairs in the same order as on `product(factors)`,
    so its answer is the same, without the states and edges it never
    reaches.  Pairs are expanded in the order they are met, so the search
    stops at the first pair met with an empty set (Abdulla et al., "When
    simulation meets antichains", TACAS 2010, walk product vectors the same
    way).
    """
    if any(f.colored for f in factors):
        raise ValueError("containment is defined for uncolored systems")
    letters, _ = _common([*factors, *parts])
    full = (1 << len(letters)) - 1
    outs = [_adjacency(f)[0] for f in factors]
    t_lab, t_out, start = [], [], []
    for t in parts:
        base = len(t_lab)
        start.append(base + t.initial)
        t_lab += t.labels
        t_out += [[] for _ in t.labels]
        for src, dst, lab, _ in t.edges:
            t_out[base + src].append((base + dst, lab))
    v = tuple(f.initial for f in factors)
    lv = _label(factors, v, full)
    node = (v, frozenset(y for y in start if lv & t_lab[y] == lv))
    parents: dict = {node: None}
    if not node[1]:
        return False, node, parents
    moves: dict = {}  # vector -> its (target, label, target label) moves
    queue = [node]
    for node in queue:  # the queue grows as the loop runs
        v, ys = node
        out = moves.get(v)
        if out is None:
            out = moves[v] = [(dst, lab, _label(factors, dst, full)) for dst, lab, _ in _moves(outs, v, full)]
        for dst, lab, ld in out:
            nxt = (
                dst,
                frozenset(
                    z
                    for y in ys
                    for z, flab in t_out[y]
                    if lab & flab == lab and ld & t_lab[z] == ld
                ),
            )
            if nxt not in parents:
                parents[nxt] = (node, lab)
                if not nxt[1]:
                    return False, nxt, parents
                queue.append(nxt)
    return True, None, parents


def extract_failing_run(s: TransitionSystem, t: TransitionSystem) -> Tree:
    """A shortest run of s with no matching run of t; containment must fail."""
    run = failing_run([s], [t])
    if run is None:
        raise ValueError("extract_failing_run: containment holds")
    return run


def failing_run(factors: Sequence[TransitionSystem], parts: Sequence[TransitionSystem]) -> Tree | None:
    """A shortest run of the factors' product with no matching run in any
    part, as a chain of black edges, or None if every run has one in some
    part.  It equals `failing_run([product(factors)], parts)`; the product
    is walked as `_containment_search` meets it, never built.  The factors
    may be a fold, some of them quotients of products of others: the
    verdict is then the full product's, by the congruence argument in the
    module docstring, and the run spells the labels of one of its runs."""
    ok, node, parents = _containment_search(factors, parts)
    if ok:
        return None
    spell, full = factors[0].spell, (1 << len(factors[0].letters)) - 1
    run = Tree(spell(_label(factors, node[0], full)))
    while (step := parents[node]) is not None:
        node, lab = step
        run = Tree(spell(_label(factors, node[0], full)), ((spell(lab), BLACK, run),))
    return run


@dataclass(frozen=True)
class Tree:
    """A finite labelled tree; children carry the connecting edge's label/color."""

    label: frozenset[str]
    children: tuple[tuple[frozenset[str], str, "Tree"], ...] = ()


def extract_failing_subtree(s: TransitionSystem, t: TransitionSystem) -> Tree:
    """A finite subtree of s's computation tree not embeddable into t's.

    Built from the attacker strategy of the simulation game: at each dead
    pair pick an s-edge whose every t-match died strictly earlier.
    """
    tree = failing_subtree_of_union(s, [t])
    if tree is None:
        raise ValueError("extract_failing_subtree: simulation holds")
    return tree


def failing_subtree_of_union(s: TransitionSystem, parts: Sequence[TransitionSystem]) -> Tree | None:
    """A finite subtree of s's computation tree that embeds into no part's,
    or None if some part simulates s; one game per part.

    The first part that simulates s ends the search.  Otherwise the tree is
    the attacker's against all parts at once: the parts never interact, so
    each part keeps its own game, and the attacker compares ranks only
    within one part.
    """
    _common([s, *parts])
    s_adj = _adjacency(s)
    x = s.initial
    games = []  # per part: (system, its out-lists, live pairs, ranks)
    for t in parts:
        t_adj = s_adj if t is s else _adjacency(t)
        alive, rank = _play(s, s_adj, t, t_adj)
        if x * len(t.labels) + t.initial in alive:
            return None
        games.append((t, t_adj[0], alive, rank))
    return _attack(s, s_adj[0], games, x, [(k, t.initial) for k, t in enumerate(parts)])


def _attack(s: TransitionSystem, s_out: list, games: list, x: int, targets: list) -> Tree:
    """The attacker's tree from s-state x against the (part, t-state) targets.

    At each dead pair it picks the first s-edge whose every t-match died
    strictly earlier, and the children gather the matches of all targets.
    """
    outs = s_out[x]
    chosen: dict[int, list] = {}
    for k, y in targets:
        t, t_out, alive, rank = games[k]
        n_t = len(t.labels)
        p = x * n_t + y
        if p in alive:
            raise AssertionError("attack on a live pair")
        r = rank[p]
        if r == 0:
            continue  # label mismatch, defeated by the root itself
        ty = t_out[y]
        for i, (dst, lab, red) in enumerate(outs):
            matches = [z for z, flab, fred in ty if fred == red and lab & flab == lab]
            if all(rank.get(dst * n_t + z, r) < r for z in matches):
                chosen.setdefault(i, []).extend((k, z) for z in matches)
                break
        else:
            raise AssertionError("no defeating edge for a dead pair")
    children = []
    for i, succs in chosen.items():
        dst, lab, red = outs[i]
        child = _attack(s, s_out, games, dst, list(dict.fromkeys(succs)))
        children.append((s.spell(lab), RED if red else BLACK, child))
    return Tree(s.spell(s.labels[x]), tuple(children))
