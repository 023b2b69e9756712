"""Finite labelled transition systems with label subsumption.

States carry atom-set labels, edges carry subsets of the signature plus the
pseudo-letter BOT ("no intermediate point required") and an optional color.

States are arbitrary hashable values, often nested tuples that are slow to
hash, so the simulation game and the bisimulation quotient number each
system's states 0..n-1 in list order once per call and work on integers:
labels become bitmasks (`_View`), a pair of states (x, y) is the code
x * n_t + y, and quotient classes are small ids.

Simulation is the greatest relation refined to a fixpoint over the pairs
reachable in the game (`_play`).  Each live pair keeps, per s-edge, a count
of its live t-matches, and a pair that dies decrements the counts that
watch it (Henzinger, Henzinger & Kopke, FOCS 1995), so checking a pair is
one look at its counts, not a rescan of its matches.  Pairs die in the order
of a LIFO worklist seeded in discovery order, which fixes every rank and so
every failing subtree, whatever the hash seed.  Against a disjoint union,
`failing_subtree_of_union` plays one game per part and stops at the first
part that simulates.  Containment is the run-wise weakening decided over
(state, candidate-set) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

BOT = "⊥"

BLACK = "black"
RED = "red"


@dataclass(frozen=True)
class Edge:
    src: Hashable
    dst: Hashable
    label: frozenset[str]
    color: str = BLACK


@dataclass
class TransitionSystem:
    states: list
    initial: list
    labels: dict
    edges: list[Edge]
    colored: bool = False
    _out: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # representation builders emit at most one edge per (src, dst, color);
        # bisimulation quotients may merge targets and keep parallel edges
        # with incomparable labels, so only exact duplicates are rejected
        seen = set()
        for e in self.edges:
            key = (e.src, e.dst, e.color, e.label)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            self._out.setdefault(e.src, []).append(e)
        if self.states and not self.initial:
            raise ValueError("nonempty system needs an initial state")
        if not self.colored and any(e.color != BLACK for e in self.edges):
            raise ValueError("colored edge in an uncolored system")

    @classmethod
    def _derived(cls, states, initial, labels, edges, colored) -> "TransitionSystem":
        """A system built from already-checked ones, with its edges made
        unique: the out-lists are filled, and the checks of `__post_init__`
        are skipped."""
        ts = cls.__new__(cls)
        ts.states, ts.initial, ts.labels, ts.edges, ts.colored = states, initial, labels, edges, colored
        ts._out = {}
        for e in edges:
            ts._out.setdefault(e.src, []).append(e)
        return ts

    def out(self, state) -> list[Edge]:
        return self._out.get(state, [])

    def label(self, state) -> frozenset[str]:
        return self.labels[state]

    @property
    def size(self) -> int:
        return len(self.states)


def product(systems: list[TransitionSystem], reachable_only: bool = False) -> TransitionSystem:
    """Synchronous product; node and edge labels intersect, colors must agree.

    With reachable_only, states not reachable from the initial vectors are
    dropped; simulation and containment never look at them.
    """
    if not systems:
        raise ValueError("product of an empty list")
    colored = systems[0].colored
    if any(s.colored != colored for s in systems):
        raise ValueError("mixed colored and uncolored systems")
    initial = [()]
    for s in systems:
        initial = [v + (x,) for v in initial for x in s.initial]
    if reachable_only:
        states = list(initial)
    else:
        states = [()]
        for s in systems:
            states = [v + (x,) for v in states for x in s.states]
    top = frozenset({BOT}) | _full_alphabet(systems)
    state_set = set(states)
    edges = []
    queue = list(states)
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        combos = [((), top, None)]
        for k in range(len(systems)):
            new_combos = []
            for tgt, lab, color in combos:
                for e in systems[k].out(v[k]):
                    if colored and color is not None and e.color != color:
                        continue
                    new_combos.append((tgt + (e.dst,), lab & e.label, e.color))
            combos = new_combos
        # parallel edges with different labels can meet in one intersection
        for tgt, lab, color in dict.fromkeys(combos):
            if tgt not in state_set:
                if not reachable_only:
                    continue  # unreachable targets exist only in reachable mode
                state_set.add(tgt)
                queue.append(tgt)
            edges.append(Edge(v, tgt, lab, color if colored else BLACK))
    if reachable_only:
        states = queue
    labels = {}
    for v in states:
        lab = systems[0].label(v[0])
        for s, x in zip(systems[1:], v[1:]):
            lab = lab & s.label(x)
        labels[v] = lab
    return TransitionSystem._derived(states, initial, labels, edges, colored)


def _full_alphabet(systems: Iterable[TransitionSystem]) -> frozenset[str]:
    out: set[str] = set()
    for s in systems:
        for e in s.edges:
            out |= e.label
        for lab in s.labels.values():
            out |= lab
    return frozenset(out)


def disjoint_union(systems: list[TransitionSystem]) -> TransitionSystem:
    if not systems:
        return TransitionSystem([], [], {}, [], False)
    colored = systems[0].colored
    if any(s.colored != colored for s in systems):
        raise ValueError("mixed colored and uncolored systems")
    states = [(i, x) for i, s in enumerate(systems) for x in s.states]
    initial = [(i, x) for i, s in enumerate(systems) for x in s.initial]
    labels = {(i, x): s.label(x) for i, s in enumerate(systems) for x in s.states}
    edges = [
        Edge((i, e.src), (i, e.dst), e.label, e.color)
        for i, s in enumerate(systems)
        for e in s.edges
    ]
    return TransitionSystem._derived(states, initial, labels, edges, colored)


def bisim_quotient(ts: TransitionSystem) -> TransitionSystem:
    """Collapse exact-bisimilar states; simulation verdicts are unchanged.

    Partition refinement on integer class ids: states are numbered in list
    order, and each round maps every state's signature (its class, and the
    set of (color, edge label, target class) moves) to a new id with one
    dict, until the number of classes stops growing or equals the number of
    states.  Each class is represented by its first state, and the
    quotient's states and edges keep the input order.  Parallel quotient
    edges whose labels are subsumed by another edge of the same color and
    target are dropped: they help neither the attacker (weaker demands) nor
    the defender (weaker offers).
    """
    states = ts.states
    n = len(states)
    index = {x: i for i, x in enumerate(states)}
    kinds: dict = {}  # (color, label) -> id
    coded = []  # (src, dst, edge) per edge, in input order
    moves: list[list] = [[] for _ in range(n)]
    for e in ts.edges:
        src, dst = index[e.src], index[e.dst]
        coded.append((src, dst, e))
        moves[src].append((kinds.setdefault((e.color, e.label), len(kinds)) * n, dst))
    ids: dict = {}
    cls = [ids.setdefault(ts.label(x), len(ids)) for x in states]
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
    for i, c in enumerate(cls):
        rep.setdefault(c, i)
    to_rep = [rep[c] for c in cls]
    grouped: dict = {}
    for src, dst, e in coded:
        if to_rep[src] != src:
            continue
        d = to_rep[dst]
        # a dict, not a set: edges come out in input order, whatever the hash seed
        grouped.setdefault((src, d, e.color), {}).setdefault(e.label, e if d == dst else None)
    edges = []
    for (src, dst, color), labs in grouped.items():
        for lab, e in labs.items():
            if len(labs) > 1 and any(lab < other for other in labs):
                continue
            edges.append(e if e is not None else Edge(states[src], states[dst], lab, color))
    kept = [x for i, x in enumerate(states) if to_rep[i] == i]
    labels = {x: ts.label(x) for x in kept}
    initial = list(dict.fromkeys(states[to_rep[index[x]]] for x in ts.initial))
    return TransitionSystem._derived(kept, initial, labels, edges, ts.colored)


def prune_dominated_edges(ts: TransitionSystem) -> TransitionSystem:
    """Drop edges dominated by a same-color sibling with a larger label and a
    simulating target.

    A dominated edge offers the defender strictly less and demands nothing
    extra from the attacker, so simulation and containment verdicts against
    (or from) the pruned system are unchanged, in products too.
    """
    v, _, alive, _ = _game(ts, ts)
    n = len(ts.states)
    siblings: dict = {}
    for i, (src, dst, lab, color) in enumerate(v.edges):
        siblings.setdefault((src, color), []).append((i, dst, lab))
    dropped = bytearray(len(v.edges))
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
    keep = [e for e, gone in zip(ts.edges, dropped) if not gone]
    return TransitionSystem._derived(
        list(ts.states), list(ts.initial), dict(ts.labels), keep, ts.colored
    )


def pack(ts: TransitionSystem, letters: Sequence[str]) -> tuple:
    """ts as ints: states renumbered 0..n-1 in list order, labels as masks
    (bit i for letters[i], which must cover every label), and the edges as
    one flat sequence of (src, dst, label mask, 1 if red) fours.  Sequences
    are bytes when every value fits in one."""
    bit = {a: 1 << i for i, a in enumerate(letters)}
    index = {x: i for i, x in enumerate(ts.states)}
    edges: list[int] = []
    for e in ts.edges:
        edges += (index[e.src], index[e.dst], sum(bit[a] for a in e.label), int(e.color == RED))
    labels = [sum(bit[a] for a in ts.label(x)) for x in ts.states]
    initial = [index[x] for x in ts.initial]
    return len(ts.states), _compact(initial), _compact(labels), _compact(edges), ts.colored


def _compact(values: list[int]) -> bytes | tuple[int, ...]:
    return bytes(values) if all(v < 256 for v in values) else tuple(values)


def unpack(packed: tuple, letters: Sequence[str]) -> TransitionSystem:
    """The system `pack` encoded, with states 0..n-1."""
    n, initial, labels, edges, colored = packed
    label = {
        m: frozenset(a for i, a in enumerate(letters) if m >> i & 1)
        for m in {*labels, *edges[2::4]}
    }
    it = iter(edges)
    return TransitionSystem._derived(
        list(range(n)),
        list(initial),
        {x: label[m] for x, m in enumerate(labels)},
        [Edge(s, d, label[m], RED if red else BLACK) for s, d, m, red in zip(it, it, it, it)],
        colored,
    )


def _masker():
    """A memoised map from labels to bitmasks; letters get bits as they appear."""
    bits: dict = {}
    memo: dict = {}

    def mask(label: frozenset[str]) -> int:
        m = memo.get(label)
        if m is None:
            m = 0
            for a in label:
                b = bits.get(a)
                if b is None:
                    b = bits[a] = 1 << len(bits)
                m |= b
            memo[label] = m
        return m

    return mask


class _View:
    """A system's states numbered 0..n-1 in list order, with bitmask labels.

    edges lists (src, dst, label mask, color) in edge order, out[x] the
    (dst, label mask, color) of x's edges and rev[y] the sources of the
    edges into y, both in edge order.
    """

    __slots__ = ("states", "init", "lab", "edges", "out", "rev")

    def __init__(self, ts: TransitionSystem, mask):
        self.states = ts.states
        index = {x: i for i, x in enumerate(ts.states)}
        self.init = [index[x] for x in ts.initial]
        self.lab = [mask(ts.label(x)) for x in ts.states]
        self.edges = [(index[e.src], index[e.dst], mask(e.label), e.color) for e in ts.edges]
        self.out = [[] for _ in ts.states]
        self.rev = [[] for _ in ts.states]
        for src, dst, lab, color in self.edges:
            self.out[src].append((dst, lab, color))
            self.rev[dst].append(src)


def _play(sv: _View, tv: _View):
    """The simulation game of s by t on pair codes x * n_t + y.

    Returns the surviving pairs and the rank map, as `_simulation_ranks`
    describes them.  Only pairs reachable from the initial pairs are played.
    Each live pair keeps, per s-edge, the count of its live t-matches (one
    per matching t-edge); a dead pair decrements the counts that watch it,
    so a pair defends iff none of its counts is 0.  Deaths follow a LIFO
    worklist seeded with the pairs in discovery order, and each death pushes
    its live, unqueued predecessor pairs in edge order.
    """
    n_t = len(tv.states)
    s_lab, t_lab, s_out, t_out = sv.lab, tv.lab, sv.out, tv.out
    rank: dict[int, int] = {}
    found: list[int] = []
    counts: dict[int, list] = {}
    watchers: dict[int, list] = {}  # pair -> (counts of a pair, s-edge), once per t-edge into it
    # only pairs reachable in the game can influence the verdict at the
    # initial states, so the refinement is restricted to them
    stack = [x * n_t + y for x in sv.init for y in tv.init]
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
        for i, (dst, lab, color) in enumerate(s_out[x]):
            base = dst * n_t
            row = [base + z for z, flab, fcolor in ty if fcolor == color and lab & flab == lab]
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
    rev_s, rev_t = sv.rev, tv.rev
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


def _game(s: TransitionSystem, t: TransitionSystem):
    """The views of s and t (one view when s is t) and the game of s by t."""
    mask = _masker()
    sv = _View(s, mask)
    tv = sv if t is s else _View(t, mask)
    return (sv, tv, *_play(sv, tv))


def _simulation_ranks(s: TransitionSystem, t: TransitionSystem):
    """Greatest simulation of s by t plus the death order of removed pairs.

    rank 0 marks pairs dead on labels alone; surviving pairs are absent from
    the rank map.  A pair dies only when some s-edge has all its t-matches
    already dead, so ranks strictly decrease along the attacker strategy.
    The game runs on integer pair codes (`_play`); this translates its
    result back to pairs of states.
    """
    _, _, alive, rank = _game(s, t)
    n_t, xs, ys = len(t.states), s.states, t.states
    return (
        {(xs[p // n_t], ys[p % n_t]) for p in alive},
        {(xs[p // n_t], ys[p % n_t]): r for p, r in rank.items()},
    )


def simulates(s: TransitionSystem, t: TransitionSystem) -> bool:
    """True iff every finite subtree of s's computation tree embeds into t's."""
    if s.colored != t.colored:
        raise ValueError("mixed colored and uncolored systems")
    sv, tv, alive, rank = _game(s, t)
    game = (tv, len(t.states), alive, rank)
    return all(_answered(x, game) for x in sv.init)


@dataclass(frozen=True)
class Run:
    """A run as its labels: n node labels and n-1 edge labels."""

    node_labels: tuple[frozenset[str], ...]
    edge_labels: tuple[frozenset[str], ...]


def contained_in(s: TransitionSystem, t: TransitionSystem) -> bool:
    """True iff every run of s is label-subsumed by an equal-length run of t."""
    return _containment_search(s, t)[0]


def _containment_search(s: TransitionSystem, t: TransitionSystem):
    if s.colored or t.colored:
        raise ValueError("containment is defined for uncolored systems")
    start: list[tuple] = []
    parents: dict = {}
    for x in s.initial:
        ys = frozenset(y for y in t.initial if s.label(x) <= t.label(y))
        node = (x, ys)
        if node not in parents:
            parents[node] = None
            start.append(node)
    queue = list(start)
    i = 0
    while i < len(queue):
        node = queue[i]
        i += 1
        x, ys = node
        if not ys:
            return False, node, parents
        for e in s.out(x):
            ys2 = frozenset(
                f.dst
                for y in ys
                for f in t.out(y)
                if e.label <= f.label and s.label(e.dst) <= t.label(f.dst)
            )
            nxt = (e.dst, ys2)
            if nxt not in parents:
                parents[nxt] = (node, e)
                queue.append(nxt)
    return True, None, parents


def extract_failing_run(s: TransitionSystem, t: TransitionSystem) -> Run:
    """A shortest run of s with no matching run of t; containment must fail."""
    run = failing_run(s, t)
    if run is None:
        raise ValueError("extract_failing_run: containment holds")
    return run


def failing_run(s: TransitionSystem, t: TransitionSystem) -> Run | None:
    """A shortest run of s with no matching run of t, or None if s is contained in t."""
    ok, node, parents = _containment_search(s, t)
    if ok:
        return None
    states = []
    edge_labels = []
    while node is not None:
        states.append(node[0])
        step = parents[node]
        if step is None:
            break
        node, edge = step
        edge_labels.append(edge.label)
    states.reverse()
    edge_labels.reverse()
    return Run(tuple(s.label(x) for x in states), tuple(edge_labels))


@dataclass(frozen=True)
class Tree:
    """A finite labelled tree; children carry the connecting edge's label/color."""

    label: frozenset[str]
    children: tuple[tuple[frozenset[str], str, "Tree"], ...] = ()

    def depth(self) -> int:
        return 1 + max((c.depth() for _, _, c in self.children), default=0)


def extract_failing_subtree(s: TransitionSystem, t: TransitionSystem) -> Tree:
    """A finite subtree of s's computation tree not embeddable into t's.

    Built from the attacker strategy of the simulation game: at each dead
    pair pick an s-edge whose every t-match died strictly earlier.
    """
    tree = failing_subtree(s, t)
    if tree is None:
        raise ValueError("extract_failing_subtree: simulation holds")
    return tree


def failing_subtree(s: TransitionSystem, t: TransitionSystem) -> Tree | None:
    """A subtree as extract_failing_subtree gives it, or None if t simulates s."""
    return failing_subtree_of_union(s, [t])


def failing_subtree_of_union(s: TransitionSystem, parts: Sequence[TransitionSystem]) -> Tree | None:
    """`failing_subtree(s, disjoint_union(parts))`, one game per part.

    The parts of a disjoint union never interact, so each part's game is the
    union's game restricted to that part, with the same death order inside
    the part.  The first part that simulates s ends the search.  Otherwise
    the parts' live pairs and ranks together are the union's, up to rank
    values, which the attacker only compares within one part.
    """
    if any(s.colored != t.colored for t in parts):
        raise ValueError("mixed colored and uncolored systems")
    mask = _masker()
    sv = _View(s, mask)
    games = []  # per part: (view, state count, live pairs, ranks)
    for t in parts:
        tv = sv if t is s else _View(t, mask)
        game = (tv, len(t.states), *_play(sv, tv))
        if all(_answered(x, game) for x in sv.init):
            return None
        games.append(game)
    for x in sv.init:
        if not any(_answered(x, game) for game in games):
            targets = [(k, y) for k, game in enumerate(games) for y in game[0].init]
            return _attack(s, sv, games, x, targets)
    return None


def _answered(x: int, game: tuple) -> bool:
    """True iff some initial t-state of the game simulates s-state x."""
    tv, n_t, alive, _ = game
    return any(x * n_t + y in alive for y in tv.init)


def _attack(s: TransitionSystem, sv: _View, games: list, x: int, targets: list) -> Tree:
    """The attacker's tree from s-state x against the (part, t-state) targets.

    At each dead pair it picks the first s-edge whose every t-match died
    strictly earlier, and the children gather the matches of all targets.
    """
    outs = sv.out[x]
    chosen: dict[int, list] = {}
    for k, y in targets:
        tv, n_t, alive, rank = games[k]
        p = x * n_t + y
        if p in alive:
            raise AssertionError("attack on a live pair")
        r = rank[p]
        if r == 0:
            continue  # label mismatch, defeated by the root itself
        ty = tv.out[y]
        for i, (dst, lab, color) in enumerate(outs):
            matches = [z for z, flab, fcolor in ty if fcolor == color and lab & flab == lab]
            if all(rank.get(dst * n_t + z, r) < r for z in matches):
                chosen.setdefault(i, []).extend((k, z) for z in matches)
                break
        else:
            raise AssertionError("no defeating edge for a dead pair")
    edges = s.out(sv.states[x])
    children = []
    for i, succs in chosen.items():
        e = edges[i]
        child = _attack(s, sv, games, outs[i][0], list(dict.fromkeys(succs)))
        children.append((e.label, e.color, child))
    return Tree(s.label(sv.states[x]), tuple(children))
