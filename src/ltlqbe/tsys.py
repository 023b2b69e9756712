"""Finite labelled transition systems with label subsumption.

States carry atom-set labels, edges carry subsets of the signature plus the
pseudo-letter BOT ("no intermediate point required") and an optional color.
Simulation is the greatest relation refined to a fixpoint; containment is
the run-wise weakening decided over (state, candidate-set) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

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

    Partition refinement on (label, set of (color, edge label, target class))
    signatures.  Parallel quotient edges whose labels are subsumed by another
    edge of the same color and target are dropped: they help neither the
    attacker (weaker demands) nor the defender (weaker offers).
    """
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
        # a dict, not a set: edges come out in input order, whatever the hash seed
        grouped.setdefault((e.src, to_rep[e.dst], e.color), {})[e.label] = None
    edges = []
    for (src, dst, color), labs in grouped.items():
        for lab in labs:
            if any(lab < other for other in labs):
                continue
            edges.append(Edge(src, dst, lab, color))
    initial = list(dict.fromkeys(to_rep[x] for x in ts.initial))
    return TransitionSystem._derived(states, initial, labels, edges, ts.colored)


def prune_dominated_edges(ts: TransitionSystem) -> TransitionSystem:
    """Drop edges dominated by a same-color sibling with a larger label and a
    simulating target.

    A dominated edge offers the defender strictly less and demands nothing
    extra from the attacker, so simulation and containment verdicts against
    (or from) the pruned system are unchanged, in products too.
    """
    alive, _ = _simulation_ranks(ts, ts)
    siblings: dict = {}
    for i, e in enumerate(ts.edges):
        siblings.setdefault((e.src, e.color), []).append((i, e))

    def dominated(i: int, e: Edge) -> bool:
        for j, f in siblings[e.src, e.color]:
            if i != j and e.label <= f.label and (e.dst, f.dst) in alive:
                # of two mutually dominating edges the earlier one stays
                mutual = f.label <= e.label and (f.dst, e.dst) in alive
                if not mutual or j < i:
                    return True
        return False

    keep = [e for i, e in enumerate(ts.edges) if not dominated(i, e)]
    return TransitionSystem._derived(
        list(ts.states), list(ts.initial), dict(ts.labels), keep, ts.colored
    )


def _label_masks(systems: list[TransitionSystem]):
    alphabet = sorted(_full_alphabet(systems))
    index = {a: 1 << i for i, a in enumerate(alphabet)}

    def mask(label: frozenset[str]) -> int:
        m = 0
        for a in label:
            m |= index[a]
        return m

    return mask


def _simulation_ranks(s: TransitionSystem, t: TransitionSystem):
    """Greatest simulation of s by t plus the death order of removed pairs.

    rank 0 marks pairs dead on labels alone; surviving pairs are absent from
    the rank map.  A pair dies only when some s-edge has all its t-matches
    already dead, so ranks strictly decrease along the attacker strategy.
    """
    mask = _label_masks([s, t])
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

    # only pairs reachable in the simulation game can influence the verdict
    # at the initial states, so the refinement is restricted to them
    rank: dict[tuple, int] = {}
    alive: set[tuple] = set()
    found: list[tuple] = []
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
    queue = list(found)  # discovery order, so the refinement does not follow set hashing
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


def simulates(s: TransitionSystem, t: TransitionSystem) -> bool:
    """True iff every finite subtree of s's computation tree embeds into t's."""
    if s.colored != t.colored:
        raise ValueError("mixed colored and uncolored systems")
    alive, _ = _simulation_ranks(s, t)
    return all(any((x, y) in alive for y in t.initial) for x in s.initial)


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
    if s.colored != t.colored:
        raise ValueError("mixed colored and uncolored systems")
    alive, rank = _simulation_ranks(s, t)

    def build(x, targets: tuple) -> Tree:
        chosen: dict[Edge, list] = {}
        for y in targets:
            if (x, y) in alive:
                raise AssertionError("build called on a live pair")
            if rank[(x, y)] == 0:
                continue  # label mismatch, defeated by the root itself
            edge = None
            for e in s.out(x):
                matches = [
                    f.dst
                    for f in t.out(y)
                    if f.color == e.color and e.label <= f.label
                ]
                if all(
                    rank.get((e.dst, z), None) is not None
                    and rank[(e.dst, z)] < rank[(x, y)]
                    for z in matches
                ):
                    edge = e
                    break
            if edge is None:
                raise AssertionError("no defeating edge for a dead pair")
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


def embeds(tree: Tree, t: TransitionSystem) -> bool:
    """Brute-force check that `tree` maps into t's computation tree."""

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


def run_embeds(run: Run, t: TransitionSystem) -> bool:
    """Brute-force check that the run is label-subsumed by some run of t."""

    def fits(i: int, y) -> bool:
        if not run.node_labels[i] <= t.label(y):
            return False
        if i + 1 == len(run.node_labels):
            return True
        return any(
            run.edge_labels[i] <= f.label and fits(i + 1, f.dst) for f in t.out(y)
        )

    return any(fits(0, y) for y in t.initial)


def to_dot(ts: TransitionSystem, name: str = "ts") -> str:
    """GraphViz rendering for debugging; not a stability contract."""
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
