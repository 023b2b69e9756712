"""Transition-system representations of lasso words.

Both builders read one `LassoModel`, whatever it is the least model of:
plain data is the word of its facts followed by empty letters forever
(`core.data_word`), and a Horn ontology's data is its canonical-model lasso
(`repr_horn` and `repr_horn_br` build from it).  The position system serves
until-path containment and simple-until simulation; the black/red system
encodes full until nesting with two edge colors, driven by the wrap-around
successor calculus: the successor sets E of a point set D (D lessdot_mp E)
and their gap sets nabla_mp(D, E), which `_successor_sets` makes together.
A point of E hit without wrapping leaves the open gap from the least point
of D that maps to it; the points of D that wrap to the least periodic point
w of E leave the rest of the word after their least point and the loop
before w.  Plain lessdot and nabla are that calculus with an empty periodic
zone.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import chain

from .core import DataInstance, LassoModel
from .horn import HornOntology, canonical_model
from .tsys import BOT, TransitionSystem


@lru_cache(maxsize=1024)
def letter_table(sig: frozenset[str]) -> tuple[str, ...]:
    """The letters a system over `sig` labels with: the sorted atoms, then BOT.

    One tuple per signature, so the until systems that the store relabels
    to one signature hold the same object."""
    return (*sorted(sig), BOT)


def letter_masks(word: LassoModel, letters: tuple[str, ...]) -> list[int]:
    """The word's prefix and loop letters as masks, bit i for letters[i];
    atoms outside the table are ignored."""
    bit = {a: 1 << i for i, a in enumerate(letters)}
    return [sum(bit.get(a, 0) for a in x) for x in word.prefix + word.loop]


def repr_plain(word: LassoModel, sig: frozenset[str]) -> TransitionSystem:
    """Positions 0..pre+per-1 with all forward jumps and the loop's wraps;
    for data, positions 0..max+1 with an empty looping sink.

    An edge's label is the AND of the masks of the positions it jumps over,
    all bits when it jumps over none."""
    letters = letter_table(sig)
    full = (1 << len(letters)) - 1
    masks = letter_masks(word, letters)
    m_start = word.pre
    total = len(masks)
    edges = []
    for n in range(total):
        gap = full
        for m in range(n + 1, total):
            edges.append((n, m, gap, 0))
            gap &= masks[m]
    for n in range(m_start, total):
        gap = full
        for p in range(n + 1, total):
            gap &= masks[p]
        for m in range(m_start, n + 1):
            edges.append((n, m, gap, 0))
            gap &= masks[m]
    return TransitionSystem(letters, 0, tuple(masks), tuple(edges))


def repr_horn(onto: HornOntology, d: DataInstance, sig: frozenset[str] | None = None) -> TransitionSystem:
    """`repr_plain` of the canonical lasso, over the data's and the ontology's atoms by default."""
    return repr_plain(canonical_model(onto, d).lasso, d.signature | onto.atoms if sig is None else sig)


# ---------------------------------------------------------------------------
# Black/red systems

_ORIGIN, _U, _Z = 0, 1, 2  # the z state exists in the z-tail form only


def _successor_sets(points: list[int], n_positions: int, wrap_start: int):
    """Every (E, gaps) with D lessdot_mp E and gaps = nabla_mp(D, E), by the
    size of E and then in combinations order.

    D is `points`, sorted; positions at or after `wrap_start` are periodic,
    and wrap_start == n_positions gives plain lessdot.  The successor map
    takes D onto E, so |E| <= |D|.  A point e of E is hit without wrapping
    iff `first`, the least point of D at or after the previous point of E,
    lies before e: then exactly the points of D in [previous, e) map to e,
    and together they leave the open gap (first, e).  Only the least
    periodic point w of E can instead be hit by the points of D at or after
    max(E), which wrap to w and leave (their least point, n_positions) and
    [wrap_start, w).  Combinations are extended in increasing order, so the
    sets come out in the order of itertools.combinations.
    """
    for size in range(1, len(points) + 1):
        yield from _extend_successors(points, n_positions, wrap_start, [], [], size, False)


def _extend_successors(
    points, n_positions: int, wrap_start: int, chosen: list[int], gaps: list, size: int, wraps: bool
):
    """The pairs of `_successor_sets` of the given size whose E extends
    `chosen`, in order; `gaps` holds the open gap each point of `chosen`
    leaves, and `wraps` tells whether a point of `chosen` waits for a wrap."""
    i = len(chosen)
    prev = chosen[-1] if chosen else -1
    # the first point of D at or after prev, which is -1 before the first point of E
    j = bisect_left(points, prev)
    first = points[j] if j < len(points) else n_positions
    for e in range(prev + 1, n_positions - (size - i - 1)):
        wrapped = wraps
        if first >= e:
            # only the least periodic point of E may wait for a wrap
            if e < wrap_start or prev >= wrap_start:
                continue
            wrapped = True
        chosen.append(e)
        gaps.append(range(first + 1, e))  # empty when e waits for a wrap
        if i + 1 < size:
            yield from _extend_successors(points, n_positions, wrap_start, chosen, gaps, size, wrapped)
        else:
            # the points of D at or after max(E) wrap: they must be
            # periodic and need a periodic point of E to wrap to
            tail = points[bisect_left(points, e):]
            if not tail:
                if not wrapped:
                    yield frozenset(chosen), frozenset(chain(*gaps))
            elif tail[0] >= wrap_start and e >= wrap_start:
                w = chosen[bisect_left(chosen, wrap_start)]
                wrap_gaps = chain(range(tail[0] + 1, n_positions), range(wrap_start, w))
                yield frozenset(chosen), frozenset(chain(*gaps, wrap_gaps))
        gaps.pop()
        chosen.pop()


def repr_plain_br(word: LassoModel, sig: frozenset[str]) -> TransitionSystem:
    """Worklist construction of the two-colored system from the calculus.

    States are the origin, u, z and the (phi_set, psi_set) pairs, numbered
    in the order they are met; black edges advance the psi side, red edges
    the phi side.  The successors of a point set D are the E with D
    lessdot_mp E, positions at or after word.pre being periodic; since the
    successor map takes D onto E, |E| <= |D|.  Each point set's successor
    list is built once per system.  A label is the AND of its points'
    masks, all bits when there is no point.

    The tail form is read off the word.  A loop of empty letters is the empty
    tail: the positions are the prefix's, the periodic zone is empty (plain
    lessdot), and state z stands for every later position.  Any other loop
    wraps: the positions are the prefix's and the loop's, and no z is made.
    """
    letters = letter_table(sig)
    full = (1 << len(letters)) - 1
    masks = letter_masks(word, letters)
    wrap_start = word.pre
    with_z = not any(word.loop)
    n_positions = wrap_start if with_z else wrap_start + word.per
    last = n_positions - 1

    def points_label(points) -> int:
        out = full
        for p in points:
            out &= masks[p]
        return out

    labels = [masks[0], full] + ([0] if with_z else [])
    pairs: list = [None] * len(labels)  # state -> its (phi, psi), None for origin, u and z
    ids: dict = {}  # (phi, psi) -> state
    edges: list[tuple] = []
    queue = [_ORIGIN]
    # point set -> [(target state, label of the gaps)]
    successor_lists: dict = {}

    def successors_from(points: frozenset[int], src: int, red: int):
        moves = successor_lists.get(points)
        if moves is None:
            moves = successor_lists[points] = []
            for g, f in _successor_sets(sorted(points), n_positions, wrap_start):
                tgt = ids.get((f, g))
                if tgt is None:
                    tgt = ids[f, g] = len(labels)
                    labels.append(points_label(g))
                    pairs.append((f, g))
                    queue.append(tgt)
                moves.append((tgt, points_label(f)))
        edges.extend((src, tgt, gap, red) for tgt, gap in moves)

    while queue:
        state = queue.pop()
        if state == _ORIGIN:
            successors_from(frozenset({0}), _ORIGIN, 0)
            if with_z:
                edges.append((_ORIGIN, _Z, points_label(range(0, last)), 0))
            continue
        phi, psi = pairs[state]
        successors_from(psi, state, 0)
        if phi:
            successors_from(phi, state, 1)
        else:
            edges.append((state, _U, full, 1))
        if with_z:
            edges.append((state, _Z, points_label(range(max(psi), last)), 0))
            if phi:
                edges.append((state, _Z, points_label(range(max(phi), last)), 1))
    if with_z:
        edges += [(_Z, _Z, full, 0), (_Z, _Z, full, 1), (_Z, _U, full, 1)]
    edges += [(_U, _U, full, 0), (_U, _U, full, 1)]
    return TransitionSystem(letters, _ORIGIN, tuple(labels), tuple(edges), colored=True)


def repr_horn_br(onto: HornOntology, d: DataInstance, sig: frozenset[str] | None = None) -> TransitionSystem:
    """`repr_plain_br` of the canonical lasso, over the data's and the ontology's atoms by default."""
    return repr_plain_br(canonical_model(onto, d).lasso, d.signature | onto.atoms if sig is None else sig)
