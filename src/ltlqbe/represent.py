"""Transition-system representations of (ontology, data) pairs.

Plain and Horn builders produce the position systems used for until-path
containment and simple-until simulation; the black/red builders encode full
until nesting with two edge colors, driven by the successor calculus
(lessdot) and its gap sets (nabla), in plain and wrap-around (M, P) forms.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import DataInstance
from .horn import HornOntology, canonical_model
from .tsys import BLACK, BOT, RED, Edge, TransitionSystem


def _label(points, letters, sigma_bot: frozenset[str]) -> frozenset[str]:
    """Atoms (and BOT) holding at every point; all of them when no point."""
    pts = list(points)
    if not pts:
        return sigma_bot
    out = set.intersection(*(set(letters(p)) for p in pts))
    return frozenset(out & sigma_bot)


def repr_plain(d: DataInstance, sig: frozenset[str]) -> TransitionSystem:
    """Positions 0..max+1 with all forward jumps and an empty looping sink."""
    if not d.signature <= sig:
        raise ValueError("signature does not cover the data instance")
    sigma_bot = sig | {BOT}
    last = d.max_timestamp + 1
    states = list(range(last + 1))
    labels = {j: d.atoms_at(j) for j in range(last)}
    labels[last] = frozenset()
    edges = []
    for j in range(last + 1):
        for k in range(j + 1, last + 1):
            edges.append(Edge(j, k, _label(range(j + 1, k), d.atoms_at, sigma_bot)))
    edges.append(Edge(last, last, sigma_bot))
    return TransitionSystem(states, [0], labels, edges)


def repr_horn(onto: HornOntology, d: DataInstance, sig: frozenset[str] | None = None) -> TransitionSystem:
    """Canonical-model positions 0..M+p-1 with forward jumps and loop wraps."""
    cm = canonical_model(onto, d)
    if sig is None:
        sig = d.signature | onto.user_atoms
    sigma_bot = sig | {BOT}
    m_start = cm.lasso.pre  # max timestamp + handle
    total = m_start + cm.period

    def letters(n: int) -> frozenset[str]:
        return cm.lasso.letter(n)

    states = list(range(total))
    labels = {n: letters(n) & sig for n in states}
    edges = []
    for n in range(total):
        for m in range(n + 1, total):
            edges.append(Edge(n, m, _label(range(n + 1, m), letters, sigma_bot)))
    for n in range(m_start, total):
        for m in range(m_start, n + 1):
            points = list(range(n + 1, total)) + list(range(m_start, m))
            edges.append(Edge(n, m, _label(points, letters, sigma_bot)))
    return TransitionSystem(states, [0], labels, edges)


# ---------------------------------------------------------------------------
# The successor calculus


def _mu_plain(dset: frozenset[int], eset: frozenset[int]):
    mu = {}
    for x in dset:
        later = [e for e in eset if e > x]
        if not later:
            return None
        mu[x] = min(later)
    return mu


def lessdot(dset: frozenset[int], eset: frozenset[int]) -> bool:
    """True iff mapping each point to its next eset-point is total and onto."""
    if not dset or not eset:
        raise ValueError("lessdot is defined for nonempty sets")
    mu = _mu_plain(dset, eset)
    return mu is not None and set(mu.values()) == set(eset)


def nabla(dset: frozenset[int], eset: frozenset[int]) -> frozenset[int]:
    """Union of the open gaps (x, next(x)); requires the successor map total."""
    mu = _mu_plain(dset, eset)
    if mu is None:
        raise ValueError("nabla: successor map undefined")
    out: set[int] = set()
    for x, e in mu.items():
        out.update(range(x + 1, e))
    return frozenset(out)


def _mu_mp(dset, eset, m_start: int, period_end: int):
    mu = {}
    for x in dset:
        later = [e for e in eset if e > x]
        if later:
            mu[x] = min(later)
        elif m_start <= x < period_end:
            # wrap through the loop; only periodic positions recur
            periodic = [e for e in eset if e >= m_start]
            if not periodic:
                return None
            mu[x] = min(periodic)
        else:
            return None
    return mu


def lessdot_mp(dset: frozenset[int], eset: frozenset[int], m_start: int, period_end: int) -> bool:
    """Wrap-around lessdot: periodic-zone points may wrap to min(eset)."""
    if not dset or not eset:
        raise ValueError("lessdot_mp is defined for nonempty sets")
    mu = _mu_mp(dset, eset, m_start, period_end)
    return mu is not None and set(mu.values()) == set(eset)


def _bwn(x: int, e: int, m_start: int, period_end: int) -> set[int]:
    if x < e:
        return set(range(x + 1, e))
    return set(range(x + 1, period_end)) | set(range(m_start, e))


def nabla_mp(dset: frozenset[int], eset: frozenset[int], m_start: int, period_end: int) -> frozenset[int]:
    mu = _mu_mp(dset, eset, m_start, period_end)
    if mu is None:
        raise ValueError("nabla_mp: successor map undefined")
    out: set[int] = set()
    for x, e in mu.items():
        out |= _bwn(x, e, m_start, period_end)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Black/red systems

_ORIGIN = ("0",)
_Z = ("z",)
_U = ("u",)


def _successor_sets(points: list[int], n_positions: int, wrap_start: int):
    """Every E with D lessdot_mp E, by size and then in combinations order.

    D is `points`, sorted; positions at or after `wrap_start` are periodic,
    and wrap_start == n_positions gives plain lessdot.  The successor map
    takes D onto E, so |E| <= |D|.  A point e of E is hit without wrapping
    iff some point of D lies in [previous point of E, e); only the least
    periodic point of E can instead be hit by the points of D at or after
    max(E), which wrap.  Combinations are extended in increasing order, so
    the sets come out in the order of itertools.combinations.
    """
    chosen: list[int] = []

    def hit(prev: int, e: int) -> bool:
        # some point of D in [prev, e); prev is -1 before the first point of E
        i = bisect_left(points, prev)
        return i < len(points) and points[i] < e

    def extend(size: int, wraps: bool):
        i = len(chosen)
        prev = chosen[-1] if chosen else -1
        for e in range(prev + 1, n_positions - (size - i - 1)):
            wrapped = wraps
            if not hit(prev, e):
                # only the least periodic point of E may wait for a wrap
                if e < wrap_start or prev >= wrap_start:
                    continue
                wrapped = True
            chosen.append(e)
            if i + 1 < size:
                yield from extend(size, wrapped)
            else:
                # the points of D at or after max(E) wrap: they must be
                # periodic and need a periodic point of E to wrap to
                tail = points[bisect_left(points, e):]
                if (tail[0] >= wrap_start and e >= wrap_start) if tail else not wrapped:
                    yield frozenset(chosen)
            chosen.pop()

    for size in range(1, len(points) + 1):
        yield from extend(size, False)


def _build_br(letters, n_positions: int, sigma_bot, wrap_start: int, with_z: bool, max_ts: int):
    """Worklist construction of the two-colored system from the calculus.

    States are ("p", phi_set, psi_set); black edges advance the psi side,
    red edges the phi side.  The successors of a point set D are the E with
    D lessdot_mp E (plain lessdot when wrap_start == n_positions); since the
    successor map takes D onto E, |E| <= |D|.  Each point set's successor
    list is built once per system.
    """
    sig = frozenset(a for a in sigma_bot if a != BOT)

    def pair(phi: frozenset[int], psi: frozenset[int]):
        return ("p", phi, psi)

    def points_label(points) -> frozenset[str]:
        return _label(points, letters, sigma_bot)

    labels = {_ORIGIN: letters(0) & sig, _U: sigma_bot}
    if with_z:
        labels[_Z] = frozenset()
    edges: list[Edge] = []
    states = [_ORIGIN, _U] + ([_Z] if with_z else [])
    seen = set(states)

    def reach(state):
        if state not in seen:
            seen.add(state)
            states.append(state)
            queue.append(state)

    # point set -> [(target pair, label of E, label of the gaps)]
    successor_lists: dict = {}

    def successors_from(points: frozenset[int], src, color: str):
        if points not in successor_lists:
            moves = successor_lists[points] = []
            for g in _successor_sets(sorted(points), n_positions, wrap_start):
                f = nabla_mp(points, g, wrap_start, n_positions)
                moves.append((pair(f, g), points_label(g), points_label(f)))
        for tgt, tgt_label, gap_label in successor_lists[points]:
            if tgt not in labels:
                labels[tgt] = tgt_label
            reach(tgt)
            edges.append(Edge(src, tgt, gap_label, color))

    queue = [_ORIGIN]
    while queue:
        state = queue.pop()
        if state == _ORIGIN:
            successors_from(frozenset({0}), _ORIGIN, BLACK)
            if with_z:
                edges.append(Edge(_ORIGIN, _Z, points_label(range(0, max_ts)), BLACK))
            continue
        if state in (_Z, _U):
            continue
        _, phi, psi = state
        successors_from(psi, state, BLACK)
        if phi:
            successors_from(phi, state, RED)
        else:
            edges.append(Edge(state, _U, sigma_bot, RED))
        if with_z:
            edges.append(Edge(state, _Z, points_label(range(max(psi), max_ts)), BLACK))
            if phi:
                edges.append(Edge(state, _Z, points_label(range(max(phi), max_ts)), RED))
    if with_z:
        edges.append(Edge(_Z, _Z, sigma_bot, BLACK))
        edges.append(Edge(_Z, _Z, sigma_bot, RED))
        edges.append(Edge(_Z, _U, sigma_bot, RED))
    edges.append(Edge(_U, _U, sigma_bot, BLACK))
    edges.append(Edge(_U, _U, sigma_bot, RED))
    return TransitionSystem(states, [_ORIGIN], labels, edges, colored=True)


def repr_plain_br(d: DataInstance, sig: frozenset[str]) -> TransitionSystem:
    """Two-colored system over subsets of [0, max]; z models the empty tail."""
    if not d.signature <= sig:
        raise ValueError("signature does not cover the data instance")
    n = d.max_timestamp + 1
    return _build_br(d.atoms_at, n, sig | {BOT}, n, True, d.max_timestamp)


def repr_horn_br(onto: HornOntology, d: DataInstance, sig: frozenset[str] | None = None) -> TransitionSystem:
    """Two-colored system over subsets of [0, P) with wrap-around successors."""
    cm = canonical_model(onto, d)
    if sig is None:
        sig = d.signature | onto.user_atoms
    m_start = cm.lasso.pre
    period_end = m_start + cm.period
    return _build_br(cm.lasso.letter, period_end, sig | {BOT}, m_start, False, d.max_timestamp)
