"""Horn ontologies over box/next atoms: parsing, least models, certain answers.

An axiom is `lit (& lit)* -> lit` where lit is `[G|X]* (atom|false)` and body
literals may start with one `F`.  Every literal normalizes to a shift count
plus a mode: `X X A` means "A exactly two steps ahead", while any literal
containing `G` means "A at every point at least shift steps ahead" (all
operators are strict).  A leading `F` sets `exists`: the rest of the literal
holds at some strictly later point, so `F X A` means "A at some point at
least two steps ahead" and `F G A` means "A from some point on".

The least model of an ontology and a data instance is ultimately periodic.
`canonical_model` materializes it as a lasso in rounds: box-free axioms are
chased exactly (window fixpoint, fold the first repeating stretch, check that
the fold is a model, else widen the window), and each axiom with box literals
in its body is replaced by a guarded box-free axiom that may only fire from
the earliest timepoint at which its box literals hold in the previous round's
model.
Guards only ever loosen and the model only ever grows, so the rounds reach
the least fixpoint of the full ontology.  A round whose guarded axioms equal
the previous round's would rebuild the same model, so the rounds stop there.

The window chase, the search for a repeating stretch and the model check
keep one int per atom, bit n set iff the atom holds at n.  The chase
replays the scan of each axiom over ascending anchors (see `_window_chase`),
so the G heads' obligations, which decide where a stretch may fold, keep
their order.  No second chase runs on the folded word: on a model it reads
every literal as the check does, so it could add no atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap

from .core import (
    DataInstance,
    Fragment,
    LassoModel,
    ParseError,
    Query,
    eval_lasso,
    eventually,
    lasso_word,
    parse_lines,
)

NEVER = -1  # guard value for axioms whose box bodies hold nowhere yet
OntologyParseError = ParseError  # the former name of Horn parse errors


class Inconsistent(Exception):
    """The ontology and data instance have no common model."""


class ChaseWindowOverflow(RuntimeError):
    """No repetition found within the window bound (a bug, not bad input)."""


@dataclass(frozen=True)
class HornLiteral:
    shift: int
    forall: bool
    atom: str | None  # None encodes false
    exists: bool = False  # a leading F: the rest holds at some later point


@dataclass(frozen=True)
class HornAxiom:
    body: tuple[HornLiteral, ...]
    head: HornLiteral


@dataclass(frozen=True)
class HornOntology:
    """Axioms.  Every cache on the Horn route is keyed on the ontology, so its
    hash and its derived constants are computed once, on first use, and kept
    on the instance."""

    axioms: tuple[HornAxiom, ...]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and pickles drop the cached values: string hashes differ
        # between processes
        return HornOntology, (self.axioms,)

    @cached_property
    def _hash(self) -> int:
        return hash(self.axioms)

    @cached_property
    def atoms(self) -> frozenset[str]:
        out = set()
        for ax in self.axioms:
            for lit in ax.body + (ax.head,):
                if lit.atom is not None:
                    out.add(lit.atom)
        return frozenset(out)

    @cached_property
    def max_shift(self) -> int:
        # an F literal reads from shift + 1 on
        shifts = [l.shift + l.exists for ax in self.axioms for l in ax.body + (ax.head,)]
        return max(shifts, default=0)


# ---------------------------------------------------------------------------
# Parsing
#
# A literal reads as (shift, forall, atom, exists) while it is parsed, and a
# body as a list of literals.


def _prefix(shift: int, forall: bool, exists: bool):
    """The constructor of X, G or F on a literal that has no F yet."""

    def build(lit):
        if type(lit) is not tuple:
            raise ValueError("X, G and F apply to a literal only")
        if lit[3]:
            raise ValueError("F may only lead a literal")
        return (lit[0] + shift, lit[1] or forall, lit[2], exists)

    return build


def _body(part) -> list:
    if type(part) not in (tuple, list):
        raise ValueError("an axiom body is a conjunction of literals")
    return [part] if type(part) is tuple else part


def _axiom(body, head) -> HornAxiom:
    if type(head) is not tuple:
        raise ValueError("an axiom head is one literal")
    if head[3]:
        raise ValueError("F is not allowed in axiom heads")
    return HornAxiom(tuple(starmap(HornLiteral, _body(body))), HornLiteral(*head))


def _whole(axiom):
    if type(axiom) is not HornAxiom:
        raise ValueError("expected '->'")
    return axiom


_HORN = Fragment(
    "Horn axioms",
    lambda name: (0, False, name, False),
    {"->": _axiom, "&": lambda left, right: _body(left) + _body(right), "false": lambda: (0, False, None, False),
     "X": _prefix(1, False, False), "G": _prefix(1, True, False), "F": _prefix(0, False, True)},
    _whole,
)


def load_ontology(text: str) -> HornOntology:
    """Parse axioms, one per line, with '#' comments."""
    return HornOntology(parse_lines(text, _HORN))


# ---------------------------------------------------------------------------
# Canonical models


@dataclass(frozen=True)
class CanonicalModel:
    lasso: LassoModel
    handle: int  # s: loop starts at max_timestamp + s
    period: int  # p

    @property
    def horizon(self) -> int:
        return self.lasso.pre + self.lasso.per


@dataclass(frozen=True)
class _GuardedAxiom:
    """Box-free axiom that may fire only at timepoints >= guard."""

    body: tuple[HornLiteral, ...]  # no box literals
    head: HornLiteral
    guard: int


class _Bottom(Exception):
    pass


_NO_ATOMS: frozenset[str] = frozenset()


def _window_chase(axioms: list[_GuardedAxiom], data: DataInstance, width: int):
    """Fixpoint on [0, width); body reads beyond the window count as false.

    Returns one int per atom, bit n set iff the atom holds at n, and the G
    heads' obligations (atom, first point) in the order they were added.
    Both equal those of scanning the axioms in order, each over its anchors
    in ascending order, until a pass changes nothing.  Only the head atom
    changes during a scan, and anchor n sees the scan's own earlier writes
    (at n' + head shift, n' < n) only through body literals on the head atom
    with a smaller shift than the head's: such an axiom is iterated to a
    local fixpoint, every other literal reads the state from before the
    scan.  An F literal is such a read literal, also on the head atom.  A G
    head adds atoms only from its least firing anchor on, and records an
    obligation only when it adds one.
    """
    full = (1 << width) - 1
    masks: dict[str, int] = {}
    for a, t in data.facts:
        if t < width:
            masks[a] = masks.get(a, 0) | 1 << t
    plans = []
    for ax in axioms:
        if any(lit.atom is None for lit in ax.body):
            continue  # a false body literal never holds
        head = ax.head
        read, own = [], []
        for lit in ax.body:
            if not head.forall and not lit.exists and lit.atom == head.atom and lit.shift < head.shift:
                own.append(lit.shift)
            else:
                read.append((lit.atom, lit.shift, lit.exists))
        plans.append((full >> ax.guard << ax.guard, read, own, head))
    obligations: list[tuple[str, int]] = []
    changed = True
    while changed:
        changed = False
        for fixed, read, own, head in plans:
            for a, s, ex in read:
                r = masks.get(a, 0)
                fixed &= (eventually(r, full, 0) if ex else r) >> s
            if not fixed:
                continue
            a, hs = head.atom, head.shift
            if a is None:
                raise _Bottom
            cur = masks.get(a, 0)
            if head.forall:
                fire = fixed & full >> hs
                if fire:
                    t = (fire & -fire).bit_length() - 1 + hs
                    new = full >> t << t
                    if new & ~cur:
                        masks[a] = cur | new
                        obligations.append((a, t))
                        changed = True
                continue
            start = cur
            while True:
                fire = fixed
                for s in own:
                    fire &= cur >> s
                add = fire << hs & full & ~cur
                if not add:
                    break
                cur |= add
            if cur != start:
                masks[a] = cur
                changed = True
    return masks, obligations


def _fold(masks: dict[str, int], obligations, start_at, width, hist):
    """(m, n) folding the first repeating chase state, or None.

    A state is the atoms of the last `hist` positions up to n, as the bits of
    each atom's mask there, plus the obligations active by n.  A window that
    starts before position 0 is keyed by n alone, never equal to another.
    The state at n must repeat the one at m, and the window must repeat with
    period n - m from n to its margin, a quarter of the window or more: the
    window's end can spoil a stretch that backward chains carry far back.
    """
    margin = max(2 * hist + 2, width // 4)
    end = width - margin
    rows = tuple(masks.values())
    low = (1 << hist) - 1
    seen: dict[tuple, int] = {}
    for n in range(start_at, end):
        lo = n - hist + 1
        window = tuple(r >> lo & low for r in rows) if lo >= 0 else n
        active = frozenset(a for a, s in obligations if s <= n)
        m = seen.setdefault((window, active), n)
        if m == n:
            continue
        span = (1 << end - n) - 1
        if not any((r ^ r << n - m) >> n & span for r in rows):
            return m, n
    return None


def _letters(masks: dict[str, int], count: int) -> tuple[frozenset[str], ...]:
    """The first `count` positions of a chase state, one atom set each.  The
    cached models keep these letters; about 40 % of them are empty, and those
    share one object."""
    return tuple(frozenset(a for a, r in masks.items() if r >> j & 1) or _NO_ATOMS for j in range(count))


def _is_model(axioms: list[_GuardedAxiom], data: DataInstance, prefix, loop) -> bool:
    """Whether the lasso holds the data and satisfies every guarded axiom."""
    pre, per = len(prefix), len(loop)
    size = pre + per
    entries = prefix + loop

    def fold(t: int) -> int:
        return t if t < size else pre + (t - pre) % per

    for a, t in data.facts:
        if a not in entries[fold(t)]:
            return False
    masks, full, looped = lasso_word(prefix, loop)
    # body reads reach past the word: unroll the loop over the largest shift
    reach = size + max((l.shift for ax in axioms for l in ax.body + (ax.head,)), default=0)

    def unroll(r: int) -> int:
        lp, k = r >> pre, size
        while k < reach:
            r |= lp << k
            k += per
        return r

    unrolled = {a: unroll(r) for a, r in masks.items()}
    for ax in axioms:
        if ax.guard > pre:
            return False
        fire = full >> ax.guard << ax.guard
        for lit in ax.body:
            if lit.atom is None:
                fire = 0
            elif lit.exists:
                fire &= unroll(eventually(masks.get(lit.atom, 0), full, looped)) >> lit.shift
            else:
                fire &= unrolled.get(lit.atom, 0) >> lit.shift
        if not fire:
            continue
        head = ax.head
        if head.atom is None:
            return False
        if head.forall:
            # every position from the least firing anchor's target on
            t = (fire & -fire).bit_length() - 1 + head.shift
            if (looped | full >> t << t) & ~masks.get(head.atom, 0):
                return False
        elif fire << head.shift & ~unrolled.get(head.atom, 0):
            return False
    return True


def _least_boxfree_model(
    axioms: list[_GuardedAxiom], data: DataInstance, hist: int, cap: int
) -> tuple[tuple, tuple]:
    """Exact least model of guarded box-free axioms, as (prefix, loop): the
    window chase folded at its first repeating stretch, once that fold is a
    model (see the module docstring); a fold that is not widens the window."""
    max_ts = data.max_timestamp
    min_prefix = max([max_ts] + [ax.guard for ax in axioms])
    budget = 64
    while True:
        width = max_ts + budget
        if width <= min_prefix + 4 * hist + 8:
            width = min_prefix + 4 * hist + 8 + budget
        masks, obligations = _window_chase(axioms, data, width)
        fold = _fold(masks, obligations, min_prefix, width, hist)
        if fold is not None:
            m, n = fold
            letters = _letters(masks, n)
            if _is_model(axioms, data, letters[:m], letters[m:]):
                return letters[:m], letters[m:]
        if width >= cap:
            raise ChaseWindowOverflow(
                f"no valid repetition within {width} positions; this indicates a bug"
            )
        budget *= 2


def _box_guard(ax: HornAxiom, prefix, loop) -> int:
    """Earliest anchor where all box body literals of ax hold, NEVER if none."""
    pre = len(prefix)
    guard = 0
    for lit in ax.body:
        if not lit.forall:
            continue
        if lit.atom is None or any(lit.atom not in s for s in loop):
            return NEVER
        if lit.exists:
            continue  # F G holds everywhere once its atom fills the loop
        h = 0
        for j in range(pre - 1, -1, -1):
            if lit.atom not in prefix[j]:
                h = j + 1
                break
        guard = max(guard, h - lit.shift)
    return guard


def _reduce(onto: HornOntology, model) -> list[_GuardedAxiom]:
    """Replace box body literals by firing guards computed on `model`."""
    out = []
    for ax in onto.axioms:
        if not any(l.forall for l in ax.body):
            out.append(_GuardedAxiom(ax.body, ax.head, 0))
            continue
        if model is None:
            continue
        prefix, loop = model
        guard = _box_guard(ax, prefix, loop)
        if guard != NEVER:
            exact = tuple(l for l in ax.body if not l.forall)
            out.append(_GuardedAxiom(exact, ax.head, max(guard, 0)))
    return out


@lru_cache(maxsize=4096)
def _canonical_model(onto: HornOntology, data: DataInstance) -> CanonicalModel | None:
    """The least model, or None when (onto, data) has none, so that this
    outcome is cached too (`lru_cache` keeps no exceptions)."""
    max_ts = data.max_timestamp
    hist = max(1, onto.max_shift)
    subcount = sum(1 + len(ax.body) for ax in onto.axioms)
    cap = max_ts + min(2 ** min(subcount, 10) + 4 ** min(subcount, 5), 4096) + 64
    model = reduced = None
    for _ in range(4 * len(onto.axioms) * (cap + 1) + 8):
        guarded = _reduce(onto, model)
        if guarded == reduced:
            # the least model of these axioms is the one just built
            prefix, loop = model
            return CanonicalModel(LassoModel(prefix, loop), handle=len(prefix) - max_ts, period=len(loop))
        reduced = guarded
        try:
            prefix, loop = _least_boxfree_model(reduced, data, hist, cap)
        except _Bottom:
            return None
        model = (prefix, loop)
    raise ChaseWindowOverflow("guard iteration failed to stabilize; this indicates a bug")


def canonical_model(onto: HornOntology, data: DataInstance) -> CanonicalModel:
    """Least model of (onto, data) as a lasso; raises Inconsistent when none."""
    cm = _canonical_model(onto, data)
    if cm is None:
        raise Inconsistent("false is derivable")
    return cm


def consistent(onto: HornOntology, data: DataInstance) -> bool:
    try:
        canonical_model(onto, data)
        return True
    except Inconsistent:
        return False


def certain_answer(onto: HornOntology, data: DataInstance, q: Query, at: int) -> bool:
    """True iff q holds at `at` in every model of (onto, data), evaluated on
    the canonical lasso."""
    lasso = canonical_model(onto, data).lasso
    return eval_lasso(lasso, q, lasso.fold(at))
