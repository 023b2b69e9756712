"""Horn ontologies over box/next atoms: parsing, least models, certain answers.

An axiom is `lit (& lit)* -> lit` where lit is `[G|X]* (atom|false)` and body
literals may start with one `F`.  Every literal normalizes to a shift count
plus a mode: `X X A` means "A exactly two steps ahead", while any literal
containing `G` means "A at every point at least shift steps ahead" (all
operators are strict).  Leading `F` is compiled away at load time with a
fresh chain atom.

The least model of an ontology and a data instance is ultimately periodic.
`canonical_model` materializes it as a lasso in rounds: box-free axioms are
chased exactly (window fixpoint, fold the first repeating stretch, re-chase
on the folded word, validate), and each axiom with box literals in its body
is replaced by a guarded box-free axiom that may only fire from the earliest
timepoint at which its box literals hold in the previous round's model.
Guards only ever loosen and the model only ever grows, so the rounds reach
the least fixpoint of the full ontology.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .core import DataInstance, LassoModel, Query, eval_lasso

FRESH_PREFIX = "Dia__"

NEVER = -1  # guard value for axioms whose box bodies hold nowhere yet


class Inconsistent(Exception):
    """The ontology and data instance have no common model."""


class ChaseWindowOverflow(RuntimeError):
    """No repetition found within the window bound (a bug, not bad input)."""


class OntologyParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column + 1})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class HornLiteral:
    shift: int
    forall: bool
    atom: str | None  # None encodes false

    def size(self) -> int:
        return self.shift + 1


@dataclass(frozen=True)
class HornAxiom:
    body: tuple[HornLiteral, ...]
    head: HornLiteral

    def size(self) -> int:
        return sum(l.size() for l in self.body) + self.head.size() + len(self.body)


@dataclass(frozen=True)
class HornOntology:
    axioms: tuple[HornAxiom, ...]
    fresh_atoms: frozenset[str] = frozenset()

    @property
    def size_measure(self) -> int:
        return sum(a.size() for a in self.axioms)

    @property
    def atoms(self) -> frozenset[str]:
        out = set()
        for ax in self.axioms:
            for lit in ax.body + (ax.head,):
                if lit.atom is not None:
                    out.add(lit.atom)
        return frozenset(out)

    @property
    def user_atoms(self) -> frozenset[str]:
        return self.atoms - self.fresh_atoms

    @property
    def max_shift(self) -> int:
        shifts = [l.shift for ax in self.axioms for l in ax.body + (ax.head,)]
        return max(shifts, default=0)


EMPTY_ONTOLOGY = HornOntology(())


# ---------------------------------------------------------------------------
# Parsing

_AXIOM_TOKEN = re.compile(r"[ \t]*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<amp>&)|(?P<arrow>->))")


def _tokenize_axiom(text: str, line_no: int):
    tokens = []
    i = 0
    while i < len(text):
        m = _AXIOM_TOKEN.match(text, i)
        if not m:
            rest = text[i:].strip()
            if rest:
                raise OntologyParseError(f"unexpected character {rest[0]!r}", line_no, i)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        i = m.end()
    return tokens


def _parse_literal(tokens, i, line_no, in_body):
    diamond = False
    shift = 0
    forall = False
    while i < len(tokens):
        kind, value, col = tokens[i]
        if kind != "name":
            break
        if value == "F":
            if shift or forall or diamond:
                raise OntologyParseError("F may only lead a literal", line_no, col)
            if not in_body:
                raise OntologyParseError("F is not allowed in axiom heads", line_no, col)
            diamond = True
        elif value == "G":
            forall = True
            shift += 1
        elif value == "X":
            shift += 1
        elif value == "false":
            return (shift, forall, None, diamond), i + 1
        elif value in ("true", "U"):
            raise OntologyParseError(f"misplaced keyword {value!r}", line_no, col)
        else:
            return (shift, forall, value, diamond), i + 1
        i += 1
    col = tokens[i][2] if i < len(tokens) else len("")
    raise OntologyParseError("expected an atom or 'false'", line_no, col)


def load_ontology(text: str) -> HornOntology:
    """Parse axioms (one per line, '#' comments) and eliminate body diamonds."""
    raw_axioms = []
    names: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = _tokenize_axiom(line, line_no)
        body = []
        i = 0
        while True:
            lit, i = _parse_literal(tokens, i, line_no, in_body=True)
            body.append(lit)
            if i < len(tokens) and tokens[i][0] == "amp":
                i += 1
                continue
            break
        if i >= len(tokens) or tokens[i][0] != "arrow":
            col = tokens[i][2] if i < len(tokens) else len(line)
            raise OntologyParseError("expected '->'", line_no, col)
        i += 1
        head, i = _parse_literal(tokens, i, line_no, in_body=False)
        if i < len(tokens):
            raise OntologyParseError(f"unexpected {tokens[i][1]!r}", line_no, tokens[i][2])
        raw_axioms.append((body, head))
        for s, f, a, _ in body + [head]:
            if a is not None:
                names.add(a)

    axioms: list[HornAxiom] = []
    fresh: list[str] = []
    chain_for: dict[tuple[int, bool, str | None], str] = {}

    def fresh_atom() -> str:
        n = len(fresh) + 1
        while f"{FRESH_PREFIX}{n}" in names:
            n += 1
        name = f"{FRESH_PREFIX}{n}"
        names.add(name)
        fresh.append(name)
        return name

    for body, head in raw_axioms:
        new_body = []
        for shift, forall, atom, diamond in body:
            if not diamond:
                new_body.append(HornLiteral(shift, forall, atom))
                continue
            key = (shift, forall, atom)
            chain = chain_for.get(key)
            if chain is None:
                chain = fresh_atom()
                chain_for[key] = chain
                # F C -> ... becomes X C -> R, X R -> R, with R in the body
                axioms.append(
                    HornAxiom((HornLiteral(shift + 1, forall, atom),), HornLiteral(0, False, chain))
                )
                axioms.append(
                    HornAxiom((HornLiteral(1, False, chain),), HornLiteral(0, False, chain))
                )
            new_body.append(HornLiteral(0, False, chain))
        hs, hf, ha, _ = head
        axioms.append(HornAxiom(tuple(new_body), HornLiteral(hs, hf, ha)))

    return HornOntology(tuple(axioms), frozenset(fresh))


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

    body: tuple[HornLiteral, ...]  # exact literals only
    head: HornLiteral
    guard: int


class _Bottom(Exception):
    pass


_INCOMPATIBLE = object()


def _window_chase(axioms: list[_GuardedAxiom], data: DataInstance, width: int):
    """Fixpoint on [0, width); body reads beyond the window count as false."""
    atoms: list[set[str]] = [set() for _ in range(width)]
    for a, t in data.facts:
        if t < width:
            atoms[t].add(a)
    obligations: list[tuple[str, int]] = []
    changed = True
    while changed:
        changed = False
        for ax in axioms:
            for n in range(ax.guard, width):
                ok = True
                for lit in ax.body:
                    t = n + lit.shift
                    if lit.atom is None or t >= width or lit.atom not in atoms[t]:
                        ok = False
                        break
                if not ok:
                    continue
                head = ax.head
                if head.atom is None:
                    raise _Bottom
                t = n + head.shift
                if head.forall:
                    if all(head.atom in atoms[j] for j in range(t, width)):
                        continue
                    for j in range(t, width):
                        atoms[j].add(head.atom)
                    obligations.append((head.atom, t))
                    changed = True
                elif t < width and head.atom not in atoms[t]:
                    atoms[t].add(head.atom)
                    changed = True
    return atoms, obligations


def _candidates(atoms, obligations, start_at, width, hist):
    """(m, n) pairs folding the first repeating chase states, oldest first."""
    margin = 2 * hist + 2
    seen: dict[tuple, int] = {}
    out = []
    for n in range(start_at, width - margin):
        window = tuple(
            frozenset(atoms[j]) if j >= 0 else None for j in range(n - hist + 1, n + 1)
        )
        active = frozenset(a for a, s in obligations if s <= n)
        state = (window, active)
        m = seen.get(state)
        if m is None:
            seen[state] = n
            continue
        p = n - m
        if all(atoms[q] == atoms[q - p] for q in range(n, width - margin)):
            # also offer loop-aligned later starts; a head fired from inside
            # the prefix may need a longer handle to stay representable
            for j in range(6):
                if n + j * p < width - margin:
                    out.append((m + j * p, n + j * p))
            if len(out) >= 4:
                break
    return out


def _folded_chase(axioms: list[_GuardedAxiom], data: DataInstance, prefix, loop):
    """Exact least fixpoint over words of the given lasso shape.

    Returns (prefix, loop) or _INCOMPATIBLE when a single-point head fired
    from a prefix position would land inside the loop: folding would smear
    it over every loop pass, so the shape cannot represent the least model.
    """
    pre, per = len(prefix), len(loop)
    entries = [set(s) for s in prefix] + [set(s) for s in loop]
    for a, t in data.facts:
        if t >= pre + per:
            return _INCOMPATIBLE
        entries[t].add(a)

    def fold(t: int) -> int:
        return t if t < pre + per else pre + (t - pre) % per

    changed = True
    while changed:
        changed = False
        for ax in axioms:
            if ax.guard > pre:
                return _INCOMPATIBLE  # loop anchors must all satisfy the guard
            for n in range(ax.guard, pre + per):
                ok = True
                for lit in ax.body:
                    if lit.atom is None or lit.atom not in entries[fold(n + lit.shift)]:
                        ok = False
                        break
                if not ok:
                    continue
                head = ax.head
                if head.atom is None:
                    raise _Bottom
                t = n + head.shift
                if head.forall:
                    for j in range(min(t, pre), pre + per):
                        if (j >= t or j >= pre) and head.atom not in entries[j]:
                            entries[j].add(head.atom)
                            changed = True
                else:
                    ft = fold(t)
                    if head.atom in entries[ft]:
                        continue
                    if n < pre and t >= pre:
                        return _INCOMPATIBLE
                    entries[ft].add(head.atom)
                    changed = True
    new_prefix = tuple(frozenset(s) for s in entries[:pre])
    new_loop = tuple(frozenset(s) for s in entries[pre:])
    return new_prefix, new_loop


def _is_model(axioms: list[_GuardedAxiom], data: DataInstance, prefix, loop) -> bool:
    pre, per = len(prefix), len(loop)
    entries = list(prefix) + list(loop)

    def fold(t: int) -> int:
        return t if t < pre + per else pre + (t - pre) % per

    def holds_from(atom: str, start: int) -> bool:
        if any(atom not in entries[j] for j in range(pre, pre + per)):
            return False
        return all(atom in entries[j] for j in range(start, pre))

    for a, t in data.facts:
        if a not in entries[fold(t)]:
            return False
    for ax in axioms:
        if ax.guard > pre:
            return False
        for n in range(ax.guard, pre + per):
            fires = all(
                lit.atom is not None and lit.atom in entries[fold(n + lit.shift)]
                for lit in ax.body
            )
            if not fires:
                continue
            head = ax.head
            if head.atom is None:
                return False
            if head.forall:
                if not holds_from(head.atom, n + head.shift):
                    return False
            elif head.atom not in entries[fold(n + head.shift)]:
                return False
    return True


def _least_boxfree_model(
    axioms: list[_GuardedAxiom], data: DataInstance, hist: int, cap: int
) -> tuple[tuple, tuple, int, int]:
    """Exact least model of guarded box-free axioms, as (prefix, loop, m, p)."""
    max_ts = data.max_timestamp
    min_prefix = max([max_ts] + [ax.guard for ax in axioms])
    budget = 64
    while True:
        width = max_ts + budget
        if width <= min_prefix + 4 * hist + 8:
            width = min_prefix + 4 * hist + 8 + budget
        atoms, obligations = _window_chase(axioms, data, width)
        for m, n in _candidates(atoms, obligations, min_prefix, width, hist):
            prefix = tuple(frozenset(s) for s in atoms[:m])
            loop = tuple(frozenset(s) for s in atoms[m:n])
            res = _folded_chase(axioms, data, prefix, loop)
            if res is _INCOMPATIBLE:
                continue
            new_prefix, new_loop = res
            if _is_model(axioms, data, new_prefix, new_loop):
                return new_prefix, new_loop, m, n - m
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
        exact = tuple(l for l in ax.body if not l.forall)
        if all(not l.forall for l in ax.body):
            out.append(_GuardedAxiom(exact, ax.head, 0))
            continue
        if model is None:
            continue
        prefix, loop = model
        guard = _box_guard(ax, prefix, loop)
        if guard != NEVER:
            out.append(_GuardedAxiom(exact, ax.head, max(guard, 0)))
    return out


@lru_cache(maxsize=4096)
def _canonical_model(onto: HornOntology, data: DataInstance) -> CanonicalModel:
    clash = {a for a, _ in data.facts} & onto.fresh_atoms
    if clash:
        raise ValueError(f"data uses atoms reserved by the F-rewrite: {sorted(clash)}")
    max_ts = data.max_timestamp
    hist = max(1, onto.max_shift)
    subcount = sum(1 + len(ax.body) for ax in onto.axioms)
    cap = max_ts + min(2 ** min(subcount, 10) + 4 ** min(subcount, 5), 4096) + 64
    model = None
    for _ in range(4 * len(onto.axioms) * (cap + 1) + 8):
        reduced = _reduce(onto, model)
        try:
            prefix, loop, _, _ = _least_boxfree_model(reduced, data, hist, cap)
        except _Bottom:
            raise Inconsistent("false is derivable") from None
        if model == (prefix, loop):
            lasso = LassoModel(prefix, loop)
            return CanonicalModel(lasso, handle=len(prefix) - max_ts, period=len(loop))
        model = (prefix, loop)
    raise ChaseWindowOverflow("guard iteration failed to stabilize; this indicates a bug")


def canonical_model(onto: HornOntology, data: DataInstance) -> CanonicalModel:
    """Least model of (onto, data) as a lasso; raises Inconsistent when none."""
    return _canonical_model(onto, data)


def consistent(onto: HornOntology, data: DataInstance) -> bool:
    try:
        canonical_model(onto, data)
        return True
    except Inconsistent:
        return False


def certain_answer(onto: HornOntology, data: DataInstance, q: Query, at: int) -> bool:
    """True iff q holds at `at` in every model of (onto, data)."""
    cm = canonical_model(onto, data)
    return eval_lasso(cm.lasso, q, cm.lasso.fold(at))
