"""Box/diamond ontologies with full Booleans: consistency and entailment.

Axioms are Boolean formulas over atoms with unary G and F (no X, no U).
Consistency and certain answers are decided by backtracking over ultimately
periodic words: a handle of positions 0..k and a loop of length l, with
max(data) <= k <= max(data)+|O| and 1 <= l <= |O|.  On such a word the truth
of a G- or F-subformula is the same at every loop position, which makes the
axioms checkable position by position as the word is extended.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    And,
    DataInstance,
    Diamond,
    LassoModel,
    Prop,
    Query,
    Top,
    eval_lasso,
)


class PriorParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column + 1})")


class PFormula:
    pass


@dataclass(frozen=True)
class PTrue(PFormula):
    pass


@dataclass(frozen=True)
class PFalse(PFormula):
    pass


@dataclass(frozen=True)
class PAtom(PFormula):
    name: str


@dataclass(frozen=True)
class PNot(PFormula):
    arg: PFormula


@dataclass(frozen=True)
class PAnd(PFormula):
    left: PFormula
    right: PFormula


@dataclass(frozen=True)
class POr(PFormula):
    left: PFormula
    right: PFormula


@dataclass(frozen=True)
class PImp(PFormula):
    left: PFormula
    right: PFormula


@dataclass(frozen=True)
class PBox(PFormula):
    arg: PFormula


@dataclass(frozen=True)
class PDia(PFormula):
    arg: PFormula


@dataclass(frozen=True)
class PriorOntology:
    axioms: tuple[PFormula, ...]

    @property
    def size_measure(self) -> int:
        return sum(_size(a) for a in self.axioms)

    @property
    def atoms(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.axioms:
            _collect_atoms(a, out)
        return frozenset(out)

    @property
    def temporal_count(self) -> int:
        return sum(_temporal_count(a) for a in self.axioms)


EMPTY_PRIOR = PriorOntology(())


def _size(f: PFormula) -> int:
    if isinstance(f, (PTrue, PFalse, PAtom)):
        return 1
    if isinstance(f, (PNot, PBox, PDia)):
        return 1 + _size(f.arg)
    return 1 + _size(f.left) + _size(f.right)


def _temporal_count(f: PFormula) -> int:
    if isinstance(f, (PTrue, PFalse, PAtom)):
        return 0
    if isinstance(f, (PBox, PDia)):
        return 1 + _temporal_count(f.arg)
    if isinstance(f, PNot):
        return _temporal_count(f.arg)
    return _temporal_count(f.left) + _temporal_count(f.right)


def _collect_atoms(f: PFormula, out: set[str]) -> None:
    if isinstance(f, PAtom):
        out.add(f.name)
    elif isinstance(f, (PNot, PBox, PDia)):
        _collect_atoms(f.arg, out)
    elif isinstance(f, (PAnd, POr, PImp)):
        _collect_atoms(f.left, out)
        _collect_atoms(f.right, out)


# ---------------------------------------------------------------------------
# Parsing

_PRIOR_TOKEN = re.compile(
    r"[ \t]*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<op>[&|!()]))"
)


def _tokenize(text: str, line_no: int):
    tokens = []
    i = 0
    while i < len(text):
        m = _PRIOR_TOKEN.match(text, i)
        if not m:
            rest = text[i:].strip()
            if rest:
                raise PriorParseError(f"unexpected character {rest[0]!r}", line_no, i)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        i = m.end()
    return tokens


class _PriorParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line_no = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, 0)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def formula(self) -> PFormula:
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "arrow":
            self.take()
            return PImp(left, self.formula())
        return left

    def disjunction(self) -> PFormula:
        f = self.conjunction()
        while self.peek()[1] == "|":
            self.take()
            f = POr(f, self.conjunction())
        return f

    def conjunction(self) -> PFormula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.take()
            f = PAnd(f, self.unary())
        return f

    def unary(self) -> PFormula:
        kind, value, pos = self.peek()
        if value == "!":
            self.take()
            return PNot(self.unary())
        if kind == "name" and value == "G":
            self.take()
            return PBox(self.unary())
        if kind == "name" and value == "F":
            self.take()
            return PDia(self.unary())
        if kind == "name" and value == "X":
            raise PriorParseError("X is not allowed in box/diamond axioms", self.line_no, pos)
        return self.primary()

    def primary(self) -> PFormula:
        kind, value, pos = self.take()
        if value == "(":
            f = self.formula()
            kind, value, pos = self.take()
            if value != ")":
                raise PriorParseError("expected ')'", self.line_no, pos)
            return f
        if kind == "name":
            if value == "true":
                return PTrue()
            if value == "false":
                return PFalse()
            if value in ("U", "X", "G", "F"):
                raise PriorParseError(f"misplaced keyword {value!r}", self.line_no, pos)
            return PAtom(value)
        raise PriorParseError("expected a formula", self.line_no, pos)


def load_prior_ontology(text: str) -> PriorOntology:
    axioms = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parser = _PriorParser(_tokenize(line, line_no), line_no)
        f = parser.formula()
        if parser.i < len(parser.tokens):
            _, value, pos = parser.tokens[parser.i]
            raise PriorParseError(f"unexpected {value!r}", line_no, pos)
        axioms.append(f)
    return PriorOntology(tuple(axioms))


# ---------------------------------------------------------------------------
# Word search

_TRUE, _FALSE, _UNKNOWN = 1, 0, 2


def _ev_loop(f: PFormula, j: int, loop, assigned: int) -> int:
    """Three-valued truth at loop position j; positions >= assigned are open."""
    if isinstance(f, PTrue):
        return _TRUE
    if isinstance(f, PFalse):
        return _FALSE
    if isinstance(f, PAtom):
        if j >= assigned:
            return _UNKNOWN
        return _TRUE if f.name in loop[j] else _FALSE
    if isinstance(f, PNot):
        v = _ev_loop(f.arg, j, loop, assigned)
        return v if v == _UNKNOWN else 1 - v
    if isinstance(f, PAnd):
        a = _ev_loop(f.left, j, loop, assigned)
        b = _ev_loop(f.right, j, loop, assigned)
        if _FALSE in (a, b):
            return _FALSE
        return _TRUE if a == b == _TRUE else _UNKNOWN
    if isinstance(f, POr):
        a = _ev_loop(f.left, j, loop, assigned)
        b = _ev_loop(f.right, j, loop, assigned)
        if _TRUE in (a, b):
            return _TRUE
        return _FALSE if a == b == _FALSE else _UNKNOWN
    if isinstance(f, PImp):
        a = _ev_loop(f.left, j, loop, assigned)
        b = _ev_loop(f.right, j, loop, assigned)
        if a == _FALSE or b == _TRUE:
            return _TRUE
        return _FALSE if (a, b) == (_TRUE, _FALSE) else _UNKNOWN
    if isinstance(f, PDia):
        # uniform over the loop: some loop position satisfies the argument
        vals = [_ev_loop(f.arg, i, loop, assigned) for i in range(len(loop))]
        if _TRUE in vals:
            return _TRUE
        return _FALSE if all(v == _FALSE for v in vals) else _UNKNOWN
    if isinstance(f, PBox):
        vals = [_ev_loop(f.arg, i, loop, assigned) for i in range(len(loop))]
        if _FALSE in vals:
            return _FALSE
        return _TRUE if all(v == _TRUE for v in vals) else _UNKNOWN
    raise TypeError(f"not a prior formula: {f!r}")


def _ev_handle(f: PFormula, i: int, handle, loop) -> bool:
    """Exact truth at handle position i (handle fully assigned to the right of i)."""
    if isinstance(f, PTrue):
        return True
    if isinstance(f, PFalse):
        return False
    if isinstance(f, PAtom):
        return f.name in handle[i]
    if isinstance(f, PNot):
        return not _ev_handle(f.arg, i, handle, loop)
    if isinstance(f, PAnd):
        return _ev_handle(f.left, i, handle, loop) and _ev_handle(f.right, i, handle, loop)
    if isinstance(f, POr):
        return _ev_handle(f.left, i, handle, loop) or _ev_handle(f.right, i, handle, loop)
    if isinstance(f, PImp):
        return (not _ev_handle(f.left, i, handle, loop)) or _ev_handle(f.right, i, handle, loop)
    if isinstance(f, PDia):
        if any(_ev_handle(f.arg, j, handle, loop) for j in range(i + 1, len(handle))):
            return True
        return any(_ev_loop(f.arg, j, loop, len(loop)) == _TRUE for j in range(len(loop)))
    if isinstance(f, PBox):
        if not all(_ev_handle(f.arg, j, handle, loop) for j in range(i + 1, len(handle))):
            return False
        return all(_ev_loop(f.arg, j, loop, len(loop)) == _TRUE for j in range(len(loop)))
    raise TypeError(f"not a prior formula: {f!r}")


def _letter_choices(sig: tuple[str, ...], required: frozenset[str]):
    free = [a for a in sig if a not in required]
    for mask in range(1 << len(free)):
        extra = {free[i] for i in range(len(free)) if mask >> i & 1}
        yield frozenset(required | extra)


@lru_cache(maxsize=256)
def _valid_loops(onto: PriorOntology, sig: tuple[str, ...], loop_len: int) -> tuple:
    """Loops of the given length making every axiom true at every position.

    Backtracks position by position, pruning with three-valued axiom checks;
    at full length the checks are exact.  No query or data changes the
    loops, so they are kept for every word search over the same signature.
    """
    choices = list(_letter_choices(sig, frozenset()))
    loop: list[frozenset[str]] = [frozenset()] * loop_len

    def go(j: int):
        if j == loop_len:
            yield tuple(loop)
            return
        for letters in choices:
            loop[j] = letters
            ok = True
            for jj in range(j + 1):
                if any(_ev_loop(a, jj, loop, j + 1) == _FALSE for a in onto.axioms):
                    ok = False
                    break
            if ok:
                yield from go(j + 1)

    return tuple(go(0))


def _search_word(
    onto: PriorOntology, data: DataInstance, sig: tuple[str, ...], reject
) -> LassoModel | None:
    """A periodic model of (onto, data) on which `reject` holds, if any."""
    max_ts = data.max_timestamp
    # keeping one witness per diamond subformula and one falsifier per box
    # subformula preserves every subformula value, so this slack suffices
    size = onto.temporal_count + 1
    for loop_len in range(1, size + 1):
        for loop in _valid_loops(onto, sig, loop_len):
            for k in range(max_ts, max_ts + size + 1):
                if reject is not None:
                    # positive queries are monotone: if the minimal handle
                    # already fails to reject, no handle over it will
                    minimal = LassoModel(
                        tuple(data.atoms_at(i) for i in range(k + 1)), tuple(loop)
                    )
                    if not reject(minimal):
                        continue
                word = _fill_handle(onto, data, sig, k, loop, reject)
                if word is not None:
                    return word
    return None


def _fill_handle(onto, data, sig, k, loop, reject) -> LassoModel | None:
    handle: list[frozenset[str] | None] = [None] * (k + 1)

    def assign(i: int) -> LassoModel | None:
        if i < 0:
            model = LassoModel(tuple(handle), tuple(loop))
            return model if reject is None or reject(model) else None
        for letters in _letter_choices(sig, data.atoms_at(i)):
            handle[i] = letters
            if all(_ev_handle(a, i, handle, loop) for a in onto.axioms):
                found = assign(i - 1)
                if found is not None:
                    return found
        handle[i] = None
        return None

    return assign(k)


def _sig_tuple(onto: PriorOntology, data: DataInstance, extra=frozenset()) -> tuple[str, ...]:
    return tuple(sorted(onto.atoms | data.signature | extra))


@lru_cache(maxsize=None)
def prior_consistent(onto: PriorOntology, data: DataInstance) -> bool:
    """True iff some ultimately periodic word satisfies data and all axioms."""
    if not onto.axioms:
        return True
    return _search_word(onto, data, _sig_tuple(onto, data), None) is not None


def _check_diamond_query(q: Query) -> None:
    if isinstance(q, (Top, Prop)):
        return
    if isinstance(q, And):
        for p in q.parts:
            _check_diamond_query(p)
        return
    if isinstance(q, Diamond):
        _check_diamond_query(q.arg)
        return
    raise ValueError(f"query outside the diamond fragment: {q}")


@lru_cache(maxsize=None)
def prior_entails(onto: PriorOntology, data: DataInstance, q: Query) -> bool:
    """True iff q holds at 0 in every model of (onto, data)."""
    _check_diamond_query(q)
    if not onto.axioms:
        from .core import eval_data

        return eval_data(data, q, 0)
    empty = LassoModel((), (frozenset(),))
    if eval_lasso(empty, q, 0):
        return True  # valid positive queries have no countermodel anywhere
    sig = _sig_tuple(onto, data, extra=_query_atoms(q))

    def refutes(model: LassoModel) -> bool:
        return not eval_lasso(model, q, 0)

    return _search_word(onto, data, sig, refutes) is None


def _query_atoms(q: Query) -> frozenset[str]:
    from .core import query_atoms

    return query_atoms(q)
