"""Domain types: timestamped data, positive LTL queries, example sets, lasso words.

All temporal operators are strict: X, F and U quantify over strictly later
timepoints, and X q == false U q, F q == true U q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Words reserved by the query / ontology grammars; they cannot name atoms.
RESERVED_WORDS = frozenset({"X", "F", "G", "U", "true", "false"})


def check_atom_name(name: str) -> str:
    if not ATOM_NAME.match(name) or name in RESERVED_WORDS:
        raise ValueError(f"bad atom name: {name!r}")
    return name


class QueryClass(Enum):
    PATH_DIAMOND = "path-diamond"
    PATH_NEXT_DIAMOND = "path-next-diamond"
    PATH_DIAMOND_CIRC_BLOCKS = "path-diamond-circ-blocks"
    BRANCH_DIAMOND = "branch-diamond"
    BRANCH_NEXT_DIAMOND = "branch-next-diamond"
    PATH_UNTIL = "path-until"
    SIMPLE_UNTIL = "simple-until"
    FULL_UNTIL = "full-until"


# ---------------------------------------------------------------------------
# Query ASTs


class Query:
    """Base class for positive LTL queries (atoms, true, false, &, X, F, U)."""

    def __str__(self) -> str:
        return format_query(self)

    def __repr__(self) -> str:
        return f"<query {format_query(self)}>"


@dataclass(frozen=True, repr=False)
class Top(Query):
    pass


@dataclass(frozen=True, repr=False)
class Bot(Query):
    pass


@dataclass(frozen=True, repr=False)
class Prop(Query):
    name: str

    def __post_init__(self):
        check_atom_name(self.name)


@dataclass(frozen=True, repr=False)
class And(Query):
    parts: tuple[Query, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("And must have at least one conjunct")
        if any(isinstance(p, And) for p in self.parts):
            raise ValueError("And must be flattened; use conj()")


@dataclass(frozen=True, repr=False)
class Next(Query):
    arg: Query


@dataclass(frozen=True, repr=False)
class Diamond(Query):
    arg: Query


@dataclass(frozen=True, repr=False)
class Until(Query):
    left: Query
    right: Query


TOP = Top()
BOT = Bot()


def conj(parts: Iterable[Query]) -> Query:
    """Conjunction with flattening, deduplication and unit/zero simplification."""
    flat: list[Query] = []
    seen = set()
    for p in parts:
        items = p.parts if isinstance(p, And) else (p,)
        for q in items:
            if isinstance(q, Bot):
                return BOT
            if isinstance(q, Top) or q in seen:
                continue
            seen.add(q)
            flat.append(q)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def atoms_conj(names: Iterable[str]) -> Query:
    return conj(Prop(n) for n in sorted(set(names)))


def temporal_depth(q: Query) -> int:
    """Maximum nesting of X / F / U in q."""
    if isinstance(q, (Top, Bot, Prop)):
        return 0
    if isinstance(q, And):
        return max(temporal_depth(p) for p in q.parts)
    if isinstance(q, (Next, Diamond)):
        return 1 + temporal_depth(q.arg)
    if isinstance(q, Until):
        return 1 + max(temporal_depth(q.left), temporal_depth(q.right))
    raise TypeError(f"not a query: {q!r}")


def query_atoms(q: Query) -> frozenset[str]:
    return frozenset(p.name for p in subqueries(q) if isinstance(p, Prop))


def subqueries(q: Query) -> Iterator[Query]:
    yield q
    if isinstance(q, And):
        for p in q.parts:
            yield from subqueries(p)
    elif isinstance(q, (Next, Diamond)):
        yield from subqueries(q.arg)
    elif isinstance(q, Until):
        yield from subqueries(q.left)
        yield from subqueries(q.right)


# ---------------------------------------------------------------------------
# Data instances, example sets, lasso words


@dataclass(frozen=True)
class DataInstance:
    """A finite set of (atom, timestamp) facts."""

    facts: frozenset[tuple[str, int]]

    def __post_init__(self):
        for name, t in self.facts:
            check_atom_name(name)
            if t < 0:
                raise ValueError(f"negative timestamp in fact {name}({t})")

    @staticmethod
    def of(pairs: Iterable[tuple[str, int]]) -> "DataInstance":
        return DataInstance(frozenset(pairs))

    @property
    def max_timestamp(self) -> int:
        return max((t for _, t in self.facts), default=0)

    @property
    def signature(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.facts)

    def __le__(self, other: "DataInstance") -> bool:
        return self.facts <= other.facts


@dataclass(frozen=True)
class ExampleSet:
    positives: tuple[DataInstance, ...]
    negatives: tuple[DataInstance, ...]

    @staticmethod
    def of(positives: Iterable[DataInstance], negatives: Iterable[DataInstance]) -> "ExampleSet":
        return ExampleSet(tuple(positives), tuple(negatives))

    @property
    def instances(self) -> tuple[DataInstance, ...]:
        return self.positives + self.negatives

    @property
    def signature(self) -> frozenset[str]:
        sigs = [d.signature for d in self.instances]
        return frozenset().union(*sigs) if sigs else frozenset()


@dataclass(frozen=True)
class LassoModel:
    """An ultimately periodic word: `prefix` then `loop` repeated forever."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    @property
    def pre(self) -> int:
        return len(self.prefix)

    @property
    def per(self) -> int:
        return len(self.loop)

    def fold(self, n: int) -> int:
        """Representative position in [0, pre+per) of timepoint n."""
        if n < self.pre + self.per:
            return n
        return self.pre + (n - self.pre) % self.per

    def letter(self, n: int) -> frozenset[str]:
        if n < self.pre:
            return self.prefix[n]
        return self.loop[(n - self.pre) % self.per]

    @cached_property
    def word(self) -> Word:
        """`lasso_word(prefix, loop)`, built once; callers must not change it."""
        return lasso_word(self.prefix, self.loop)

    @staticmethod
    def of_data(d: DataInstance) -> "LassoModel":
        """The word that makes exactly d's facts true (empty from max+1 on)."""
        letters: list[set[str]] = [set() for _ in range(d.max_timestamp + 1)]
        for name, t in d.facts:
            letters[t].add(name)
        return LassoModel(tuple(_letter(frozenset(s)) for s in letters), (_letter(frozenset()),))


@lru_cache(maxsize=1024)
def _letter(names: frozenset[str]) -> frozenset[str]:
    """One shared object per letter, for the held data words."""
    return names


# ---------------------------------------------------------------------------
# Evaluation on words as position bitmasks
#
# A word is a triple (masks, every, loop) over the positions 0..pre+per-1 of
# a lasso, position n being bit n: per atom, the positions whose letter holds
# it; all positions; and the loop positions.  Position pre+per-1 is followed
# by pre.  Data is the lasso of its facts followed by one empty loop letter.

Word = tuple[dict[str, int], int, int]


def lasso_word(prefix, loop) -> Word:
    """The (masks, every, loop) form of the lasso prefix·loop^ω."""
    masks: dict[str, int] = {}
    bit = 1
    for letter in (*prefix, *loop):
        for a in letter:
            masks[a] = masks.get(a, 0) | bit
        bit <<= 1
    every = bit - 1
    return masks, every, every >> len(prefix) << len(prefix)


@lru_cache(maxsize=4096)
def data_word(d: DataInstance) -> LassoModel:
    """d's own lasso (`LassoModel.of_data`), built once per instance, so
    that its `word` is too; as many are kept as least models."""
    return LassoModel.of_data(d)


def eventually(held: int, every: int, loop: int) -> int:
    """The positions with a strictly later position in `held`: all of them if
    `held` recurs in the loop, otherwise those before its highest position."""
    if held & loop:
        return every
    return (1 << (held.bit_length() - 1)) - 1 if held else 0


def _pred(held: int, every: int, loop: int) -> int:
    """The positions whose successor is in `held`; the last position is
    followed by the first loop position."""
    return held >> 1 | ((every >> 1) + 1 if held & loop & -loop else 0)


def positions(q: Query, word: Word) -> int:
    """The positions of the word at which q holds."""
    masks, every, loop = word
    kind = type(q)
    if kind is And:
        out = every
        for p in q.parts:
            out &= masks.get(p.name, 0) if type(p) is Prop else positions(p, word)
            if not out:
                break
        return out
    if kind is Prop:
        return masks.get(q.name, 0)
    if kind is Diamond:
        return eventually(positions(q.arg, word), every, loop)
    if kind is Top:
        return every
    if kind is Bot:
        return 0
    if kind is Next:
        return _pred(positions(q.arg, word), every, loop)
    if kind is Until:
        left, right = positions(q.left, word), positions(q.right, word)
        out = 0
        while True:  # the least fixpoint of U == X(right | left & U)
            held = _pred(right | left & out, every, loop)
            if held == out:
                return out
            out = held
    raise TypeError(f"not a query: {q!r}")


def eval_data(d: DataInstance, q: Query, at: int) -> bool:
    """Truth of q at timepoint `at` in the word making exactly d's facts true."""
    model = data_word(d)
    return eval_lasso(model, q, model.fold(at))


def eval_lasso(model: LassoModel, q: Query, at: int) -> bool:
    """Truth of q at `at` in the infinite word denoted by the lasso."""
    if not 0 <= at < model.pre + model.per:
        raise ValueError(f"evaluation point {at} outside lasso representation")
    return positions(q, model.word) >> at & 1 == 1


# ---------------------------------------------------------------------------
# Class membership


def _split_conj(q: Query) -> tuple[frozenset[str], bool, list[Query]]:
    """(atom conjuncts, has_bot, temporal conjuncts) of a flattened query."""
    parts = q.parts if isinstance(q, And) else (q,)
    atoms: set[str] = set()
    temporal: list[Query] = []
    has_bot = False
    for p in parts:
        if isinstance(p, Prop):
            atoms.add(p.name)
        elif isinstance(p, Bot):
            has_bot = True
        elif isinstance(p, Top):
            pass
        else:
            temporal.append(p)
    return frozenset(atoms), has_bot, temporal


def _is_atom_conj(q: Query, allow_bot: bool = False) -> bool:
    _, has_bot, temporal = _split_conj(q)
    return not temporal and (allow_bot or not has_bot)


def _is_path(q: Query, ops: tuple[type, ...], need_atom: bool = False) -> bool:
    """Single temporal spine; every F must land on a block with an atom.

    The block of an F-step runs until the next F; all-empty blocks would let
    F-nesting count depth like X does, which the diamond classes forbid.
    """
    atoms, _, temporal = _split_conj(q)
    if len(temporal) > 1:
        return False
    need = need_atom and not atoms
    if not temporal:
        return not need
    step = temporal[0]
    if not isinstance(step, ops):
        return False
    if isinstance(step, Diamond):
        return not need and _is_path(step.arg, ops, need_atom=True)
    return _is_path(step.arg, ops, need_atom=need)


def _is_path_until(q: Query) -> bool:
    """Until-path shape: a single until spine whose left sides are atom
    conjunctions or false (X and F are sugar for such untils)."""
    _, _, temporal = _split_conj(q)
    if len(temporal) > 1:
        return False
    if not temporal:
        return True
    step = temporal[0]
    if isinstance(step, (Next, Diamond)):
        return _is_path_until(step.arg)
    if isinstance(step, Until):
        return _is_atom_conj(step.left, allow_bot=True) and _is_path_until(step.right)
    return False


def _x_chain_atoms(q: Query) -> frozenset[str] | None:
    """Atoms of a single-X-spine query, or None when it is not one."""
    atoms, _, temporal = _split_conj(q)
    if len(temporal) > 1:
        return None
    if not temporal:
        return atoms
    step = temporal[0]
    if not isinstance(step, Next):
        return None
    inner = _x_chain_atoms(step.arg)
    return None if inner is None else atoms | inner


def _is_circ_blocks(q: Query, need_atom: bool = False) -> bool:
    """Shape rho0 & F(rho1 & F(...)) where each rho_i is an X-path.

    F-steps must land on a block containing some atom (see _is_path).
    """
    parts = q.parts if isinstance(q, And) else (q,)
    diamonds = [p for p in parts if isinstance(p, Diamond)]
    rest = [p for p in parts if not isinstance(p, Diamond)]
    if len(diamonds) > 1:
        return False
    block = _x_chain_atoms(conj(rest)) if rest else frozenset()
    if block is None or (need_atom and not block):
        return False
    return not diamonds or _is_circ_blocks(diamonds[0].arg, need_atom=True)


def _is_simple(q: Query) -> bool:
    """Tree-shaped until queries: left arguments are atom conjunctions or
    false (X and F abbreviate such untils, so they may not sit on a left)."""
    if isinstance(q, Until):
        return _is_atom_conj(q.left, allow_bot=True) and _is_simple(q.right)
    if isinstance(q, And):
        return all(_is_simple(p) for p in q.parts)
    if isinstance(q, (Next, Diamond)):
        return _is_simple(q.arg)
    return True


def _has_node(q: Query, kinds: tuple[type, ...]) -> bool:
    """Whether q has a subquery of one of the kinds, by one walk of q."""
    if isinstance(q, kinds):
        return True
    if isinstance(q, And):
        for p in q.parts:
            if _has_node(p, kinds):
                return True
        return False
    if isinstance(q, (Next, Diamond)):
        return _has_node(q.arg, kinds)
    if isinstance(q, Until):
        return _has_node(q.left, kinds) or _has_node(q.right, kinds)
    return False


def in_class(q: Query, cls: QueryClass) -> bool:
    """True iff q's syntactic shape matches the query class."""
    if isinstance(q, Bot) or cls is QueryClass.FULL_UNTIL:
        return True  # false is operator-free, hence a member of every class
    if cls is QueryClass.SIMPLE_UNTIL:
        return _is_simple(q)
    if cls is QueryClass.PATH_UNTIL:
        return _is_path_until(q)
    if _has_node(q, (Until,)):
        return False
    if cls is QueryClass.BRANCH_NEXT_DIAMOND:
        return True
    if cls is QueryClass.BRANCH_DIAMOND:
        return not _has_node(q, (Next,))
    if cls is QueryClass.PATH_NEXT_DIAMOND:
        return _is_path(q, (Next, Diamond))
    if cls is QueryClass.PATH_DIAMOND:
        return _is_path(q, (Diamond,))
    return _is_circ_blocks(q)  # PATH_DIAMOND_CIRC_BLOCKS, the last class


def classify(q: Query) -> frozenset[QueryClass]:
    """All query classes whose syntactic shape q matches."""
    return frozenset(cls for cls in QueryClass if in_class(q, cls))


# ---------------------------------------------------------------------------
# Diamond paths of X-blocks as queries

_Block = tuple[frozenset[str], ...]
_Path = tuple[_Block, ...]


def _block_query(block: _Block) -> Query:
    # right-nested X-chain: slot_0 & X(slot_1 & X(...))
    q: Query = TOP
    for i in range(len(block) - 1, -1, -1):
        base = atoms_conj(block[i])
        q = conj([base, Next(q)]) if q is not TOP else base
    return q


def _path_query(path: _Path) -> Query:
    q: Query = TOP
    for block in reversed(path[1:]):
        inner = conj([_block_query(block), Diamond(q)]) if q is not TOP else _block_query(block)
        q = inner
    head = _block_query(path[0])
    if q is TOP:
        return head
    return conj([head, Diamond(q)])


# ---------------------------------------------------------------------------
# Formula text grammar
#
# Queries, Horn axioms and box/diamond axioms are fragments of one grammar.
# Binary operators, loosest first: -> (groups right), |, U (groups right), &;
# the prefixes !, X, F and G bind tightest; operands are atoms, true, false
# and parenthesised formulas.  A fragment maps each operator and constant it
# takes to a constructor; the parser rejects any other where it stands.


class ParseError(ValueError):
    """Bad formula text at 0-based `column` of `line` (None for a query)."""

    def __init__(self, message: str, column: int, line: int | None = None):
        where = f"at column {column + 1}" if line is None else f"line {line}, column {column + 1}"
        super().__init__(f"{message} ({where})")
        self.line, self.column = line, column


class Fragment(NamedTuple):
    """A language of the grammar: the constructor of each operator and
    constant it takes, keyed by token, of its atoms, and of a whole formula.
    A constructor rejects its arguments by raising ValueError."""

    name: str
    atom: Callable
    ops: dict[str, Callable]
    whole: Callable = lambda f: f


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|->|\S")
_BINARY = {"->": (0, 0), "|": (1, 2), "U": (2, 2), "&": (3, 4)}  # power, right operand's power
_PREFIX = frozenset("!XFG")  # of power 5: a prefix takes the operand that follows it
_WORDS = frozenset({*_BINARY, *_PREFIX, "true", "false", "(", ")"})  # the tokens that are not atoms
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")  # an atom starts with one


def _error(message: str, text: str, index: int, line: int | None) -> ParseError:
    """A ParseError at token `index` of text, or at its end past the last token."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return ParseError(message, m.start(), line)
    return ParseError(message, len(text), line)


def _refuse(token: str, name: str, text: str, index: int, line: int | None):
    raise _error(f"{token!r} is not allowed in {name}", text, index, line)


def _unexpected(token: str) -> str:
    odd = token not in _WORDS and token[0] not in _LETTERS
    return f"unexpected {'character ' if odd else ''}{token!r}"


def parse_formula(text: str, fragment: Fragment, line: int | None = None):
    """The value that `fragment`'s constructors build from one formula.  A
    rejected operator or constant is blamed where it stands, a rejected
    argument where the (last) argument starts, a rejected formula at its end."""
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    tokens.append(")")  # closes the "(" that `pending` starts with
    name, atom, ops, whole = fragment
    values = []  # complete operands
    pending = [(None, -1, end)]  # (constructor, its right operand's power, token index); "(" has none
    operand = True  # an operand comes next
    for i, token in enumerate(tokens):
        if operand:
            if token not in _WORDS and token[0] in _LETTERS:
                value = atom(token)
            elif token == "true" or token == "false":
                value = (ops.get(token) or _refuse(token, name, text, i, line))()
            elif token in _PREFIX:
                pending.append((ops.get(token) or _refuse(token, name, text, i, line), 5, i))
                continue
            elif token == "(":
                pending.append((None, -1, i))
                continue
            else:
                raise _error("expected a formula" if i == end else _unexpected(token), text, i, line)
        elif token in _BINARY or token == ")":
            power, right = _BINARY.get(token, (-1, -1))
            while pending[-1][1] > power:  # the right operands that end here
                build, _, at = pending.pop()
                last = values.pop()
                try:
                    values[-1] = build(values[-1], last)
                except ValueError as ex:
                    raise _error(str(ex), text, at + 1, line) from None
            if token != ")":
                pending.append((ops.get(token) or _refuse(token, name, text, i, line), right, i))
                operand = True
                continue
            if (pending.pop()[2] == end) != (i == end):  # not the "(" this ")" closes
                raise _error("expected ')'" if i == end else "unexpected ')'", text, i, line)
            value = values.pop()
        else:
            raise _error(_unexpected(token), text, i, line)
        while pending and pending[-1][1] == 5:
            build, _, at = pending.pop()
            try:
                value = build(value)
            except ValueError as ex:
                raise _error(str(ex), text, at + 1, line) from None
        values.append(value)
        operand = False
    try:
        return whole(values[0])
    except ValueError as ex:
        raise _error(str(ex), text, end, line) from None


def parse_lines(text: str, fragment: Fragment) -> tuple:
    """One formula per line; blank lines and lines starting with '#' are skipped."""
    lines = enumerate(text.splitlines(), start=1)
    return tuple([parse_formula(line, fragment, n) for n, line in lines if (s := line.lstrip()) and s[0] != "#"])


_QUERY = Fragment(
    "queries",
    Prop,
    {"U": Until, "&": lambda a, b: conj((a, b)), "X": Next, "F": Diamond, "true": lambda: TOP, "false": lambda: BOT},
)


def parse_query(text: str) -> Query:
    return parse_formula(text, _QUERY)


def format_query(q: Query) -> str:
    def fmt(query: Query, level: int) -> str:
        # level 0 = U context, 1 = & context, 2 = unary argument
        if isinstance(query, Top):
            return "true"
        if isinstance(query, Bot):
            return "false"
        if isinstance(query, Prop):
            return query.name
        if isinstance(query, Next):
            return _wrap(f"X {fmt(query.arg, 2)}", level > 2)
        if isinstance(query, Diamond):
            return _wrap(f"F {fmt(query.arg, 2)}", level > 2)
        if isinstance(query, And):
            body = " & ".join(fmt(p, 2) for p in query.parts)
            return _wrap(body, level > 1)
        if isinstance(query, Until):
            body = f"{fmt(query.left, 1)} U {fmt(query.right, 0)}"
            return _wrap(body, level > 0)
        raise TypeError(f"not a query: {query!r}")

    def _wrap(s: str, need: bool) -> str:
        return f"({s})" if need else s

    return fmt(q, 0)
