"""Box/diamond ontologies with full Booleans: consistency and entailment.

Axioms are Boolean formulas over atoms with unary G and F (no X, no U).
Consistency and certain answers are decided by backtracking over ultimately
periodic words: a handle of positions 0..k and a loop of l distinct letters,
with max(data) <= k <= max(data)+t+1 and 1 <= l <= t+1, for the t G and F
operators of the axioms.  On such a word a G- or F-subformula has one value
across the loop, set by the loop's letters alone (`_valid_loops`), which makes
the axioms checkable position by position as the handle is filled from its
end.  A partial fill is summed up by the values, where it stops, of the
axioms' G- and F-subformulas and of the query's F-subqueries, and a summary
that led nowhere once is not searched again.

Axioms and queries are evaluated on a word as integer bitmasks over its
positions (`core.lasso_word`, `core.positions`).  A diamond query is certain
on (O, D) iff no such word is a model of O and D on which the query fails at
0, so entailment is a countermodel search.  A search is answered once per
shape, up to atom renaming: a bounded store (`_shape_search`) keys it on
(O, D, signature, query) with every atom renamed in a canonical order, and
hands the model back under the caller's names (`_search_word`).  LTL truth
is invariant under a bijective renaming of atoms, so a model of the renamed
triple, renamed back, is a model of the given one, and "no model" carries
over too.  A query that holds at 0 on D's
own word is certain with no search: every model of (O, D) holds D's facts,
so it lies letter by letter above that word, and diamond queries are
monotone.  Every model the search finds is kept, most recent first, in a
bounded store per (O, D), and later queries on the same (O, D) try the
stored words before searching.  A stored word is a model of O and D whatever
the query (atoms outside its signature are false, and none occurs in O or
D), so a stored word that falsifies the query settles "not entailed".

Most data needs no search (`least_word`).  Forward chaining from D's own word
adds, wherever the body of an axiom `body -> atoms` without ! or -> holds, its
atoms: every model holds them, as such a body stays true on larger words.  If
the chased word satisfies every axiom at every position, it is the least
model, since positive queries are monotone: (O, D) is consistent, a query is
certain iff it holds on that word, and the engine answers on it as on plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .core import (
    And,
    DataInstance,
    Diamond,
    Fragment,
    LassoModel,
    ParseError,
    Prop,
    Query,
    Top,
    data_word,
    eval_lasso,
    eventually,
    lasso_word,
    parse_lines,
    positions,
    query_atoms,
    subqueries,
)

PriorParseError = ParseError  # the former name of box/diamond parse errors


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
    """A set of axioms.  Every cache on the box/diamond route is keyed on the
    ontology, so its hash and its derived constants are computed once, on
    first use, and kept on the instance."""

    axioms: tuple[PFormula, ...]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and pickles drop the cached values: string hashes differ
        # between processes
        return PriorOntology, (self.axioms,)

    @cached_property
    def _hash(self) -> int:
        return hash((self.axioms,))

    @cached_property
    def size_measure(self) -> int:
        return sum(1 for a in self.axioms for _ in _subformulas(a))

    @cached_property
    def atoms(self) -> frozenset[str]:
        return frozenset(f.name for a in self.axioms for f in _subformulas(a) if isinstance(f, PAtom))

    @cached_property
    def temporal_count(self) -> int:
        return sum(isinstance(t, (PBox, PDia)) for a in self.axioms for t in _subformulas(a))

    @cached_property
    def temporal_parts(self) -> tuple[PFormula, ...]:
        """The axioms' distinct G- and F-subformulas, in order of appearance."""
        return tuple(dict.fromkeys(t for a in self.axioms for t in _subformulas(a) if isinstance(t, (PBox, PDia))))

    @cached_property
    def chase_rules(self) -> tuple[tuple[PFormula, tuple[str, ...]], ...]:
        """(body, head atoms) of each axiom `body -> head` (a bare head has
        body true) with a monotone body, one without ! and ->, so that adding
        letters keeps it true, and a conjunction of atoms as head."""
        rules = []
        for a in self.axioms:
            body, head = (a.left, a.right) if isinstance(a, PImp) else (PTrue(), a)
            atoms = _head_atoms(head)
            if atoms is not None and not any(isinstance(f, (PNot, PImp)) for f in _subformulas(body)):
                rules.append((body, atoms))
        return tuple(rules)

    @cached_property
    def shape(self) -> tuple[PriorOntology, dict[str, str]]:
        """This ontology with its atoms renamed `a0`, `a1`, ... in order of
        first occurrence in the axioms, interned, and that renaming."""
        names: dict[str, str] = {}
        _name_new(names, (f.name for a in self.axioms for f in _subformulas(a) if isinstance(f, PAtom)))
        return _interned(PriorOntology(tuple(_renamed(a, names) for a in self.axioms))), names


@lru_cache(maxsize=256)
def _interned(onto: PriorOntology) -> PriorOntology:
    """The first held ontology equal to onto, so that the renamed ontologies
    of one shape share one object and its cached constants."""
    return onto


def _renamed(f, names: dict[str, str]):
    """f, an axiom formula or a diamond query, with its atoms renamed by
    `names`; a query outside the diamond fragment is left as it is, for the
    search to reject."""
    if isinstance(f, (PAtom, Prop)):
        return type(f)(names[f.name])
    if isinstance(f, And):
        return And(tuple(_renamed(p, names) for p in f.parts))
    if isinstance(f, (PNot, PBox, PDia, Diamond)):
        return type(f)(_renamed(f.arg, names))
    if isinstance(f, (PAnd, POr, PImp)):
        return type(f)(_renamed(f.left, names), _renamed(f.right, names))
    return f


def _subformulas(f: PFormula):
    """f and its subformulas, outermost first, left before right."""
    yield f
    if isinstance(f, (PNot, PBox, PDia)):
        yield from _subformulas(f.arg)
    elif isinstance(f, (PAnd, POr, PImp)):
        yield from _subformulas(f.left)
        yield from _subformulas(f.right)


def _head_atoms(f: PFormula) -> tuple[str, ...] | None:
    """The atoms of a conjunction of atoms; None for any other formula."""
    if isinstance(f, PAnd):
        left, right = _head_atoms(f.left), _head_atoms(f.right)
        return None if left is None or right is None else left + right
    return (f.name,) if isinstance(f, PAtom) else None


# ---------------------------------------------------------------------------
# Parsing

_PRIOR = Fragment(
    "box/diamond axioms",
    PAtom,
    {"->": PImp, "|": POr, "&": PAnd, "!": PNot, "G": PBox, "F": PDia, "true": PTrue, "false": PFalse},
)


def load_prior_ontology(text: str) -> PriorOntology:
    """Parse axioms, one per line, with '#' comments."""
    return PriorOntology(parse_lines(text, _PRIOR))


# ---------------------------------------------------------------------------
# Axioms on words as position bitmasks (`core.lasso_word`).  Every operator
# looks strictly forward, so the value at n depends on the letters at n and
# after only.


def _values(f: PFormula, masks: dict[str, int], every: int, loop: int) -> int:
    """The positions of the word at which the axiom formula holds."""
    if isinstance(f, PAtom):
        return masks.get(f.name, 0)
    if isinstance(f, PTrue):
        return every
    if isinstance(f, PFalse):
        return 0
    if isinstance(f, PNot):
        return every & ~_values(f.arg, masks, every, loop)
    if isinstance(f, PDia):
        return eventually(_values(f.arg, masks, every, loop), every, loop)
    if isinstance(f, PBox):
        failed = every & ~_values(f.arg, masks, every, loop)
        return every & ~eventually(failed, every, loop)
    left = _values(f.left, masks, every, loop)
    right = _values(f.right, masks, every, loop)
    if isinstance(f, PAnd):
        return left & right
    if isinstance(f, POr):
        return left | right
    if isinstance(f, PImp):
        return (every & ~left) | right
    raise TypeError(f"not a prior formula: {f!r}")


# ---------------------------------------------------------------------------
# Word search


def _letter_choices(sig: tuple[str, ...], required: frozenset[str]):
    free = [a for a in sig if a not in required]
    for mask in range(1 << len(free)):
        extra = {free[i] for i in range(len(free)) if mask >> i & 1}
        yield frozenset(required | extra)


def _set_bit(masks: dict[str, int], letters, bit: int) -> None:
    for a in letters:
        masks[a] = masks.get(a, 0) | bit


def _clear_bit(masks: dict[str, int], letters, bit: int) -> None:
    for a in letters:
        masks[a] &= ~bit


@lru_cache(maxsize=256)
def _valid_loops(onto: PriorOntology, sig: tuple[str, ...], loop_len: int) -> tuple:
    """The loops of `loop_len` distinct letters, in `_letter_choices` order,
    on which every axiom holds at every position.

    Every loop position sees the whole loop in its strict future, so a G- or
    F-subformula has one value across the loop, set by the loop's letters
    alone, and reordering a loop or repeating a letter changes no axiom's or
    diamond query's value anywhere: a model or countermodel exists with some
    loop sequence iff one exists with its set, and `_shape_search`'s bound on
    the loop's length bounds the set's size alike.  Depending on no query or
    data, the loops are shared by every search over one signature and shape.
    """
    kept = []
    for loop in combinations(_letter_choices(sig, frozenset()), loop_len):
        masks, every, looped = lasso_word((), loop)
        if all(_values(a, masks, every, looped) == every for a in onto.axioms):
            kept.append(loop)
    return tuple(kept)


def _search_word(
    onto: PriorOntology, data: DataInstance, sig: tuple[str, ...], query=None
) -> LassoModel | None:
    """A periodic model of (onto, data), if any; given a diamond query, one on
    which the query fails at 0.

    The search is answered by the store `_shape_search` on the triple's
    shape: its atoms renamed by a bijection σ onto `a0`, `a1`, ... (the
    ontology's in order of first occurrence in the axioms, `onto.shape`;
    then the data's other atoms, by (first timestamp, name); then the
    query's other atoms, in order of first occurrence; then the rest of
    `sig`).  Renaming atoms is a bijection on words, and LTL truth is
    invariant under it: a model of (σO, σD) that falsifies σq, renamed by
    σ⁻¹, is a model of (O, D) that falsifies q, and when (σO, σD, σq) has no
    model, neither has (O, D, q); the search's bounds (the data's last
    timestamp, the ontology's temporal count) do not change under σ.  The
    key holds no given atom name.  The renamed search orders its letters by
    the new names, so it may hand back a different model than a search on
    the given names; callers read only whether there is one, or keep it as
    some model of (O, D) (`_keep`).
    """
    renamed, names = onto.shape
    names = dict(names)
    facts = data_word(data).prefix
    for letter in facts:
        _name_new(names, sorted(letter.difference(names)))
    if query is not None:
        _name_new(names, (p.name for p in subqueries(query) if isinstance(p, Prop)))
    _name_new(names, sig)
    found = _shape_search(
        renamed,
        tuple(frozenset(map(names.__getitem__, letter)) for letter in facts),
        tuple(sorted(map(names.__getitem__, sig))),
        None if query is None else _renamed(query, names),
    )
    if found is None:
        return None
    back = dict(zip(names.values(), names))
    return LassoModel(*(tuple(frozenset(map(back.__getitem__, letter)) for letter in part)
                        for part in (found.prefix, found.loop)))


def _name_new(names: dict[str, str], atoms) -> None:
    """Give each of `atoms` that `names` does not map the next placeholder name."""
    for a in atoms:
        if a not in names:
            names[a] = f"a{len(names)}"


@lru_cache(maxsize=1024)
def _shape_search(
    onto: PriorOntology, facts: tuple[frozenset[str], ...], sig: tuple[str, ...], query: Query | None
) -> LassoModel | None:
    """`_search_word` on a renamed triple: `facts` holds the data's letters
    at 0..max timestamp, `sig` is sorted."""
    max_ts = len(facts) - 1
    # keeping one witness per diamond subformula and one falsifier per box
    # subformula preserves every subformula value, so this slack suffices
    size = onto.temporal_count + 1
    temporal = onto.temporal_parts
    later = _diamond_args(query) if query is not None else []
    failed: set[tuple] = set()  # see _fill_handle; shared by every loop and k
    for loop_len in range(1, size + 1):
        for loop in _valid_loops(onto, sig, loop_len):
            # positive queries are monotone: if the query holds on the word of
            # the data's letters alone, it holds on every handle over them.
            # Empty letters between the data and the loop hold no subquery
            # that the loop does not hold everywhere, so one check covers
            # every k.
            if query is not None and positions(query, lasso_word(facts, loop)) & 1:
                continue
            for k in range(max_ts, max_ts + size + 1):
                base = facts + (frozenset(),) * (k - max_ts)
                handle = list(base)
                word = lasso_word(base, loop)
                if _fill_handle(onto, sig, base, handle, word, query, temporal, later, failed, k):
                    return LassoModel(tuple(handle), loop)
    return None


def _fill_handle(onto, sig, facts, handle, word, query, temporal, later, failed, i: int) -> bool:
    """Whether positions i down to 0 of `handle`, over `facts` (the data's
    letters at 0..k), can take letters such that the word, with the loop,
    satisfies every axiom and, given a query, falsifies it at 0; if so they
    are left filled.  `word` holds the handle's letters as masks.

    The handle is filled from its last position down; the axioms are checked
    at each position as it is filled, when every later letter is known.
    Positions not yet filled hold their facts only, and positive queries are
    monotone: when the query holds on that word, it holds however they are
    filled.  How positions 0..i can be filled depends only on i, on the
    values at i of the axioms' `temporal` subformulas and on which of the
    query's F-arguments (`later`) hold after i, whatever the loop and k; a
    state in `failed` has no filling.
    """
    if i < 0:
        return True
    masks, every, looped = word
    state = (
        i,
        *(_values(t, masks, every, looped) >> i & 1 for t in temporal),
        *(positions(c, word) >> i > 1 for c in later),
    )
    if state in failed:
        return False
    bit = 1 << i
    for letters in _letter_choices(sig, facts[i]):
        extra = letters - facts[i]
        handle[i] = letters
        _set_bit(masks, extra, bit)
        if all(_values(a, masks, every, looped) & bit for a in onto.axioms) and (
            query is None or not positions(query, word) & 1
        ):
            if _fill_handle(onto, sig, facts, handle, word, query, temporal, later, failed, i - 1):
                return True
        _clear_bit(masks, extra, bit)
    failed.add(state)
    return False


def _sig_tuple(onto: PriorOntology, data: DataInstance, extra=frozenset()) -> tuple[str, ...]:
    return tuple(sorted(onto.atoms | data.signature | extra))


# ---------------------------------------------------------------------------
# Diamond queries and the countermodel store


def _diamond_args(q: Query) -> list[Query]:
    """The arguments of q's F-subqueries, outermost first; rejects a query
    with anything but true, atoms, & and F."""
    if isinstance(q, (Top, Prop)):
        return []
    if isinstance(q, And):
        return [a for p in q.parts for a in _diamond_args(p)]
    if isinstance(q, Diamond):
        return [q.arg, *_diamond_args(q.arg)]
    raise ValueError(f"query outside the diamond fragment: {q}")


_KEPT = 16  # countermodels kept per (ontology, instance)


@lru_cache(maxsize=256)
def _countermodels(onto: PriorOntology, data: DataInstance) -> list:
    """Words of models of (onto, data) found so far, most recent first."""
    return []


def _keep(onto: PriorOntology, data: DataInstance, model: LassoModel) -> None:
    store = _countermodels(onto, data)
    store.insert(0, model.word)
    del store[_KEPT:]


@lru_cache(maxsize=4096)
def least_word(onto: PriorOntology, data: DataInstance) -> LassoModel | None:
    """The least model of (onto, data) if forward chaining finds it: data's
    own word, with each chase rule's head atoms added wherever its body holds
    (at a loop position: at every timepoint it stands for), until nothing
    changes; None unless every axiom then holds at every position."""
    own = data_word(data)
    masks, every, loop = own.word
    masks = dict(masks)
    changed = True
    while changed:
        changed = False
        for body, head in onto.chase_rules:
            held = _values(body, masks, every, loop)
            for a in head:
                if held & ~masks.get(a, 0):
                    masks[a] = masks.get(a, 0) | held
                    changed = True
    if any(_values(a, masks, every, loop) != every for a in onto.axioms):
        return None
    if masks == own.word[0]:
        return own
    grown = 0  # the positions the chase added an atom at; the others keep own's letters
    for a, held in masks.items():
        grown |= held & ~own.word[0].get(a, 0)
    letters = [frozenset(a for a, held in masks.items() if held >> n & 1) if grown >> n & 1 else letter
               for n, letter in enumerate((*own.prefix, *own.loop))]
    return LassoModel(tuple(letters[: own.pre]), tuple(letters[own.pre :]))


@lru_cache(maxsize=4096)
def prior_consistent(onto: PriorOntology, data: DataInstance) -> bool:
    """True iff some ultimately periodic word satisfies data and all axioms."""
    if least_word(onto, data) is not None:
        return True
    model = _search_word(onto, data, _sig_tuple(onto, data), None)
    if model is None:
        return False
    _keep(onto, data, model)
    return True


@lru_cache(maxsize=65536)
def prior_entails(onto: PriorOntology, data: DataInstance, q: Query) -> bool:
    """True iff q holds at 0 in every model of (onto, data).  True without a
    search when q holds at 0 on data's own word: every model holds data's
    facts, so it lies letter by letter above that word, and q is monotone."""
    _diamond_args(q)  # the fragment check
    word = least_word(onto, data)
    if word is not None:
        return eval_lasso(word, q, 0)
    if positions(q, data_word(data).word) & 1:
        return True
    if any(not positions(q, word) & 1 for word in _countermodels(onto, data)):
        return False
    model = _search_word(onto, data, _sig_tuple(onto, data, extra=query_atoms(q)), q)
    if model is None:
        return True
    _keep(onto, data, model)
    return False
