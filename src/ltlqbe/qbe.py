"""The separability engine: per-class deciders and witness extraction.

Every separable verdict carries a witness query that is checked before it is
returned: the witness must lie in the requested class, be certain-true at 0
on every positive instance, and certain-true on no negative instance.  The
first time a witness leaves `decide` for an example set, `verify_witness`
checks all three; for each later class it answers there, `in_class` checks
the first again (`_Record.checked`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
import itertools
import math
from operator import le

from .core import (
    And,
    Bot,
    DataInstance,
    Diamond,
    ExampleSet,
    LassoModel,
    Next,
    Prop,
    Query,
    QueryClass,
    TOP,
    Until,
    _block_query,
    _path_query,
    _pred,
    atoms_conj,
    conj,
    data_word,
    eval_lasso,
    eventually,
    in_class,
)
from .horn import HornOntology, Inconsistent, canonical_model
from .prior import PriorOntology, least_word, prior_consistent, prior_entails
from .represent import letter_table, repr_plain, repr_plain_br
from .tsys import (
    BLACK,
    BOT,
    RED,
    TransitionSystem,
    Tree,
    bisim_quotient,
    failing_run,
    failing_subtree_of_union,
    product,
    prune_dominated_edges,
)
from . import transform

BOT_QUERY = Bot()

PATH_CLASSES = (
    QueryClass.PATH_DIAMOND,
    QueryClass.PATH_NEXT_DIAMOND,
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS,
)
BRANCH_CLASSES = (QueryClass.BRANCH_DIAMOND, QueryClass.BRANCH_NEXT_DIAMOND)
DIAMOND_CLASSES = PATH_CLASSES + BRANCH_CLASSES
UNTIL_CLASSES = (QueryClass.PATH_UNTIL, QueryClass.SIMPLE_UNTIL, QueryClass.FULL_UNTIL)
_NO_X = (QueryClass.PATH_DIAMOND, QueryClass.BRANCH_DIAMOND)

# the grammar's class inclusions, (smaller, larger), and each class with every
# class above it: a witness checked in a class answers those with no walk
_INCLUSIONS = tuple((QueryClass(a), QueryClass(b)) for a, b in (
    ("path-diamond", "path-next-diamond"), ("path-diamond", "path-diamond-circ-blocks"),
    ("path-diamond", "branch-diamond"), ("path-next-diamond", "branch-next-diamond"),
    ("path-diamond-circ-blocks", "branch-next-diamond"), ("branch-diamond", "branch-next-diamond"),
    ("path-next-diamond", "path-until"), ("branch-next-diamond", "simple-until"),
    ("path-until", "simple-until"), ("simple-until", "full-until"),
))


def _up(cls: QueryClass) -> frozenset[QueryClass]:
    return frozenset({cls}).union(*(_up(large) for small, large in _INCLUSIONS if small is cls))


_UP = {cls: _up(cls) for cls in QueryClass}

_BRANCH_TO_PATH = {
    QueryClass.BRANCH_DIAMOND: QueryClass.PATH_DIAMOND,
    QueryClass.BRANCH_NEXT_DIAMOND: QueryClass.PATH_DIAMOND_CIRC_BLOCKS,
}


class UnsupportedProblem(ValueError):
    pass


class ResourceCap(RuntimeError):
    pass


class WitnessError(AssertionError):
    """A separable verdict failed its own witness re-verification."""


class LatticeError(AssertionError):
    """Two verdicts of one example set contradict the class lattice."""


@dataclass(frozen=True)
class Problem:
    cls: QueryClass
    examples: ExampleSet
    ontology: HornOntology | PriorOntology | None = None


@dataclass(frozen=True)
class Verdict:
    separable: bool
    witness: Query | None = None
    note: str | None = None


def models(onto, d: DataInstance) -> tuple[LassoModel, ...] | None:
    """The lasso words on all of which a query holds at 0 iff it is certain
    on d under onto (or none), `()` when (onto, d) has no model: the Horn
    canonical lasso, d's own word, or the box/diamond least word
    (`prior.least_word`).  None for other box/diamond data (`prior_entails`
    answers)."""
    if isinstance(onto, HornOntology):
        try:
            return (canonical_model(onto, d).lasso,)
        except Inconsistent:
            return ()
    word = data_word(d) if onto is None else least_word(onto, d)
    if word is not None:
        return (word,)
    return None if prior_consistent(onto, d) else ()


def entailed(ontology, d: DataInstance, q: Query) -> bool:
    """Certain truth of q at 0 on d under the given ontology (or none)."""
    words = models(ontology, d)
    if words is None:  # consistent, so false is not certain
        return not isinstance(q, Bot) and prior_entails(ontology, d, q)
    return all(eval_lasso(word, q, 0) for word in words)


def verify_witness(p: Problem, q: Query) -> bool:
    if not in_class(q, p.cls):
        return False
    if any(not entailed(p.ontology, d, q) for d in p.examples.positives):
        return False
    return all(not entailed(p.ontology, d, q) for d in p.examples.negatives)


def _checked(p: Problem, verdict: Verdict, known: _Record) -> Verdict:
    """verdict, once a separable one's witness is checked for p: by
    `verify_witness` on p's set as `known` keeps it (`dropped`) the first
    time it leaves `decide` for the set, else by `in_class` unless
    `known.checked` already holds it in p.cls.  A witness in p.cls lies in
    every class above it (`_UP`), which it then answers with no walk."""
    if verdict.separable:
        q = verdict.witness
        classes = known.checked.get(verdict)
        if classes is None:
            if q is None or not verify_witness(Problem(p.cls, known.dropped[0], p.ontology), q):
                raise WitnessError(f"witness {q} does not separate ({p.cls.value})")
            known.checked[verdict] = set(_UP[p.cls])
        elif p.cls not in classes:
            if not in_class(q, p.cls):
                raise WitnessError(f"witness {q} does not separate ({p.cls.value})")
            classes |= _UP[p.cls]
    return verdict


# ---------------------------------------------------------------------------
# Consistency preprocessing


def _drop_inconsistent(e: ExampleSet, onto) -> tuple[ExampleSet, list, Verdict | None, str | None]:
    """e without the positives that have no model under onto, and the
    `models` of their instances in order; or a verdict if a negative has none."""
    found = [models(onto, d) for d in e.instances]
    npos = len(e.positives)
    if () in found[npos:]:
        return e, found, Verdict(False, note="a negative example is inconsistent with the ontology"), None
    kept = [(d, words) for d, words in zip(e.positives, found) if words != ()]
    note = f"dropped {npos - len(kept)} inconsistent positive(s)" if len(kept) < npos else None
    e = ExampleSet(tuple(d for d, _ in kept), e.negatives)
    return e, [words for _, words in kept] + found[npos:], None, note


# ---------------------------------------------------------------------------
# Breadth-first search for the diamond path classes over lasso words


def dp_path(
    e: ExampleSet,
    models: list[LassoModel],
    cls: QueryClass,
    node_cap: int = 300_000,
    allow_empty_blocks: bool = False,
) -> Verdict:
    """Decide diamond-path separability over per-instance certain-truth words.

    A search node holds, per positive, the position its last block occupies
    and, per negative, the least position a matching assignment can occupy
    (None once no assignment survives).  Moves attach one more block: a
    diamond jump to fresh anchors plus a run of next-steps; each slot's
    conjunction is the intersection of the positive letters there, the
    strongest choice, which dominates every alternative.  The words are the
    instances' `models`: the data's own or the canonical-model lassos of a
    Horn ontology.

    Every word is periodic from position k on, so a node's successors depend
    on its positions only up to k: nodes store them clamped at k.  Each
    block is computed once per call; a node's moves are generated as it is
    expanded.

    A node is expanded by its non-dominated moves only.  A move's slots alone
    fix each negative's advance and whether the move accepts; its ends only
    bound the anchors of later moves, which lie beyond them.  So a move is
    dropped when an earlier one of the node's has the same slots and ends
    that are nowhere larger.  In particular each positive anchors a block of
    width c only at the first position past its end with that window of
    c + 1 letters: a later position gives the same slots, larger ends and a
    later anchor vector.  The earlier move's successor is stored first and can make
    every move the dropped one's could, with the same outcome, so a node
    reached only through dropped moves would store nothing new and accept
    nothing.  The search therefore stores the other nodes in the same order,
    from the same parents, and returns the same verdict and witness; only
    fewer nodes count against node_cap.
    """
    if cls not in PATH_CLASSES:
        raise ValueError(f"dp_path does not handle {cls}")
    npos = len(e.positives)
    nneg = len(models) - npos
    k = max((m.pre for m in models), default=1)
    top = k + math.prod(m.per for m in models)
    c_range = range(0, top + 1) if cls is not QueryClass.PATH_DIAMOND else range(0, 1)
    anchored = cls is QueryClass.PATH_NEXT_DIAMOND  # Eq-1 chains: blocks may not overlap
    block_limit = k + nneg + 2

    horizon = 2 * top + 2
    rows = [(m.prefix + m.loop * (horizon // m.per + 1))[: horizon + 1] for m in models]
    pos_letters, neg_letters = rows[:npos], rows[npos:]

    # chains: anchors -> [(slots, clamped ends, or None if the block is barred)]
    # by width c
    chains: dict = {}

    def extend(chain: list, anchors: tuple[int, ...], c: int) -> None:
        while len(chain) <= c:
            t = len(chain)
            rho = None
            for letters, a in zip(pos_letters, anchors):
                rho = letters[a + t] if rho is None else rho & letters[a + t]
            slots = (chain[-1][0] if chain else ()) + (rho or frozenset(),)
            # a diamond step may not land on an all-top block, and an all-top
            # run that does not move the block's end adds nothing over c=0
            all_top = not any(slots)
            barred = all_top and (not allow_empty_blocks or t > 0 and not anchored)
            shift = t if anchored else 0
            chain.append((slots, None if barred else tuple(min(a + shift, k) for a in anchors)))

    # prevs[c][i][a]: the last anchor before a, or 0, whose window of c + 1
    # letters of positive i equals a's; a comes first in (x, top] with its
    # window iff that one is at most x
    prevs: list = []

    def window_prevs(c: int) -> list:
        while len(prevs) <= c:
            width = len(prevs) + 1
            layer = []
            for row in pos_letters:
                seen: dict = {}
                prev = [0] * (top + 1)
                for a in range(1, top + 1):
                    window = row[a : a + width]
                    prev[a] = seen.get(window, 0)
                    seen[window] = a
                layer.append(prev)
            prevs.append(layer)
        return prevs[c]

    # the non-dominated (slots, clamped ends) moves open to a node at ends
    def moves(ends):
        for c in c_range:
            kept: dict = {}  # slots -> the ends of this width's moves kept with them
            firsts = [
                [a for a in range(x + 1, top + 1) if prev[a] <= x]
                for prev, x in zip(window_prevs(c), ends)
            ]
            for anchors in itertools.product(*firsts):
                chain = chains.setdefault(anchors, [])
                if len(chain) <= c:
                    extend(chain, anchors, c)
                slots, new_ends = chain[c]
                if new_ends is None:
                    continue
                others = kept.setdefault(slots, [])
                if any(all(map(le, old, new_ends)) for old in others):
                    continue
                others.append(new_ends)
                yield slots, new_ends

    def neg_advance(j: int, prev: int, slots) -> int | None:
        c = len(slots) - 1
        row = neg_letters[j]
        need = [(t, s) for t, s in enumerate(slots) if s]
        for b in range(prev + 1, top + 1):
            if all(s <= row[b + t] for t, s in need):
                return min(b + c if anchored else b, k)
        return None

    parents: dict = {}
    queue: deque = deque()

    def push(node, prev, slots, depth: int) -> None:
        parents[node] = (prev, slots)
        if len(parents) > node_cap:
            raise ResourceCap(f"dp_path exceeded {node_cap} nodes")
        queue.append((node, depth))

    def witness(node, slots) -> Query:
        blocks = [slots]
        while node is not None:
            node, slots = parents[node]
            blocks.append(slots)
        blocks.reverse()
        return _blocks_to_query(blocks, cls)

    zero = (0,) * npos
    matched = [True] * nneg  # whether each negative holds the block at 0 so far
    for c in c_range:
        chain = chains.setdefault(zero, [])
        extend(chain, zero, c)
        slots = chain[c][0]
        start = min(c, k) if anchored else 0
        # the block of width c is that of width c - 1 and one more slot
        matched = [held and slots[c] <= row[c] for held, row in zip(matched, neg_letters)]
        negs = tuple(start if held else None for held in matched)
        if all(x is None for x in negs) and slots[-1]:
            return Verdict(True, witness(None, slots))
        node = ((start,) * npos, negs)
        if node not in parents:
            push(node, None, slots, 0)
    while queue:
        node, depth = queue.popleft()
        if depth >= block_limit:
            continue
        ends, negs = node
        for slots, new_ends in moves(ends):
            new_negs = tuple(
                None if p is None else neg_advance(j, p, slots) for j, p in enumerate(negs)
            )
            if slots[-1] and all(x is None for x in new_negs):
                return Verdict(True, witness(node, slots))
            nxt = (new_ends, new_negs)
            if nxt not in parents:
                push(nxt, node, slots, depth + 1)
    return Verdict(False)


def _blocks_to_query(blocks, cls: QueryClass) -> Query:
    if cls is not QueryClass.PATH_NEXT_DIAMOND:
        return _path_query(blocks)

    # single spine: the next block's diamond hangs off the last slot
    tail = None
    for slots in reversed(blocks):
        q: Query = TOP
        for t in range(len(slots) - 1, -1, -1):
            base = atoms_conj(slots[t])
            if t == len(slots) - 1 and tail is not None:
                q = conj([base, tail])
            else:
                q = conj([base, Next(q)]) if q is not TOP else base
        tail = Diamond(q)
    return q


def horn_diamond_search(onto: HornOntology, e: ExampleSet, cls: QueryClass) -> Verdict:
    """`_path_search` under a Horn ontology, by a name the benchmark traces."""
    return _path_search(onto, e, [models(onto, d) for d in e.instances], cls)


# ---------------------------------------------------------------------------
# Until family via transition systems


def _reduced_system(word: LassoModel, sig: frozenset[str], black_red: bool) -> TransitionSystem:
    """The word's position or black/red system over `sig`: the stored system
    of its shape (`_instance_systems`) relabelled to `letter_table(sig)`.

    The atoms of `sig` that the word uses take the placeholder bits in the
    order of their position masks, ties by name; BOT's bit becomes BOT's
    and those of the atoms of `sig` the word never uses.  This gives the
    fresh build over `sig`: in both builders an unused atom's bit equals
    BOT's on every label, 0 on a position or point set and 1 exactly on
    the "no point" label.  So the map is injective, commutes with `&` and
    preserves `⊆` both ways; `bisim_quotient`, `prune_dominated_edges` and
    `_play` read labels only through `==`, `&` and `⊆` and order states and
    edges by index, so the result `==` the fresh build, witnesses included.
    Atoms with equal masks may be swapped without changing the system.
    """
    used = sorted((m, a) for a, m in word.word[0].items() if a in sig)
    ts = _instance_systems(black_red, word.pre, word.pre + word.per, *(m for m, _ in used))
    letters = letter_table(sig)
    full = (1 << len(letters)) - 1
    bits = [1 << letters.index(a) for _, a in used]
    bits.append(full - sum(bits))  # BOT and the unused atoms
    image = _images(tuple(bits))
    edges = tuple((src, dst, image[x], red) for src, dst, x, red in ts.edges)
    return TransitionSystem(letters, ts.initial, tuple(map(image.__getitem__, ts.labels)), edges, ts.colored)


class _Images(dict):
    """Stored label mask -> its image under the placeholder bits' targets
    `bits`, each computed when a relabelled system first meets the mask."""

    __slots__ = ("bits",)

    def __missing__(self, x: int) -> int:
        image = self[x] = sum(b for i, b in enumerate(self.bits) if x >> i & 1)
        return image


@lru_cache(maxsize=256)
def _images(bits: tuple[int, ...]) -> _Images:
    """The label images of one bit assignment of `_reduced_system`, shared by
    every stored system relabelled with it; only the masks met are held, not
    a table over all of them."""
    images = _Images()
    images.bits = bits
    return images


@lru_cache(maxsize=4096)
def _instance_systems(black_red: bool, pre: int, length: int, *masks: int) -> TransitionSystem:
    """`prune_dominated_edges(bisim_quotient(build))` of the word's shape: the
    word of `length` letters whose loop starts at `pre` and whose atoms hold
    at the positions `masks`, in that order, whatever their names.

    The key is the form, the loop start, the length and the used atoms'
    position masks sorted by value, in one flat tuple: a word and its
    renamings, under any signature, share one entry.  It holds no
    `LassoModel` and no atom name, so the store keeps no word alive: a store
    keyed on the word raised the `until-plain` bench's peak RSS by 9 %.  A
    miss builds over placeholder atoms numbered in mask order, zero-padded
    so that their sorted order is that order; `_reduced_system` relabels.
    """
    names = [str(i).zfill(len(str(len(masks)))) for i in range(len(masks))]
    spelled = [frozenset(a for a, m in zip(names, masks) if m >> p & 1) for p in range(length)]
    word, sig = LassoModel(tuple(spelled[:pre]), tuple(spelled[pre:])), frozenset(names)
    ts = repr_plain_br(word, sig) if black_red else repr_plain(word, sig)
    return prune_dominated_edges(bisim_quotient(ts))


def _until_systems(record: _Record, black_red: bool):
    """The positives' factors and the negatives' systems of a set, over the
    atoms of its `models` words, kept in its record's `systems` by
    black_red.

    The words are the record's (`dropped`), so `models` runs once per set.
    Each instance's reduced system is `_reduced_system`'s: the entry of the
    word's shape in `_instance_systems`, relabelled to the set's letter
    table.  Every ontology and data that give the same lasso word up to
    atom renaming share one entry, across example sets and signatures, and
    only a miss builds.  The signature holds every atom of the words, so the
    word a miss spells has an empty loop exactly when the word has, and the
    black/red builder picks the same tail form from either.

    The factors stand for the positives' product: [F1] for one positive,
    else [fold, Fn], where the fold starts as F1 and becomes
    `bisim_quotient(product([fold, Fi]))` for i = 2..n-1.  Bisimulation is a
    congruence for the product, and the parallel edges a quotient drops are
    subsumed, so every simulation and containment verdict against the
    negatives is the full product's (see `tsys`), while no built product is
    larger than that of two quotients.  Path-until searches the last product
    on the fly (`failing_run`); the other classes play on its quotient.

    Every until class plays path-until's and simple-until's games on the
    position systems first (`decide_until_family`); full-until builds the
    black/red ones only when neither separates.  The systems are immutable,
    so the callers share them.
    """
    systems = record.systems.get(black_red)
    if systems is None:
        e, found, _, _ = record.dropped
        words = [word for (word,) in found]
        sig = frozenset().union(*(word.word[0] for word in words))  # the atoms with a position mask
        built = [_reduced_system(word, sig, black_red) for word in words]
        pos, npos = built[: len(e.positives)], len(e.positives)
        fold = pos[0]
        for ts in pos[1:-1]:
            fold = bisim_quotient(product([fold, ts]))
        factors = (fold, pos[-1]) if npos > 1 else (fold,)
        systems = record.systems[black_red] = factors, tuple(built[npos:])
    return systems


def decide_until_family(e: ExampleSet, cls: QueryClass, known: _Record) -> Verdict:
    """Decide cls along the chain path-until ⊆ simple-until ⊆ full-until: the
    classes up to cls play their own games in turn, so the witness comes from
    the least class of the chain that separates, and lies in every larger one.
    e is the set as its record `known` keeps it (`dropped`).  Each game's
    not-separable verdict joins the set's known verdicts, so each is played
    once; a separating witness is kept by `decide` once it checks."""
    if cls not in UNTIL_CLASSES:
        raise ValueError(f"decide_until_family does not handle {cls}")
    if not e.positives:
        raise ValueError("need at least one positive example")
    if not e.negatives:
        return Verdict(True, TOP)
    for least in UNTIL_CLASSES[: UNTIL_CLASSES.index(cls) + 1]:
        verdict = _known_verdict(known, least)
        if verdict is None:
            factors, neg = _until_systems(known, least is QueryClass.FULL_UNTIL)
            if least is QueryClass.PATH_UNTIL:
                # each run needs a match in some negative, not all in one
                tree = failing_run(factors, neg)
            else:
                # the quotient's state order fixes the game's ranks, and so the witness
                tree = failing_subtree_of_union(bisim_quotient(product(factors)), neg)
            verdict = Verdict(False) if tree is None else Verdict(True, query_from_tree(tree))
            if not verdict.separable:
                known[least] = verdict
        if verdict.separable:
            break  # kept by decide once its witness checks
    return verdict


def _edge_conj(label: frozenset[str]) -> Query:
    if BOT in label:
        return BOT_QUERY
    return atoms_conj(label)


def query_from_tree(tree: Tree) -> Query:
    """The until query spelled by a black/red tree (black: right side, red: left)."""
    if any(color == RED for _, color, _ in tree.children):
        raise ValueError("red edge out of a tree root")
    gamma = atoms_conj(tree.label - {BOT})
    blacks = [_edge_query(lab, child) for lab, color, child in tree.children]
    return conj([gamma] + blacks)


def _edge_query(label: frozenset[str], child: Tree) -> Query:
    gamma = atoms_conj(child.label - {BOT})
    blacks = [_edge_query(lab, c) for lab, color, c in child.children if color == BLACK]
    reds = [_edge_query(lab, c) for lab, color, c in child.children if color == RED]
    left = conj([_edge_conj(label)] + reds)
    right = conj([gamma] + blacks)
    return Until(left, right)


# ---------------------------------------------------------------------------
# Diamond classes under box/diamond ontologies


def prior_path_search(
    onto: PriorOntology,
    e: ExampleSet,
    node_cap: int = 100_000,
    allow_empty_blocks: bool = False,
) -> Verdict:
    """Bounded exhaustive search for a separating path-diamond query.

    A prefix that is not certain-true on some positive cannot be repaired by
    extending it (extensions are stronger), so the search prunes there.  For
    the same reason a negative that does not entail a prefix entails none of
    its extensions: each prefix carries the negatives that still entail it.
    A prefix is a tuple of per-block parts, made once per search, and its
    query is assembled from them (`_prefix_query`); the ontology's hash and
    constants are computed once, on the ontology itself.
    """
    if not e.negatives:
        return Verdict(True, TOP)
    sig = sorted(e.signature | onto.atoms)
    depth = max(d.max_timestamp for d in e.negatives) + max(onto.size_measure, 1) + 1
    blocks = _block_parts(sig)
    # a diamond step may not land on an all-top block
    tails = blocks if allow_empty_blocks else [b for b in blocks if b[0]]

    explored = 0
    queue: deque = deque(((b0,), e.negatives) for b0 in blocks)
    while queue:
        prefix, negatives = queue.popleft()
        explored += 1
        if explored > node_cap:
            raise ResourceCap("prior path search exceeded its node cap")
        q = _prefix_query(prefix)
        if any(not prior_entails(onto, d, q) for d in e.positives):
            continue
        negatives = tuple(d for d in negatives if prior_entails(onto, d, q))
        if not negatives:
            return Verdict(True, q)
        if len(prefix) <= depth:
            queue.extend((prefix + (b,), negatives) for b in tails)
    return Verdict(False)


def _block_parts(sig: list[str]) -> list[tuple[tuple[Prop, ...], Query]]:
    """Each block candidate over the sorted sig as its atoms and as their
    conjunction, by size and then in lexicographic order."""
    props = [Prop(a) for a in sig]
    return [(c, conj(c)) for n in range(len(props) + 1) for c in itertools.combinations(props, n)]


def _prefix_query(prefix) -> Query:
    """The path-diamond query of a prefix of `_block_parts` entries, built from
    the innermost block outward.  It is `_blocks_to_query` of the same blocks:
    all-top trailing blocks vanish and nothing needs `conj`'s flattening."""
    q: Query = TOP
    for props, base in reversed(prefix):
        if q is TOP:
            q = base
        elif props:
            q = And((*props, Diamond(q)))
        else:
            q = Diamond(q)
    return q


# ---------------------------------------------------------------------------
# The facade

class _Record(dict):
    """A set's known verdicts, class -> not-separable verdict; the separable
    verdicts whose witness passed `_checked` (`checked`, in checked order),
    each with the classes it answers; `_drop_inconsistent`'s result for the
    set (`dropped`), its until systems (`systems`, by black_red, from
    `_until_systems`), its `_common_block` (`block`, ... until built) and,
    when it dropped a positive, each answer's noted copy (`noted`).  A later
    class a kept witness answers costs at most one `in_class` walk, none
    above a class it answers (`_UP`).  `_record` keeps the last 4."""

    __slots__ = ("dropped", "systems", "checked", "noted", "block")


@lru_cache(maxsize=4)
def _record(e: ExampleSet, onto) -> _Record:
    """e's record, by the set as given and its ontology.  A new one drops e's
    inconsistent positives once, and holds every class not separable when a
    negative's lower word holds a kept positive's facts (`_holds_a_positive`)
    or no atom is anchored in the positives (`_share_no_atom`); its common
    block waits for the first class with X that asks."""
    record = _Record()
    record.dropped = kept, found, early, _ = _drop_inconsistent(e, onto)
    record.systems, record.checked, record.noted, record.block = {}, {}, {}, ...
    npos = len(kept.positives)
    if early is None and npos and kept.negatives:
        if _holds_a_positive(kept, found) or _share_no_atom(found[:npos]):
            record.update(dict.fromkeys(QueryClass, Verdict(False)))
    return record


def _known_verdict(known: _Record, cls: QueryClass) -> Verdict | None:
    """cls's own not-separable verdict for the set, else the first checked
    witness that lies in cls, which is then kept as checked in cls."""
    if cls in known:
        return known[cls]
    for verdict, classes in known.checked.items():
        if cls in classes or in_class(verdict.witness, cls):
            classes |= _UP[cls]
            return verdict
    return None


def decide(p: Problem) -> Verdict:
    """p's verdict, its witness checked for p.cls.  The set's record
    (`_record`) drops its inconsistent positives and settles every class as
    not separable when a negative holds a positive or no atom is anchored in
    the positives, once per set, with no word search; then, after the early
    answers and the `UnsupportedProblem` check, known verdicts of the set
    answer first (`_known_verdict`), then, for a class with X, the
    positives' common block (`_common_block`), else p.cls's own route, and
    `_checked` checks the witness.  A not-separable verdict joins the
    record, a witness once it checks.  When a path class's search finds no
    separator and a negative's word simulates the positives' product
    (`_simulates_product`), no diamond class separates: all five join as
    not separable, and a witness kept for one of them is a `LatticeError`."""
    known = _record(p.examples, p.ontology)
    e, found, early, note = known.dropped
    if early is not None:
        return early
    if not e.positives or not e.negatives:
        # every query is certain-true on zero positives; false never is on
        # a consistent negative
        verdict = _checked(p, Verdict(True, TOP if e.positives else BOT_QUERY), known)
    elif None in found and p.cls not in _NO_X:
        raise UnsupportedProblem(f"{p.cls.value} needs box/diamond data that is its own model")
    else:
        verdict = _known_verdict(known, p.cls)
    if verdict is None:
        if p.cls not in _NO_X and (block := _common_block(known)):
            verdict = block
        elif p.cls in PATH_CLASSES:
            verdict = _path_search(p.ontology, e, found, p.cls)
            if not verdict.separable and None not in found and _simulates_product(found, len(e.positives)):
                if any(not classes.isdisjoint(DIAMOND_CLASSES) for classes in known.checked.values()):
                    raise LatticeError("a kept diamond witness separates, yet a negative simulates the product")
                known.update(dict.fromkeys(DIAMOND_CLASSES, verdict))
        elif p.cls in BRANCH_CLASSES:
            verdict = _decide_branch(p.ontology, e, found, p.cls)
        else:
            verdict = decide_until_family(e, p.cls, known)
        if not verdict.separable:
            known[p.cls] = verdict
        verdict = _checked(p, verdict, known)
    if note:
        verdict = known.noted.setdefault(verdict, Verdict(verdict.separable, verdict.witness, note))
    return verdict


def _holds_a_positive(e: ExampleSet, found: list) -> bool:
    """Whether some negative n holds one positive d of e, so that every query
    certain on d is certain on n and no class separates: each fact (a, t)
    of d holds in n's lower word w at `w.fold(t)`.  That word is n's
    `models` word (the Horn canonical lasso, the box/diamond least word or,
    with no ontology, n's own facts), else n's own facts (`data_word`).
    Every model of (O, n) lies above it, so when it holds d's facts, every
    model of (O, n) is one of (O, d): Mod(O, n) ⊆ Mod(O, d).  `found` is
    `models` of e's positives, then its negatives."""
    for n, words in zip(e.negatives, found[len(e.positives):]):
        w = words[0] if words else data_word(n)
        masks = w.word[0]
        if any(all(masks.get(a, 0) >> w.fold(t) & 1 for a, t in d.facts) for d in e.positives):
            return True
    return False


def _common_block(known: _Record) -> Verdict | None:
    """The X-chain ρ0 ∧ X(ρ1 ∧ X(…)) of the positives' common block, its slot
    t the letter at t that all positives' `models` words share, up to
    `dp_path`'s bound, cut to the shortest prefix that every negative's word
    fails; as a separable verdict, else None, built once per set (`block`).
    It holds at 0 on every positive and on no negative; its last slot, where
    the last negative first fails, is non-empty.  It lies in every class with
    X, and on the diamond classes it is `dp_path`'s witness at anchors 0."""
    if known.block is ...:
        npos, words = len(known.dropped[0].positives), [word for (word,) in known.dropped[1]]
        negs, block = words[npos:], []
        for t in range(max(w.pre for w in words) + math.prod(w.per for w in words) + 1):
            block.append(frozenset.intersection(*(w.letter(t) for w in words[:npos])))
            negs = [w for w in negs if block[t] <= w.letter(t)]
            if not negs:
                break
        known.block = None if negs else Verdict(True, _block_query(tuple(block)))
    return known.block


def _share_no_atom(pos: list) -> bool:
    """Whether every positive has one `models` word (`pos`) and no atom is
    anchored: at position 0 in every word, or after 0 (≥ 1, or in the loop,
    which may start at 0) in every word.  Let a query require req a = {a},
    req ⊥ = {⊥}, req(φ∧ψ) = req φ ∪ req ψ, req Xφ = req Fφ = req φ and
    req(φ U ψ) = req ψ; one that requires nothing holds everywhere (for
    φ U ψ at t, take t′ = t+1).  By induction over ∧ and the strict X, F
    and U: if φ holds at a tuple t of positions, one per word, each atom it
    requires holds at t if it is a conjunct of φ, else at a tuple later in
    every word.  So from (0,…,0) each is anchored, and with none a query
    true on every positive requires nothing and holds on every negative.
    The atoms are the words' own, which a Horn ontology may add to."""
    if None in pos:
        return False
    words = [word.word for (word,) in pos]
    for a in words[0][0]:
        held = [(masks.get(a, 0), every & ~1 | loop) for masks, every, loop in words]
        if all(m & 1 for m, _ in held) or all(m & later for m, later in held):
            return False
    return True


def _simulates_product(found: list, npos: int) -> bool:
    """Whether some negative's word simulates, from 0 and under X and F, the
    product of the positives' words.  A query of atoms, ∧, X and F that holds
    on every positive holds on their product, and simulation carries it to
    that negative (Hennessy & Milner 1985), so no diamond class separates;
    until queries are not preserved.  `found` is `models` of the positives,
    then the negatives, one word each.

    A product state is a tuple of folded positions, numbered in
    `itertools.product` order; its X-successor is the componentwise one and
    its F-successors form the orthant ∏ [min(t+1, pre), pre+per).  For each
    negative, each state keeps the mask of the negative's positions that may
    simulate it, refined by the X-successor's `_pred` and by the orthant's
    `eventually` masks until nothing changes.  Those masks are each 2^m − 1,
    so their AND is their minimum, which one backward pass takes over every
    orthant at once."""
    axes = []  # per positive: its letters, X-successors, orthant starts and (stride, size)
    stride = 1
    for (w,) in reversed(found[:npos]):
        n = w.pre + w.per
        axes.append(([w.letter(t) for t in range(n)], [w.fold(t + 1) * stride for t in range(n)],
                     [min(t + 1, w.pre) * stride for t in range(n)], (stride, n)))
        stride *= n
    letters, succs, starts, dims = zip(*reversed(axes))
    labels = [frozenset.intersection(*ls) for ls in itertools.product(*letters)]
    xs = list(map(sum, itertools.product(*succs)))
    los = list(map(sum, itertools.product(*starts)))
    # per axis, backwards: the states that are not last along it, and its stride
    inner = [([s for s in reversed(range(stride)) if s // st % n < n - 1], st) for st, n in dims]
    for (word,) in found[npos:]:
        masks, every, loop = word.word
        sim = []
        for label in labels:
            m = every
            for a in label:
                m &= masks.get(a, 0)
            sim.append(m)
        while sim[0] & 1:
            least = [eventually(m, every, loop) for m in sim]
            for states, st in inner:
                for s in states:
                    if least[s + st] < least[s]:
                        least[s] = least[s + st]
            new = [m & _pred(sim[x], every, loop) & least[lo] for m, x, lo in zip(sim, xs, los)]
            if new == sim:
                return True
            sim = new
    return False


def _path_search(onto, e: ExampleSet, found: list, cls: QueryClass, allow_empty_blocks: bool = False) -> Verdict:
    """dp_path over the `models` words of e's instances (`found`), if each has one."""
    if None in found:
        return prior_path_search(onto, e, allow_empty_blocks=allow_empty_blocks)
    return dp_path(e, [word for (word,) in found], cls, allow_empty_blocks=allow_empty_blocks)


def _decide_branch(onto, e: ExampleSet, found: list, cls: QueryClass) -> Verdict:
    parts = []
    npos = len(e.positives)
    for sub, neg in zip(transform.split_per_negative(e), found[npos:]):
        # the branching classes place no restriction on all-top blocks
        v = _path_search(onto, sub, found[:npos] + [neg], _BRANCH_TO_PATH[cls], allow_empty_blocks=True)
        if not v.separable:
            return Verdict(False)
        parts.append(v.witness)
    return Verdict(True, conj(parts) if parts else TOP)


def minimize_witness(p: Problem, q: Query) -> Query:
    """Greedily drop conjuncts and temporal steps while the witness verifies."""
    changed = True
    while changed:
        changed = False
        for candidate in _reductions(q):
            if verify_witness(p, candidate):
                q = candidate
                changed = True
                break
    return q


def _reductions(q: Query):
    if isinstance(q, And):
        for i in range(len(q.parts)):
            yield conj(q.parts[:i] + q.parts[i + 1 :])
        for i, part in enumerate(q.parts):
            for sub in _reductions(part):
                yield conj(q.parts[:i] + (sub,) + q.parts[i + 1 :])
    elif isinstance(q, (Next, Diamond)):
        yield q.arg
        for sub in _reductions(q.arg):
            yield type(q)(sub)
    elif isinstance(q, Until):
        yield q.right
        yield Diamond(q.right)
        for sub in _reductions(q.right):
            yield Until(q.left, sub)
        for sub in _reductions(q.left):
            yield Until(sub, q.right)
    elif isinstance(q, Prop):
        yield TOP
