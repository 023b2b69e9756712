"""Brute-force ground truth, slow and right.

Candidate queries are explored through their truth vectors: one position set
per instance word, computed with independent per-word until/next steps.  Two
queries with the same vector separate the same sets, so each class closure
runs to a fixpoint over distinct vectors, which makes the verdict exact
wherever the instances have their words (`qbe.models`: the data's own or
the canonical-model lassos).  Box/diamond data that is no model itself has
none; there the oracle enumerates diamond paths and asks the entailment
checker directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Bot,
    Diamond,
    ExampleSet,
    LassoModel,
    Next,
    Query,
    QueryClass,
    TOP,
    Until,
    atoms_conj,
    conj,
    temporal_depth,
)
from .prior import prior_consistent, prior_entails
from .qbe import Problem, Verdict, entailed, models

BOT_QUERY = Bot()


class OracleCap(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Instance words and truth vectors


@dataclass(frozen=True)
class _Word:
    """Finite folding of an instance word: letters plus a successor map.

    The successor is i+1 everywhere except at the last position, which maps
    to itself (data words) or back to the loop start (lassos); pull() moves
    a position bitmask one step backwards through it in O(1).
    """

    letters: tuple[frozenset[str], ...]
    succ: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.letters)

    def pull(self, m: int) -> int:
        last = len(self.letters) - 1
        return (m >> 1) | (((m >> self.succ[last]) & 1) << last)


def _lasso_word(m: LassoModel) -> _Word:
    n = m.pre + m.per
    letters = tuple(m.letter(i) for i in range(n))
    succ = tuple(i + 1 if i + 1 < n else m.pre for i in range(n))
    return _Word(letters, succ)


def _atom_vec(words, atom: str):
    # position sets are bitmasks, one int per word
    return tuple(
        sum(1 << i for i in range(w.size) if atom in w.letters[i]) for w in words
    )


def _top_vec(words):
    return tuple((1 << w.size) - 1 for w in words)


def _bot_vec(words):
    return tuple(0 for _ in words)


def _vec_and(a, b):
    return tuple(x & y for x, y in zip(a, b))


def _next_step(words, v):
    return tuple(w.pull(v[k]) for k, w in enumerate(words))


def _until_step(words, left, right):
    """Least fixpoint of T(p) = r(succ p) or (l(succ p) and T(succ p))."""
    out = []
    for k, w in enumerate(words):
        pr = w.pull(right[k])
        pl = w.pull(left[k])
        t = pr
        while True:
            nt = pr | (pl & w.pull(t))
            if nt == t:
                break
            t = nt
        out.append(t)
    return tuple(out)


def _diamond_step(words, v):
    return _until_step(words, _top_vec(words), v)


def _conj_vectors(words, sig):
    """Vectors of all atom conjunctions, with one representative query each.

    TOP represents the all-true vector only when no atom conjunction has it:
    a diamond step of the restricted path classes may land on such a
    conjunction but not on TOP.
    """
    out = {}
    for names in _all_subsets(sorted(sig)):
        if not names:
            continue
        v = _atom_vec(words, names[0])
        for a in names[1:]:
            v = _vec_and(v, _atom_vec(words, a))
        if v not in out:
            out[v] = atoms_conj(names)
    out.setdefault(_top_vec(words), TOP)
    return out


def _all_subsets(items):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _close(seed: dict, step, cap: int, stop=None) -> dict:
    """Fixpoint closure of key->query under a candidate-producing step.

    With `stop`, the closure returns as soon as a new entry satisfies it
    (used to exit early once a separating vector has appeared).
    """
    table = dict(seed)
    if stop is not None:
        for key, query in seed.items():
            if stop(key):
                return table
    frontier = list(seed.items())
    while frontier:
        new: dict = {}
        for key, query in step(table, frontier):
            if key not in table and key not in new:
                new[key] = query
                if stop is not None and stop(key):
                    table.update(new)
                    return table
        if len(table) + len(new) > cap:
            raise OracleCap(f"oracle table exceeded {cap} entries")
        frontier = list(new.items())
        table.update(new)
    return table


# ---------------------------------------------------------------------------
# Class closures.  Keys for path shapes are (vector, leading_block_has_atom);
# a diamond may only be prepended when the flag is set (unless unrestricted).


def _xf_chain_states(words, conjs, cap, diamond_ok, next_ok, restricted):
    seed = {}
    for cvec, cq in conjs.items():
        seed.setdefault((cvec, cq is not TOP), cq)

    def step(table, frontier):
        for (tvec, flag), tq in frontier:
            if next_ok:
                nxt = _next_step(words, tvec)
                for cvec, cq in conjs.items():
                    yield (_vec_and(cvec, nxt), flag or cq is not TOP), conj([cq, Next(tq)])
            if diamond_ok and (flag or not restricted):
                dia = _diamond_step(words, tvec)
                for cvec, cq in conjs.items():
                    yield (_vec_and(cvec, dia), cq is not TOP), conj([cq, Diamond(tq)])

    return _close(seed, step, cap)


def _circ_states(words, conjs, cap, restricted):
    """Eq-4 levels: X-chain blocks joined by diamonds."""
    blocks = _xf_chain_states(words, conjs, cap, diamond_ok=False, next_ok=True, restricted=True)
    seed = dict(blocks)

    def step(table, frontier):
        for (tvec, flag), tq in frontier:
            if flag or not restricted:
                dia = _diamond_step(words, tvec)
                for (bvec, bflag), bq in blocks.items():
                    yield (_vec_and(bvec, dia), bflag), conj([bq, Diamond(tq)])

    return _close(seed, step, cap)


def _until_path_states(words, conjs, cap):
    """Until-path tails rho & (lambda U tail), lambda a conjunction or false."""
    lefts = dict(conjs)
    lefts[_bot_vec(words)] = BOT_QUERY
    seed = {}
    for cvec, cq in conjs.items():
        seed.setdefault((cvec, True), cq)

    def step(table, frontier):
        for (tvec, _), tq in frontier:
            for lvec, lq in lefts.items():
                stepped = _until_step(words, lvec, tvec)
                for cvec, cq in conjs.items():
                    yield (_vec_and(cvec, stepped), True), conj([cq, Until(lq, tq)])

    return _close(seed, step, cap)


def _simple_until_closure(words, conjs, cap, stop=None):
    lefts = dict(conjs)
    lefts[_bot_vec(words)] = BOT_QUERY
    seed = dict(conjs)

    def step(table, frontier):
        snapshot = list(table.items())
        for rvec, rq in frontier:
            for lvec, lq in lefts.items():
                yield _until_step(words, lvec, rvec), Until(lq, rq)
            for ovec, oq in snapshot:
                yield _vec_and(rvec, ovec), conj([rq, oq])

    return _close(seed, step, cap, stop)


def _full_until_closure(words, conjs, cap, stop=None):
    seed = dict(conjs)
    botv = _bot_vec(words)

    def step(table, frontier):
        snapshot = list(table.items()) + [(botv, BOT_QUERY)]
        for rvec, rq in frontier:
            for ovec, oq in snapshot:
                yield _until_step(words, ovec, rvec), Until(oq, rq)
                yield _until_step(words, rvec, ovec), Until(rq, oq)
                yield _vec_and(rvec, ovec), conj([rq, oq])

    return _close(seed, step, cap, stop)


def _state_table(states) -> dict:
    """Vector table over chain states; the anchored head needs no flag."""
    table: dict = {}
    for (vec, _flag), q in states.items():
        table.setdefault(vec, q)
    return table


def _decide_on_words(words, npos: int, cls: QueryClass, cap: int) -> Query | None:
    sig = frozenset().union(*(set().union(*w.letters) for w in words)) if words else frozenset()
    conjs = _conj_vectors(words, sig)

    def find(table) -> Query | None:
        hits = [(q, vec) for vec, q in table.items() if _separates(vec, npos)]
        if not hits:
            return None
        return min(hits, key=lambda x: (temporal_depth(x[0]), len(str(x[0]))))[0]

    if cls is QueryClass.PATH_DIAMOND:
        states = _xf_chain_states(words, conjs, cap, True, False, restricted=True)
        return find(_state_table(states))
    if cls is QueryClass.PATH_NEXT_DIAMOND:
        states = _xf_chain_states(words, conjs, cap, True, True, restricted=True)
        return find(_state_table(states))
    if cls is QueryClass.PATH_DIAMOND_CIRC_BLOCKS:
        states = _circ_states(words, conjs, cap, restricted=True)
        return find(_state_table(states))
    if cls in (QueryClass.BRANCH_DIAMOND, QueryClass.BRANCH_NEXT_DIAMOND):
        if cls is QueryClass.BRANCH_DIAMOND:
            states = _xf_chain_states(words, conjs, cap, True, False, restricted=False)
        else:
            states = _circ_states(words, conjs, cap, restricted=False)
        paths = _state_table(states)
        chosen = []
        for j in range(npos, len(words)):
            pick = None
            for vec, q in sorted(
                paths.items(), key=lambda kv: (temporal_depth(kv[1]), len(str(kv[1])))
            ):
                if all(m & 1 for m in vec[:npos]) and not vec[j] & 1:
                    pick = q
                    break
            if pick is None:
                return None
            chosen.append(pick)
        return conj(chosen) if chosen else TOP
    if cls is QueryClass.PATH_UNTIL:
        return find(_state_table(_until_path_states(words, conjs, cap)))
    stop = lambda vec: _separates(vec, npos)
    if cls is QueryClass.SIMPLE_UNTIL:
        return find(_simple_until_closure(words, conjs, cap, stop))
    if cls is QueryClass.FULL_UNTIL:
        return find(_full_until_closure(words, conjs, cap, stop))
    raise ValueError(f"unknown class {cls}")


def _separates(v, npos) -> bool:
    return all(m & 1 for m in v[:npos]) and not any(m & 1 for m in v[npos:])


# ---------------------------------------------------------------------------
# Decisions


def brute_force_decide(p: Problem, cap: int = 200_000) -> Verdict:
    """Exhaustive verdict via truth-vector closure over the `qbe.models`
    words, or diamond-path enumeration without them, re-verified directly."""
    e = p.examples
    found = {d: models(p.ontology, d) for d in e.instances}
    if None in found.values():
        return _brute_force_prior(p, cap)
    if not all(found[d] for d in e.negatives):
        return Verdict(False, note="inconsistent negative")
    e = ExampleSet(tuple(d for d in e.positives if found[d]), e.negatives)
    if not e.positives:
        return Verdict(True, BOT_QUERY)
    if not e.negatives:
        return Verdict(True, TOP)
    words = [_lasso_word(word) for d in e.instances for word in found[d]]
    q = _decide_on_words(words, len(e.positives), p.cls, cap)
    if q is None:
        return Verdict(False)
    if not all(entailed(p.ontology, d, q) for d in e.positives) or any(
        entailed(p.ontology, d, q) for d in e.negatives
    ):
        raise AssertionError(f"oracle witness {q} failed direct re-verification")
    return Verdict(True, q)


def _brute_force_prior(p: Problem, cap: int, allow_empty_blocks: bool = False) -> Verdict:
    e = p.examples
    onto = p.ontology
    if any(not prior_consistent(onto, d) for d in e.negatives):
        return Verdict(False, note="inconsistent negative")
    kept = tuple(d for d in e.positives if prior_consistent(onto, d))
    if not kept:
        return Verdict(True, BOT_QUERY)
    if not e.negatives:
        return Verdict(True, TOP)
    e = ExampleSet(kept, e.negatives)
    if p.cls is QueryClass.BRANCH_DIAMOND:
        parts = []
        for neg in e.negatives:
            sub = Problem(QueryClass.PATH_DIAMOND, ExampleSet(e.positives, (neg,)), onto)
            v = _brute_force_prior(sub, cap, allow_empty_blocks=True)
            if not v.separable:
                return Verdict(False)
            parts.append(v.witness)
        return Verdict(True, conj(parts))
    if p.cls is not QueryClass.PATH_DIAMOND:
        raise ValueError(f"{p.cls} is unsupported under box/diamond ontologies")
    sig = sorted(e.signature | onto.atoms)
    depth = max(d.max_timestamp for d in e.negatives) + max(onto.size_measure, 1) + 1
    count = 0
    frontier = [(rho,) for rho in _all_subsets(sig)]
    while frontier:
        prefix = frontier.pop(0)
        count += 1
        if count > cap:
            raise OracleCap("prior oracle exceeded its candidate cap")
        q = _prior_path_query(prefix)
        if any(not prior_entails(onto, d, q) for d in e.positives):
            continue
        if all(not prior_entails(onto, d, q) for d in e.negatives):
            return Verdict(True, q)
        if len(prefix) <= depth:
            # a diamond step of the path class may not land on an all-top block
            frontier.extend(
                prefix + (rho,) for rho in _all_subsets(sig) if rho or allow_empty_blocks
            )
    return Verdict(False)


def _prior_path_query(prefix) -> Query:
    q: Query = TOP
    for rho in reversed(prefix[1:]):
        inner = atoms_conj(rho)
        q = conj([inner, Diamond(q)]) if q is not TOP else inner
    head = atoms_conj(prefix[0])
    return head if q is TOP else conj([head, Diamond(q)])
