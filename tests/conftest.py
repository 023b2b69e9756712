"""Shared generators and independent reference checkers for the test suite."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import random
import sys
from itertools import combinations
from pathlib import Path
from typing import Hashable, NamedTuple

import pytest

import ltlqbe
from ltlqbe import horn, prior, qbe
from ltlqbe.core import (
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
    Top,
    Until,
    conj,
)
from ltlqbe.tsys import BLACK, BOT, RED, TransitionSystem

ATOMS = ("A", "B", "C")

# the empty ontologies, under which every route answers as on plain data
EMPTY_ONTOLOGY = horn.HornOntology(())
EMPTY_PRIOR = prior.PriorOntology(())


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_workloads() -> dict:
    """The benchmark's workloads, from perfbench/workloads.py loaded by file
    path; the tests only read them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def bench_problems(name: str, seed: int, count: int):
    """The workload's first `count` sets of the seed, one after another, each
    as one `qbe.Problem` per class in the workload's order, built as the
    benchmark builds them."""
    workload = bench_workloads()[name]
    parse = {"horn": horn.load_ontology, "prior": prior.load_prior_ontology}.get(workload.kind)
    classes = [QueryClass(c) for c in workload.classes]
    for i in range(count):
        raw = workload.raw_set(seed, i)
        e = ExampleSet.of([DataInstance.of(d) for d in raw.positives], [DataInstance.of(d) for d in raw.negatives])
        onto = parse(raw.ontology) if parse else None
        yield [qbe.Problem(cls, e, onto) for cls in classes]


def atoms_at(d: DataInstance, t: int) -> frozenset[str]:
    """The atoms of d's facts at timestamp t."""
    return frozenset(name for name, u in d.facts if u == t)


def rand_instance(rng: random.Random, atoms=ATOMS, max_ts=5, max_facts=6) -> DataInstance:
    n = rng.randrange(0, max_facts + 1)
    return DataInstance.of({(rng.choice(atoms), rng.randrange(0, max_ts + 1)) for _ in range(n)})


def rand_example_set(rng: random.Random, atoms=ATOMS, max_ts=5, max_pos=3, max_neg=3) -> ExampleSet:
    pos = [rand_instance(rng, atoms, max_ts) for _ in range(rng.randrange(1, max_pos + 1))]
    neg = [rand_instance(rng, atoms, max_ts) for _ in range(rng.randrange(0, max_neg + 1))]
    return ExampleSet.of(pos, neg)


def rand_horn_ontology(rng: random.Random, atoms=ATOMS, max_axioms=4) -> horn.HornOntology:
    lines = []
    for _ in range(rng.randrange(1, max_axioms + 1)):

        def lit(in_body: bool) -> str:
            prefix = "".join(rng.choice(["X ", "G "]) for _ in range(rng.randrange(0, 3)))
            lead = "F " if in_body and rng.random() < 0.15 else ""
            pool = list(atoms) + (["false"] if not in_body and rng.random() < 0.08 else [])
            return f"{lead}{prefix}{rng.choice(pool)}"

        body = " & ".join(lit(True) for _ in range(rng.randrange(1, 3)))
        lines.append(f"{body} -> {lit(False)}")
    return horn.load_ontology("\n".join(lines))


def rand_query(rng: random.Random, atoms=ATOMS, depth=3) -> Query:
    def go(d: int) -> Query:
        choices = ["atom", "top"]
        if d > 0:
            choices += ["next", "dia", "until", "and"]
        kind = rng.choice(choices)
        if kind == "atom":
            return Prop(rng.choice(atoms))
        if kind == "top":
            return Top()
        if kind == "next":
            return Next(go(d - 1))
        if kind == "dia":
            return Diamond(go(d - 1))
        if kind == "until":
            return Until(go(d - 1), go(d - 1))
        return conj([go(d - 1), go(d - 1)])

    return go(depth)


# ---------------------------------------------------------------------------
# Independent reference checkers

# The strict-LTL evaluators as memo walks over timepoints, verbatim but for
# their names: the engine's bitmask evaluator (`core.positions`) is checked
# against them.


def ref_eval_data(d: DataInstance, q: Query, at: int) -> bool:
    """Truth of q at timepoint `at` in the word making exactly d's facts true.

    Positions beyond max_timestamp are all alike (no atoms hold), so every
    subquery has one truth value there; position H = max+1 stands for them.
    """
    h = d.max_timestamp + 1
    table: dict[tuple[Query, int], bool] = {}

    def ev(query: Query, n: int) -> bool:
        n = min(n, h)
        key = (query, n)
        val = table.get(key)
        if val is None:
            val = _ev_data(query, n)
            table[key] = val
        return val

    def _ev_data(query: Query, n: int) -> bool:
        if isinstance(query, Top):
            return True
        if isinstance(query, Bot):
            return False
        if isinstance(query, Prop):
            return n < h and (query.name, n) in d.facts
        if isinstance(query, And):
            return all(ev(p, n) for p in query.parts)
        if isinstance(query, Next):
            return ev(query.arg, n + 1)
        if isinstance(query, Diamond):
            return any(ev(query.arg, m) for m in range(n + 1, h + 1)) or ev(query.arg, h)
        if isinstance(query, Until):
            if n >= h:
                # the immediate successor is again the all-empty class
                return ev(query.right, h)
            m = n + 1
            while m <= h:
                if ev(query.right, m):
                    return True
                if not ev(query.left, m):
                    return False
                m += 1
            # all later positions look like h; right was already false there
            return False
        raise TypeError(f"not a query: {query!r}")

    return ev(q, at)


def ref_eval_lasso(model: LassoModel, q: Query, at: int) -> bool:
    """Truth of q at `at` in the infinite word denoted by the lasso."""
    pre, per = model.pre, model.per
    if at >= pre + per:
        raise ValueError(f"evaluation point {at} outside lasso representation")
    table: dict[tuple[Query, int], bool] = {}

    def succ(n: int) -> int:
        n += 1
        return n if n < pre + per else pre

    def ev(query: Query, n: int) -> bool:
        key = (query, n)
        val = table.get(key)
        if val is None:
            val = _ev(query, n)
            table[key] = val
        return val

    def _ev(query: Query, n: int) -> bool:
        if isinstance(query, Top):
            return True
        if isinstance(query, Bot):
            return False
        if isinstance(query, Prop):
            return query.name in model.letter(n)
        if isinstance(query, And):
            return all(ev(p, n) for p in query.parts)
        if isinstance(query, Next):
            return ev(query.arg, succ(n))
        if isinstance(query, Diamond):
            later = set(range(n + 1, pre + per)) | set(range(pre, pre + per))
            return any(ev(query.arg, m) for m in later)
        if isinstance(query, Until):
            # walk forward through position classes; after one full cycle in
            # the loop with `left` intact and `right` absent, nothing changes
            m = succ(n)
            for _ in range(pre + 2 * per + 2):
                if ev(query.right, m):
                    return True
                if not ev(query.left, m):
                    return False
                m = succ(m)
            return False
        raise TypeError(f"not a query: {query!r}")

    return ev(q, at)


def all_instances(atoms, max_ts):
    """Every data instance over the given atoms and timestamps."""
    slots = [(a, t) for a in atoms for t in range(max_ts + 1)]
    for mask in range(1 << len(slots)):
        yield DataInstance.of(slots[i] for i in range(len(slots)) if mask >> i & 1)


# References that the library does not run: the successor calculus by its
# definition, over the successor map `mu_mp` (the black/red builder makes
# each successor set and its gap set together, in
# `represent._successor_sets`, and is checked against these), and
# next-compilation, a criterion-5 reduction.


def mu_mp(dset, eset, m_start: int, period_end: int):
    """The successor map: each point of dset to the least later point of
    eset, a periodic point with none wrapping to the least periodic point of
    eset; None where a point has no image."""
    mu = {}
    for x in sorted(dset):
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
    mu = mu_mp(dset, eset, m_start, period_end)
    return mu is not None and set(mu.values()) == set(eset)


def lessdot(dset: frozenset[int], eset: frozenset[int]) -> bool:
    """True iff mapping each point to its next eset-point is total and onto:
    lessdot_mp with an empty periodic zone."""
    return lessdot_mp(dset, eset, 0, 0)


def nabla_mp(dset: frozenset[int], eset: frozenset[int], m_start: int, period_end: int) -> frozenset[int]:
    """Union of the gaps each point x leaves to its image e: the open (x, e)
    when x < e, else the rest of the word after x and the loop before e."""
    mu = mu_mp(dset, eset, m_start, period_end)
    if mu is None:
        raise ValueError("nabla_mp: successor map undefined")
    out: set[int] = set()
    for x, e in mu.items():
        if x < e:
            out.update(range(x + 1, e))
        else:
            out.update(range(x + 1, period_end))
            out.update(range(m_start, e))
    return frozenset(out)


def nabla(dset: frozenset[int], eset: frozenset[int]) -> frozenset[int]:
    """Union of the open gaps (x, next(x)); requires the successor map total."""
    return nabla_mp(dset, eset, 0, 0)


def compile_next_to_diamond(examples: ExampleSet, sep: str = "__") -> ExampleSet:
    """Add shifted copies A__k(t) for A(t+k), turning next depth into atoms.

    Preserves separability between the next-diamond and diamond branching
    classes: m is the largest positive timestamp and only atoms occurring in
    positives get shifted copies.
    """
    m = max((d.max_timestamp for d in examples.positives), default=0)
    pos_atoms = frozenset().union(*(d.signature for d in examples.positives)) if examples.positives else frozenset()
    fresh = {f"{a}{sep}{k}" for a in pos_atoms for k in range(1, m + 1)}
    clash = fresh & examples.signature
    if clash:
        raise ValueError(f"compiled atom names already occur: {sorted(clash)[:3]}")

    def compiled(d: DataInstance) -> DataInstance:
        facts = set(d.facts)
        for a, t in d.facts:
            if a not in pos_atoms:
                continue
            for k in range(1, min(t, m) + 1):
                facts.add((f"{a}{sep}{k}", t - k))
        return DataInstance(frozenset(facts))

    return ExampleSet(
        tuple(compiled(d) for d in examples.positives),
        tuple(compiled(d) for d in examples.negatives),
    )


def lasso_is_model(onto: horn.HornOntology, data: DataInstance, m: LassoModel) -> bool:
    """Direct check that the lasso satisfies the data and every axiom at every
    timepoint, including arbitrarily late copies of the loop positions."""
    for a, t in data.facts:
        if a not in m.letter(t):
            return False

    def lit_true(lit, n: int) -> bool:
        # every literal's truth at a loop position is the same at all of its
        # later copies, so checking one representative per position suffices
        if lit.atom is None:
            return False
        if lit.exists:
            # the rest holds at some later timepoint; the next pre + per
            # timepoints reach a copy of every loop position
            rest = horn.HornLiteral(lit.shift, lit.forall, lit.atom)
            return any(lit_true(rest, j) for j in range(n + 1, n + 1 + m.pre + m.per))
        if lit.forall:
            if not all(lit.atom in s for s in m.loop):
                return False
            return all(lit.atom in m.letter(j) for j in range(n + lit.shift, m.pre))
        return lit.atom in m.letter(n + lit.shift)

    for ax in onto.axioms:
        for n in range(m.pre + m.per):
            if all(lit_true(l, n) for l in ax.body):
                if ax.head.atom is None or not lit_true(ax.head, n):
                    return False
    return True


def rewrite_diamonds(onto: horn.HornOntology) -> horn.HornOntology:
    """onto without F literals: each distinct body literal `F C` becomes a
    fresh chain atom R (`Dia__k`, a name onto does not use) defined by
    `X C -> R` and `X R -> R`, so R holds exactly where `F C` does, and R
    takes the literal's place.  The canonical models of onto are checked
    against those of its rewrite with the chain atoms dropped."""
    names = set(onto.atoms)
    chain_for: dict[tuple, str] = {}
    axioms = []
    for ax in onto.axioms:
        body = []
        for lit in ax.body:
            if not lit.exists:
                body.append(lit)
                continue
            key = (lit.shift, lit.forall, lit.atom)
            chain = chain_for.get(key)
            if chain is None:
                n = len(chain_for) + 1
                while f"Dia__{n}" in names:
                    n += 1
                chain = chain_for[key] = f"Dia__{n}"
                names.add(chain)
                axioms.append(
                    horn.HornAxiom(
                        (horn.HornLiteral(lit.shift + 1, lit.forall, lit.atom),),
                        horn.HornLiteral(0, False, chain),
                    )
                )
                axioms.append(
                    horn.HornAxiom((horn.HornLiteral(1, False, chain),), horn.HornLiteral(0, False, chain))
                )
            body.append(horn.HornLiteral(0, False, chain))
        axioms.append(horn.HornAxiom(tuple(body), ax.head))
    return horn.HornOntology(tuple(axioms))


def lasso_models_of(
    onto: horn.HornOntology,
    data: DataInstance,
    atoms,
    max_pre_extra: int = 4,
    max_per: int = 4,
):
    """All bounded-shape lasso models of (onto, data), by pruned enumeration."""
    names = sorted(set(atoms) | {a for a, _ in data.facts} | set(onto.atoms))
    letters = [frozenset(c) for r in range(len(names) + 1) for c in combinations(names, r)]
    # an F body literal reads letters not assigned yet
    exact_axioms = [
        ax
        for ax in onto.axioms
        if not any(l.forall or l.exists for l in ax.body) and not ax.head.forall
    ]

    for per in range(1, max_per + 1):
        for pre in range(data.max_timestamp + 1, data.max_timestamp + max_pre_extra + 2):
            word: list = [None] * (pre + per)

            def violates(i: int) -> bool:
                # exact-literal axioms with all reads assigned can be judged
                # early; a violation on final letters can never be repaired
                for ax in exact_axioms:
                    span = max([l.shift for l in ax.body] + [ax.head.shift])
                    for n in range(0, i - span + 1):
                        if all(
                            l.atom is not None and l.atom in word[n + l.shift]
                            for l in ax.body
                        ):
                            h = ax.head
                            if h.atom is None or h.atom not in word[n + h.shift]:
                                return True
                return False

            def assign(i: int):
                if i == pre + per:
                    model = LassoModel(tuple(word[:pre]), tuple(word[pre:]))
                    if lasso_is_model(onto, data, model):
                        yield model
                    return
                required = atoms_at(data, i) if i <= data.max_timestamp else frozenset()
                for letter in letters:
                    if not required <= letter:
                        continue
                    word[i] = letter
                    if not violates(i):
                        yield from assign(i + 1)
                word[i] = None

            yield from assign(0)


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(autouse=True)
def cold_verdicts():
    """Each test starts without the verdicts an earlier test decided: a set's
    answers may come from the verdicts already known for it (`qbe._record`)."""
    qbe._record.cache_clear()


def forbid_query_search(monkeypatch):
    """Fail the test if `prior._search_word` is asked for a countermodel of a
    query; consistency searches (query None) still run."""
    search = prior._search_word

    def guarded(onto, data, sig, query=None):
        assert query is None, f"countermodel search for {query}"
        return search(onto, data, sig, query)

    monkeypatch.setattr(prior, "_search_word", guarded)


def kept_record(e, onto=None):
    """The record `decide` keeps for e under onto, as the only entry of
    `qbe._record`; asking for it is a hit, so nothing is made anew."""
    info = qbe._record.cache_info()
    assert info.currsize == 1
    record = qbe._record(e, onto)
    assert qbe._record.cache_info().misses == info.misses
    return record


def module_caches() -> dict:
    """Every object with a cache_info() in the ltlqbe modules, by the name it
    has in the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(ltlqbe.__path__):
        module = importlib.import_module(f"ltlqbe.{info.name}")
        for attr, value in vars(module).items():
            if (
                hasattr(value, "cache_info")
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__
            ):
                found[attr] = value
    return found


# ---------------------------------------------------------------------------
# Transition systems in the named form the reference copies are written in


class Edge(NamedTuple):
    src: Hashable
    dst: Hashable
    label: frozenset[str]
    color: str = BLACK


class Named:
    """A transition system with arbitrary hashable states, a list of initial
    states, atom-set labels and `Edge`s, as the tests' reference copies read
    and build it."""

    def __init__(self, states, initial, labels, edges, colored=False):
        self.states, self.initial = list(states), list(initial)
        self.labels, self.edges, self.colored = dict(labels), list(edges), colored
        self._out: dict = {}
        for e in self.edges:
            self._out.setdefault(e.src, []).append(e)

    def out(self, x) -> list[Edge]:
        return self._out.get(x, [])

    def label(self, x) -> frozenset[str]:
        return self.labels[x]


LETTERS = (*ATOMS, BOT)


def numbered(ts: Named, letters=LETTERS) -> TransitionSystem:
    """ts, which has one initial state, as a `TransitionSystem`: states
    numbered 0..n-1 in list order, label sets turned into masks over
    `letters`."""
    index = {x: i for i, x in enumerate(ts.states)}
    (initial,) = ts.initial
    bit = {a: 1 << i for i, a in enumerate(letters)}

    def mask(label) -> int:
        return sum(bit[a] for a in label)

    return TransitionSystem(
        tuple(letters),
        index[initial],
        tuple(mask(ts.labels[x]) for x in ts.states),
        tuple((index[e.src], index[e.dst], mask(e.label), int(e.color == RED)) for e in ts.edges),
        ts.colored,
    )


def named(ts: TransitionSystem) -> Named:
    """ts in the named form, its states kept as the ints they are."""
    return Named(
        ts.states,
        [ts.initial],
        {x: ts.spell(m) for x, m in enumerate(ts.labels)},
        [Edge(src, dst, ts.spell(m), RED if red else BLACK) for src, dst, m, red in ts.edges],
        ts.colored,
    )
