"""Shared generators and independent reference checkers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Hashable, NamedTuple

import pytest

from ltlqbe import horn
from ltlqbe.core import DataInstance, ExampleSet, LassoModel, Query
from ltlqbe.tsys import BLACK, BOT, RED, TransitionSystem

ATOMS = ("A", "B", "C")


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
    from ltlqbe.core import Diamond, Next, Prop, Top, Until, conj

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


def all_instances(atoms, max_ts):
    """Every data instance over the given atoms and timestamps."""
    slots = [(a, t) for a in atoms for t in range(max_ts + 1)]
    for mask in range(1 << len(slots)):
        yield DataInstance.of(slots[i] for i in range(len(slots)) if mask >> i & 1)


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
    exact_axioms = [
        ax
        for ax in onto.axioms
        if not any(l.forall for l in ax.body) and not ax.head.forall
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
                required = data.atoms_at(i) if i <= data.max_timestamp else frozenset()
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


# ---------------------------------------------------------------------------
# Transition systems in the named form the reference copies are written in


class Edge(NamedTuple):
    src: Hashable
    dst: Hashable
    label: frozenset[str]
    color: str = BLACK


class Named:
    """A transition system with arbitrary hashable states, atom-set labels
    and `Edge`s, as the tests' reference copies read and build it."""

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
    """ts as a `TransitionSystem`: states numbered 0..n-1 in list order,
    label sets turned into masks over `letters`."""
    index = {x: i for i, x in enumerate(ts.states)}
    bit = {a: 1 << i for i, a in enumerate(letters)}

    def mask(label) -> int:
        return sum(bit[a] for a in label)

    return TransitionSystem(
        tuple(letters),
        tuple(index[x] for x in ts.initial),
        tuple(mask(ts.labels[x]) for x in ts.states),
        tuple((index[e.src], index[e.dst], mask(e.label), int(e.color == RED)) for e in ts.edges),
        ts.colored,
    )


def named(ts: TransitionSystem) -> Named:
    """ts in the named form, its states kept as the ints they are."""
    return Named(
        ts.states,
        ts.initial,
        {x: ts.spell(m) for x, m in enumerate(ts.labels)},
        [Edge(src, dst, ts.spell(m), RED if red else BLACK) for src, dst, m, red in ts.edges],
        ts.colored,
    )
