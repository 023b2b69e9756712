"""Seeded input generators for the benchmark's workloads.

A workload is a stream of example sets, each with its ontology text if the
workload has one. Set i of seed s is drawn from its own `random.Random`
seeded with the string "<workload>:<s>:<i>", so it does not depend on how
many sets a run generates, nor on the interpreter's hash seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PLAIN_DIAMOND = (
    "path-diamond",
    "path-next-diamond",
    "path-diamond-circ-blocks",
    "branch-diamond",
    "branch-next-diamond",
)
PLAIN_UNTIL = ("path-until", "simple-until", "full-until")
ALL_CLASSES = PLAIN_DIAMOND + PLAIN_UNTIL


@dataclass(frozen=True)
class RawSet:
    """One generated example set, before the library has seen it."""

    positives: tuple[tuple[tuple[str, int], ...], ...]
    negatives: tuple[tuple[tuple[str, int], ...], ...]
    ontology: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[str, ...]
    kind: str  # "plain", "horn" or "prior"
    atoms: tuple[str, ...]
    max_ts: int
    max_facts: int
    shapes: tuple[tuple[int, int], ...]  # (positives, negatives), cycled by set index
    sets_per_second: int  # sets decided per second when the machine runs slow; sizes a run
    max_axioms: int = 0
    atom_pool: int = 0  # when set, each set renames its atoms to fresh ones from P0..P<pool-1>

    def raw_set(self, seed: int, index: int) -> RawSet:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        atoms = self.atoms
        if self.atom_pool:
            atoms = tuple(f"P{k}" for k in rng.sample(range(self.atom_pool), len(atoms)))
        npos, nneg = self.shapes[index % len(self.shapes)]
        pos = tuple(self._instance(rng, atoms) for _ in range(npos))
        neg = tuple(self._instance(rng, atoms) for _ in range(nneg))
        onto = None
        if self.kind == "horn":
            onto = horn_ontology_text(rng, atoms, self.max_axioms)
        elif self.kind == "prior":
            onto = prior_ontology_text(rng, atoms, index)
        return RawSet(pos, neg, onto)

    def _instance(self, rng: random.Random, atoms) -> tuple[tuple[str, int], ...]:
        n = rng.randint(1, self.max_facts)
        facts = {(rng.choice(atoms), rng.randint(0, self.max_ts)) for _ in range(n)}
        return tuple(sorted(facts))


def horn_ontology_text(rng: random.Random, atoms, max_axioms: int) -> str:
    """Random Horn axioms `body -> head` over box/next literals."""
    lines = []
    for _ in range(rng.randint(1, max_axioms)):

        def lit(in_body: bool) -> str:
            prefix = rng.choice(["", "", "X ", "G "])
            lead = "F " if in_body and rng.random() < 0.15 else ""
            pool = list(atoms) + (["false"] if not in_body and rng.random() < 0.08 else [])
            return f"{lead}{prefix}{rng.choice(pool)}"

        body = " & ".join(lit(True) for _ in range(rng.randint(1, 2)))
        lines.append(f"{body} -> {lit(False)}")
    return "\n".join(lines)


PRIOR_BODIES = ("{a}", "G {a}", "{a} & {b}")
PRIOR_HEADS = ("{b}", "F {b}", "{b} | F {a}")


def prior_ontology_text(rng: random.Random, atoms, index: int) -> str:
    """One box/diamond axiom `body -> head`; the set index picks the shape.

    Heads are negation-free, so adding facts can always meet them and every
    instance stays consistent with the ontology.
    """
    a, b = rng.sample(atoms, 2)
    body = PRIOR_BODIES[index // 4 % len(PRIOR_BODIES)]
    head = PRIOR_HEADS[index // (4 * len(PRIOR_BODIES)) % len(PRIOR_HEADS)]
    return f"{body} -> {head}".format(a=a, b=b)


SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("diamond-plain", PLAIN_DIAMOND, "plain", ("A", "B", "C"), max_ts=4, max_facts=5,
                 shapes=SHAPES, sets_per_second=130),
        Workload("until-plain", PLAIN_UNTIL, "plain", ("A", "B", "C"), max_ts=3, max_facts=5,
                 shapes=((1, 1), (2, 1), (2, 2), (3, 1)), sets_per_second=110),
        Workload("horn-explore", ALL_CLASSES, "horn", ("A", "B"), max_ts=3, max_facts=4,
                 shapes=((1, 1), (2, 1), (1, 2), (2, 2)), sets_per_second=30, max_axioms=3),
        Workload("prior-diamond", ("branch-diamond",), "prior", ("A", "B"), max_ts=2, max_facts=3,
                 shapes=SHAPES, sets_per_second=45, atom_pool=40),
    )
}
