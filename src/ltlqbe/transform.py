"""Example-set reductions: negative splitting, next compilation."""

from __future__ import annotations

from .core import DataInstance, ExampleSet


def split_per_negative(examples: ExampleSet) -> list[ExampleSet]:
    """One singleton-negative example set per negative instance."""
    return [ExampleSet(examples.positives, (d,)) for d in examples.negatives]


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
