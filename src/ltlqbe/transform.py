"""Example-set reductions: negative splitting."""

from __future__ import annotations

from .core import ExampleSet


def split_per_negative(examples: ExampleSet) -> list[ExampleSet]:
    """One singleton-negative example set per negative instance."""
    return [ExampleSet(examples.positives, (d,)) for d in examples.negatives]
