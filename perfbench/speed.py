"""The machine's speed, sampled by a fixed pure-Python loop.

On a shared host the same work can take from one to two times its fastest
time, in phases of a second to tens of seconds, as other jobs come and go on
the same physical cores. A run therefore times `loop()` every
`SAMPLE_EVERY_S` seconds, between sets, and rescales each set's wall time by
`REF_MS / t`, where `t` is the median loop time of the samples around that
set. The loop shares no code with the library, so a change to the library
moves the rescaled times, and a change in the machine's speed mostly does
not. A rescaled time reads as the time the set takes on a machine where the
loop takes `REF_MS`.
"""

from __future__ import annotations

import statistics
import time

REF_MS = 1.5  # about the loop's usual time where the benchmark was tuned
SAMPLE_EVERY_S = 0.05
WINDOW = 2  # samples on each side of a set's own


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def loop() -> int:
    """About a millisecond of the interpreter's common work: small objects,
    attribute reads, frozensets, set and dict look-ups, calls and a sort."""
    seen: set = set()
    hits = 0
    for i in range(600):
        cell = _Cell(i % 37, i % 11)
        key = frozenset((cell.a, cell.b, j) for j in range(3))
        if key not in seen:
            seen.add(key)
        hits += (cell.a, cell.b) in seen
    sizes = {key: len(key) for key in seen}
    return hits + sum(sorted(sizes.values())[:3])


def sample_ms() -> float:
    start = time.perf_counter()
    loop()
    return (time.perf_counter() - start) * 1e3


def scale_now(samples: int) -> float:
    """`REF_MS` over the median of `samples` loop times taken now."""
    return REF_MS / statistics.median(sample_ms() for _ in range(samples))


class SpeedLog:
    """Loop times sampled along a pass, at most one per `SAMPLE_EVERY_S`."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Samples the loop if it is due; returns the index of the latest sample."""
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S or not self.samples:
            self.samples.append(sample_ms())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """`REF_MS` over the median loop time around sample `index`."""
        window = self.samples[max(0, index - WINDOW): index + WINDOW + 1]
        return REF_MS / statistics.median(window)
