"""Strict positive LTL on words, written apart from the engine.

A data instance denotes the word whose letter at timepoint i holds exactly
the atoms stamped i, followed by empty letters forever. A lasso is a prefix
followed by a loop repeated forever. Every operator is strict: `X q` is
`false U q`, `F q` is `true U q`, and `l U r` holds at i when r holds at
some m > i and l at every k with i < k < m.

The evaluator reads the engine's query objects by their class names and
fields only; its semantics is the least-fixpoint recurrence below, not the
engine's.
"""

from __future__ import annotations


def holds(facts, query, at: int = 0) -> bool:
    """Truth of `query` at timepoint `at` on the instance given by `facts`."""
    facts = frozenset(facts)
    h = max((t for _, t in facts), default=-1) + 1
    prefix = [frozenset(a for a, t in facts if t == i) for i in range(h)]
    return holds_lasso(prefix, [frozenset()], query, at)


def holds_lasso(prefix, loop, query, at: int = 0) -> bool:
    """Truth of `query` at timepoint `at` on the word prefix + loop^omega."""
    word = list(prefix) + list(loop)
    succ = list(range(1, len(word))) + [len(prefix)]
    if at >= len(word):
        at = len(prefix) + (at - len(prefix)) % len(loop)
    return _vector(word, succ, query, {})[at]


def _vector(word, succ, q, memo: dict) -> list[bool]:
    """Truth at every position of the folded word."""
    key = id(q)
    if key in memo:
        return memo[key][1]
    n = len(word)
    kind = type(q).__name__
    if kind == "Top":
        v = [True] * n
    elif kind == "Bot":
        v = [False] * n
    elif kind == "Prop":
        v = [q.name in letter for letter in word]
    elif kind == "And":
        parts = [_vector(word, succ, p, memo) for p in q.parts]
        v = [all(p[i] for p in parts) for i in range(n)]
    elif kind in ("Next", "Diamond", "Until"):
        if kind == "Until":
            left = _vector(word, succ, q.left, memo)
            right = _vector(word, succ, q.right, memo)
        else:
            left = [kind == "Diamond"] * n
            right = _vector(word, succ, q.arg, memo)
        # least fixpoint of v[i] = r[s(i)] or (l[s(i)] and v[s(i)])
        v = [False] * n
        changed = True
        while changed:
            changed = False
            for i in range(n):
                j = succ[i]
                if not v[i] and (right[j] or (left[j] and v[j])):
                    v[i] = changed = True
    else:
        raise TypeError(f"not a positive LTL query: {q!r}")
    memo[key] = (q, v)  # keeps q alive so its id is not reused
    return v
