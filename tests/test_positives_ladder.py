"""The ladder over the number of positives: sets with many positives that no
set-wide certificate settles.

Each set has `npos` positives and 2 negatives, each drawn by
`conftest.rand_instance(max_ts=4, max_facts=5)`, positives first.  For draw
k the set is the first one of `Random(4242 + 100·npos + 4 + 7919·k)` whose
record (`qbe._record`) holds no verdict: no negative holds a positive and an
atom is anchored in the positives.  Its position among the seed's sets is
pinned, as finding it again takes longer than deciding it.  The until
games of these sets are played on the product of up to 12 positives, which
`qbe._until_systems` folds one factor at a time.  Unfolded, the product of
8 positives, draw 1, has 93,931 states and 3,544,931 edges, and path-until
and simple-until took 5-41 s on every draw but (8, 0); folded, its factors
have 9 and 6 states, and each class takes milliseconds.
"""

import random

import pytest

from conftest import rand_instance
from ltlqbe import qbe
from ltlqbe.core import ExampleSet, QueryClass
from ltlqbe.qbe import Problem, decide, verify_witness

# (positives, draw) -> (the set's 1-based position among the seed's sets,
# whether it is path-until and simple-until separable)
_LADDER = {
    (8, 0): (23, (False, False)),
    (8, 1): (69, (False, False)),
    (10, 0): (554, (True, True)),
    (10, 1): (690, (True, True)),
    (12, 0): (5589, (False, False)),
    (12, 1): (1839, (True, True)),
}


def ladder_set(npos: int, draw: int) -> ExampleSet:
    """The ladder's set for (npos, draw): the pinned set of its seed."""
    rng = random.Random(4242 + 100 * npos + 4 + 7919 * draw)
    for _ in range(_LADDER[npos, draw][0]):
        pos = [rand_instance(rng, max_ts=4, max_facts=5) for _ in range(npos)]
        neg = [rand_instance(rng, max_ts=4, max_facts=5) for _ in range(2)]
    return ExampleSet.of(pos, neg)


def test_the_pinned_sets_are_the_first_certificate_free_ones():
    # the rows of 8 positives, whose seeds reach their set within 70 draws
    for draw in (0, 1):
        rng = random.Random(4242 + 100 * 8 + 4 + 7919 * draw)
        for position in range(1, _LADDER[8, draw][0] + 1):
            pos = [rand_instance(rng, max_ts=4, max_facts=5) for _ in range(8)]
            e = ExampleSet.of(pos, [rand_instance(rng, max_ts=4, max_facts=5) for _ in range(2)])
            if not qbe._record(e, None):
                break
        assert position == _LADDER[8, draw][0] and e == ladder_set(8, draw)


@pytest.mark.parametrize("npos, draw", list(_LADDER), ids=lambda v: str(v))
def test_many_positives_keep_their_until_verdicts(npos, draw):
    e = ladder_set(npos, draw)
    assert len(e.positives) == npos and len(e.negatives) == 2
    assert not qbe._record(e, None)  # no certificate settles it
    verdicts = []
    for cls in (QueryClass.PATH_UNTIL, QueryClass.SIMPLE_UNTIL):
        qbe._record.cache_clear()  # each class plays its own game
        v = decide(Problem(cls, e))
        verdicts.append(v.separable)
        if v.separable:
            assert verify_witness(Problem(cls, e), v.witness), v.witness
    assert tuple(verdicts) == _LADDER[npos, draw][1]
