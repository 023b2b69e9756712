"""The benchmark's own evaluator on worked examples with known answers.

    python3 perfbench/test_ltleval.py      (or: python3 -m pytest perfbench)
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from ltleval import holds, holds_lasso  # noqa: E402
from ltlqbe.core import parse_query  # noqa: E402


def separates(text, positives, negatives):
    q = parse_query(text)
    return all(holds(d, q) for d in positives) and not any(holds(d, q) for d in negatives)


def test_example_1_path_diamond():
    pos = [[("T", 2), ("V", 4)], [("T", 1), ("V", 4)]]
    neg = [[("T", 1)], [("V", 4)], [("V", 1), ("T", 2)]]
    assert separates("F(T & F F V)", pos, neg)
    assert not separates("F T & F V", pos, neg)  # the third negative has both, in the wrong order


def test_example_1_until_sub_example():
    assert separates("T U V", [[("T", 1), ("V", 2)], [("T", 1), ("T", 2), ("V", 3)]], [[("T", 1), ("V", 3)]])


def test_example_3c_path_until():
    assert separates("A U B", [[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 2)]])


def test_prod_unrav():
    pos = [[("A2", 4), ("B1", 4), ("B2", 5)], [("A1", 2), ("B2", 2), ("B1", 3)]]
    neg = [[("B1", 2), ("B2", 4)]]
    assert separates("F(((A1 & B2) U B1) & ((A2 & B1) U B2))", pos, neg)
    assert separates("X X F B1", pos, neg)


def test_u_path_not_tree():
    pos = [[("B", 2), ("C", 2)], [("A", 2), ("B", 3), ("B", 4), ("C", 4)]]
    neg = [[("A", 2), ("B", 3), ("B", 5), ("C", 5)]]
    assert separates("(A U B) U C", pos, neg)


def test_strictness_and_the_empty_tail():
    d = [("A", 0), ("B", 2)]
    assert holds(d, parse_query("A"))
    assert not holds(d, parse_query("F A"))  # strict: timepoint 0 is not in the future
    assert holds(d, parse_query("X X B")) and not holds(d, parse_query("X B"))
    assert holds(d, parse_query("F true"))  # the word goes on with empty letters
    assert not holds(d, parse_query("false U B"))  # X B
    assert holds(d, parse_query("true U B"))
    assert holds(d, parse_query("B"), 2) and not holds(d, parse_query("F B"), 2)
    assert holds([], parse_query("true")) and not holds([], parse_query("F A"))


def test_lasso_of_a_horn_canonical_model():
    # A -> X A makes A hold forever; B only where the data puts it
    a, ab = frozenset("A"), frozenset("AB")
    q = parse_query("A & F (A & F (A & F (A & B)))")
    assert holds_lasso([a, a, a, ab], [a], q)  # B at 3
    assert not holds_lasso([a, ab], [a], q)  # B at 1 only
    assert holds_lasso([], [a], parse_query("F F F A"))
    assert holds_lasso([a], [frozenset(), ab], parse_query("F (B & X F B)"), 0)  # the loop repeats B
    assert holds_lasso([a], [frozenset(), ab], parse_query("B"), 4)  # 4 folds onto loop position 2


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
