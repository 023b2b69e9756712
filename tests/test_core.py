import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ATOMS, all_instances, atoms_at, rand_instance, rand_query, ref_eval_data, ref_eval_lasso
from ltlqbe import core, horn
from ltlqbe.core import (
    And,
    Bot,
    DataInstance,
    Diamond,
    LassoModel,
    Next,
    ParseError,
    Prop,
    QueryClass,
    Top,
    TOP,
    Until,
    classify,
    conj,
    eval_data,
    eval_lasso,
    format_query,
    in_class,
    lasso_word,
    parse_query,
    positions,
    temporal_depth,
)

D = DataInstance.of
q = parse_query


def lasso(prefix, loop):
    return LassoModel(tuple(frozenset(p) for p in prefix), tuple(frozenset(l) for l in loop))


# ---------------------------------------------------------------------------
# eval_data


def test_eval_data_motivating_example():
    query = q("F(T & F F V)")
    assert eval_data(D([("T", 2), ("V", 4)]), query, 0)
    assert eval_data(D([("T", 1), ("V", 4)]), query, 0)
    assert not eval_data(D([("T", 1)]), query, 0)
    assert not eval_data(D([("V", 4)]), query, 0)
    assert not eval_data(D([("V", 1), ("T", 2)]), query, 0)


def test_eval_data_top_and_until():
    assert eval_data(D([("T", 2), ("V", 4)]), TOP, 9)
    assert eval_data(D([]), TOP, 0)
    assert eval_data(D([("T", 1), ("V", 2)]), q("T U V"), 0)
    assert not eval_data(D([("T", 1), ("V", 3)]), q("T U V"), 0)


def test_eval_data_strictness():
    # the witness must lie strictly in the future
    assert not eval_data(D([("A", 0)]), q("F A"), 0)
    assert eval_data(D([("A", 1)]), q("F A"), 0)
    assert not eval_data(D([("A", 1)]), q("F F A"), 0)
    assert eval_data(D([]), q("F true"), 5)


def test_eval_data_next_bot():
    assert eval_data(D([("A", 3)]), q("X X X A"), 0)
    assert not eval_data(D([("A", 3)]), q("X X A"), 0)
    assert not eval_data(D([("A", 1)]), q("false"), 0)
    assert eval_data(D([("A", 1)]), q("false U A"), 0)  # encodes X A


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monotone_in_facts(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = rand_instance(rng, max_ts=4, max_facts=5)
    extra = rand_instance(rng, max_ts=4, max_facts=3)
    bigger = DataInstance(d.facts | extra.facts)
    query = rand_query(rng, depth=3)
    at = rng.randrange(0, 4)
    if eval_data(d, query, at):
        assert eval_data(bigger, query, at)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_until_sugar(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = rand_instance(rng, max_ts=4)
    inner = rand_query(rng, depth=2)
    at = rng.randrange(0, 4)
    assert eval_data(d, Next(inner), at) == eval_data(d, Until(Bot(), inner), at)
    assert eval_data(d, Diamond(inner), at) == eval_data(d, Until(Top(), inner), at)


# ---------------------------------------------------------------------------
# eval_lasso


def test_eval_lasso_examples():
    m = lasso([{"A", "C"}], [{"B"}, {"C"}])
    assert eval_lasso(m, q("F B"), 0)
    assert not eval_lasso(m, q("F A"), 0)
    assert eval_lasso(lasso([set()], [set()]), q("F true"), 0)


def test_eval_lasso_rejects_out_of_range():
    m = lasso([{"A"}], [{"B"}])
    with pytest.raises(ValueError):
        eval_lasso(m, TOP, 2)


def test_eval_lasso_loop_until():
    m = lasso([], [{"A"}, {"B"}])
    assert eval_lasso(m, q("A U B"), 0)
    assert eval_lasso(m, q("F(A & F B)"), 1)
    assert not eval_lasso(m, q("A U (A & B)"), 0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lasso_with_empty_loop_matches_eval_data(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = rand_instance(rng, max_ts=4)
    m = LassoModel.of_data(d)
    query = rand_query(rng, depth=3)
    for at in range(m.pre):
        assert eval_lasso(m, query, at) == ref_eval_data(d, query, at)


def _rand_full_query(rng, atoms, depth):
    """A random query over true, false, atoms, &, X, F and U."""
    kind = rng.choice(["atom", "atom", "top", "bot"] + ["and", "next", "dia", "until"] * (depth > 0))
    if kind == "atom":
        return Prop(rng.choice(atoms))
    if kind == "top":
        return TOP
    if kind == "bot":
        return Bot()
    if kind == "and":
        return conj(_rand_full_query(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3)))
    if kind == "next":
        return Next(_rand_full_query(rng, atoms, depth - 1))
    if kind == "dia":
        return Diamond(_rand_full_query(rng, atoms, depth - 1))
    return Until(_rand_full_query(rng, atoms, depth - 1), _rand_full_query(rng, atoms, depth - 1))


def _rand_letters(rng, atoms, n):
    return tuple(frozenset(a for a in atoms if rng.random() < 0.4) for _ in range(n))


def test_positions_match_the_reference_evaluators():
    rng = random.Random(9100)
    atoms = ("A", "B")
    for _ in range(1500):
        query = _rand_full_query(rng, atoms, 4)
        per = rng.randint(1, 3)
        loop = (frozenset(),) * per if rng.random() < 0.2 else _rand_letters(rng, atoms, per)
        m = LassoModel(_rand_letters(rng, atoms, rng.randint(0, 4)), loop)
        held = positions(query, lasso_word(m.prefix, m.loop))
        for at in range(m.pre + m.per):
            expected = ref_eval_lasso(m, query, at)
            assert (held >> at & 1 == 1) == expected == eval_lasso(m, query, at), (str(query), m, at)
        d = rand_instance(rng, atoms=atoms, max_ts=4, max_facts=5)
        for at in range(d.max_timestamp + 4):
            assert eval_data(d, query, at) == ref_eval_data(d, query, at), (str(query), d, at)


def test_negative_timepoints_are_rejected():
    m = lasso([set(), {"A"}], [set()])
    with pytest.raises(ValueError):
        eval_lasso(m, Prop("A"), -1)
    with pytest.raises(ValueError):
        eval_data(D([("A", 1)]), Prop("A"), -1)
    with pytest.raises(ValueError):
        horn.certain_answer(horn.load_ontology("A -> X B"), D([("B", 2)]), Prop("B"), -1)


def test_of_data_matches_atoms_at():
    rng = random.Random(19)
    for _ in range(200):
        d = rand_instance(rng, max_ts=rng.randrange(0, 8), max_facts=8)
        expected = LassoModel(
            tuple(atoms_at(d, t) for t in range(d.max_timestamp + 1)), (frozenset(),)
        )
        assert LassoModel.of_data(d) == expected


# ---------------------------------------------------------------------------
# temporal depth, classification


def test_temporal_depth():
    assert temporal_depth(q("T & V")) == 0
    assert temporal_depth(q("F(T & F F V)")) == 3
    assert temporal_depth(q("(A U B) U C")) == 2


def test_classify_examples():
    assert classify(q("F(T & F V)")) == frozenset(QueryClass)
    assert classify(q("F T & F V")) == frozenset(
        {
            QueryClass.BRANCH_DIAMOND,
            QueryClass.BRANCH_NEXT_DIAMOND,
            QueryClass.SIMPLE_UNTIL,
            QueryClass.FULL_UNTIL,
        }
    )
    assert classify(q("(A U B) U C")) == frozenset({QueryClass.FULL_UNTIL})


def test_classify_depth_counting_stays_out_of_path_classes():
    # an all-top block under F would count depth; path classes exclude it
    c = classify(q("F F T"))
    assert QueryClass.PATH_DIAMOND not in c
    assert QueryClass.BRANCH_DIAMOND in c
    c2 = classify(q("F(T & F F V)"))
    assert QueryClass.PATH_DIAMOND not in c2
    # the until-path class is the literal grammar: X-encodings stay inside
    c3 = classify(q("false U false U A"))
    assert QueryClass.PATH_UNTIL in c3
    assert QueryClass.SIMPLE_UNTIL in c3


def test_classify_until_shapes():
    assert QueryClass.PATH_UNTIL in classify(q("T U V"))
    assert QueryClass.PATH_UNTIL in classify(q("A U (B & (C U A))"))
    assert QueryClass.SIMPLE_UNTIL in classify(q("(A U B) & (C U A)"))
    assert QueryClass.PATH_UNTIL not in classify(q("(A U B) & (C U A)"))
    assert classify(Bot()) == frozenset(QueryClass)


def _classify_reference(query):
    """The classes of a query as one pass over all eight, as classify did
    before it was defined through in_class."""
    out = {QueryClass.FULL_UNTIL}
    if core._is_simple(query):
        out.add(QueryClass.SIMPLE_UNTIL)
    if core._is_path_until(query):
        out.add(QueryClass.PATH_UNTIL)
    if not core._has_node(query, (Until,)):
        out.add(QueryClass.BRANCH_NEXT_DIAMOND)
        if not core._has_node(query, (Next,)):
            out.add(QueryClass.BRANCH_DIAMOND)
        if core._is_path(query, (Next, Diamond)):
            out.add(QueryClass.PATH_NEXT_DIAMOND)
        if core._is_path(query, (Diamond,)):
            out.add(QueryClass.PATH_DIAMOND)
        if core._is_circ_blocks(query):
            out.add(QueryClass.PATH_DIAMOND_CIRC_BLOCKS)
    if isinstance(query, Bot):
        out = set(QueryClass)
    return frozenset(out)


# every query this file parses
_PARSED = (
    "(A U B) & (C U A)", "(A U B) U C", "A U (A & B)", "A U (B & (C U A))", "A U B U C",
    "A U B", "F A", "F B", "F F A", "F F T", "F T & F V", "F true", "F(A & F B & F C)",
    "F(A & F B)", "F(T & F F V)", "F(T & F V)", "T & V", "T U V", "X F A", "X X A",
    "X X X A", "false U A", "false U false U A", "false", "true",
)


def _seeded_witnesses():
    from conftest import rand_example_set
    from ltlqbe.qbe import Problem, decide

    for seed in range(30):
        e = rand_example_set(random.Random(37000 + seed), max_ts=3, max_pos=2, max_neg=2)
        for cls in QueryClass:
            v = decide(Problem(cls, e))
            if v.separable:
                yield v.witness


def test_in_class_agrees_with_classify():
    rng = random.Random(37500)
    queries = [q(text) for text in _PARSED]
    queries += [rand_query(rng, depth=rng.randrange(0, 4)) for _ in range(300)]
    queries += list(_seeded_witnesses())
    for query in queries:
        expected = _classify_reference(query)
        assert classify(query) == expected
        for cls in QueryClass:
            assert in_class(query, cls) == (cls in expected), (str(query), cls)


def _has_node_reference(query, kinds) -> bool:
    """`core._has_node` as it was: a scan of every subquery."""
    return any(isinstance(s, kinds) for s in core.subqueries(query))


def test_in_class_agrees_with_the_subquery_scan(monkeypatch):
    # _has_node walks the query by its own recursion; in_class must answer
    # as it did when _has_node scanned core.subqueries
    rng = random.Random(37600)
    queries = [rand_query(rng, depth=rng.randrange(0, 5)) for _ in range(2000)]
    kinds = [(Until,), (Next,), (Diamond,), (And,), (Prop,), (Top,), (Next, Until)]
    for query in queries:
        for kind in kinds:
            assert core._has_node(query, kind) == _has_node_reference(query, kind), (str(query), kind)
    fast = [[in_class(query, cls) for cls in QueryClass] for query in queries]
    monkeypatch.setattr(core, "_has_node", _has_node_reference)
    assert fast == [[in_class(query, cls) for cls in QueryClass] for query in queries]
    assert {True, False} <= {x for row in fast for x in row}


def test_conj_flattening():
    a, b = Prop("A"), Prop("B")
    flat = conj([a, conj([b, a])])
    assert isinstance(flat, And) and flat.parts == (a, b)
    assert conj([TOP, TOP]) is TOP
    assert isinstance(conj([a, Bot()]), Bot)
    with pytest.raises(ValueError):
        And(())
    with pytest.raises(ValueError):
        And((And((a, b)), a))


# ---------------------------------------------------------------------------
# normalize_next_diamond: the X/F normal form the per-negative split relies
# on, a Q[X,F] query as an equivalent conjunction of diamond paths of X-blocks


def _block_union(a, b):
    n = max(len(a), len(b))
    pad = (frozenset(),)
    a += pad * (n - len(a))
    b += pad * (n - len(b))
    return tuple(x | y for x, y in zip(a, b))


def _norm(query):
    """Paths whose conjunction is equivalent to query; None encodes false."""
    if isinstance(query, Bot):
        return None
    if isinstance(query, Top):
        return [((frozenset(),),)]
    if isinstance(query, Prop):
        return [((frozenset({query.name}),),)]
    if isinstance(query, And):
        acc = []
        for p in query.parts:
            sub = _norm(p)
            if sub is None:
                return None
            acc.extend(sub)
        merged = _block_union(acc[0][0], acc[0][0])
        for path in acc:
            merged = _block_union(merged, path[0])
        out = [(merged,) + path[1:] for path in acc if len(path) > 1]
        return _dedup(out) if out else [(merged,)]
    if isinstance(query, Next):
        sub = _norm(query.arg)
        if sub is None:
            return None
        shift = (frozenset(),)
        return _dedup([tuple(shift + b for b in path) for path in sub])
    if isinstance(query, Diamond):
        sub = _norm(query.arg)
        if sub is None:
            return None
        head = sub[0][0]
        for path in sub:
            head = _block_union(head, path[0])
        top = (frozenset(),)
        out = [(top, head) + path[1:] for path in sub if len(path) > 1]
        return _dedup(out) if out else [(top, head)]
    raise ValueError(f"query outside Q[X,F]: {query}")


def _dedup(paths):
    return list(dict.fromkeys(paths))


def normalize_next_diamond(query):
    """Rewrite an X/F-query into an equivalent list of diamond paths of X-blocks.

    Uses X F k == F X k, X(a & b) == Xa & Xb and the distribution of
    conjunctions under F; rejects queries containing U.
    """
    if core._has_node(query, (Until,)):
        raise ValueError("normalize_next_diamond: query contains U")
    paths = _norm(query)
    if paths is None:
        return [Bot()]
    out = [core._path_query(p) for p in paths]
    nontrivial = [p for p in out if p is not TOP]
    return nontrivial or [TOP]


def test_normalize_simple_shapes():
    assert [str(x) for x in normalize_next_diamond(q("F T & F V"))] == ["F T", "F V"]
    assert [str(x) for x in normalize_next_diamond(q("X F A"))] == ["F X A"]
    out = normalize_next_diamond(q("F(A & F B & F C)"))
    assert sorted(str(x) for x in out) == ["F (A & F B)", "F (A & F C)"]


def test_normalize_rejects_until():
    with pytest.raises(ValueError):
        normalize_next_diamond(q("A U B"))


@pytest.mark.parametrize("seed", range(30))
def test_normalize_equivalence_fuzz(seed):
    rng = random.Random(seed)
    from ltlqbe.core import Query

    def xf_query(d: int) -> Query:
        kind = rng.choice(["atom", "top"] + (["next", "dia", "and"] if d else []))
        if kind == "atom":
            return Prop(rng.choice(ATOMS))
        if kind == "top":
            return TOP
        if kind == "next":
            return Next(xf_query(d - 1))
        if kind == "dia":
            return Diamond(xf_query(d - 1))
        return conj([xf_query(d - 1), xf_query(d - 1)])

    query = xf_query(3)
    parts = normalize_next_diamond(query)
    for _ in range(40):
        d = rand_instance(rng, max_ts=4)
        at = rng.randrange(0, 3)
        assert eval_data(d, query, at) == all(eval_data(d, p, at) for p in parts)


def test_normalize_equivalence_exhaustive_small():
    # derived oracle: check F(A & F B & F C) against every instance over
    # {A, B, C} with timestamps <= 4, at timepoint 0 (atom B unused slots
    # trimmed to keep the space enumerable)
    query = q("F(A & F B & F C)")
    parts = normalize_next_diamond(query)
    for d in all_instances(("A", "B"), 3):
        for c_time in (0, 2, 4):
            inst = DataInstance(d.facts | {("C", c_time)})
            assert eval_data(inst, query, 0) == all(eval_data(inst, p, 0) for p in parts)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_shapes():
    assert q("F(T & F F V)") == Diamond(conj([Prop("T"), Diamond(Diamond(Prop("V")))]))
    assert q("A U B U C") == Until(Prop("A"), Until(Prop("B"), Prop("C")))
    assert q("X F A") == Next(Diamond(Prop("A")))
    assert q("true") is not None and isinstance(q("false"), Bot)


def test_parse_errors():
    for bad in ["", "A &", "(A", "A U", "F", "A B", "&A", "A & & B"]:
        with pytest.raises(ParseError):
            parse_query(bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_print_parse_roundtrip(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    query = rand_query(rng, depth=4)
    assert parse_query(format_query(query)) == query
