"""Acceptance suite: golden examples, oracle equivalence, layer invariants.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Criterion 1 contains one sub-check that is expected to fail and
is marked xfail(strict): the source example's until-path claim is false
under the literal path-until grammar (see the test's docstring).
"""

import random
import time

import pytest

from conftest import (
    compile_next_to_diamond,
    lasso_is_model,
    lasso_models_of,
    lessdot,
    lessdot_mp,
    nabla,
    nabla_mp,
    rand_example_set,
    rand_horn_ontology,
    rand_instance,
    rand_query,
)
from ltlqbe import horn, qbe
from ltlqbe.core import (
    DataInstance,
    ExampleSet,
    QueryClass,
    eval_lasso,
    parse_query,
)
from ltlqbe.oracle import brute_force_decide
from ltlqbe.qbe import Problem, decide, entailed, verify_witness

D = DataInstance.of
fs = frozenset

ALL_CLASSES = (
    QueryClass.PATH_DIAMOND,
    QueryClass.PATH_NEXT_DIAMOND,
    QueryClass.PATH_DIAMOND_CIRC_BLOCKS,
    QueryClass.BRANCH_DIAMOND,
    QueryClass.BRANCH_NEXT_DIAMOND,
    QueryClass.PATH_UNTIL,
    QueryClass.SIMPLE_UNTIL,
    QueryClass.FULL_UNTIL,
)


def ex(pos, neg):
    return ExampleSet.of([D(p) for p in pos], [D(n) for n in neg])


def separates_by_eval(p: Problem, q) -> bool:
    return all(entailed(p.ontology, d, q) for d in p.examples.positives) and not any(
        entailed(p.ontology, d, q) for d in p.examples.negatives
    )


# ---------------------------------------------------------------------------
# Criterion 1: golden examples


def test_criterion_1_golden_examples():
    t0 = time.monotonic()
    checks = []

    def check(name, cond, budget=1.0):
        t = time.monotonic()
        ok = cond()
        checks.append((name, ok, time.monotonic() - t))
        assert ok, name
        assert time.monotonic() - t < budget, f"{name} exceeded 1s"

    # Example 1: engine failure runs
    ex1 = ex(
        [[("T", 2), ("V", 4)], [("T", 1), ("V", 4)]],
        [[("T", 1)], [("V", 4)], [("V", 1), ("T", 2)]],
    )
    p1 = Problem(QueryClass.PATH_DIAMOND, ex1)
    check("ex1 path-diamond separable", lambda: decide(p1).separable)
    check("ex1 paper query verifies", lambda: separates_by_eval(p1, parse_query("F(T & F F V)")))
    onto = horn.load_ontology("X H -> T")
    p1h = Problem(
        QueryClass.PATH_DIAMOND,
        ex([[("H", 3), ("V", 4)], [("T", 1), ("V", 4)]], [[("T", 1)], [("V", 4)], [("V", 1), ("T", 2)]]),
        onto,
    )
    check("ex1 horn separable", lambda: decide(p1h).separable)
    check("ex1 horn paper query", lambda: separates_by_eval(p1h, parse_query("F(T & F F V)")))
    p1u = Problem(
        QueryClass.PATH_UNTIL,
        ex([[("T", 1), ("V", 2)], [("T", 1), ("T", 2), ("V", 3)]], [[("T", 1), ("V", 3)]]),
    )
    check("ex1 until sub-example separable", lambda: decide(p1u).separable)
    check("ex1 T U V verifies", lambda: separates_by_eval(p1u, parse_query("T U V")))

    # Example 2
    ex2 = ex([[("T", 2), ("V", 4)], [("V", 1), ("T", 4)]], [[("T", 1)], [("V", 4)]])
    check("ex2 branch-diamond separable", lambda: decide(Problem(QueryClass.BRANCH_DIAMOND, ex2)).separable)
    check("ex2 path-diamond not", lambda: not decide(Problem(QueryClass.PATH_DIAMOND, ex2)).separable)

    # Example 3(a)
    ex3a = ex([[("A", 1)]], [[("A", 2)]])
    check("ex3a next separable", lambda: decide(Problem(QueryClass.PATH_NEXT_DIAMOND, ex3a)).separable)
    check("ex3a branch-diamond not", lambda: not decide(Problem(QueryClass.BRANCH_DIAMOND, ex3a)).separable)
    onto_a = horn.load_ontology("X A -> A")
    check(
        "ex3a horn nothing separable",
        lambda: all(not decide(Problem(cls, ex3a, onto_a)).separable for cls in ALL_CLASSES),
        budget=3.0,
    )

    # Example 3(b)
    ex3b = ex([[("A", 1), ("B", 2)], [("A", 2), ("B", 3)]], [[("A", 3), ("B", 5)]])
    check("ex3b branch-next separable", lambda: decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, ex3b)).separable)
    check("ex3b branch-diamond not", lambda: not decide(Problem(QueryClass.BRANCH_DIAMOND, ex3b)).separable)

    # Example 3(c)
    ex3c = ex([[("B", 1)], [("A", 1), ("B", 2)]], [[("B", 2)]])
    p3c = Problem(QueryClass.PATH_UNTIL, ex3c)
    check("ex3c path-until separable", lambda: decide(p3c).separable)
    check("ex3c A U B verifies", lambda: separates_by_eval(p3c, parse_query("A U B")))
    check("ex3c branch-next not", lambda: not decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, ex3c)).separable)

    # prod-unrav
    pu = ex(
        [[("A2", 4), ("B1", 4), ("B2", 5)], [("A1", 2), ("B2", 2), ("B1", 3)]],
        [[("B1", 2), ("B2", 4)]],
    )
    ppu = Problem(QueryClass.SIMPLE_UNTIL, pu)
    check("prod-unrav simple-until separable", lambda: decide(ppu).separable)
    check(
        "prod-unrav paper query verifies",
        lambda: separates_by_eval(ppu, parse_query("F(((A1 & B2) U B1) & ((A2 & B1) U B2))")),
    )

    # u-path-not-tree
    ut = ex(
        [[("B", 2), ("C", 2)], [("A", 2), ("B", 3), ("B", 4), ("C", 4)]],
        [[("A", 2), ("B", 3), ("B", 5), ("C", 5)]],
    )
    put = Problem(QueryClass.FULL_UNTIL, ut)
    check("u-path-not-tree full-until separable", lambda: decide(put).separable)
    check("u-path-not-tree (A U B) U C verifies", lambda: separates_by_eval(put, parse_query("(A U B) U C")))
    check(
        "u-path-not-tree simple-until not",
        lambda: not decide(Problem(QueryClass.SIMPLE_UNTIL, ut)).separable,
    )

    print(
        f"\nACCEPTANCE 1 PASS: {len(checks)} golden checks in {time.monotonic() - t0:.2f}s "
        "(one contradictory source claim tracked separately as xfail)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the source example's claim is false under its own definitions: "
        "X X F B1 (= false U false U true U B1) is a literal until-path query "
        "and separates the prod-unrav set, so the engine correctly reports "
        "separable; restricting the class instead provably breaks the pad-merge "
        "reduction (criterion 5)"
    ),
)
def test_criterion_1_prod_unrav_path_until_claim():
    pu = ex(
        [[("A2", 4), ("B1", 4), ("B2", 5)], [("A1", 2), ("B2", 2), ("B1", 3)]],
        [[("B1", 2), ("B2", 4)]],
    )
    verdict = decide(Problem(QueryClass.PATH_UNTIL, pu))
    print("\nACCEPTANCE 1 FAIL (expected): prod-unrav path-until reported "
          f"separable={verdict.separable} with witness {verdict.witness}")
    assert not verdict.separable


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence, ontology-free


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    per_class = 300
    total = 0
    for idx, cls in enumerate(ALL_CLASSES):
        rng = random.Random(22000 + idx)
        for i in range(per_class):
            e = rand_example_set(rng, max_ts=5, max_pos=3, max_neg=3)
            p = Problem(cls, e)
            engine = decide(p)
            oracle = brute_force_decide(p)
            assert engine.separable == oracle.separable, (
                cls.value,
                [sorted(d.facts) for d in e.positives],
                [sorted(d.facts) for d in e.negatives],
                engine.witness,
                oracle.witness,
            )
            if engine.separable:
                assert verify_witness(p, engine.witness)
            total += 1
    dt = time.monotonic() - t0
    assert dt < 600, f"criterion 2 exceeded 10 minutes ({dt:.0f}s)"
    print(f"\nACCEPTANCE 2 PASS: {total} problems across {len(ALL_CLASSES)} classes, "
          f"0 disagreements, {dt:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: the Horn layer


def test_criterion_3_horn_layer():
    t0 = time.monotonic()
    rng = random.Random(33000)
    periodicity_checked = 0
    while periodicity_checked < 100:
        onto = rand_horn_ontology(rng, max_axioms=4)
        d = rand_instance(rng, max_ts=4)
        try:
            cm = horn.canonical_model(onto, d)
        except horn.Inconsistent:
            continue
        start = d.max_timestamp + cm.handle
        for n in range(start, start + 2 * cm.period + 2):
            assert cm.lasso.letter(n) == cm.lasso.letter(n + cm.period)
        assert lasso_is_model(onto, d, cm.lasso)
        periodicity_checked += 1

    counter_checked = 0
    rng2 = random.Random(33001)
    while counter_checked < 100:
        onto = rand_horn_ontology(rng2, atoms=("A", "B"), max_axioms=2)
        d = rand_instance(rng2, atoms=("A", "B"), max_ts=2, max_facts=3)
        if not horn.consistent(onto, d):
            continue
        q = rand_query(rng2, atoms=("A", "B"), depth=2)
        answer = horn.certain_answer(onto, d, q, 0)
        refuted = None
        for model in lasso_models_of(onto, d, ("A", "B"), max_pre_extra=2, max_per=2):
            if not eval_lasso(model, q, model.fold(0)):
                refuted = model
                break
        if answer:
            assert refuted is None, (onto.axioms, sorted(d.facts), str(q))
        if refuted is not None:
            assert not answer
        counter_checked += 1

    verdicts_checked = 0
    overflows = 0  # random chases have never overflowed; one that does is a bug
    rng3 = random.Random(33002)
    while verdicts_checked < 100:
        onto = rand_horn_ontology(rng3, max_axioms=4)
        e = rand_example_set(rng3, max_ts=4, max_pos=2, max_neg=2)
        cls = rng3.choice(ALL_CLASSES)
        p = Problem(cls, e, onto)
        try:
            engine = decide(p)
        except horn.ChaseWindowOverflow:
            overflows += 1
            continue
        oracle = brute_force_decide(p)
        assert engine.separable == oracle.separable, (cls.value, onto.axioms)
        if engine.separable:
            assert verify_witness(p, engine.witness)
        verdicts_checked += 1
    assert overflows == 0, f"{overflows} chase window overflows"

    dt = time.monotonic() - t0
    print(f"\nACCEPTANCE 3 PASS: 100 periodicity + 100 countermodel + 100 verdict "
          f"checks, 0 contradictions, {dt:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: the successor calculus


def test_criterion_4_lessdot_nabla():
    assert lessdot(fs({1, 2, 3}), fs({3, 4}))
    assert nabla(fs({1, 2, 3}), fs({3, 4})) == fs({2})
    assert not lessdot(fs({1, 2}), fs({3, 4}))
    assert lessdot_mp(fs({1, 4, 6, 7}), fs({3, 5}), 2, 8)
    assert nabla_mp(fs({1, 4, 6, 7}), fs({3, 5}), 2, 8) == fs({2, 7})

    rng = random.Random(44000)
    for _ in range(1000):
        p = rng.randrange(2, 9)
        m = rng.randrange(0, p + 1)
        dset = fs(rng.sample(range(p), rng.randrange(1, p + 1)))
        eset = fs(rng.sample(range(p), rng.randrange(1, p + 1)))

        def direct_mu(wrap):
            mu = {}
            for x in sorted(dset):
                later = [e for e in sorted(eset) if e > x]
                if later:
                    mu[x] = later[0]
                elif wrap and m <= x < p:
                    periodic = [e for e in sorted(eset) if e >= m]
                    if not periodic:
                        return None
                    mu[x] = periodic[0]
                else:
                    return None
            return mu

        for wrap in (False, True):
            mu = direct_mu(wrap)
            holds = mu is not None and set(mu.values()) == set(eset)
            got = lessdot_mp(dset, eset, m, p) if wrap else lessdot(dset, eset)
            assert got == holds
            if mu is None:
                continue
            gaps = set()
            for x, e in mu.items():
                if x < e:
                    gaps.update(range(x + 1, e))
                else:
                    gaps.update(range(x + 1, p))
                    gaps.update(range(m, e))
            got_gaps = nabla_mp(dset, eset, m, p) if wrap else nabla(dset, eset)
            assert got_gaps == fs(gaps)
    print("\nACCEPTANCE 4 PASS: both worked examples exact, 1000 random "
          "cross-checks against the set-builder definitions")


# ---------------------------------------------------------------------------
# Criterion 5: metamorphic reductions


def merge_negatives_for_path_until(
    examples: ExampleSet, pad_b: str = "B", pad_c: str = "C"
) -> ExampleSet:
    """Concatenate all negatives into one, padding with fresh marker atoms.

    Preserves until-path separability.  Time-0 atoms are first stripped: the
    common time-0 atoms of the positives become an implicit rho_0 (negatives
    missing them are already separated and are dropped).
    """
    if not examples.positives:
        raise ValueError("need at least one positive example")
    sig = examples.signature
    if pad_b in sig or pad_c in sig:
        raise ValueError(f"pad atoms {pad_b!r}/{pad_c!r} already occur in the signature")

    rho0 = frozenset.intersection(*(d.atoms_at(0) for d in examples.positives))
    positives = [
        DataInstance(frozenset((a, t) for a, t in d.facts if t > 0)) for d in examples.positives
    ]
    negatives = [
        DataInstance(frozenset((a, t) for a, t in d.facts if t > 0))
        for d in examples.negatives
        if rho0 <= d.atoms_at(0)
    ]
    if len(positives) == 1:
        positives.append(positives[0])  # duplicates never change separability

    m = max(d.max_timestamp for d in positives + negatives) + 2

    def padded(d: DataInstance, offset: int) -> frozenset[tuple[str, int]]:
        facts = {(a, t + offset) for a, t in d.facts}
        facts.add((pad_b, offset))
        facts.update((pad_c, j) for j in range(offset + 1, offset + d.max_timestamp))
        return frozenset(facts)

    new_positives = [DataInstance(padded(positives[0], 1))]
    new_positives += [DataInstance(padded(d, m)) for d in positives[1:]]

    neg_facts: set[tuple[str, int]] = set()
    for i, d in enumerate(negatives, start=1):
        offset = (2 * i - 1) * m
        neg_facts.update((a, t + offset) for a, t in d.facts)
        neg_facts.add((pad_b, offset))
        neg_facts.update((pad_c, j) for j in range(offset + 1, 2 * i * m))
    return ExampleSet(tuple(new_positives), (DataInstance(frozenset(neg_facts)),))


def test_criterion_5_metamorphic():
    t0 = time.monotonic()
    rng = random.Random(55000)
    for _ in range(100):
        e = rand_example_set(rng, atoms=("A", "D"), max_ts=3, max_pos=2, max_neg=2)
        out = merge_negatives_for_path_until(e)
        before = decide(Problem(QueryClass.PATH_UNTIL, e)).separable
        after = decide(Problem(QueryClass.PATH_UNTIL, out)).separable
        assert before == after, (
            [sorted(d.facts) for d in e.positives],
            [sorted(d.facts) for d in e.negatives],
        )
        assert brute_force_decide(Problem(QueryClass.PATH_UNTIL, e)).separable == before

    rng2 = random.Random(55001)
    for _ in range(100):
        e = rand_example_set(rng2, atoms=("A", "B"), max_ts=3, max_pos=2, max_neg=2)
        out = compile_next_to_diamond(e)
        before = decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, e)).separable
        after = decide(Problem(QueryClass.BRANCH_DIAMOND, out)).separable
        assert before == after
        assert brute_force_decide(Problem(QueryClass.BRANCH_NEXT_DIAMOND, e)).separable == before
    print(f"\nACCEPTANCE 5 PASS: 100 pad-merge + 100 next-compilation cases "
          f"verdict-preserving, {time.monotonic() - t0:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: structural invariants


def test_criterion_6_structural_invariants():
    from test_tsys import rand_system
    from ltlqbe.tsys import contained_in, simulates

    t0 = time.monotonic()
    rng = random.Random(66000)
    for _ in range(150):
        a = rand_system(rng, n=rng.randrange(2, 5))
        b = rand_system(rng, n=rng.randrange(2, 5))
        c = rand_system(rng, n=rng.randrange(2, 5))
        assert simulates(a, a)
        if simulates(a, b) and simulates(b, c):
            assert simulates(a, c)
        if simulates(a, b):
            assert contained_in(a, b)

    rng2 = random.Random(66001)
    witnesses = 0
    for _ in range(120):
        e = rand_example_set(rng2, max_ts=4, max_pos=2, max_neg=2)
        verdicts = {}
        for cls in ALL_CLASSES:
            p = Problem(cls, e)
            qbe._record.cache_clear()  # each class on its own route, not from an earlier class's verdict
            v = decide(p)
            verdicts[cls] = v.separable
            if v.separable:
                assert verify_witness(p, v.witness)
                witnesses += 1
        if verdicts[QueryClass.PATH_UNTIL]:
            assert verdicts[QueryClass.SIMPLE_UNTIL]
        if verdicts[QueryClass.SIMPLE_UNTIL]:
            assert verdicts[QueryClass.FULL_UNTIL]
        if verdicts[QueryClass.PATH_DIAMOND]:
            assert verdicts[QueryClass.BRANCH_DIAMOND]
            assert verdicts[QueryClass.PATH_NEXT_DIAMOND]
    print(f"\nACCEPTANCE 6 PASS: preorder laws, containment implication, class "
          f"monotonicity, {witnesses} witnesses re-verified, {time.monotonic() - t0:.1f}s")


def test_criterion_7_statement():
    print(
        "\nACCEPTANCE 7 NOTE: asymptotic complexity classifications are not "
        "reproducible at desk scale; substituted by the oracle-equivalence "
        "and invariant suites above, as the criteria state"
    )
