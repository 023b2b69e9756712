import json
import time

import pytest

from conftest import forbid_query_search
from ltlqbe import cli, prior, qbe
from ltlqbe.cli import main
from ltlqbe.qbe import WitnessError
from test_horn import LONG_CHAIN_ONTOLOGY

EX1 = {
    "format": 1,
    "signature": ["T", "V"],
    "positives": [
        {"name": "p1", "facts": [["T", 2], ["V", 4]]},
        {"name": "p2", "facts": [["T", 1], ["V", 4]]},
    ],
    "negatives": [
        {"name": "n1", "facts": [["T", 1]]},
        {"name": "n2", "facts": [["V", 4]]},
        {"name": "n3", "facts": [["V", 1], ["T", 2]]},
    ],
}

EX2 = {
    "format": 1,
    "signature": ["T", "V"],
    "positives": [
        {"facts": [["T", 2], ["V", 4]]},
        {"facts": [["V", 1], ["T", 4]]},
    ],
    "negatives": [{"facts": [["T", 1]]}, {"facts": [["V", 4]]}],
}


@pytest.fixture
def ex1(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(json.dumps(EX1))
    return str(p)


@pytest.fixture
def ex2(tmp_path):
    p = tmp_path / "ex2.json"
    p.write_text(json.dumps(EX2))
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.strip()
    return rc, out


def test_separable_exit_zero_and_witness(ex1, capsys):
    rc, out = run(capsys, ["separable", "--class", "path-diamond", "--input", ex1, "--emit-query"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["separable"] is True and doc["format"] == 1
    assert "witness" in doc and "stats" in doc


def test_separable_exit_one(ex2, capsys):
    rc, out = run(capsys, ["separable", "--class", "path-diamond", "--input", ex2])
    assert rc == 1
    assert json.loads(out)["separable"] is False


def test_separable_minimize_and_oracle_check(ex1, capsys):
    rc, out = run(
        capsys,
        [
            "separable",
            "--class",
            "path-diamond",
            "--input",
            ex1,
            "--minimize",
            "--oracle-check",
        ],
    )
    assert rc == 0
    assert "witness" in json.loads(out)


def test_separable_stats_count_the_until_store(tmp_path, capsys):
    # the instances are one word up to atom renaming, two atoms at 1 and 2:
    # one shape, built once; the positives' common block is empty, so the
    # set takes the until route
    doc = {
        "format": 1,
        "positives": [{"facts": [["A", 1], ["B", 2]]}, {"facts": [["B", 1], ["A", 2]]}],
        "negatives": [{"facts": [["C", 1], ["A", 2]]}],
    }
    inp = tmp_path / "renamed.json"
    inp.write_text(json.dumps(doc))
    qbe._record.cache_clear()
    qbe._instance_systems.cache_clear()
    rc, out = run(capsys, ["separable", "--class", "path-until", "--input", str(inp)])
    assert rc == 0
    store = json.loads(out)["stats"]["until_store"]
    assert store["misses"] == 1 and store["hits"] >= 1


def test_separable_stats_count_the_prior_search_store(tmp_path, capsys):
    # {A@1, C@2} has no least word under A -> F B, so the set needs word
    # searches; the same set and ontology with every atom renamed have the
    # same shape, and the store answers all of their searches
    doc = {
        "format": 1,
        "positives": [{"facts": [["A", 1], ["C", 2]]}],
        "negatives": [{"facts": [["C", 2]]}, {"facts": [["A", 0]]}],
    }
    ren = {"A": "Pa", "B": "Qb", "C": "Rc"}
    renamed = {side: [{"facts": [[ren[a], t] for a, t in d["facts"]]} for d in doc[side]]
               for side in ("positives", "negatives")}
    for cache in (qbe._record, prior._shape_search, prior.prior_consistent, prior.prior_entails):
        cache.cache_clear()
    outs = []
    for name, data, axioms in (("plain", doc, "A -> F B\n!(A & B)\n"),
                               ("renamed", {"format": 1, **renamed}, "Pa -> F Qb\n!(Pa & Qb)\n")):
        inp, onto = tmp_path / f"{name}.json", tmp_path / f"{name}.ltl"
        inp.write_text(json.dumps(data))
        onto.write_text(axioms)
        argv = ["separable", "--class", "branch-diamond", "--input", str(inp), "--emit-query",
                "--ontology", str(onto), "--ontology-kind", "prior"]
        rc, out = run(capsys, argv)
        assert rc == 0
        outs.append(json.loads(out))
    assert outs[0]["witness"] == "F A" and outs[1]["witness"] == "F Pa"
    first, second = (o["stats"]["prior_search"] for o in outs)
    assert first["misses"] >= 1
    assert second["misses"] == 0 and second["hits"] >= 1


def _settles_without_a_search(tmp_path, capsys, monkeypatch, doc: dict, ontology: str):
    """`separable` under the box/diamond ontology answers not separable for
    both box/diamond classes, with no `prior_path_search` and no
    `prior_entails` miss, and path-until is refused."""
    inp, onto = tmp_path / "held.json", tmp_path / "onto.ltl"
    inp.write_text(json.dumps(doc))
    onto.write_text(ontology)
    monkeypatch.setattr(qbe, "prior_path_search", lambda *a, **k: pytest.fail("prior_path_search ran"))
    argv = ["--input", str(inp), "--ontology", str(onto), "--ontology-kind", "prior"]
    for cls in ("path-diamond", "branch-diamond"):
        qbe._record.cache_clear()
        t0 = time.monotonic()
        rc, out = run(capsys, ["separable", "--class", cls, *argv])
        assert rc == 1 and time.monotonic() - t0 < 1.0
        assert json.loads(out)["stats"]["prior_entails"]["misses"] == 0
    assert main(["separable", "--class", "path-until", *argv]) == 2


def test_a_negative_with_a_positive_s_facts_settles_box_diamond_data_without_a_search(tmp_path, capsys, monkeypatch):
    # neither axiom is a chase rule, so {B@0} has no least word; the
    # negative {A@1, B@0} contains it
    doc = {
        "format": 1,
        "positives": [{"facts": [["A", 0], ["B", 2], ["B", 3]]}, {"facts": [["B", 0]]}],
        "negatives": [{"facts": [["A", 1], ["B", 0]]}, {"facts": [["A", 1], ["A", 3], ["B", 0]]}],
    }
    _settles_without_a_search(tmp_path, capsys, monkeypatch, doc, "G B -> G A\nG B | !B\n")


def test_a_negative_whose_least_word_holds_a_positive_settles_box_diamond_data_without_a_search(
    tmp_path, capsys, monkeypatch
):
    # {A@1} has no least word under A -> F B; the negative's facts do not
    # contain it, but its least word, which chases C@1 to A@1, does
    doc = {"format": 1, "positives": [{"facts": [["A", 1]]}], "negatives": [{"facts": [["C", 1], ["B", 3]]}]}
    _settles_without_a_search(tmp_path, capsys, monkeypatch, doc, "C -> A\nA -> F B\n")


def test_separable_with_horn_ontology(tmp_path, capsys):
    doc = dict(EX1)
    doc["positives"] = [
        {"facts": [["H", 3], ["V", 4]]},
        {"facts": [["T", 1], ["V", 4]]},
    ]
    inp = tmp_path / "horn.json"
    inp.write_text(json.dumps(doc))
    onto = tmp_path / "onto.ltl"
    onto.write_text("X H -> T\n")
    rc, out = run(
        capsys,
        ["separable", "--class", "path-diamond", "--input", str(inp), "--ontology", str(onto)],
    )
    assert rc == 0


def test_prior_inconsistent_positives_exit_zero(tmp_path, capsys):
    inp = tmp_path / "ex.json"
    inp.write_text(
        json.dumps(
            {
                "format": 1,
                "positives": [{"facts": [["A", 0], ["B", 0]]}],
                "negatives": [{"facts": [["A", 1]]}],
            }
        )
    )
    onto = tmp_path / "onto.ltl"
    onto.write_text("!(A & B)\n")
    argv = ["separable", "--class", "path-diamond", "--input", str(inp), "--emit-query"]
    argv += ["--ontology", str(onto), "--ontology-kind", "prior"]
    rc, out = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["witness"] == "false"


def test_internal_error_exit_five(ex1, monkeypatch):
    def broken(p):
        raise WitnessError("witness does not separate")

    monkeypatch.setattr(cli, "decide", broken)
    assert main(["separable", "--class", "path-diamond", "--input", ex1]) == 5


def test_malformed_json_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = main(["separable", "--class", "path-diamond", "--input", str(p)])
    assert rc == 2


def test_missing_format_exit_two(tmp_path):
    p = tmp_path / "v0.json"
    p.write_text(json.dumps({"positives": [], "negatives": []}))
    assert main(["separable", "--class", "path-diamond", "--input", str(p)]) == 2


def test_bad_class_exit_two(ex1):
    assert main(["separable", "--class", "nope", "--input", ex1]) == 2


def test_plain_value_error_exits_five(ex1, monkeypatch, capsys):
    def broken(p):
        raise ValueError("an engine bug")

    monkeypatch.setattr(cli, "decide", broken)
    assert main(["separable", "--class", "path-diamond", "--input", ex1]) == 5
    assert "internal error" in capsys.readouterr().err


def test_bad_atom_in_input_exit_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": 1, "positives": [{"facts": [["1A", 0]]}]}))
    assert main(["separable", "--class", "path-diamond", "--input", str(p)]) == 2


# each malformed input as the document for `separable --input` and for
# `eval --data`; the first four are one bad instance
_BAD_INSTANCES = {
    "bool-timestamp": {"facts": [["A", True]]},
    "int-atom": {"facts": [[5, 1]]},
    "null-atom": {"facts": [[None, 1]]},
    "facts-not-a-list": {"facts": 3},
}
_MALFORMED = {
    **{k: ({"format": 1, "positives": [o]}, {"format": 1, **o}) for k, o in _BAD_INSTANCES.items()},
    "null-positives": ({"format": 1, "positives": None}, {"format": 1, "positives": None}),
    "top-level-list": ([1], [1]),
}


@pytest.mark.parametrize("command", ["separable", "eval"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_example_json_exit_two(tmp_path, capsys, command, case):
    doc = _MALFORMED[case][command == "eval"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    if command == "separable":
        argv = ["separable", "--class", "path-diamond", "--input", str(p)]
    else:
        argv = ["eval", "--query", "A", "--data", str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and err[-1].startswith("error:")


@pytest.mark.parametrize("kind,text", [("horn", "A -> \n"), ("prior", "A -> X B\n")])
def test_bad_ontology_exit_two(ex1, tmp_path, kind, text):
    onto = tmp_path / "o.ltl"
    onto.write_text(text)
    argv = ["separable", "--class", "path-diamond", "--input", ex1]
    assert main(argv + ["--ontology", str(onto), "--ontology-kind", kind]) == 2


@pytest.mark.parametrize(
    "kind, text, where",
    [("horn", "A -> B\nA -> F B\n", "(line 2, column 6)"), ("prior", "# c\n\nA U B\n", "(line 3, column 3)")],
)
def test_bad_ontology_names_line_and_column(ex1, tmp_path, capsys, kind, text, where):
    onto = tmp_path / "o.ltl"
    onto.write_text(text)
    argv = ["separable", "--class", "path-diamond", "--input", ex1, "--ontology", str(onto)]
    assert main(argv + ["--ontology-kind", kind]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and err.endswith(where)


def test_bad_query_names_its_column(tmp_path, capsys):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    assert main(["eval", "--query", "A | B", "--data", str(data)]) == 2
    assert capsys.readouterr().err.strip() == "error: '|' is not allowed in queries (at column 3)"


def test_unsupported_class_under_prior_exit_two(ex1, tmp_path):
    onto = tmp_path / "o.ltl"
    argv = ["separable", "--class", "path-until", "--input", ex1, "--ontology", str(onto)]
    # the negative T(1) is no model of T -> F V; every instance is one of A -> F B
    onto.write_text("T -> F V\n")
    assert main(argv + ["--ontology-kind", "prior"]) == 2
    onto.write_text("A -> F B\n")
    assert main(argv + ["--ontology-kind", "prior"]) == 0


def test_data_may_use_any_atom_name(tmp_path, capsys):
    # an F body literal adds no atom, so no name is kept from the data
    onto = tmp_path / "o.ltl"
    onto.write_text("F A -> B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["Dia__1", 0], ["A", 2]]}))
    argv = ["--data", str(data), "--ontology", str(onto)]
    rc, out = run(capsys, ["eval", "--query", "B & Dia__1"] + argv)
    assert (rc, out) == (0, "true")
    rc, out = run(capsys, ["eval", "--query", "Dia__1", "--at", "1"] + argv)
    assert (rc, out) == (1, "false")
    rc, out = run(capsys, ["canonical"] + argv)
    assert rc == 0 and json.loads(out)["prefix"] == [["B", "Dia__1"], ["B"], ["A"]]
    example = tmp_path / "e.json"
    positive, negative = {"facts": [["Dia__1", 0], ["A", 2]]}, {"facts": [["A", 2]]}
    example.write_text(json.dumps({"format": 1, "positives": [positive], "negatives": [negative]}))
    argv = ["separable", "--class", "path-diamond", "--input", str(example), "--ontology", str(onto)]
    rc, out = run(capsys, argv + ["--emit-query"])
    assert rc == 0 and "Dia__1" in json.loads(out)["witness"]


@pytest.mark.parametrize("query", ["X A", "A U B", "F false"])
def test_eval_prior_query_outside_fragment_exit_two(tmp_path, query):
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> F B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    argv = ["eval", "--query", query, "--data", str(data), "--ontology", str(onto)]
    assert main(argv + ["--ontology-kind", "prior"]) == 2


def test_eval_command(tmp_path, capsys):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["T", 2], ["V", 4]]}))
    rc, out = run(capsys, ["eval", "--query", "F(T & F F V)", "--data", str(data)])
    assert rc == 0 and out == "true"
    rc, out = run(capsys, ["eval", "--query", "F(V & F T)", "--data", str(data)])
    assert rc == 1 and out == "false"
    rc, out = run(capsys, ["eval", "--query", "true", "--data", str(data), "--at", "7"])
    assert rc == 0 and out == "true"


def test_eval_with_ontology(tmp_path, capsys):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["H", 3], ["V", 4]]}))
    onto = tmp_path / "o.ltl"
    onto.write_text("X H -> T\n")
    rc, out = run(
        capsys,
        ["eval", "--query", "F(T & F F V)", "--data", str(data), "--ontology", str(onto)],
    )
    assert rc == 0 and out == "true"


@pytest.mark.parametrize("kind,text", [("horn", "A -> false\n"), ("prior", "!A\n")])
def test_eval_inconsistent_exit_two(tmp_path, capsys, kind, text):
    onto = tmp_path / "o.ltl"
    onto.write_text(text)
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    argv = ["eval", "--query", "B", "--data", str(data), "--ontology", str(onto)]
    assert main(argv + ["--ontology-kind", kind]) == 2
    assert "inconsistent" in capsys.readouterr().err


def test_eval_prior_data_that_is_a_model_answers_every_query(tmp_path, capsys):
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> F B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0], ["B", 1]]}))
    argv = ["eval", "--data", str(data), "--ontology", str(onto), "--ontology-kind", "prior"]
    for query, at, expected in [("X B", 0, "true"), ("A U B", 0, "true"), ("X A", 0, "false"), ("B", 1, "true")]:
        rc, out = run(capsys, argv + ["--query", query, "--at", str(at)])
        assert (rc, out) == (0 if expected == "true" else 1, expected), query


def test_eval_prior_chased_data_answers_every_query(tmp_path, capsys):
    # {A1} is no model of A -> B, but its least word, with B added at 1, is
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 1]]}))
    argv = ["eval", "--data", str(data), "--ontology", str(onto), "--ontology-kind", "prior"]
    for query, expected in [("X B", "true"), ("X (A & B)", "true"), ("B", "false"), ("X X B", "false")]:
        rc, out = run(capsys, argv + ["--query", query])
        assert (rc, out) == (0 if expected == "true" else 1, expected), query


def test_eval_prior_answers_a_query_true_on_the_data_without_a_search(tmp_path, capsys, monkeypatch):
    # {B@1, A@2} has no least word under A -> F B; a query that holds at 0 on
    # its own word is certain, as every model lies above that word
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> F B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["B", 1], ["A", 2]]}))
    argv = ["eval", "--data", str(data), "--ontology", str(onto), "--ontology-kind", "prior"]
    prior.prior_entails.cache_clear()
    with monkeypatch.context() as m:
        forbid_query_search(m)
        for query in ("F (B & F A)", "F A"):
            assert run(capsys, argv + ["--query", query]) == (0, "true"), query
    assert run(capsys, argv + ["--query", "B"]) == (1, "false")


def test_eval_bad_query_exit_two(tmp_path):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": []}))
    assert main(["eval", "--query", "F(", "--data", str(data)]) == 2


def test_canonical_command(tmp_path, capsys):
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> C\nA -> X B\nB -> X X B\nB -> X C\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    rc, out = run(capsys, ["canonical", "--ontology", str(onto), "--data", str(data)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["handle"] == 2 and doc["period"] == 2
    assert doc["prefix"] == [["A", "C"], ["B"]] and doc["loop"] == [["C"], ["B"]]


def test_canonical_prints_only_data_and_ontology_atoms(tmp_path, capsys):
    # the printed lasso is the word queries are answered on
    from ltlqbe import horn, qbe
    from ltlqbe.core import DataInstance

    onto = tmp_path / "o.ltl"
    onto.write_text("F A -> B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 2]]}))
    rc, out = run(capsys, ["canonical", "--ontology", str(onto), "--data", str(data)])
    doc = json.loads(out)
    assert rc == 0 and doc["prefix"] == [["B"], ["B"], ["A"]] and doc["loop"] == [[]]
    (word,) = qbe.models(horn.load_ontology("F A -> B"), DataInstance.of([("A", 2)]))
    assert [sorted(s) for s in word.prefix + word.loop] == doc["prefix"] + doc["loop"]


def test_canonical_round_trip(tmp_path, capsys):
    from ltlqbe import horn
    from ltlqbe.core import DataInstance, LassoModel, eval_lasso, parse_query

    onto = tmp_path / "o.ltl"
    onto.write_text("X H -> T\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["H", 3], ["V", 4]]}))
    rc, out = run(capsys, ["canonical", "--ontology", str(onto), "--data", str(data)])
    doc = json.loads(out)
    lasso = LassoModel(
        tuple(frozenset(s) for s in doc["prefix"]), tuple(frozenset(s) for s in doc["loop"])
    )
    q = parse_query("F(T & F F V)")
    o = horn.load_ontology("X H -> T")
    d = DataInstance.of([("H", 3), ("V", 4)])
    assert eval_lasso(lasso, q, 0) == horn.certain_answer(o, d, q, 0)


def test_canonical_folds_a_long_backward_chain(tmp_path, capsys):
    # a consistent input whose chase once overflowed its fold margin (exit 5)
    onto = tmp_path / "o.ltl"
    onto.write_text(LONG_CHAIN_ONTOLOGY + "\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["B", 0], ["D", 0]]}))
    start = time.perf_counter()
    rc, out = run(capsys, ["canonical", "--ontology", str(onto), "--data", str(data)])
    assert rc == 0 and time.perf_counter() - start < 1
    doc = json.loads(out)
    assert doc["handle"] == 11 and doc["period"] == 24


def test_canonical_inconsistent_exit_two(tmp_path):
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> false\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    assert main(["canonical", "--ontology", str(onto), "--data", str(data)]) == 2


def test_from_words(capsys):
    rc, out = run(capsys, ["from-words", "--positives", "ab,cab", "--negatives", "ba"])
    assert rc == 0 and json.loads(out)["separable"] is True
    rc, out = run(capsys, ["from-words", "--positives", "ab", "--negatives", "ab"])
    assert rc == 1
    rc, out = run(capsys, ["from-words", "--positives", "a", "--negatives", "b"])
    assert rc == 0
    rc, out = run(
        capsys,
        ["from-words", "--positives", "xaby,zab", "--negatives", "axb", "--mode", "subword"],
    )
    assert rc == 0 and json.loads(out)["mode"] == "subword"


def test_from_words_matches_direct_subsequence_check(capsys):
    import itertools
    import random

    def is_subseq(s, w):
        it = iter(w)
        return all(ch in it for ch in s)

    rng = random.Random(9)
    for _ in range(30):
        words = ["".join(rng.choice("ab") for _ in range(rng.randrange(1, 5))) for _ in range(3)]
        pos, neg = words[:2], words[2:]
        expected = False
        shortest = min(pos, key=len)
        for r in range(1, len(shortest) + 1):
            for combo in itertools.combinations(shortest, r):
                cand = "".join(combo)
                if all(is_subseq(cand, w) for w in pos) and not any(
                    is_subseq(cand, w) for w in neg
                ):
                    expected = True
        rc, out = run(
            capsys,
            ["from-words", "--positives", ",".join(pos), "--negatives", ",".join(neg)],
        )
        assert (rc == 0) == expected, (pos, neg)


def test_from_words_subword_matches_direct_factor_check(capsys):
    import random

    rng = random.Random(10)
    for _ in range(60):
        words = ["".join(rng.choice("ab") for _ in range(rng.randrange(1, 6))) for _ in range(3)]
        pos, neg = words[:2], words[2:]
        # some nonempty factor of the shortest positive lies in every positive
        # and in no negative
        shortest = min(pos, key=len)
        factors = {
            shortest[i:j] for i in range(len(shortest)) for j in range(i + 1, len(shortest) + 1)
        }
        expected = any(
            all(f in w for w in pos) and not any(f in w for w in neg) for f in factors
        )
        rc, out = run(
            capsys,
            [
                "from-words",
                "--positives",
                ",".join(pos),
                "--negatives",
                ",".join(neg),
                "--mode",
                "subword",
            ],
        )
        assert (rc == 0) == expected, (pos, neg)


def test_eval_negative_timepoint_exit_two(tmp_path):
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    assert main(["eval", "--query", "A", "--data", str(data), "--at", "-1"]) == 2


@pytest.mark.parametrize("positives, negatives", [("a1b", "b"), ("ab", "a."), ("ab", "aXb")])
def test_from_words_bad_letter_exit_two(capsys, positives, negatives):
    # a letter that cannot name an atom is bad input, not an internal error
    assert main(["from-words", "--positives", positives, "--negatives", negatives]) == 2
    err = capsys.readouterr().err
    assert "bad atom name" in err and "internal error" not in err


def test_canonical_negative_window_exit_two(tmp_path, capsys):
    onto = tmp_path / "o.ltl"
    onto.write_text("A -> X B\n")
    data = tmp_path / "d.json"
    data.write_text(json.dumps({"format": 1, "facts": [["A", 0]]}))
    argv = ["canonical", "--ontology", str(onto), "--data", str(data), "--window"]
    assert main(argv + ["-1"]) == 2
    assert "negative window" in capsys.readouterr().err
    rc, out = run(capsys, argv + ["0"])
    assert rc == 0 and json.loads(out)["window"] == []
