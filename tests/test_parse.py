"""The formula grammar: parsed values, fragments and error positions."""

import dataclasses
import hashlib
import random

import pytest

from conftest import bench_workloads
from ltlqbe.core import Next, ParseError, Prop, Until, conj, parse_query
from ltlqbe.horn import OntologyParseError, load_ontology
from ltlqbe.prior import PAnd, PAtom, PBox, PImp, PNot, POr, PriorParseError, load_prior_ontology


def _shape(value):
    """A parsed value as nested tuples of class names and field values."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_shape(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    return value


def _query_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["A", "B", "C", "true", "false"])
    kind = rng.randrange(4)
    if kind == 0:
        return f"{rng.choice(['X', 'F'])} {_query_text(rng, depth - 1)}"
    op = "&" if kind < 3 else "U"
    text = f"{_query_text(rng, depth - 1)} {op} {_query_text(rng, depth - 1)}"
    return f"({text})" if rng.random() < 0.5 else text


def _digest(values) -> str:
    return hashlib.sha256(repr([_shape(v) for v in values]).encode()).hexdigest()[:16]


def test_parsed_values_digest_is_unchanged():
    workloads = bench_workloads()
    horn_texts = [workloads["horn-explore"].raw_set(1, i).ontology for i in range(3000)]
    prior_texts = [workloads["prior-diamond"].raw_set(1, i).ontology for i in range(3000)]
    rng = random.Random(2700)
    query_texts = [_query_text(rng, 5) for _ in range(3000)]
    assert _digest(map(load_ontology, horn_texts)) == "7a2fb57f8773befd"
    assert _digest(map(load_prior_ontology, prior_texts)) == "1e42ebeee46808ec"
    assert _digest(map(parse_query, query_texts)) == "1f7f110132e1ee47"


def _error(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def test_the_former_error_names_are_parse_error():
    assert OntologyParseError is ParseError and PriorParseError is ParseError
    assert issubclass(ParseError, ValueError)


@pytest.mark.parametrize(
    "parse, text, column",
    [(load_ontology, "A -> ?", 6), (load_prior_ontology, "A ->  ?", 7), (parse_query, "A  ?", 4), (parse_query, "A & \u00e9", 5)],
)
def test_an_unexpected_character_is_reported_at_its_own_column(parse, text, column):
    err = _error(parse, text)
    assert err.column == column - 1 and f"unexpected character {text[-1]!r}" in str(err)


def test_a_query_operator_outside_the_fragment_is_reported_at_its_own_column():
    err = _error(parse_query, "A | B")
    assert err.line is None and err.column == 2
    assert str(err) == "'|' is not allowed in queries (at column 3)"


# (text, column, message) per loader; an ontology's bad line is its third
_REJECTED = [
    (parse_query, "A & !B", 5, "'!' is not allowed in queries"),
    (parse_query, "A | B", 3, "'|' is not allowed in queries"),
    (parse_query, "A -> B", 3, "'->' is not allowed in queries"),
    (parse_query, "F G A", 3, "'G' is not allowed in queries"),
    (load_prior_ontology, "A -> X B", 6, "'X' is not allowed in box/diamond axioms"),
    (load_prior_ontology, "G (A U B)", 6, "'U' is not allowed in box/diamond axioms"),
    (load_ontology, "A U B -> C", 3, "'U' is not allowed in Horn axioms"),
    (load_ontology, "true -> A", 1, "'true' is not allowed in Horn axioms"),
    (load_ontology, "A | B -> C", 3, "'|' is not allowed in Horn axioms"),
    (load_ontology, "A & !B -> C", 5, "'!' is not allowed in Horn axioms"),
    (load_ontology, "X F A -> B", 3, "F may only lead a literal"),
    (load_ontology, "A -> F B", 6, "F is not allowed in axiom heads"),
    (load_ontology, "A -> B & C", 6, "an axiom head is one literal"),
    (load_ontology, "A & X B", 8, "expected '->'"),
]


@pytest.mark.parametrize("parse, text, column, message", _REJECTED)
def test_each_fragment_rejects_what_it_lacks_where_it_stands(parse, text, column, message):
    if parse is parse_query:
        err = _error(parse, text)
        assert str(err) == f"{message} (at column {column})"
    else:
        err = _error(parse, f"A -> B\n  # a comment\n{text}\n\nA -> B")
        assert err.line == 3 and str(err) == f"{message} (line 3, column {column})"
    assert err.column == column - 1


def test_horn_axioms_take_parentheses_around_a_literal_a_body_or_an_axiom():
    plain = load_ontology("X A & F G B -> G C")
    for text in ["(X A) & (F G B) -> (G C)", "(X A & F G B) -> G C", "X (A) & F (G B) -> G (C)", "(X A & F G B -> G C)"]:
        assert load_ontology(text) == plain
    for text in ["X (F A) -> B", "X (A & B) -> C", "(A -> B) & C -> D", "A -> (B -> C)"]:
        with pytest.raises(ParseError):
            load_ontology(text)


def test_any_whitespace_separates_tokens():
    # ontology lines took only spaces and tabs before the grammar was shared
    assert load_ontology("A\u00a0->\tB") == load_ontology("A -> B")
    assert load_prior_ontology("A\u2003->\u00a0F B") == load_prior_ontology("A -> F B")
    assert parse_query("A\n&\u00a0X B") == parse_query("A & X B")


def test_precedence_and_grouping():
    f = load_prior_ontology("A | B & !C -> G D -> E").axioms[0]
    assert f == PImp(POr(PAtom("A"), PAnd(PAtom("B"), PNot(PAtom("C")))), PImp(PBox(PAtom("D")), PAtom("E")))
    assert load_prior_ontology("A | B | C").axioms[0] == POr(POr(PAtom("A"), PAtom("B")), PAtom("C"))
    assert parse_query("A & B U X C U D") == Until(conj([Prop("A"), Prop("B")]), Until(Next(Prop("C")), Prop("D")))
