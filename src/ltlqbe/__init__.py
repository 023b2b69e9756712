"""Query-by-example for positive LTL fragments over timestamped data."""

from .core import (
    DataInstance,
    ExampleSet,
    LassoModel,
    ParseError,
    Query,
    QueryClass,
    classify,
    eval_data,
    eval_lasso,
    in_class,
    parse_query,
    temporal_depth,
)
from .horn import HornOntology, Inconsistent, OntologyParseError, canonical_model, certain_answer, load_ontology
from .prior import PriorOntology, PriorParseError, load_prior_ontology, prior_consistent, prior_entails
from .qbe import Problem, Verdict, decide, minimize_witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "DataInstance",
    "ExampleSet",
    "LassoModel",
    "ParseError",
    "Query",
    "QueryClass",
    "classify",
    "eval_data",
    "eval_lasso",
    "in_class",
    "parse_query",
    "temporal_depth",
    "HornOntology",
    "Inconsistent",
    "OntologyParseError",
    "canonical_model",
    "certain_answer",
    "load_ontology",
    "PriorOntology",
    "PriorParseError",
    "load_prior_ontology",
    "prior_consistent",
    "prior_entails",
    "Problem",
    "Verdict",
    "decide",
    "minimize_witness",
    "verify_witness",
]
