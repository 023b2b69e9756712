"""Command-line front end.

Commands: separable, eval, canonical, from-words.  Example sets travel as
JSON ({"format": 1, "signature": [...], "positives": [{"name": ...,
"facts": [["T", 2], ...]}], "negatives": [...]}); ontologies as axiom text
files.  Exit codes: 0 separable / true, 1 not separable / false, 2 usage or
parse error, 3 resource cap hit, 4 oracle disagreement, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from . import horn, prior, qbe
from .core import (
    Bot,
    DataInstance,
    ExampleSet,
    Next,
    ParseError,
    QueryClass,
    Until,
    data_word,
    eval_lasso,
    parse_query,
    subqueries,
)
from .horn import Inconsistent
from .oracle import OracleCap, brute_force_decide
from .qbe import Problem, ResourceCap, UnsupportedProblem, decide, minimize_witness

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

FORMAT_VERSION = 1


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}: invalid JSON at line {ex.lineno}, column {ex.colno}") from ex


def _parse_instance(obj, what: str) -> DataInstance:
    if not isinstance(obj, dict) or not isinstance(obj.get("facts"), list):
        raise InputError(f"{what}: expected an object with a 'facts' list")
    facts = []
    for fact in obj["facts"]:
        # bool is an int subclass: JSON true must not read as timestamp 1
        if not (
            isinstance(fact, list)
            and len(fact) == 2
            and isinstance(fact[0], str)
            and type(fact[1]) is int
        ):
            raise InputError(f"{what}: facts must be [atom, timestamp] pairs")
        if fact[1] < 0:
            raise InputError(f"{what}: negative timestamp {fact[1]}")
        facts.append((fact[0], fact[1]))
    try:
        return DataInstance.of(facts)
    except ValueError as ex:
        raise InputError(f"{what}: {ex}") from ex


def _load_document(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_VERSION:
        raise InputError(f"{path}: expected an object with \"format\": {FORMAT_VERSION}")
    return doc


def load_example_set(path: str) -> ExampleSet:
    doc = _load_document(path)
    sides = []
    for side in ("positives", "negatives"):
        objs = doc.get(side, [])
        if not isinstance(objs, list):
            raise InputError(f"{path}: '{side}' must be a list")
        sides.append([_parse_instance(o, f"{side}[{i}]") for i, o in enumerate(objs)])
    return ExampleSet.of(*sides)


def load_data_instance(path: str) -> DataInstance:
    return _parse_instance(_load_document(path), path)


def _load_ontology(path: str | None, kind: str):
    if path is None:
        return None
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}") from ex
    if kind == "prior":
        return prior.load_prior_ontology(text)
    return horn.load_ontology(text)


_CLASSES = {c.value: c for c in QueryClass}
_CACHES = {
    "data_word": data_word,
    "canonical_model": horn._canonical_model,
    "until_store": qbe._instance_systems,
    "prior_search": prior._shape_search,
    "prior_entails": prior.prior_entails,
}


def _cmd_separable(args) -> int:
    e = load_example_set(args.input)
    onto = _load_ontology(args.ontology, args.ontology_kind)
    p = Problem(_CLASSES[args.cls], e, onto)
    t0 = time.monotonic()
    before = {name: cache.cache_info() for name, cache in _CACHES.items()}
    verdict = decide(p)
    after = {name: cache.cache_info() for name, cache in _CACHES.items()}
    witness = verdict.witness
    if verdict.separable and args.minimize:
        witness = minimize_witness(p, witness)
    if args.oracle_check:
        reference = brute_force_decide(p)
        if reference.separable != verdict.separable:
            print(
                json.dumps(
                    {
                        "format": FORMAT_VERSION,
                        "error": "engine and oracle disagree",
                        "engine": verdict.separable,
                        "oracle": reference.separable,
                    }
                )
            )
            return EXIT_ORACLE
    out = {"format": FORMAT_VERSION, "separable": verdict.separable}
    if verdict.separable and (args.emit_query or args.minimize):
        out["witness"] = str(witness)
    if verdict.note:
        out["note"] = verdict.note
    out["stats"] = {
        "time_ms": round(1000 * (time.monotonic() - t0), 3),
        "positives": len(e.positives),
        "negatives": len(e.negatives),
    }
    for name, b in before.items():
        out["stats"][name] = {"hits": after[name].hits - b.hits, "misses": after[name].misses - b.misses}
    print(json.dumps(out))
    return EXIT_TRUE if verdict.separable else EXIT_FALSE


def _cmd_eval(args) -> int:
    q = parse_query(args.query)
    d = load_data_instance(args.data)
    onto = _load_ontology(args.ontology, args.ontology_kind)
    if args.at < 0:
        raise InputError(f"negative timepoint {args.at}")
    words = qbe.models(onto, d)
    if words == ():
        raise Inconsistent("they have no model")
    if words is None:
        if args.at != 0:
            raise InputError("box/diamond entailment is defined at timepoint 0")
        if not isinstance(q, Bot) and any(isinstance(s, (Bot, Next, Until)) for s in subqueries(q)):
            raise InputError(f"box/diamond entailment takes true, false, atoms, & and F only: {q}")
        value = not isinstance(q, Bot) and prior.prior_entails(onto, d, q)  # consistent: false is not certain
    else:
        value = all(eval_lasso(word, q, word.fold(args.at)) for word in words)
    print("true" if value else "false")
    return EXIT_TRUE if value else EXIT_FALSE


def _cmd_canonical(args) -> int:
    onto = _load_ontology(args.ontology, "horn")
    d = load_data_instance(args.data)
    if args.window is not None and args.window < 0:
        raise InputError(f"negative window {args.window}")
    cm = horn.canonical_model(onto, d)
    window = args.window if args.window is not None else cm.horizon
    out = {
        "format": FORMAT_VERSION,
        "handle": cm.handle,
        "period": cm.period,
        "prefix": [sorted(s) for s in cm.lasso.prefix],
        "loop": [sorted(s) for s in cm.lasso.loop],
        "window": [sorted(cm.lasso.letter(n)) for n in range(window)],
    }
    print(json.dumps(out))
    return EXIT_TRUE


def words_example_set(positives: list[str], negatives: list[str]) -> ExampleSet:
    """Words become instances: 1-based position i carries the letter atom."""

    def of_word(w: str) -> DataInstance:
        try:
            return DataInstance.of((ch, i) for i, ch in enumerate(w, start=1))
        except ValueError as ex:
            raise InputError(f"word {w!r}: {ex}") from ex

    return ExampleSet.of([of_word(w) for w in positives], [of_word(w) for w in negatives])


def _separating_factor(positives: list[str], negatives: list[str]) -> qbe.Verdict:
    """The first factor of the first positive, by length and then by
    position, that is a factor of every positive and of no negative."""
    first = positives[0]
    for n in range(1, len(first) + 1):
        for i in range(len(first) - n + 1):
            f = first[i : i + n]
            if all(f in w for w in positives) and not any(f in w for w in negatives):
                blocks = [(frozenset(),), tuple(frozenset(ch) for ch in f)]
                return qbe.Verdict(True, qbe._blocks_to_query(blocks, QueryClass.PATH_DIAMOND_CIRC_BLOCKS))
    return qbe.Verdict(False)


def _cmd_from_words(args) -> int:
    positives = [w for w in args.positives.split(",") if w]
    negatives = [w for w in args.negatives.split(",") if w] if args.negatives else []
    if not positives:
        raise InputError("need at least one positive word")
    e = words_example_set(positives, negatives)
    if args.mode == "subsequence":
        verdict = qbe.dp_path(e, [data_word(d) for d in e.instances], QueryClass.PATH_DIAMOND)
    else:
        verdict = _separating_factor(positives, negatives)
    out = {"format": FORMAT_VERSION, "separable": verdict.separable, "mode": args.mode}
    if verdict.separable:
        out["witness"] = str(verdict.witness)
    print(json.dumps(out))
    return EXIT_TRUE if verdict.separable else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlqbe", description="Query-by-example for positive LTL fragments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("separable", help="decide separability of an example set")
    p_sep.add_argument("--class", dest="cls", required=True, choices=sorted(_CLASSES))
    p_sep.add_argument("--input", required=True, help="example-set JSON file")
    p_sep.add_argument("--ontology", help="axiom file")
    p_sep.add_argument("--ontology-kind", choices=["horn", "prior"], default="horn")
    p_sep.add_argument("--emit-query", action="store_true")
    p_sep.add_argument("--minimize", action="store_true")
    p_sep.add_argument("--oracle-check", action="store_true")
    p_sep.set_defaults(func=_cmd_separable)

    p_eval = sub.add_parser("eval", help="evaluate a query on a data instance")
    p_eval.add_argument("--query", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--at", type=int, default=0)
    p_eval.add_argument("--ontology")
    p_eval.add_argument("--ontology-kind", choices=["horn", "prior"], default="horn")
    p_eval.set_defaults(func=_cmd_eval)

    p_can = sub.add_parser("canonical", help="print the least-model lasso")
    p_can.add_argument("--ontology", required=True)
    p_can.add_argument("--data", required=True)
    p_can.add_argument("--window", type=int)
    p_can.set_defaults(func=_cmd_canonical)

    p_words = sub.add_parser("from-words", help="separability of words")
    p_words.add_argument("--positives", required=True, help="comma-separated words")
    p_words.add_argument("--negatives", default="", help="comma-separated words")
    p_words.add_argument("--mode", choices=["subsequence", "subword"], default="subsequence")
    p_words.set_defaults(func=_cmd_from_words)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ParseError, UnsupportedProblem) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceCap, OracleCap) as ex:
        print(f"resource cap: {ex}", file=sys.stderr)
        return EXIT_CAP
    except Inconsistent as ex:
        print(f"error: ontology and data are inconsistent: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as ex:  # a bug, not bad input: WitnessError, ChaseWindowOverflow, ...
        traceback.print_exc()
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
