"""The library names the benchmark's spans wrap, read from perfbench/spans.py.

The spans fetch each `TARGETS` name with getattr, and their counters take
`len(.states)` and `len(.edges)` of the systems the represent and tsys
targets return.
"""

from collections import Counter
import importlib
import importlib.util
from pathlib import Path

from conftest import named
from ltlqbe import horn
from ltlqbe.core import DataInstance, data_word
from ltlqbe.represent import repr_horn, repr_plain, repr_plain_br

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    for mod, attr in _targets():
        assert callable(getattr(importlib.import_module(f"ltlqbe.{mod}"), attr)), (mod, attr)


def test_system_targets_have_sized_states_and_edges():
    d, sig = DataInstance.of([("A", 0), ("B", 2)]), frozenset("AB")
    onto = horn.load_ontology("A -> X B\nB -> X A")
    plain, plain_br = repr_plain(data_word(d), sig), repr_plain_br(data_word(d), sig)
    args = {
        "repr_plain": (data_word(d), sig),
        "repr_horn": (onto, d, sig),
        "repr_plain_br": (data_word(d), sig),
        "repr_horn_br": (onto, d, sig),
        "product": ([plain, repr_horn(onto, d, sig)],),
        "bisim_quotient": (plain_br,),
        "prune_dominated_edges": (plain_br,),
    }
    checked = set()
    for (mod, attr), (_, measure) in _targets().items():
        if mod not in ("represent", "tsys") or measure is None:
            continue
        given = args[attr]
        out = getattr(importlib.import_module(f"ltlqbe.{mod}"), attr)(*given)
        spelled = named(out)
        states, edges = len(spelled.states), len(spelled.edges)
        assert states > 0 and edges > 0
        assert (len(out.states), len(out.edges)) == (states, edges)
        counts: Counter = Counter()
        measure(counts, given, out)
        # each counter of the output reads its state or its edge count
        out_counts = {k: v for k, v in counts.items() if not k.endswith("_in")}
        assert out_counts, attr
        for key, value in out_counts.items():
            assert value == (states if "states" in key else edges), (attr, key)
        checked.add(attr)
    assert checked == set(args)
