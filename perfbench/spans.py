"""Spans and counters around the library's layer boundaries.

`Tracer.install()` replaces each traced function, under every module-level
name that holds it in the `ltlqbe` package (callers import the names, so
`ltlqbe.qbe.simulates` is wrapped as well as `ltlqbe.tsys.simulates`), by
a wrapper that records a span (name, start, end, parent) in memory and
updates the layer's counters. `uninstall()` puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _ts_sizes(ts):
    return len(ts.states), len(ts.edges)


def _count_build(counts, args, out):
    states, edges = _ts_sizes(out)
    counts["represent.states"] += states
    counts["represent.edges"] += edges


def _count_prune(counts, args, out):
    counts["tsys.prune_dominated_edges.edges_in"] += len(args[0].edges)
    counts["tsys.prune_dominated_edges.edges_out"] += len(out.edges)


def _count_quotient(counts, args, out):
    counts["tsys.bisim_quotient.states_in"] += len(args[0].states)
    counts["tsys.bisim_quotient.states_out"] += len(out.states)


def _count_product(counts, args, out):
    states, edges = _ts_sizes(out)
    counts["tsys.product.states"] += states
    counts["tsys.product.edges"] += edges


def _count_lasso(counts, args, out):
    counts["horn.lasso_len.sum"] += out.lasso.pre + out.lasso.per
    counts["horn.lasso_len.n"] += 1


def _count_subsets(counts, args, out):
    counts["transform.split_per_negative.subsets"] += len(out)


# (module, function) -> (span name, counter update or None)
TARGETS = {
    ("qbe", "dp_path"): ("qbe.dp_path", None),
    ("qbe", "horn_diamond_search"): ("qbe.horn_diamond_search", None),
    ("qbe", "decide_until_family"): ("qbe.decide_until_family", None),
    ("qbe", "prior_path_search"): ("qbe.prior_path_search", None),
    ("qbe", "verify_witness"): ("qbe.verify_witness", None),
    ("transform", "split_per_negative"): ("transform.split_per_negative", _count_subsets),
    ("horn", "canonical_model"): ("horn.canonical_model", _count_lasso),
    ("horn", "consistent"): ("horn.consistent", None),
    ("prior", "prior_entails"): ("prior.prior_entails", None),
    ("prior", "prior_consistent"): ("prior.prior_consistent", None),
    ("represent", "repr_plain"): ("represent.build", _count_build),
    ("represent", "repr_horn"): ("represent.build", _count_build),
    ("represent", "repr_plain_br"): ("represent.build", _count_build),
    ("represent", "repr_horn_br"): ("represent.build", _count_build),
    ("tsys", "prune_dominated_edges"): ("tsys.prune_dominated_edges", _count_prune),
    ("tsys", "bisim_quotient"): ("tsys.bisim_quotient", _count_quotient),
    ("tsys", "product"): ("tsys.product", _count_product),
    ("tsys", "simulates"): ("tsys.simulates", None),
    ("tsys", "contained_in"): ("tsys.contained_in", None),
    ("tsys", "extract_failing_run"): ("tsys.extract", None),
    ("tsys", "extract_failing_subtree"): ("tsys.extract", None),
}

# span names whose call counts are reported
CALL_COUNTED = ("qbe.dp_path", "qbe.verify_witness", "horn.canonical_model", "prior.prior_entails")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def span(self, name: str, fn, measure=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                counts[name + ".calls"] += 1  # raising calls too, as the caches count them
            if measure is not None:
                measure(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ltlqbe" or n.startswith("ltlqbe.")]
        for (mod_name, attr), (name, measure) in TARGETS.items():
            original = getattr(sys.modules[f"ltlqbe.{mod_name}"], attr)
            wrapper = self.span(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_ms(self, scale_at=lambda start: 1.0) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover,
        each span's share multiplied by `scale_at(its start)`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3 * scale_at(start)
        return out

    def dump(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump(
                {
                    **extra,
                    "span_names": names,
                    "spans": [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
                },
                f,
                separators=(",", ":"),
            )
