"""Benchmark of `ltlqbe.qbe.decide` on seeded example sets.

    python3 perfbench/run.py --workload until-plain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A set is one example set, with its ontology if the workload has one; it is
decided once for every query class of its workload. The run decides a fixed
number of sets one after another, in one thread, as many as the workload
decides in `--seconds` on a slow machine. Times are rescaled to a reference machine
speed (see `speed.py`). The run then checks every verdict against the
benchmark's own evaluator, the class inclusions and the oracle verdict file,
and prints one JSON line: end-to-end metrics with `--trace 0`, per-layer
metrics from spans around the library's functions with `--trace 1`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SETS = 100  # so that at least ten sets lie beyond p90
SETUP_SAMPLES = 6  # half before the pass, half after
SPEED_SAMPLES = 25  # loop times behind the speed of a set-up probe
HASH_SEED = "0"  # search order follows string-set iteration; see README

# class inclusions of the query grammar: separable in the first class
# implies separable in the second
INCLUSIONS = (
    ("path-diamond", "path-next-diamond"),
    ("path-diamond", "path-diamond-circ-blocks"),
    ("path-diamond", "branch-diamond"),
    ("path-next-diamond", "branch-next-diamond"),
    ("path-diamond-circ-blocks", "branch-next-diamond"),
    ("branch-diamond", "branch-next-diamond"),
    ("path-next-diamond", "path-until"),
    ("branch-next-diamond", "simple-until"),
    ("path-until", "simple-until"),
    ("simple-until", "full-until"),
)


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ltlqbe

    where = os.path.dirname(os.path.abspath(ltlqbe.__file__))
    if where != os.path.join(ROOT, "src", "ltlqbe"):
        raise ImportError(f"ltlqbe imported from {where}, not from this checkout's src/")


def build_sets(workload, seed: int, count: int) -> list:
    """The workload's first `count` sets as (raw set, one Problem per class) pairs."""
    from ltlqbe import horn, prior
    from ltlqbe.core import DataInstance, ExampleSet, QueryClass
    from ltlqbe.qbe import Problem

    parse = {"horn": horn.load_ontology, "prior": prior.load_prior_ontology}.get(workload.kind)
    classes = [QueryClass(c) for c in workload.classes]
    out = []
    for i in range(count):
        raw = workload.raw_set(seed, i)
        examples = ExampleSet.of(
            [DataInstance.of(d) for d in raw.positives], [DataInstance.of(d) for d in raw.negatives]
        )
        onto = parse(raw.ontology) if parse else None
        out.append((raw, [Problem(c, examples, onto) for c in classes]))
    return out


def set_count(workload, seconds: float) -> int:
    """Sets per run: as many as the workload decides in `seconds` on a slow machine."""
    return max(MIN_SETS, round(workload.sets_per_second * seconds))


def _setup_probes(args, count: int) -> list[tuple[float, float]]:
    """(wall s, rescaled s) of fresh processes, from spawn until their inputs
    are ready to decide. Each process samples the machine's speed itself,
    just after it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            scale = child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        out.append((wall, wall * float(scale)))
    return out


def _decide_pass(sets):
    """Decide every set once.

    Returns, per set: its start time, its wall time and that of each class
    in ms, the factor that rescales them (`speed.SpeedLog.scale`), and its
    verdicts.
    """
    from ltlqbe.qbe import decide

    log = speed.SpeedLog()
    rows = []
    for _, problems in sets:
        k = log.tick()
        out, class_ms = [], []
        t0 = time.perf_counter()
        for p in problems:
            c0 = time.perf_counter()
            try:
                out.append(decide(p))
            except Exception as exc:  # a failed decide is counted, not fatal
                out.append(exc)
            class_ms.append((time.perf_counter() - c0) * 1e3)
        rows.append((t0, (time.perf_counter() - t0) * 1e3, class_ms, k, out))
    log.tick()  # a sample after the last set too
    return [(t0, ms, class_ms, log.scale(k), out) for t0, ms, class_ms, k, out in rows]


def _load_oracle(workload, seed: int) -> str:
    """The oracle's verdicts for the seed, one character per decide call."""
    path = os.path.join(HERE, "oracle", f"{workload.name}.json")
    if not os.path.exists(path):
        return ""
    with open(path) as f:
        return json.load(f)["seeds"].get(str(seed), "")


def _witness_fault(raw, onto, witness) -> tuple[str | None, bool]:
    """Why the witness fails to separate, and whether it could be checked on
    positives too.

    On plain data the witness is evaluated on every instance. Under a Horn
    ontology it is evaluated on each consistent instance's canonical model,
    the least model, where a positive query holds iff it is certain. Under a
    box/diamond ontology only the negatives' bare data can be checked: a
    positive query that holds there holds in every model.
    """
    from ltleval import holds, holds_lasso
    from ltlqbe import horn
    from ltlqbe.core import DataInstance

    if any(holds(d, witness) for d in raw.negatives):
        return f"witness {witness} holds on a negative's data", False
    if raw.ontology is None:
        if not all(holds(d, witness) for d in raw.positives):
            return f"witness {witness} fails a positive", True
        return None, True
    if not isinstance(onto, horn.HornOntology):
        return None, False
    for is_pos, d in [(True, d) for d in raw.positives] + [(False, d) for d in raw.negatives]:
        try:
            lasso = horn.canonical_model(onto, DataInstance.of(d)).lasso
        except horn.Inconsistent:
            continue  # dropped positive; an inconsistent negative makes decide answer False
        if holds_lasso(lasso.prefix, lasso.loop, witness) != is_pos:
            side = "fails a positive" if is_pos else "holds on a negative"
            return f"witness {witness} {side}'s canonical model", True
    return None, True


def check(workload, seed: int, sets, verdicts) -> dict:
    """Checks of every decide call made outside the engine.

    A call fails when it raises, or when its answer is wrong: its witness
    fails `_witness_fault`, its verdict breaks a class inclusion, or it
    disagrees with the oracle file. A separable verdict whose witness was
    checked on every instance is right whatever the oracle says; such a
    disagreement is counted as an oracle miss, not as a failure.
    """
    oracle = _load_oracle(workload, seed)
    out = {"raised": 0, "wrong": 0, "oracle_checked": 0, "oracle_misses": 0, "reasons": []}

    def fail(kind, why):
        out[kind] += 1
        out["reasons"].append(why)

    for i, ((raw, problems), answers) in enumerate(zip(sets, verdicts)):
        sep = {}
        for j, (p, v) in enumerate(zip(problems, answers)):
            where = f"set {i} {p.cls.value}"
            if isinstance(v, Exception):
                fail("raised", f"{where}: {type(v).__name__}: {v}")
                continue
            sep[p.cls.value] = v.separable
            fault, full_check = _witness_fault(raw, p.ontology, v.witness) if v.separable else (None, False)
            if fault:
                fail("wrong", f"{where}: {fault}")
                continue
            k = i * len(problems) + j
            if k < len(oracle) and oracle[k] in "01":
                out["oracle_checked"] += 1
                if oracle[k] != "01"[v.separable]:
                    if v.separable and full_check:
                        out["oracle_misses"] += 1
                        out["reasons"].append(f"{where}: oracle says not separable; witness {v.witness} checks")
                    else:
                        fail("wrong", f"{where}: verdict {v.separable} disagrees with the oracle")
        for small, big in INCLUSIONS:
            if sep.get(small) and sep.get(big) is False:
                fail("wrong", f"set {i}: separable for {small} but not for {big}")
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _pass_metrics(set_ms: list[float]) -> dict:
    return {
        "sets_per_s": _metric(len(set_ms) / (sum(set_ms) / 1e3), "1/s"),
        "set_p50_ms": _metric(statistics.median(set_ms), "ms"),
        "set_p90_ms": _metric(statistics.quantiles(set_ms, n=10)[8], "ms"),
    }


def per_layer(tracer, sets_done: int, caches: dict, scale_at) -> dict:
    from spans import CALL_COUNTED, TARGETS

    self_ms = tracer.self_ms(scale_at)
    c = tracer.counts
    n = max(sets_done, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in sorted({span for span, _ in TARGETS.values()}):
        m[f"{name}.ms"] = _metric(self_ms.get(name, 0.0) / n, "ms/set")
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = _metric(c[name + ".calls"] / n, "calls/set")
    for name, (hits, misses) in caches.items():
        m[f"{name}.hit_ratio"] = _metric(ratio(hits, hits + misses), "ratio")
    m["horn.lasso_len"] = _metric(ratio(c["horn.lasso_len.sum"], c["horn.lasso_len.n"]), "letters")
    for key in ("represent.states", "represent.edges", "tsys.product.states", "tsys.product.edges",
                "transform.split_per_negative.subsets", "tsys.prune_dominated_edges.edges_in",
                "tsys.bisim_quotient.states_in"):
        m[key] = _metric(c[key] / n, "count/set")
    m["tsys.prune_dominated_edges.edges_kept_ratio"] = _metric(
        ratio(c["tsys.prune_dominated_edges.edges_out"], c["tsys.prune_dominated_edges.edges_in"]), "ratio")
    m["tsys.bisim_quotient.states_kept_ratio"] = _metric(
        ratio(c["tsys.bisim_quotient.states_out"], c["tsys.bisim_quotient.states_in"]), "ratio")
    return dict(sorted(m.items()))


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    _import_library()
    sets = build_sets(workload, args.seed, set_count(workload, args.seconds))
    if args.setup_only:
        print("ready", flush=True)
        print(speed.scale_now(SPEED_SAMPLES))
        return {}

    from ltlqbe import horn, prior

    probes = [] if args.trace else _setup_probes(args, SETUP_SAMPLES // 2)
    tracer = None
    caches = {"horn.canonical_model": horn._canonical_model, "prior.prior_entails": prior.prior_entails}
    before = {k: f.cache_info() for k, f in caches.items()}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rows = _decide_pass(sets)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache_delta = {}
    for k, f in caches.items():
        info = f.cache_info()
        cache_delta[k] = (info.hits - before[k].hits, info.misses - before[k].misses)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        probes += _setup_probes(args, SETUP_SAMPLES - len(probes))

    verdicts = [out for *_, out in rows]
    checked = check(workload, args.seed, sets, verdicts)
    for r in checked["reasons"][:20]:
        print("CHECK", r, file=sys.stderr)
    attempted = len(verdicts) * len(workload.classes)
    failed = checked["raised"] + checked["wrong"]
    result = {"correct": checked["wrong"] == 0, "attempted": attempted, "failed": failed}

    setup = statistics.median(s for _, s in probes) if probes else None
    e2e = {"setup_s": _metric(setup, "s"), **_pass_metrics([ms * scale for _, ms, _, scale, _ in rows]),
           "peak_rss_mb": _metric(rss_mb, "MB")}
    wall = {"setup_s": statistics.median(w for w, _ in probes) if probes else None,
            **{k: m["value"] for k, m in _pass_metrics([ms for _, ms, *_ in rows]).items()},
            "mean_scale": statistics.fmean(scale for *_, scale, _ in rows)}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if tracer is not None:
        starts = [t0 for t0, *_ in rows]
        scales = [scale for *_, scale, _ in rows]

        def scale_at(t):
            return scales[max(0, bisect.bisect_right(starts, t) - 1)]

        metrics = per_layer(tracer, len(rows), cache_delta, scale_at)
        per_class = dict.fromkeys(workload.classes, 0.0)
        for _, _, class_ms, scale, _ in rows:
            for c, ms in zip(workload.classes, class_ms):
                per_class[c] += ms * scale
        tracer.dump(
            os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json"),
            {"workload": workload.name, "seed": args.seed, "sets": len(rows),
             "per_class_ms": per_class, "set_start": starts, "set_scale": scales},
        )
    else:
        metrics = e2e
    result["metrics"] = metrics
    with open(os.path.join(out_dir, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": workload.name, "seed": args.seed, "sets": len(rows), "end_to_end": e2e,
                   "wall": wall, "setup_probes": probes, "checks": checked, **result}, f, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    from workloads import WORKLOADS

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit code {proc.returncode}")
                status = 1
                continue
            res = json.loads(lines[-1])
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key} = {m['value']:.6g} {m['unit']}")
        return status
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    result = run_workload(args)
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
