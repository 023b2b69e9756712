"""Regenerate the oracle verdict file of a workload.

    python3 perfbench/oracle_gen.py --workload until-plain --seeds 1-20 --sets 200

For each seed, the first `--sets` sets of the workload are decided for each
of its classes by `ltlqbe.oracle.brute_force_decide`, an exhaustive search
over truth vectors that shares no decision code with `ltlqbe.qbe.decide`.
The file `perfbench/oracle/<workload>.json` maps each seed to one string
holding, set after set, one character per class in the workload's order:
`1` separable, `0` not separable, `?` the oracle hit its cap. A run checks
every set it decided that the file covers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import WORKLOADS


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="e.g. 1-20 or 1,3,5")
    ap.add_argument("--sets", type=int, required=True)
    args = ap.parse_args(argv)

    run._import_library()
    from ltlqbe.oracle import OracleCap, brute_force_decide

    workload = WORKLOADS[args.workload]
    seeds = {}
    for seed in seed_list(args.seeds):
        verdicts = []
        for _, problems in run.build_sets(workload, seed, args.sets):
            for p in problems:
                try:
                    verdicts.append("01"[brute_force_decide(p).separable])
                except OracleCap:
                    verdicts.append("?")
        seeds[str(seed)] = "".join(verdicts)
        print(f"seed {seed}: {args.sets} sets, {verdicts.count('?')} capped verdicts", file=sys.stderr)
    path = os.path.join(run.HERE, "oracle", f"{workload.name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": workload.name, "classes": list(workload.classes), "seeds": seeds}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
