"""The verdicts and witnesses of the benchmark's workloads, read from
perfbench/workloads.py.

The first 1,000 sets of seed 1 of each workload are decided as the benchmark
decides them: one set after another, once for every class of the workload,
with the caches kept between sets.  Each workload has two sha256 digests,
over (separable, note) and over (separable, note, witness) of every `decide`
call in that order.  A change that must not move any verdict or witness, such
as a speed-up, keeps both.  They were recorded at the commit before the
positives' atoms were read by time (`qbe._share_no_atom`), and are the same
under the hash seeds 0, 1 and 2.  The `until-plain` full digest was
re-recorded when the positives' common block came first
(`qbe._common_block`): the sets it separates answer the until classes with
its X-chain, where they answered with a spelled tree before; its verdict
digest did not move.
"""

import hashlib

import pytest

from conftest import bench_problems, module_caches
from ltlqbe.qbe import decide

SETS = 1000

# workload -> (verdict digest, full digest)
_DIGESTS = {
    "diamond-plain": (
        "4900ea122b402792baa13ce51d2bcceebf56aa01ce366a25f9dae59582b4a6a6",
        "8e32fe45a538e86e29edd00f205851ad98e815409013ad951cf47a21a1816732",
    ),
    "until-plain": (
        "4ea91d7265ad136658c92bb5521bc5fd2a069c0308a68fe902f83865df6a7126",
        "b71d133cb707b7dfcc11561b7899160c32474ced3c0cfca4350b15dc1cb3cf8f",
    ),
    "horn-explore": (
        "3765e8a6a7ddded1b1d62bebab537cf306d298cdb27a9bd133bf3ad9a86a7734",
        "144e456ae8db142b381467b904299f5812e13310e382d35b713f80ec66c76686",
    ),
    "prior-diamond": (
        "fd1a00f1d71ea858807e343061e056f42c0c8a124e2cfe2f0e81bde056be5b36",
        "e8c6dc6bd5d24b7f1e0e51a049c74699456cb3281ea44c0395d11f5f391b2d40",
    ),
}


def bench_digests(name: str, count: int = SETS) -> tuple[str, str]:
    """The verdict and full digests of the workload's first `count` sets of seed 1."""
    verdicts, full = hashlib.sha256(), hashlib.sha256()
    for problems in bench_problems(name, 1, count):
        for p in problems:
            v = decide(p)
            verdicts.update(f"{v.separable}|{v.note}\n".encode())
            full.update(f"{v.separable}|{v.note}|{v.witness}\n".encode())
    return verdicts.hexdigest(), full.hexdigest()


@pytest.mark.parametrize("name", list(_DIGESTS))
def test_bench_digests_are_unchanged(name):
    for cache in module_caches().values():
        cache.cache_clear()
    assert bench_digests(name) == _DIGESTS[name]
