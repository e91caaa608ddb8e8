"""Workload definitions and their seeded request streams.

A request is one `run_battery(theorem_id, [cfg], norm=...)` call, the
in-process form of `epkit battery --trials 1`.  Each battery id draws its
configs from `epkit.cli.battery_configs` under its own seed, derived from the
workload seed, and the ids are interleaved round robin.

The request cost spans two orders of magnitude and is set almost wholly by
the battery id, the kind, the rank (or block size) and the generator's coin
flips (at n=6 a rank-0 ep draw takes 3 ms, a complex rank-5 one 500-850 ms).
Left to chance, the mix of those in the ~125 requests of a heavy-n6 run
moved the median request time by 20-30% from seed to seed.  So every
workload pins rank and flips per config on a fixed cycle (`balance`), and
the seed only draws the entries: every run holds the same mix.

Why these three workloads:

- sweep-n4: many small calls over all ten exact ids, so per-call overhead,
  generation and `EPInstance.from_matrix` weigh most; a representation that
  wins on big numbers but pays conversion costs on small ones loses here.
- heavy-n6: the two batteries that recompute the most (3.7, 4.2) at n=6,
  where big-number matmul and rref dominate and the p90 carries the
  high-bit tail.
- norm-5.2-n4: the only inexact battery, dominated by the float-side
  hermitian check; exact-core changes should barely move it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace

# Requests built per run.  A run stops early if it exhausts them, which in a
# 25-second run takes three to four times today's throughput on every workload.
POOL = 4096
_MASK64 = (1 << 64) - 1
BLOCK_PAIR_IDS = ("5.2",)  # run_battery draws these with gen_block_pair, the rest with gen_matrix


@dataclass(frozen=True)
class Workload:
    name: str
    ids: tuple
    size: int
    norms: tuple  # p values, taken in turn per request
    digest_requests: int  # default-seed prefix whose reports are digested


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n4",
                 ("3.2", "3.4", "3.5", "3.7", "3.9", "3.10", "4.1", "4.2", "5.5", "5.6"),
                 4, (2,), 40),
        Workload("heavy-n6", ("3.7", "4.2"), 6, (2,), 8),
        Workload("norm-5.2-n4", ("5.2",), 4, (1, 2, math.inf), 12),
    )
}

DEFAULT_SEED = 0


def id_seed(workload: str, seed: int, theorem_id: str) -> int:
    """Per-battery seed, independent of the program's own seed splitting."""
    key = f"{workload}|{seed}|{theorem_id}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _coins(seed: int, count: int) -> tuple:
    """The first `count` coin flips (random() < 0.5) of a generator's rng.

    `gen_matrix` flips for the entry field first; `gen_block_pair` does too,
    and when the block size is given its next flip picks a generalized
    permutation for j.  Should the generators change their draw order, the
    stream stays valid and only loses its balance.
    """
    rng = random.Random(seed & _MASK64)
    return tuple(rng.random() < 0.5 for _ in range(count))


def balance(cfgs: list, block_pair: bool) -> list:
    """Pin each config's rank and coin flips on a fixed cycle.

    For `gen_matrix`, the k-th config of a kind gets complex entries when k
    is odd and, for ep and non_ep, the (k // 2)-th rank the kind admits,
    counting down from the top (n..0 for ep, n-1..1 for non_ep; arbitrary
    keeps its random, almost surely full, rank).  For `gen_block_pair`, the
    k-th config gets complex entries when k is odd, a generalized
    permutation for j when k // 2 is odd, and block size n - k // 4, all
    modulo their counts.  So every combination comes once per cycle, and
    the digested first requests are not zero matrices.  The flips are
    reached by re-deriving the seed with `child_seed` until they agree.
    """
    from epkit.battery import child_seed

    seen = {}
    out = []
    for cfg in cfgs:
        group = "pair" if block_pair else cfg.kind
        k = seen[group] = seen.get(group, -1) + 1
        if block_pair:
            rank, coins = cfg.n - (k // 4) % (cfg.n + 1), (k % 2 == 1, k // 2 % 2 == 1)
        else:
            rank = {"ep": cfg.n - (k // 2) % (cfg.n + 1),
                    "non_ep": cfg.n - 1 - (k // 2) % max(1, cfg.n - 1)}.get(cfg.kind, cfg.rank)
            coins = (k % 2 == 1,)
        seed, t = cfg.seed, 0
        while _coins(seed, len(coins)) != coins:
            t += 1
            seed = child_seed(cfg.seed, t)
        out.append(replace(cfg, seed=seed, rank=rank))
    return out


def draw_configs(w: Workload, seed: int, count: int = POOL) -> dict:
    """Per battery id, the configs `epkit.cli.battery_configs` draws for the
    first `count` requests; this is the set-up a user of epkit pays."""
    from epkit.cli import battery_configs

    per_id = -(-count // len(w.ids))
    return {tid: battery_configs(tid, per_id, w.size, id_seed(w.name, seed, tid))
            for tid in w.ids}


def build_requests(w: Workload, cfgs: dict, count: int = POOL) -> list:
    """The first `count` requests of the stream, (theorem_id, cfg, PNorm),
    from the configs of `draw_configs` balanced.  Balancing is the
    benchmark's own choice of inputs, so it is not part of set-up."""
    from epkit.pnorms import PNorm

    cfgs = {tid: balance(c, tid in BLOCK_PAIR_IDS) for tid, c in cfgs.items()}
    norms = [PNorm(p) for p in w.norms]
    return [(w.ids[k % len(w.ids)], cfgs[w.ids[k % len(w.ids)]][k // len(w.ids)],
             norms[k % len(norms)])
            for k in range(count)]
