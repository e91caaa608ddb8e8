"""Seeded instance generation and battery orchestration.

Generation stays entirely inside the Gaussian rationals.  EP instances come
from exact orthogonal projections: P = M0 (M0* M0)^-1 M0* for a random
full-column-rank M0 is exactly self-adjoint and idempotent, so a candidate
P M P whose rank equals rank(P) has range and kernel pinned to those of P
and is therefore EP.  No eigendecomposition, no rounding.  Every candidate
is a validated `EPInstance.from_matrix` whose rank (and p = q, for non_ep)
the acceptance tests read, and `run_battery` hands the accepted instance to
its battery, so a drawn matrix is factorized once; `gen_matrix` returns a.
A rank-r draw a = left right (non_ep, and arbitrary with a rank) is
factorized from its drawn factors, from the RREF of the r x n right, and
never eliminated itself.

Reports are plain data with a stable JSON field order so that identical
seeds give byte-identical files (the elapsed field excepted).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .characterizations import (
    EPInstance,
    prop52_battery,
    thm32_battery,
    thm34_battery,
    thm35_battery,
    thm37_battery,
    thm39_battery,
    thm310_battery,
    thm41_battery,
    thm42_battery,
    thm55_battery,
    thm56_battery,
)
from .linalg import (
    FullRankFactorization,
    MatrixQ,
    SingularMatrixError,
    _canonical,
    conj_transpose,
    is_invertible,
    rref,
    solve_exists,
)
from .linalg import rank  # noqa: F401  unused here; bench/tracer.py patches battery.rank
from .pnorms import PNorm
from .pseudoinverse import is_ep  # noqa: F401  unused here; bench/tracer.py patches battery.is_ep

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_ATTEMPTS = 1000

KINDS = ("ep", "non_ep", "arbitrary", "invertible")

SUPPORTED_THEOREMS = ("3.2", "3.4", "3.5", "3.7", "3.9", "3.10",
                      "4.1", "4.2", "5.2", "5.5", "5.6")


class GeneratorError(ValueError):
    """Invalid or infeasible generator configuration, or rejection budget exhausted."""


def splitmix64(state: int) -> int:
    """One output of the splitmix64 stream; used to derive independent child seeds."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(master: int, index: int) -> int:
    """Deterministic per-index seed: each instance's draw is independent of the others."""
    return splitmix64((master + index * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n: int
    rank: Optional[int] = None
    entry_bound: int = 3
    kind: str = "arbitrary"

    def __post_init__(self):
        if self.n < 0:
            raise GeneratorError("size must be nonnegative")
        if self.entry_bound < 1:
            raise GeneratorError("entry_bound must be at least 1")
        if self.rank is not None and not (0 <= self.rank <= self.n):
            raise GeneratorError(f"rank {self.rank} out of range for size {self.n}")
        if self.kind not in KINDS:
            raise GeneratorError(f"unknown kind {self.kind!r}")


def _rand_matrix(rng, rows: int, cols: int, bound: int, use_complex: bool) -> MatrixQ:
    """Entries num / den with num in [-bound, bound] and den in [1, bound].

    Each entry draws the real part's numerator and denominator, then, when
    complex, the imaginary part's, in row-major order; the draws are scaled
    straight to their lcm as integer numerator lists.  Each part is the
    draw `rng.randint` makes, taken straight from `getrandbits` as CPython's
    `Random._randbelow_with_getrandbits` takes it: for a range of size n,
    n.bit_length() bits at a time until the value is below n.  So the values
    and the generator's state afterwards are those of `randint(-bound, bound)`
    and `randint(1, bound)`.
    """
    parts = 2 if use_complex else 1
    getrandbits = rng.getrandbits
    span = 2 * bound + 1
    k_num, k_den = span.bit_length(), bound.bit_length()
    nums, dens = [], []
    for _ in range(rows * cols * parts):
        x = getrandbits(k_num)
        while x >= span:
            x = getrandbits(k_num)
        d = getrandbits(k_den)
        while d >= bound:
            d = getrandbits(k_den)
        nums.append(x - bound)
        dens.append(d + 1)
    den = lcm(*dens)
    nums = [x * (den // d) for x, d in zip(nums, dens)]
    im = nums[1::2] if use_complex else [0] * (rows * cols)
    return _canonical(rows, cols, den, nums[::parts], im)


def _rejection(draw, accept, failure: str):
    """The first of up to _MAX_ATTEMPTS draws that `accept` takes.

    Raises GeneratorError with the message `failure` when none is taken.
    """
    for _ in range(_MAX_ATTEMPTS):
        cand = draw()
        if accept(cand):
            return cand
    raise GeneratorError(failure)


def _rand_invertible(rng, n: int, bound: int, use_complex: bool, what: str) -> MatrixQ:
    """The first random n x n matrix that has an inverse.

    `is_invertible` decides each draw by computing its `inverse`, which the
    matrix keeps, so a later `inverse` of the accepted draw runs no
    elimination.
    """
    return _rejection(lambda: _rand_matrix(rng, n, n, bound, use_complex), is_invertible,
                      f"could not draw an invertible {what} of size {n}")


def _instance_of_rank(draw, r: int, failure: str) -> EPInstance:
    """The validated instance of the first matrix `draw` gives of rank r."""
    return _rejection(lambda: EPInstance.from_matrix(draw()), lambda inst: inst.rank == r, failure)


def _rand_rank_r(rng, n: int, r: int, bound: int, use_complex: bool) -> EPInstance:
    """Instance of a random n x n matrix of exact rank r, drawn as a full-rank product.

    a = left right is factorized from its drawn factors, with no elimination
    of a.  When right (r x n) has rank r, right = m c with c the nonzero rows
    of its RREF and m = right[:, pivots] invertible, so a = (left m) c and
    b = a[:, pivots] = left m.  a has rank r exactly when left has full
    column rank; then a = b c is `full_rank_factorize(a)`, as RREF is
    canonical.  A right of lower rank, or a left without full column rank
    (whose b has a singular Gram, so validation raises SingularMatrixError),
    rejects the draw, as a rank test of a would.
    """
    def draw():
        left = _rand_matrix(rng, n, r, bound, use_complex)
        right = _rand_matrix(rng, r, n, bound, use_complex)
        reduced, pivots = rref(right)
        if len(pivots) < r:
            return None
        a = left @ right
        f = FullRankFactorization(b=a.select_columns(pivots), c=reduced.take_rows(r), rank=r)
        try:
            return EPInstance.from_factorization(a, f)
        except SingularMatrixError:
            return None
    return _rejection(draw, lambda inst: inst is not None,
                      f"could not draw a rank-{r} matrix of size {n}")


def _orthogonal_projection(rng, n: int, r: int, bound: int, use_complex: bool) -> MatrixQ:
    """Exact orthogonal projection of rank r: M0 (M0* M0)^-1 M0*."""
    def draw():
        m0 = _rand_matrix(rng, n, r, bound, use_complex)
        return m0, solve_exists(conj_transpose(m0) @ m0, MatrixQ.identity(r))
    m0, gram_inv = _rejection(draw, lambda pair: pair[1] is not None,
                              f"could not draw a rank-{r} projection of size {n}")
    return m0 @ gram_inv @ conj_transpose(m0)


def gen_instance(cfg: GeneratorConfig, *, size_cap: int = 8) -> EPInstance:
    """Validated EPInstance of a seed-deterministic random matrix of the configured kind.

    size_cap bounds exact-arithmetic cost; raise it knowingly for big runs.
    """
    if cfg.n > size_cap:
        raise GeneratorError(f"size {cfg.n} exceeds the size cap {size_cap}")
    rng = random.Random(cfg.seed & _MASK64)
    use_complex = rng.random() < 0.5
    n, bound = cfg.n, cfg.entry_bound

    if cfg.kind == "invertible":
        if cfg.rank is not None and cfg.rank != n:
            raise GeneratorError("invertible draw requires rank = size")
        return _instance_of_rank(lambda: _rand_matrix(rng, n, n, bound, use_complex), n,
                                 f"could not draw an invertible matrix of size {n}")

    if cfg.kind == "ep":
        r = cfg.rank if cfg.rank is not None else rng.randint(0, n)
        proj = _orthogonal_projection(rng, n, r, bound, use_complex)
        return _instance_of_rank(lambda: proj @ _rand_matrix(rng, n, n, bound, use_complex) @ proj,
                                 r, f"could not hit rank {r} for an ep draw of size {n}")

    if cfg.kind == "non_ep":
        # a 1x1 (or rank-0 / full-rank) matrix is always EP
        if n < 2:
            raise GeneratorError("every matrix of size < 2 is ep; non_ep draw infeasible")
        if cfg.rank is not None and not (1 <= cfg.rank <= n - 1):
            raise GeneratorError("non_ep draw needs a strictly intermediate rank")
        def draw():
            r = cfg.rank if cfg.rank is not None else rng.randint(1, n - 1)
            return _rand_rank_r(rng, n, r, bound, use_complex)
        return _rejection(draw, lambda inst: not inst.is_ep,
                          f"could not draw a non-ep matrix of size {n}")

    # arbitrary
    if cfg.rank is not None:
        return _rand_rank_r(rng, n, cfg.rank, bound, use_complex)
    return EPInstance.from_matrix(_rand_matrix(rng, n, n, bound, use_complex))


def gen_matrix(cfg: GeneratorConfig, *, size_cap: int = 8) -> MatrixQ:
    """The matrix a of `gen_instance(cfg)`: the same seed-deterministic draw."""
    return gen_instance(cfg, size_cap=size_cap).a


def gen_block_pair(cfg: GeneratorConfig, *, size_cap: int = 8):
    """(t1, j) pair for the conjugated-block battery.

    j is invertible n x n, drawn as an exact generalized permutation with
    unit entries (an isometry for every supported norm, whose inverse is
    its adjoint) on a seeded coin flip, otherwise as an arbitrary
    invertible matrix.  t1 is an invertible block of seeded size rank (or
    random 0..n when rank is unset).
    """
    if cfg.n > size_cap:
        raise GeneratorError(f"size {cfg.n} exceeds the size cap {size_cap}")
    rng = random.Random(cfg.seed & _MASK64)
    use_complex = rng.random() < 0.5
    n, bound = cfg.n, cfg.entry_bound
    k = cfg.rank if cfg.rank is not None else rng.randint(0, n)
    if not (0 <= k <= n):
        raise GeneratorError(f"block size {k} out of range for size {n}")

    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        # row i holds the unit 1, -1, i or -i at column perm[i]
        re, im = [0] * (n * n), [0] * (n * n)
        for i, col in enumerate(perm):
            re[i * n + col], im[i * n + col] = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.randrange(4)]
        j_mat = _canonical(n, n, 1, re, im)
    else:
        j_mat = _rand_invertible(rng, n, bound, use_complex, "basis map")
    t1 = _rand_invertible(rng, k, bound, use_complex, "block")
    return t1, j_mat


_BATTERIES = {
    "3.2": thm32_battery,
    "3.4": thm34_battery,
    "3.5": thm35_battery,
    "3.7": thm37_battery,
    "3.9": thm39_battery,
    "3.10": thm310_battery,
    "4.1": thm41_battery,
    "4.2": thm42_battery,
    "5.5": thm55_battery,
    "5.6": thm56_battery,
}


@dataclass(frozen=True)
class BatteryReport:
    theorem_id: str
    trials: int
    per_statement_truth_counts: dict
    equivalence_violations: tuple
    inconclusive_count: int
    seed: int
    elapsed: float

    @property
    def failed(self) -> bool:
        return len(self.equivalence_violations) > 0

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "per_statement_truth_counts": self.per_statement_truth_counts,
            "equivalence_violations": list(self.equivalence_violations),
            "inconclusive_count": self.inconclusive_count,
            "seed": self.seed,
            "failed": self.failed,
            "elapsed": self.elapsed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def run_battery(theorem_id: str, cfgs, *, seed: Optional[int] = None,
                norm: Optional[PNorm] = None) -> BatteryReport:
    """Generate one instance per config, evaluate the battery, aggregate.

    Within-instance truth uniformity is the tested equivalence; a mismatch
    is recorded as a violation (first offending statement pair), never
    thrown.  Every truth is exact, so the report's `inconclusive` counts
    stay 0; they are kept for the stable report layout.
    """
    if theorem_id not in SUPPORTED_THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"supported: {', '.join(SUPPORTED_THEOREMS)}")
    norm = norm if norm is not None else PNorm(2)
    cfgs = list(cfgs)
    started = time.perf_counter()

    if theorem_id == "5.2":
        pairs = [gen_block_pair(cfg) for cfg in cfgs]
        all_results = [prop52_battery(t1, j, norm) for t1, j in pairs]
    else:
        all_results = [_BATTERIES[theorem_id](gen_instance(cfg)) for cfg in cfgs]

    counts: dict = {}
    violations = []
    for idx, results in enumerate(all_results):
        for r in results:
            slot = counts.setdefault(r.statement_id,
                                     {"true": 0, "false": 0, "inconclusive": 0})
            slot["true" if r.truth else "false"] += 1
        odd = next((r for r in results if r.truth != results[0].truth), None)
        if odd is not None:
            violations.append({"instance": idx,
                               "pair": [results[0].statement_id, odd.statement_id]})

    report_seed = seed if seed is not None else (cfgs[0].seed if cfgs else 0)
    return BatteryReport(
        theorem_id=theorem_id,
        trials=len(all_results),
        per_statement_truth_counts=counts,
        equivalence_violations=tuple(violations),
        inconclusive_count=0,
        seed=report_seed,
        elapsed=time.perf_counter() - started,
    )
