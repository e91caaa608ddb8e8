"""Seeded instance generation and battery orchestration.

Generation stays entirely inside the Gaussian rationals.  EP instances come
from exact orthogonal projections: for a random full-column-rank n x r M0
and C = RREF(M0*), P = C+ C = M0 (M0* M0)^-1 M0* is exactly self-adjoint
and idempotent, so a candidate P M P whose rank equals rank(P) has range
and kernel pinned to those of P and is therefore EP.  No
eigendecomposition, no rounding.  P M P = B C with K = C M C+ and
B = C+ K, so an ep draw is built as that factorization, with the daggers
C+ and B+ = K^-1 C it determines, and no P is formed.  A non_ep or ranked
arbitrary draw a = left right is factorized from right, whose RREF gives
c, and never eliminated itself.  Every invertible draw, of the invertible
kind or an unranked arbitrary one of full rank, is a = a e with daggers
a^-1 and e (`_full_rank_instance`), a^-1 read off the one elimination of
[a | e] by which `is_invertible` accepted it; a singular unranked draw
goes through `EPInstance.from_matrix`.  The acceptance tests read the
validated instance's rank (and p = q, for non_ep), and `run_battery`
hands the accepted instance to its battery, so a drawn matrix is
factorized once; `gen_matrix` returns a.  No draw is larger than
_SIZE_CAP, which bounds the cost of exact arithmetic.

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
    _inverse_times,
    conj_transpose,
    inverse,
    is_invertible,
    product_memo,
    rref,
)
from .linalg import rank  # noqa: F401  unused here; bench/tracer.py patches battery.rank
from .pnorms import PNorm
from .pseudoinverse import is_ep  # noqa: F401  unused here; bench/tracer.py patches battery.is_ep
from .pseudoinverse import row_dagger

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_ATTEMPTS = 1000
_SIZE_CAP = 8

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


def _first(draw, failure: str):
    """The first of up to _MAX_ATTEMPTS draws that is not None."""
    return _rejection(draw, lambda drawn: drawn is not None, failure)


def _rand_ep(rng, n: int, r: int, bound: int, use_complex: bool) -> EPInstance:
    """Instance of a = proj m proj for a random n x n m and the orthogonal
    projection proj onto the row space of c = RREF(m0*), for the first
    random n x r m0 of full column rank, drawn until a has rank r.

    No proj is formed: proj = c+ c, so a = c+ K c = b c with K = c m c+
    (r x r) and b = c+ K.  b = a[:, P] at c's pivot columns P, as
    c[:, P] = e, so a = b c is `full_rank_factorize(a)` once a has rank r,
    which is when K is invertible.  Then b* b = K* (c c*)^-1 K, as
    (c+)* c+ = (c c*)^-1, so b+ = (b* b)^-1 b* = K^-1 c, read off one
    elimination of [K | c]; a singular K rejects the draw, as a singular
    Gram of b would.  c+ is `row_dagger(c)`, the one elimination of
    [c c* | c] that the candidates share.  Each candidate's products, and
    c c*, run in the product memo its instance keeps, so validation reads
    b c = a from it, 3.5 c+ (c b) = c+ K and 3.9 c c*.
    """
    def basis():
        reduced, pivots = rref(conj_transpose(_rand_matrix(rng, n, r, bound, use_complex)))
        return reduced.take_rows(r) if len(pivots) == r else None
    c = _first(basis, f"could not draw a rank-{r} projection of size {n}")
    shared = {}
    with product_memo(shared):
        c_dagger = row_dagger(c)

    def candidate():
        products = dict(shared)
        with product_memo(products):
            k = c @ _rand_matrix(rng, n, n, bound, use_complex) @ c_dagger
            try:
                b_dagger = _inverse_times(k, c)
            except SingularMatrixError:
                return None
            b = c_dagger @ k
            a = b @ c
        return EPInstance.from_factorization(a, FullRankFactorization(b=b, c=c, rank=r),
                                             (b_dagger, c_dagger), products=products)
    return _first(candidate, f"could not hit rank {r} for an ep draw of size {n}")


def _full_rank_instance(a: MatrixQ) -> EPInstance:
    """The validated instance of an invertible a: a = a e, with daggers a^-1 and e.

    That is `full_rank_factorize(a)`, as a's RREF is e, and `factor_daggers`
    of it, as (a* a)^-1 a* = a^-1 and e is its own dagger.  `inverse(a)`
    reads the inverse that `is_invertible` stored on a, so a is eliminated
    once, as [a | e], or not at all when it is a unit monomial.
    """
    e = MatrixQ.identity(a.rows)
    return EPInstance.from_factorization(a, FullRankFactorization(b=a, c=e, rank=a.rows),
                                         (inverse(a), e))


def _rand_rank_r(rng, n: int, r: int, bound: int, use_complex: bool) -> EPInstance:
    """Instance of the first random n x n a = left right, with left n x r
    and right r x n, that has rank r.

    a is factorized from right and never eliminated: right = m c with c the
    nonzero rows of its RREF and m = right[:, P] invertible at its pivot
    columns P, so a = a[:, P] c, as c[:, P] = e.  When a has rank r,
    b = a[:, P] has full column rank and c is the RREF of a's row space, so
    a = b c is `full_rank_factorize(a)`, as RREF is canonical.  A right of
    rank < r, or a b whose Gram is singular (`factor_daggers`, which
    validation runs, raises SingularMatrixError), rejects the draw, as a
    rank test of a would.
    """
    def factored():
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
    return _first(factored, f"could not draw a rank-{r} matrix of size {n}")


def _setup(cfg: GeneratorConfig) -> tuple:
    """(rng, use_complex) of a draw: the seeded generator and its first coin
    flip, the entry field's.  GeneratorError when the size exceeds _SIZE_CAP."""
    if cfg.n > _SIZE_CAP:
        raise GeneratorError(f"size {cfg.n} exceeds the size cap {_SIZE_CAP}")
    rng = random.Random(cfg.seed & _MASK64)
    return rng, rng.random() < 0.5


def gen_instance(cfg: GeneratorConfig) -> EPInstance:
    """Validated EPInstance of a seed-deterministic random matrix of the configured kind."""
    rng, use_complex = _setup(cfg)
    n, bound = cfg.n, cfg.entry_bound

    if cfg.kind == "invertible":
        if cfg.rank is not None and cfg.rank != n:
            raise GeneratorError("invertible draw requires rank = size")
        return _full_rank_instance(_rand_invertible(rng, n, bound, use_complex, "matrix"))

    if cfg.kind == "ep":
        r = cfg.rank if cfg.rank is not None else rng.randint(0, n)
        return _rand_ep(rng, n, r, bound, use_complex)

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
    a = _rand_matrix(rng, n, n, bound, use_complex)
    return _full_rank_instance(a) if is_invertible(a) else EPInstance.from_matrix(a)


def gen_matrix(cfg: GeneratorConfig) -> MatrixQ:
    """The matrix a of `gen_instance(cfg)`: the same seed-deterministic draw."""
    return gen_instance(cfg).a


def gen_block_pair(cfg: GeneratorConfig):
    """(t1, j) pair for the conjugated-block battery.

    j is invertible n x n, drawn as an exact generalized permutation with
    unit entries (an isometry for every supported norm, whose inverse is
    its adjoint) on a seeded coin flip, otherwise as an arbitrary
    invertible matrix.  t1 is an invertible block of seeded size rank (or
    random 0..n when rank is unset).
    """
    rng, use_complex = _setup(cfg)
    n, bound = cfg.n, cfg.entry_bound
    k = cfg.rank if cfg.rank is not None else rng.randint(0, n)

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
