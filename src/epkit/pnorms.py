"""Operator p-norms, matrix exponentials, and hermitian checks.

Float-side companion to the exact core.  An element is hermitian for a given
norm when ||exp(i t a)|| == 1 for every real t; that quantifier cannot be
decided numerically, so `hermitian_check` samples a symmetric t-grid and
reports a three-way verdict (hermitian / not_hermitian / inconclusive) with
the observed maximum deviation.  For a `MatrixQ` q of size n >= 1 with
q @ q == q exactly, the grid uses the closed form exp(i t q) =
e + (e^{it} - 1) q; every other input (numpy arrays included) goes through
the truncated series of `expm`.  At p = 2 the norm of that closed form is
itself closed-form: q is unitarily similar to I + 0 + (sum_i [[1, s_i],
[0, 0]]) (Halmos, "Two subspaces", 1969), so ||e + w q||_2 depends only on
|w| and s = max s_i = ||q - q*||_2, and one spectral norm per check
replaces the one per grid point.

For idempotents the question is decided exactly.  At p = 2 the hermitian
operators are the self-adjoint ones; on l^p_n with p != 2 they are the real
diagonal ones (Lumer 1961, with Lamperti's description of the isometries),
so a hermitian idempotent there is a diagonal 0/1 matrix.
`is_hermitian_idempotent` takes its truth from that rule and keeps the grid
report as evidence that must not contradict it beyond its tolerances.

p in {1, 2, inf}.  All three norms are `np.linalg.norm`: p=1 and p=inf are
the closed-form column and row sums, p=2 the largest singular value from
LAPACK's backward-stable SVD, which never forms A*A, so entries far from 1
neither underflow nor overflow there.  `expm` is scaling-and-squaring on a
truncated series; a grid point where exp(i t a) overflows reads deviation
inf.  Numpy input must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .linalg import InternalConsistencyError, MatrixQ, ShapeError, conj_transpose

HERMITIAN_TOL_PASS = 1e-9  # max deviation at or below this: hermitian
HERMITIAN_TOL_FAIL = 1e-6  # max deviation at or above this: not_hermitian
EXPM_SERIES_TERMS = 24

_P_VALUES = (1, 2, math.inf)


@dataclass(frozen=True)
class PNorm:
    """A p-norm tag, p in {1, 2, inf}."""

    p: float

    def __post_init__(self):
        if self.p not in _P_VALUES:
            raise ValueError(f"p must be one of 1, 2, inf; got {self.p!r}")


def parse_p(text: str) -> float:
    if text == "1":
        return 1
    if text == "2":
        return 2
    if text in ("inf", "Inf", "INF"):
        return math.inf
    raise ValueError(f"p must be 1, 2 or inf; got {text!r}")


def _as_array(a: Union[np.ndarray, MatrixQ, Sequence]) -> np.ndarray:
    if isinstance(a, MatrixQ):
        if a.rows == 0 or a.cols == 0:
            return np.zeros((a.rows, a.cols), dtype=complex)
        return np.array(a.to_complex_rows(), dtype=complex)
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError("expected a 2-d matrix")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def op_norm(a, norm: PNorm) -> float:
    """Induced operator p-norm of a square matrix; ValueError on nan or inf entries."""
    arr = _as_array(a)
    n, m = arr.shape
    if n != m:
        raise ShapeError("op_norm expects a square matrix")
    return float(_op_norms(arr[None, :, :], norm)[0])


def _op_norms(mats: np.ndarray, norm: PNorm) -> np.ndarray:
    """Induced p-norm of each slice of a (g, n, n) stack; 0 when n = 0.

    p = 1 is the largest column sum of moduli, p = inf the largest row sum,
    p = 2 the largest singular value.
    """
    g, n, _ = mats.shape
    if n == 0:
        return np.zeros(g)
    return np.linalg.norm(mats, ord=norm.p, axis=(1, 2))


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on a truncated series."""
    arr = _as_array(a)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError("expm expects a square matrix")
    return _expm_batch(arr[None, :, :])[0]


def _expm_batch(mats: np.ndarray) -> np.ndarray:
    g, n, _ = mats.shape
    if n == 0:
        return mats.copy()
    top = float(_op_norms(mats, PNorm(1)).max())
    s = max(0, int(math.ceil(math.log2(top / 0.5))) ) if top > 0.5 else 0
    t = mats / (2.0 ** s)
    eye = np.broadcast_to(np.eye(n, dtype=complex), (g, n, n))
    out = eye.copy()
    term = eye.copy()
    for k in range(1, EXPM_SERIES_TERMS + 1):
        term = term @ t / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True)
class HermitianCheckReport:
    """Grid evidence for the all-t isometry property of exp(i t a)."""

    max_deviation: float
    argmax_t: float
    grid_size: int
    t_max: float
    tol_pass: float
    tol_fail: float
    verdict: str  # "hermitian" | "not_hermitian" | "inconclusive"


def hermitian_check(
    a,
    norm: PNorm,
    grid: int = 1024,
    t_max: float = 2.0 * math.pi,
) -> HermitianCheckReport:
    """Sample ||exp(i t a)|| over a symmetric t-grid and classify.

    Verdict: hermitian when the max deviation from 1 stays at or below the
    module constant HERMITIAN_TOL_PASS, not_hermitian when some grid point
    deviates by HERMITIAN_TOL_FAIL or more, inconclusive in between.  A
    grid pass is evidence, not proof, of the for-all-t property; the report
    keeps the grid parameters and both tolerances for that reason.

    When a is a `MatrixQ` of size n >= 1 and a @ a == a holds exactly, the
    stack of exp(i t a) is the closed form e + (e^{it} - 1) a, and at p = 2
    its norms come from `_idempotent_spectral_deviation` without forming
    the stack; otherwise (not idempotent, or a numpy array) it is the
    scaling-and-squaring series.  A grid point where either overflows reads
    deviation inf.  A numpy array with nan or inf entries raises ValueError.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be finite and positive")
    arr = _as_array(a)
    n, m = arr.shape
    if n != m:
        raise ShapeError("hermitian_check expects a square matrix")
    ts = np.linspace(-t_max, t_max, grid)
    # the entries are finite, so only overflow makes inf or nan (inf * 0,
    # inf - inf): exp(i t a) is past float range there, a deviation of inf
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(a, MatrixQ) and n and a @ a == a:
            # exp(itq) = e + (e^{it} - 1) q exactly when q is idempotent
            w = np.exp(1j * ts) - 1.0
            if norm.p == 2:
                dev = _idempotent_spectral_deviation(arr, np.abs(w))
            else:
                dev = np.abs(_op_norms(np.eye(n) + w[:, None, None] * arr, norm) - 1.0)
        else:
            exps = _expm_batch(1j * ts[:, None, None] * arr)
            overflowed = ~np.isfinite(exps).all(axis=(1, 2))
            exps[overflowed] = 0.0  # the SVD rejects nan
            dev = np.abs(_op_norms(exps, norm) - 1.0)
            dev[overflowed] = np.inf
    dev[np.isnan(dev)] = np.inf
    idx = int(dev.argmax())
    max_dev = float(dev[idx])
    if max_dev <= HERMITIAN_TOL_PASS:
        verdict = "hermitian"
    elif max_dev >= HERMITIAN_TOL_FAIL:
        verdict = "not_hermitian"
    else:
        verdict = "inconclusive"
    return HermitianCheckReport(
        max_deviation=max_dev,
        argmax_t=float(ts[idx]),
        grid_size=grid,
        t_max=t_max,
        tol_pass=HERMITIAN_TOL_PASS,
        tol_fail=HERMITIAN_TOL_FAIL,
        verdict=verdict,
    )


def _idempotent_spectral_deviation(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """||e + w q||_2 - 1 for an idempotent q and each modulus r = |w|, |1 + w| = 1.

    q is unitarily similar to I + 0 + (sum_i [[1, s_i], [0, 0]]), with the
    s_i the singular values of X in q = [[I, X], [0, 0]] over range(q) and
    its orthogonal complement; q - q* = [[0, X], [-X*, 0]] there, so
    s = max s_i = ||q - q*||_2.  On a block, e + w q = [[1 + w, w s_i],
    [0, 1]] has the norm of [[1, |w| s_i], [0, 1]], which is
    sigma(|w| s_i) with sigma(x) = (x + sqrt(x^2 + 4)) / 2 >= 1, increasing
    in x; the I and 0 parts have norm 1.  So ||e + w q||_2 = sigma(|w| s),
    and one spectral norm, of q - q*, serves every grid point.
    """
    x = r * _op_norms((q - q.conj().T)[None], PNorm(2))[0]
    # sigma(x) - 1 = (x + x^2 / (sqrt(x^2 + 4) + 2)) / 2: no cancellation
    # for small x, no overflow for large x
    return (x + x * (x / (np.hypot(x, 2.0) + 2.0))) / 2.0


def _rule(a: MatrixQ, norm: PNorm) -> tuple:
    """(idempotent, truth) of the exact rule, forming a @ a once."""
    if not a.is_square:
        raise ShapeError("is_hermitian_idempotent expects a square matrix")
    if a @ a != a:
        return False, False
    if norm.p == 2:
        return True, conj_transpose(a) == a
    # a diagonal idempotent has 0/1 entries, so it is real diagonal
    return True, a == MatrixQ.diagonal([a.entry(i, i) for i in range(a.rows)])


def _rule_violation(a: MatrixQ, norm: PNorm) -> float:
    """How far a (n >= 1) misses the rule, on its float image.

    max |a - a*| at p = 2; at p = 1 or inf the largest off-diagonal modulus
    or |Im a_ii|.
    """
    arr = _as_array(a)
    if norm.p == 2:
        return float(np.abs(arr - arr.conj().T).max())
    diag = np.diag(arr)
    return float(max(np.abs(arr - np.diag(diag)).max(), np.abs(diag.imag).max()))


def is_hermitian_idempotent_exact(a: MatrixQ, norm: PNorm) -> bool:
    """Exact truth of "a is a hermitian idempotent" under the given norm.

    a must be idempotent; then at p = 2 it must be self-adjoint, and at
    p = 1 or inf real diagonal (which for an idempotent means 0/1 entries).
    No floating point is involved.
    """
    return _rule(a, norm)[1]


def is_hermitian_idempotent(a: MatrixQ, norm: PNorm) -> tuple:
    """(truth, report) for "a is a hermitian idempotent" under the given norm.

    The truth is `is_hermitian_idempotent_exact`, so it is never None.  The
    report is `hermitian_check` with its default grid on a, which for an
    idempotent uses the closed form of exp(i t a); it is kept as evidence.
    When a is an idempotent of size n >= 1 and the grid verdict is
    conclusive but contradicts the truth, InternalConsistencyError is
    raised, except that a grid pass on a non-hermitian idempotent is let
    stand while the rule's violation (`_rule_violation`) is below
    HERMITIAN_TOL_FAIL: there the grid deviation is of the violation's
    order (at least 0.4 times it on the tested idempotents), so such a pass
    is a sampling limit, not a bug.  (On the zero space the grid reads the
    empty map's norm as 0, so it is not consulted there.)
    """
    idempotent, truth = _rule(a, norm)
    report = hermitian_check(a, norm)
    if (idempotent and a.rows and report.verdict != "inconclusive"
            and (report.verdict == "hermitian") != truth
            and (truth or _rule_violation(a, norm) >= HERMITIAN_TOL_FAIL)):
        raise InternalConsistencyError(
            f"grid verdict {report.verdict} (max deviation {report.max_deviation:.3e}) "
            f"contradicts the exact hermitian-idempotent rule at p = {norm.p}")
    return truth, report
