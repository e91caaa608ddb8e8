"""Operator p-norms, matrix exponentials, and hermitian checks.

Float-side companion to the exact core.  An element is hermitian for a given
norm when ||exp(i t a)|| == 1 for every real t; that quantifier cannot be
decided numerically, so `hermitian_check` samples a symmetric t-grid and
reports a three-way verdict (hermitian / not_hermitian / inconclusive) with
the observed maximum deviation.

The exact rule.  On complex l^p_n the hermitian matrices are the
self-adjoint ones at p = 2 and the real diagonal ones at p = 1 and inf
(Lumer 1961, with Lamperti's description of the isometries; Schneider and
Turner, "Matrices hermitian for an absolute norm", 1973).
`is_hermitian_exact` decides that rule for any square `MatrixQ`, with no
floating point; a hermitian idempotent is an idempotent for which it holds
(`is_hermitian_idempotent_exact`), which at p = 1 and inf is a diagonal 0/1
matrix.  `is_hermitian_idempotent` takes its truth from the rule, reading
idempotence from the grid report's `closed_form` rather than forming q @ q
again, and keeps the report as evidence that must not contradict the rule
beyond its tolerances.

Closed forms.  For a `MatrixQ` q of size n >= 1 with q @ q == q exactly,
the grid uses exp(i t q) = e + (e^{it} - 1) q, and its report says so
(`closed_form`).  At p = 2 the norm of that closed form is itself
closed-form: q is unitarily similar to I + 0 + (sum_i [[1, s_i], [0, 0]])
(Halmos, "Two subspaces", 1969), so ||e + w q||_2 depends only on |w| and
s = max s_i = ||q - q*||_2, and one spectral norm per check replaces the one
per grid point.  At p = 1 (p = inf) the norm of e + w q is its largest
column (row) sum of moduli, |1 + w q_jj| + |w| sum_{i != j} |q_ij|, so the
grid is the elementwise maximum of n grid-long column sums and the
(grid, n, n) stack is never formed.
Any other input (numpy arrays too) whose float values satisfy the exact rule,
as those of a `MatrixQ` for which it holds do, is self-adjoint, so
exp(i t a) = V diag(e^{i t lambda}) V* from `eigh`, whose error does not
grow with ||t a||; every remaining input goes through the truncated series
of `expm`, whose squarings amplify its rounding with ||t a||.  The grid
itself, t with w = e^{it} - 1 and |w|, is built once per (grid, t_max).

p in {1, 2, inf}.  Every norm of a stack is `np.linalg.norm`: p=1 and p=inf
are the closed-form column and row sums, p=2 the largest singular value from
LAPACK's backward-stable SVD, which never forms A*A, so entries far from 1
neither underflow nor overflow there.  `expm` is scaling-and-squaring on a
truncated series, whose scaling holds for any finite ||t a||_1; a grid
point where exp(i t a) overflows reads deviation inf.  Numpy input must be
finite.
"""

from __future__ import annotations

import functools
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
    # s is the least s >= 0 with top / 2^s <= 0.5, read off top = m 2^e
    # exactly, since top / 0.5 overflows past 2^1023; top < 2^1024 gives
    # s <= 1025, where 2.0 ** -s is still a float (2.0 ** s is not).  Only
    # finite norms count: a slice with an inf entry comes out non-finite at
    # any s.
    norms = _op_norms(mats, PNorm(1))
    m, e = math.frexp(float(norms[np.isfinite(norms)].max(initial=0.0)))
    s = max(0, e + (m > 0.5))
    t = mats * 2.0 ** -s
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
    closed_form: bool  # the grid used exp(i t a) = e + (e^{it} - 1) a: a @ a == a exactly


@functools.lru_cache(maxsize=8)
def _grid(grid: int, t_max: float) -> tuple:
    """(ts, w, |w|) on the symmetric grid, w = e^{it} - 1, as read-only arrays.

    Built once per (grid, t_max).  A grid below 2 points, a t_max that is
    not positive or a grid that leaves float range raises ValueError, and
    lru_cache keeps no exception, so every such call raises.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    with np.errstate(all="ignore"):
        ts = np.linspace(-t_max, t_max, grid)
    if not (t_max > 0 and np.isfinite(ts).all()):
        raise ValueError("t_max must be positive, with a finite grid on [-t_max, t_max]")
    w = np.exp(1j * ts) - 1.0
    arrays = (ts, w, np.abs(w))
    for x in arrays:
        x.flags.writeable = False
    return arrays


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
    stack of exp(i t a) is the closed form e + (e^{it} - 1) a, whose norms
    never need the stack: at p = 2 they come from
    `_idempotent_spectral_deviation`, at p = 1 and inf from the column and
    row sums |1 + w a_jj| + |w| sum_{i != j} |a_ij| (`_idempotent_sum_norms`,
    w = e^{it} - 1).  The report's `closed_form` records this: it is True
    exactly when a is a `MatrixQ` of size n >= 1 with a @ a == a.  Any other
    input of size n >= 1 whose float values satisfy the exact rule
    (`_rule_violation` is 0; for a `MatrixQ`, whenever `is_hermitian_exact`
    holds) takes its stack from `_hermitian_exps`; every other input takes
    the scaling-and-squaring series.
    A grid point where any of these overflows reads deviation inf.  A numpy array
    with nan or inf entries raises ValueError, and so does a grid below 2
    points or a t_max that is not positive or whose grid leaves float range
    (nan, inf, 1e308), on every call.
    """
    ts, w, r = _grid(grid, t_max)
    arr = _as_array(a)
    n, m = arr.shape
    if n != m:
        raise ShapeError("hermitian_check expects a square matrix")
    closed_form = isinstance(a, MatrixQ) and n > 0 and a @ a == a
    # the entries are finite, so only overflow makes inf or nan (inf * 0,
    # inf - inf): exp(i t a) is past float range there, a deviation of inf
    with np.errstate(over="ignore", invalid="ignore"):
        if closed_form and norm.p == 2:
            dev = _idempotent_spectral_deviation(arr, r)
        elif closed_form:
            dev = np.abs(_idempotent_sum_norms(arr, w, r, norm) - 1.0)
        else:
            if n and _rule_violation(arr, norm) == 0:
                exps = _hermitian_exps(arr, ts)
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
        closed_form=closed_form,
    )


def _hermitian_exps(a: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(i t a) = V diag(e^{i t lambda}) V* for each t, a self-adjoint.

    V and lambda come from one `eigh`, so t enters only through the phases
    and the error stays at the rounding of V, whatever ||t a||; on a real
    diagonal a, V has 0/1 columns and the stack is diagonal.  `eigh` runs on
    a 2^-s, with s >= 0 the least power that brings every part of every
    entry to at most 1, so an eigenvalue lambda = mu 2^s past float range
    stays finite as mu; the scaling is exact, and the phase is formed as
    (t mu) 2^s.  For an eigenvalue where some t lambda overflows, the phase
    is taken as (t mod 2 pi / lambda) lambda instead, which is below 2 pi in
    modulus, so exp(i t a) stays unitary there too.
    """
    s = max(0, int(np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1]))
    mu, v = np.linalg.eigh(a * np.ldexp(1.0, -s))
    with np.errstate(over="ignore"):
        phase = np.ldexp(ts[:, None] * mu, s)
    big = ~np.isfinite(phase).all(axis=0)
    period = np.ldexp(2.0 * np.pi / mu[big], -s)
    phase[:, big] = np.ldexp(np.fmod(ts[:, None], period) * mu[big], s)
    return (v * np.exp(1j * phase)[:, None, :]) @ v.conj().T


def _idempotent_sum_norms(q: np.ndarray, w: np.ndarray, r: np.ndarray,
                          norm: PNorm) -> np.ndarray:
    """||e + w q|| at p = 1 or inf for each w, with r = |w|.

    Column j of e + w q has 1 + w q_jj on the diagonal and w q_ij off it, so
    its sum of moduli is |1 + w q_jj| + |w| sum_{i != j} |q_ij|, and the
    p = 1 norm is the largest; p = inf takes the row sums the same way.  The
    sums are formed one column of the grid at a time and folded with
    `np.maximum`, which is exact, so no (grid, n) array is reduced along its
    short axis and the (grid, n, n) stack is never formed.
    """
    moduli = np.abs(q)
    np.fill_diagonal(moduli, 0.0)
    off = moduli.sum(axis=0 if norm.p == 1 else 1)
    return functools.reduce(np.maximum, [np.abs(1.0 + w * d) + r * o
                                         for d, o in zip(np.diagonal(q), off)])


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


def is_hermitian_exact(a: MatrixQ, norm: PNorm) -> bool:
    """Exact truth of "a is hermitian" for the p-norm of complex l^p_n.

    Self-adjoint at p = 2, real diagonal at p = 1 and inf (Lumer 1961;
    Schneider and Turner 1973).  The real-diagonal test reads the integer
    numerators: every imaginary one is 0, and so is every real one off the
    diagonal, at the positions k of the flat row-major list with
    k % (n + 1) != 0.  No floating point is involved.  A non-square a raises
    ShapeError.
    """
    if not a.is_square:
        raise ShapeError("is_hermitian_exact expects a square matrix")
    if norm.p == 2:
        return conj_transpose(a) == a
    return not any(a._im) and not any(x for k, x in enumerate(a._re) if k % (a.rows + 1))


def _rule_violation(a, norm: PNorm) -> float:
    """How far a (n >= 1, `MatrixQ` or array) misses the rule on its float
    values, 0 exactly when they satisfy it: max |a - a*| at p = 2; at p = 1
    or inf the largest off-diagonal modulus or |Im a_ii|.
    """
    arr = _as_array(a)
    if norm.p == 2:
        return float(np.abs(arr - arr.conj().T).max())
    diag = np.diag(arr)
    return float(max(np.abs(arr - np.diag(diag)).max(), np.abs(diag.imag).max()))


def is_hermitian_idempotent_exact(a: MatrixQ, norm: PNorm) -> bool:
    """Exact truth of "a is a hermitian idempotent" under the given norm.

    a @ a == a and `is_hermitian_exact(a, norm)`: at p = 1 or inf a diagonal
    idempotent has 0/1 entries.  No floating point is involved.  A
    non-square a raises ShapeError (from the product a @ a).
    """
    return a @ a == a and is_hermitian_exact(a, norm)


def is_hermitian_idempotent(a: MatrixQ, norm: PNorm) -> tuple:
    """(truth, report) for "a is a hermitian idempotent" under the given norm.

    The truth is that of `is_hermitian_idempotent_exact`, so it is never
    None.  The report is `hermitian_check` with its default grid on a, which
    for an idempotent uses the closed form of exp(i t a); it is kept as
    evidence, and its `closed_form` (or n = 0) is the idempotence half of the
    rule, so a @ a is formed once.  When the report is closed-form and its
    verdict is conclusive but contradicts the truth, InternalConsistencyError
    is raised, except that a grid pass on a non-hermitian idempotent is let
    stand while the rule's violation (`_rule_violation`) is below
    HERMITIAN_TOL_FAIL: there the grid deviation is of the violation's
    order (at least 0.4 times it on the tested idempotents), so such a pass
    is a sampling limit, not a bug.  (On the zero space the grid reads the
    empty map's norm as 0, so it is not consulted there.)
    """
    report = hermitian_check(a, norm)
    truth = (report.closed_form or a.rows == 0) and is_hermitian_exact(a, norm)
    if (report.closed_form and report.verdict != "inconclusive"
            and (report.verdict == "hermitian") != truth
            and (truth or _rule_violation(a, norm) >= HERMITIAN_TOL_FAIL)):
        raise InternalConsistencyError(
            f"grid verdict {report.verdict} (max deviation {report.max_deviation:.3e}) "
            f"contradicts the exact hermitian-idempotent rule at p = {norm.p}")
    return truth, report
