"""Independent cross-check routes used by the tests.

`brute_force_pinv` finds the Moore-Penrose inverse without touching the
package's factorization formula: conditions (1), (3), (4) of the defining
system are linear over the reals in (Re x, Im x), so they are solved
directly by Gaussian elimination over Fraction; composing any such solution
x0 as x0 a x0 then yields the unique four-condition inverse.  The solver
below is deliberately separate from the package's RREF.

`oracle_matmul` and `oracle_rref` are the per-entry GaussianRational product
and Gauss-Jordan elimination that epkit.linalg used before its matrices
moved to a common denominator over integer numerators; the `oracle_*`
functions built on them check that core entry for entry.  They work on
lists of rows of GaussianRational and never touch epkit.linalg;
`oracle_is_ep` reads a MatrixQ's rows and decides EP by their ranks alone.

The helpers at the end are reference constructions that only the tests
read, so they live here rather than in the package: the Kronecker product
and the left-multiplication lift a (x) e, subspace containment by rank, the
factor daggers through the Gram inverses, the factor-level identities of
Lemma 3.8's witnesses, the ranked and invertible draws that eliminate
each candidate, and the ep draw through its projection m0 (m0* m0)^-1 m0*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from epkit.battery import _MASK64, _MAX_ATTEMPTS, GeneratorConfig, GeneratorError, _rand_matrix
from epkit.characterizations import EPInstance
from epkit.exactnum import ONE, ZERO, GaussianRational
from epkit.linalg import (
    FullRankFactorization,
    MatrixQ,
    ShapeError,
    Subspace,
    conj_transpose,
    full_rank_factorize,
    inverse,
    rank,
    solve_exists,
)
from epkit.pseudoinverse import factor_daggers, lemma38_witnesses


def assert_canonical(m: MatrixQ) -> None:
    """m's denominator is positive, shares no factor with all its numerators
    at once, and is 1 when m is zero."""
    assert m._den > 0
    assert gcd(m._den, *m._re, *m._im) == 1
    if m.is_zero():
        assert m._den == 1


def oracle_matmul(a: list, b: list, m: int) -> list:
    """Product of row lists a (n x k) and b (k x m), entry by entry."""
    out = []
    for row_a in a:
        acc = [ZERO] * m
        for t, x in enumerate(row_a):
            if x.is_zero():
                continue
            for j in range(m):
                y = b[t][j]
                if not y.is_zero():
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def oracle_rref(rows: list, ncols: int) -> tuple:
    """(RREF rows, pivot columns) by Gauss-Jordan with leading-1 pivots."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        prow = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if prow is None:
            continue
        m[r], m[prow] = m[prow], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            f = m[i][col]
            if i != r and not f.is_zero():
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def _transpose(rows: list, ncols: int) -> list:
    return [[row[j] for row in rows] for j in range(ncols)]


def oracle_kernel_basis(rows: list, ncols: int) -> list:
    """Canonical basis of {x : a x = 0}, as rows of a ncols x dim matrix."""
    r, pivots = oracle_rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    vectors = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        vectors.append(v)
    # canonical basis of their span: the transposed nonzero RREF rows
    r, pivots = oracle_rref(vectors, ncols)
    return _transpose(r[:len(pivots)], ncols)


def oracle_solve(a: list, y: list, ncols: int, m: int):
    """Solution x (ncols x m) of a x = y with free variables zero, or None."""
    r, pivots = oracle_rref([ra + ry for ra, ry in zip(a, y)], ncols + m)
    if any(p >= ncols for p in pivots):
        return None
    x = [[ZERO] * m for _ in range(ncols)]
    for i, p in enumerate(pivots):
        x[p] = r[i][ncols:]
    return x


def oracle_inverse(a: list):
    """Inverse of the square row list a, or None when singular."""
    n = len(a)
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    r, pivots = oracle_rref([ra + re for ra, re in zip(a, eye)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def oracle_is_ep(a: MatrixQ) -> bool:
    """EP as rank [a | a*] == rank a (Pearl 1959): range a* lies in range a,
    and the two have the same dimension, so they are equal.  Both ranks are
    the pivot counts of `oracle_rref` over a's GaussianRational rows, so the
    verdict shares no kernel with the package: no numpy product, no product
    memo and no epkit.linalg elimination."""
    rows = a.to_rows()
    star = [[x.conj() for x in col] for col in _transpose(rows, a.cols)]
    _, pivots = oracle_rref(rows, a.cols)
    _, aug_pivots = oracle_rref([r + s for r, s in zip(rows, star)], a.cols + a.rows)
    return len(aug_pivots) == len(pivots)


def _gauss_solve(aug, nvars):
    """Particular solution of a real linear system from its augmented rows.

    Free variables are set to zero.  Returns None when inconsistent.
    """
    rows = [list(r) for r in aug]
    nrows = len(rows)
    pivot_cols = []
    r = 0
    for col in range(nvars):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, nrows):
        if rows[i][nvars] != 0:
            return None
    sol = [Fraction(0)] * nvars
    for i, col in enumerate(pivot_cols):
        sol[col] = rows[i][nvars]
    return sol


def _residual_vector(a: MatrixQ, x: MatrixQ):
    """Real flattening of the residuals of conditions (1), (3), (4)."""
    ax = a @ x
    xa = x @ a
    r1 = (ax @ a) - a
    r3 = conj_transpose(ax) - ax
    r4 = conj_transpose(xa) - xa
    out = []
    for m in (r1, r3, r4):
        for i in range(m.rows):
            for z in m.row(i):
                out.append(z.re)
                out.append(z.im)
    return out


def brute_force_pinv(a: MatrixQ) -> MatrixQ:
    """Moore-Penrose inverse via the Penrose linear system; exact.

    Intended for small sizes (the system has 2*rows*cols real unknowns).
    """
    m, n = a.rows, a.cols
    nvars = 2 * n * m
    base = _residual_vector(a, MatrixQ.zeros(n, m))
    columns = []
    for k in range(n):
        for l in range(m):
            for part in range(2):
                entries = [GaussianRational(0)] * (n * m)
                entries[k * m + l] = (GaussianRational(1) if part == 0
                                      else GaussianRational(0, 1))
                resid = _residual_vector(a, MatrixQ(n, m, entries))
                columns.append([resid[i] - base[i] for i in range(len(base))])
    aug = [[columns[t][i] for t in range(nvars)] + [-base[i]]
           for i in range(len(base))]
    sol = _gauss_solve(aug, nvars)
    if sol is None:
        raise AssertionError("Penrose system (1),(3),(4) must be solvable")
    entries = []
    for k in range(n):
        for l in range(m):
            t = 2 * (k * m + l)
            entries.append(GaussianRational(sol[t], sol[t + 1]))
    x0 = MatrixQ(n, m, entries)
    y = x0 @ a @ x0
    # y must satisfy all four conditions; (1),(3),(4) plus idempotent-composition
    assert (a @ y @ a) == a
    assert (y @ a @ y) == y
    assert conj_transpose(a @ y) == (a @ y)
    assert conj_transpose(y @ a) == (y @ a)
    return y


# -- reference constructions --------------------------------------------------


def kron(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Kronecker product a (x) b, entry by entry."""
    return MatrixQ(a.rows * b.rows, a.cols * b.cols,
                   [a.entry(i, j) * b.entry(k, l)
                    for i in range(a.rows) for k in range(b.rows)
                    for j in range(a.cols) for l in range(b.cols)])


def kron_left_mult(a: MatrixQ) -> MatrixQ:
    """Matrix of x -> a x on n x n matrices, in the row-major entry basis.

    Equals a (x) I_n: row-major vec(a x) = (a (x) I_n) row-major vec(x).
    """
    if not a.is_square:
        raise ShapeError("kron_left_mult needs a square matrix")
    return kron(a, MatrixQ.identity(a.rows))


def contains_vector(s: Subspace, v: MatrixQ) -> bool:
    if v.rows != s.ambient_dim or v.cols != 1:
        raise ShapeError("vector/ambient mismatch")
    return rank(s.basis.hstack(v)) == s.dim


def contains_subspace(s: Subspace, other: Subspace) -> bool:
    if s.ambient_dim != other.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return rank(s.basis.hstack(other.basis)) == s.dim


def gram_inverse_daggers(f: FullRankFactorization) -> tuple:
    """(b^+, c^+) through the Gram inverses, inverse(b* b) b* and c* inverse(c c*),
    the route `factor_daggers` took before it read each off one elimination."""
    bs, cs = conj_transpose(f.b), conj_transpose(f.c)
    return inverse(bs @ f.b) @ bs, cs @ inverse(f.c @ cs)


def _of_rank_by_elimination(draw, r: int, failure: str):
    """The validated instance of the first matrix `draw` gives of rank r,
    each candidate eliminated by `EPInstance.from_matrix`."""
    for _ in range(_MAX_ATTEMPTS):
        inst = EPInstance.from_matrix(draw())
        if inst.rank == r:
            return inst
    raise GeneratorError(failure)


def rand_rank_r_by_elimination(rng, n: int, r: int, bound: int, use_complex: bool):
    """The validated instance of a random n x n matrix of rank r, by the
    route `battery._rand_rank_r` took before it factorized each draw from its
    drawn factors: every candidate left right goes through
    `EPInstance.from_matrix`, which eliminates it, and is kept when its rank
    is r.  It draws from `rng` what `_rand_rank_r` draws."""
    def draw():
        left = _rand_matrix(rng, n, r, bound, use_complex)
        return left @ _rand_matrix(rng, r, n, bound, use_complex)
    return _of_rank_by_elimination(draw, r, f"could not draw a rank-{r} matrix of size {n}")


def invertible_by_elimination(cfg: GeneratorConfig) -> tuple:
    """(instance, rng after the draw) of an invertible
    `battery.gen_instance(cfg)`, by the route it took before it factorized
    each draw from e: every n x n candidate goes through
    `EPInstance.from_matrix` and is kept when its rank is n."""
    assert cfg.kind == "invertible", cfg
    rng = random.Random(cfg.seed & _MASK64)
    use_complex = rng.random() < 0.5
    n, bound = cfg.n, cfg.entry_bound
    return _of_rank_by_elimination(lambda: _rand_matrix(rng, n, n, bound, use_complex), n,
                                   f"could not draw an invertible matrix of size {n}"), rng


def ep_by_projection(cfg: GeneratorConfig) -> tuple:
    """(a, f, (b^+, c^+), rng after the draw) of an ep
    `battery.gen_instance(cfg)`, by the route it took before it built each
    draw as a factorization: the projection proj = m0 (m0* m0)^-1 m0* of the
    first m0 whose Gram `solve_exists` inverts, then candidates proj m proj
    until one has rank r, each eliminated by `full_rank_factorize`; the
    daggers of the one kept come through the Gram inverses."""
    assert cfg.kind == "ep", cfg
    rng = random.Random(cfg.seed & _MASK64)
    use_complex = rng.random() < 0.5
    n, bound = cfg.n, cfg.entry_bound
    r = cfg.rank if cfg.rank is not None else rng.randint(0, n)
    for _ in range(_MAX_ATTEMPTS):
        m0 = _rand_matrix(rng, n, r, bound, use_complex)
        gram_inv = solve_exists(conj_transpose(m0) @ m0, MatrixQ.identity(r))
        if gram_inv is not None:
            break
    else:
        raise GeneratorError(f"could not draw a rank-{r} projection of size {n}")
    proj = m0 @ gram_inv @ conj_transpose(m0)
    for _ in range(_MAX_ATTEMPTS):
        a = proj @ _rand_matrix(rng, n, n, bound, use_complex) @ proj
        f = full_rank_factorize(a)
        if f.rank == r:
            return a, f, gram_inverse_daggers(f), rng
    raise GeneratorError(f"could not hit rank {r} for an ep draw of size {n}")


@dataclass(frozen=True)
class Lemma38FactorChecks:
    """Pass/fail record for the factor-level witness identities."""

    bpinv_gram_inverse_ok: bool  # (b^+ (b^+)*)^-1 == b* b
    cpinv_gram_inverse_ok: bool  # ((c^+)* c^+)^-1 == c c*
    vb_identity_ok: bool  # v b == (b^+)* (c^+)* c^+
    cw_identity_ok: bool  # c w == b^+ (b^+)* (c^+)*

    @property
    def all_ok(self) -> bool:
        return (
            self.bpinv_gram_inverse_ok
            and self.cpinv_gram_inverse_ok
            and self.vb_identity_ok
            and self.cw_identity_ok
        )


def lemma38_factor_witnesses(f: FullRankFactorization, inst) -> Lemma38FactorChecks:
    """Check the factor-level identities tied to the v, w witnesses of an
    `EPInstance`.

    `f` must factor inst.a (b c == a), otherwise it is rejected.
    """
    if f.b @ f.c != inst.a:
        raise ValueError("factorization does not reproduce the matrix of the instance")
    v, w = lemma38_witnesses(inst)
    b, c = f.b, f.c
    bp, cp = factor_daggers(f)
    bps = conj_transpose(bp)
    cps = conj_transpose(cp)
    e_r = MatrixQ.identity(f.rank)
    g_b = bp @ bps
    g_c = cps @ cp
    bsb = conj_transpose(b) @ b
    ccs = c @ conj_transpose(c)
    return Lemma38FactorChecks(
        bpinv_gram_inverse_ok=(g_b @ bsb == e_r and bsb @ g_b == e_r),
        cpinv_gram_inverse_ok=(g_c @ ccs == e_r and ccs @ g_c == e_r),
        vb_identity_ok=(v @ b == bps @ cps @ cp),
        cw_identity_ok=(c @ w == bp @ bps @ cps),
    )
