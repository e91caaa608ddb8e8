"""Exact dense linear algebra over the Gaussian rationals.

Everything here computes exactly and never rounds: row reduction, rank, the
four fundamental subspaces, full-rank factorization, linear solves, inverses,
and the left-multiplication Kronecker lift.  Zero-dimensional matrices
(0 x n, n x 0) are legal values throughout.

Subspaces are stored in a canonical column-reduced echelon basis so that
subspace equality is plain structural equality.  `range_space` is the one
canonicaliser of a span; `kernel` reads that form straight off one RREF.

Representation: a MatrixQ holds one positive common denominator and two
flat row-major lists of Python ints, the real and the imaginary numerators,
so entry k is (re[k] + im[k] i) / den.  The form is canonical: den shares no
factor with all the numerators at once, and the zero matrix has den 1, so
equality and hashing compare integers.  Products, sums, transposes, stacking
and slicing are integer list work with one gcd normalisation per result; a
product of two complex matrices takes three integer matrix products, not
four (Gauss's form).
`rref` is fraction-free Gauss-Jordan elimination over the Gaussian integers
(Bareiss 1968, "Sylvester's identity and multistep integer-preserving
Gaussian elimination"): every division by the previous pivot is exact, and
is checked.  GaussianRational stays the scalar type at the boundary: the
constructor takes GaussianRational entries and `entry`, `row`, `col` and
`to_rows` build them from the integers on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import repeat
from operator import add, floordiv, mod, mul, sub
from typing import Optional, Sequence

from .exactnum import ZERO, GaussianRational, as_scalar


class ShapeError(ValueError):
    """Raised when matrix dimensions do not compose."""


class SingularMatrixError(ValueError):
    """Raised when an exact inverse of a singular (or non-square) matrix is requested."""


class InternalConsistencyError(AssertionError):
    """A verified-by-construction identity failed; indicates a bug, not bad input."""


class MatrixQ:
    """Immutable dense matrix of Gaussian rationals, row-major.

    Held as a common denominator and integer numerator lists (see the module
    docstring); entries read out as GaussianRational.
    """

    __slots__ = ("rows", "cols", "_den", "_re", "_im")

    rows: int
    cols: int

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimension")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        # Fractions are reduced, so the lcm of their denominators is already
        # coprime to the scaled numerators taken together.
        den = lcm(*{q.denominator for z in entries for q in (z.re, z.im)})
        re = [z.re.numerator * (den // z.re.denominator) for z in entries]
        im = [z.im.numerator * (den // z.im.denominator) for z in entries]
        _fill(self, rows, cols, den, re, im)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixQ is immutable")

    def __reduce__(self):
        return (_canonical, (self.rows, self.cols, self._den, self._re, self._im))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "MatrixQ":
        """Build from nested sequences; entries may be int, Fraction, str, or scalar."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat = []
        for r in data:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(as_scalar(x) for x in r)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return _new(n, n, 1, [int(i == j) for i in range(n) for j in range(n)], [0] * (n * n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        return _new(rows, cols, 1, [0] * (rows * cols), [0] * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence) -> "MatrixQ":
        d = [as_scalar(x) for x in diag]
        n = len(d)
        return cls(n, n, [d[i] if i == j else ZERO for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        k = i * self.cols + j
        return _scalar(self._re[k], self._im[k], self._den)

    def row(self, i: int) -> tuple:
        c = self.cols
        return self._scalars(range(i * c, (i + 1) * c))

    def col(self, j: int) -> tuple:
        return self._scalars(range(j, self.rows * self.cols, self.cols)) if self.cols else ()

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_complex_rows(self) -> list:
        """Float image as nested lists of complex (for the float-side modules).

        Each part is the correctly rounded quotient numerator / den, the same
        float as that of the reduced Fraction; OverflowError past float range.
        """
        re, im, d, c = self._re, self._im, self._den, self.cols
        return [[complex(re[k] / d, im[k] / d) for k in range(i * c, (i + 1) * c)]
                for i in range(self.rows)]

    def _scalars(self, ks) -> tuple:
        re, im, d = self._re, self._im, self._den
        return tuple(_scalar(re[k], im[k], d) for k in ks)

    # -- predicates ----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._re) and not any(self._im)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        return self._combine(other, 1)

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return self._combine(other, -1)

    def _combine(self, other: "MatrixQ", sign: int) -> "MatrixQ":
        """self + sign * other over the least common denominator."""
        self._same_shape(other)
        g = gcd(self._den, other._den)
        sa, sb = other._den // g, self._den // g
        sb *= sign
        return _canonical(
            self.rows, self.cols, self._den * sa,
            [x * sa + y * sb for x, y in zip(self._re, other._re)],
            [x * sa + y * sb for x, y in zip(self._im, other._im)],
        )

    def __neg__(self) -> "MatrixQ":
        return _new(self.rows, self.cols, self._den,
                    [-x for x in self._re], [-x for x in self._im])

    def scale(self, s) -> "MatrixQ":
        s = as_scalar(s)
        sd = lcm(s.re.denominator, s.im.denominator)
        sr = s.re.numerator * (sd // s.re.denominator)
        si = s.im.numerator * (sd // s.im.denominator)
        re, im = self._re, self._im
        return _canonical(
            self.rows, self.cols, self._den * sd,
            [sr * x - si * y for x, y in zip(re, im)],
            [sr * y + si * x for x, y in zip(re, im)],
        )

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        shape = (self.rows, self.cols, other.cols)
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        a_complex, b_complex = any(ai), any(bi)
        re = _int_matmul(ar, br, *shape)
        if a_complex and b_complex:
            # Gauss: three integer products, im = (ar + ai)(br + bi) - ar br - ai bi
            ii = _int_matmul(ai, bi, *shape)
            s = _int_matmul(list(map(add, ar, ai)), list(map(add, br, bi)), *shape)
            im = [z - x - y for z, x, y in zip(s, re, ii)]
            re = list(map(sub, re, ii))
        elif a_complex:
            im = _int_matmul(ai, br, *shape)
        elif b_complex:
            im = _int_matmul(ar, bi, *shape)
        else:
            im = [0] * len(re)
        return _canonical(self.rows, other.cols, self._den * other._den, re, im)

    def _same_shape(self, other: "MatrixQ") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- slicing / stacking ---------------------------------------------------

    def select_columns(self, indices: Sequence[int]) -> "MatrixQ":
        idx = list(indices)
        ks = [i * self.cols + j for i in range(self.rows) for j in idx]
        return _canonical(self.rows, len(idx), self._den,
                          [self._re[k] for k in ks], [self._im[k] for k in ks])

    def take_rows(self, start: int, stop: Optional[int] = None) -> "MatrixQ":
        """The rows range(start), or range(start, stop) when stop is given."""
        rows = range(start) if stop is None else range(start, stop)
        s = slice(rows.start * self.cols, rows.stop * self.cols)
        return _canonical(len(rows), self.cols, self._den, self._re[s], self._im[s])

    def hstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.rows != other.rows:
            raise ShapeError("hstack needs equal row counts")
        den, (ar, ai), (br, bi) = _common_den(self, other)
        ca, cb = self.cols, other.cols
        re, im = [], []
        for i in range(self.rows):
            re += ar[i * ca:(i + 1) * ca]
            re += br[i * cb:(i + 1) * cb]
            im += ai[i * ca:(i + 1) * ca]
            im += bi[i * cb:(i + 1) * cb]
        return _new(self.rows, ca + cb, den, re, im)

    def vstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.cols:
            raise ShapeError("vstack needs equal column counts")
        den, (ar, ai), (br, bi) = _common_den(self, other)
        return _new(self.rows + other.rows, self.cols, den, ar + br, ai + bi)

    # -- equality / repr -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, tuple(self._re), tuple(self._im)))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"MatrixQ({self.rows}x{self.cols}: {body})"


def _fill(m: MatrixQ, rows: int, cols: int, den: int, re: list, im: list) -> None:
    setter = object.__setattr__
    setter(m, "rows", rows)
    setter(m, "cols", cols)
    setter(m, "_den", den)
    setter(m, "_re", re)
    setter(m, "_im", im)


def _new(rows: int, cols: int, den: int, re: list, im: list) -> MatrixQ:
    """Wrap integer data that is already canonical; the lists are not copied."""
    m = object.__new__(MatrixQ)
    _fill(m, rows, cols, den, re, im)
    return m


def _canonical(rows: int, cols: int, den: int, re: list, im: list) -> MatrixQ:
    """Wrap integer data with den > 0 after dividing out its common factor."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im]
    return _new(rows, cols, den, re, im)


def _scalar(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _common_den(a: MatrixQ, b: MatrixQ) -> tuple:
    """lcm of the denominators and both numerator pairs rescaled to it.

    The result stays canonical: each prime of the lcm divides one operand's
    denominator to full power, and that operand has a numerator it misses.
    """
    den = lcm(a._den, b._den)
    return den, _rescaled(a, den // a._den), _rescaled(b, den // b._den)


def _rescaled(m: MatrixQ, s: int) -> tuple:
    if s == 1:
        return m._re, m._im
    return [x * s for x in m._re], [x * s for x in m._im]


def _int_matmul(a: list, b: list, n: int, k: int, m: int) -> list:
    """Flat n x m product of the flat integer matrices a (n x k) and b (k x m)."""
    if not m:
        return []
    rows = [a[i * k:(i + 1) * k] for i in range(n)]
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, r, c)) for r in rows for c in cols]


def _transposed(flat: list, rows: int, cols: int) -> list:
    return [x for j in range(cols) for x in flat[j::cols]]


def transpose(a: MatrixQ) -> MatrixQ:
    """Plain transpose, no conjugation."""
    return _new(a.cols, a.rows, a._den,
                _transposed(a._re, a.rows, a.cols), _transposed(a._im, a.rows, a.cols))


def conj_transpose(a: MatrixQ) -> MatrixQ:
    """Conjugate transpose; the involution of the matrix *-algebra."""
    return _new(a.cols, a.rows, a._den, _transposed(a._re, a.rows, a.cols),
                [-x for x in _transposed(a._im, a.rows, a.cols)])


def _divide(t: list, d: int) -> list:
    """Exact quotients t[k] / d.

    Sylvester's identity makes every fraction-free elimination step divide
    exactly; a remainder is a bug and raises instead of being truncated.
    """
    if any(map(mod, t, repeat(d))):
        raise InternalConsistencyError("inexact division in fraction-free elimination")
    return list(map(floordiv, t, repeat(d)))


def _times_conj(re: list, im: list, dr: int, di: int) -> tuple:
    """Entrywise (re + im i) * (dr - di i), as real and imaginary lists."""
    return ([x * dr + u * di for x, u in zip(re, im)],
            [u * dr - x * di for x, u in zip(re, im)])


def rref(a: MatrixQ) -> tuple:
    """Reduced row echelon form.

    Returns (R, pivots) where R is the RREF of `a` and pivots is the ordered
    list of pivot column indices; R is unique, so any exact method gives it.

    Fraction-free Gauss-Jordan on the Gaussian-integer numerators: with pivot
    pv and previous pivot d, every other row becomes (pv row - f pivot_row) / d,
    an exact division.  At the end every pivot equals the last one, p, and
    R = numerators / p.  A real input keeps every imaginary part zero, so its
    rows skip the imaginary arithmetic.
    """
    nrows, ncols = a.rows, a.cols
    real = not any(a._im)
    mre = [a._re[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    mim = [a._im[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    pivots = []
    dr, di = 1, 0  # previous pivot
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        prow = next((i for i in range(r, nrows) if mre[i][col] or mim[i][col]), None)
        if prow is None:
            continue
        mre[r], mre[prow] = mre[prow], mre[r]
        mim[r], mim[prow] = mim[prow], mim[r]
        yr, yi = mre[r], mim[r]
        pr, pi = yr[col], yi[col]
        for i in range(nrows):
            xr, xi = mre[i], mim[i]
            fr, fi = xr[col], xi[col]
            if i == r or (not fr and not fi and pr == dr and pi == di):
                continue
            if real:
                tr = [pr * x - fr * y for x, y in zip(xr, yr)]
                mre[i] = tr if dr == 1 else _divide(tr, dr)
                continue
            tr = [pr * x - pi * u - fr * y + fi * v for x, u, y, v in zip(xr, xi, yr, yi)]
            ti = [pr * u + pi * x - fr * v - fi * y for x, u, y, v in zip(xr, xi, yr, yi)]
            if di:  # t / d = t conj(d) / |d|^2
                n = dr * dr + di * di
                tr, ti = _times_conj(tr, ti, dr, di)
                mre[i], mim[i] = _divide(tr, n), _divide(ti, n)
            elif dr != 1:  # a unit other than 1 still divides: -1 flips signs
                mre[i], mim[i] = _divide(tr, dr), _divide(ti, dr)
            else:
                mre[i], mim[i] = tr, ti
        dr, di = pr, pi
        pivots.append(col)
        r += 1
    re = [x for row_ in mre for x in row_]
    im = [x for row_ in mim for x in row_]
    if di:
        re, im = _times_conj(re, im, dr, di)
        dr = dr * dr + di * di
    elif dr < 0:
        re, im, dr = [-x for x in re], [-x for x in im], -dr
    return _canonical(nrows, ncols, dr, re, im), pivots


def rank(a: MatrixQ) -> int:
    return len(rref(a)[1])


@dataclass(frozen=True)
class Subspace:
    """A subspace of column vectors, held in canonical reduced-echelon basis.

    `basis` is ambient_dim x dim; two Subspace values are equal exactly when
    they describe the same subspace of the same ambient space.
    """

    ambient_dim: int
    basis: MatrixQ

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: MatrixQ) -> bool:
        if v.rows != self.ambient_dim or v.cols != 1:
            raise ShapeError("vector/ambient mismatch")
        return rank(self.basis.hstack(v)) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return rank(self.basis.hstack(other.basis)) == self.dim


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    """Exact subspace equality; ambient-dimension mismatch is an error."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return s1.basis == s2.basis


def kernel(a: MatrixQ) -> Subspace:
    """Null space {x : a x = 0} as a canonical Subspace of C^cols.

    One elimination, of `a` with its columns reversed (column k <- n-1-k):
    free column f of that RREF R gives e_f - sum_i R[i, f] e_{pivots[i]},
    where R[i, f] != 0 only for pivots[i] < f.  Mapped back by k -> n-1-k,
    the vector has a leading 1 at n-1-f and every other one is 0 there, so
    by decreasing f they are already the column-reduced echelon basis.
    """
    n = a.cols
    r, pivots = rref(a.select_columns(range(n - 1, -1, -1)))
    free = [f for f in range(n - 1, -1, -1) if f not in pivots]
    nf = len(free)
    # basis column t, row n-1-k: coordinate k of the vector of free column free[t]
    re, im = [0] * (n * nf), [0] * (n * nf)
    for t, f in enumerate(free):
        re[(n - 1 - f) * nf + t] = r._den
        for i, p in enumerate(pivots):
            re[(n - 1 - p) * nf + t] = -r._re[i * n + f]
            im[(n - 1 - p) * nf + t] = -r._im[i * n + f]
    return Subspace(n, _canonical(n, nf, r._den, re, im))


def range_space(a: MatrixQ) -> Subspace:
    """Column space of a, canonicalised: the transposed nonzero rows of rref(a^T)."""
    r, pivots = rref(transpose(a))
    return Subspace(a.rows, transpose(r.take_rows(len(pivots))))


def row_space(a: MatrixQ) -> Subspace:
    """Row space {x a : x} flipped into column form via plain transpose."""
    return range_space(transpose(a))


def right_kernel(a: MatrixQ) -> Subspace:
    """Right-sided null space {z : z a = 0}, flipped into column form."""
    return kernel(transpose(a))


@dataclass(frozen=True)
class FullRankFactorization:
    """a = B C with B of full column rank and C of full row rank."""

    b: MatrixQ
    c: MatrixQ
    rank: int


def full_rank_factorize(a: MatrixQ) -> FullRankFactorization:
    """Full-rank factorization from the RREF: B = pivot columns of a, C = nonzero RREF rows."""
    r, pivots = rref(a)
    k = len(pivots)
    b = a.select_columns(pivots)
    c = r.take_rows(k)
    return FullRankFactorization(b=b, c=c, rank=k)


def _pivot_solution(aug: MatrixQ, pivots: list, n: int) -> MatrixQ:
    """Read x with a x = y off the RREF of [a | y], a having n columns.

    Row p of x is the right block of the pivot row of column p; rows of free
    columns are 0.
    """
    w = aug.cols
    m = w - n
    re, im = [0] * (n * m), [0] * (n * m)
    for i, p in enumerate(pivots):
        re[p * m:(p + 1) * m] = aug._re[i * w + n:(i + 1) * w]
        im[p * m:(p + 1) * m] = aug._im[i * w + n:(i + 1) * w]
    return _canonical(n, m, aug._den, re, im)


def solve_exists(a: MatrixQ, y: MatrixQ, side: str = "right") -> Optional[MatrixQ]:
    """Exact linear solve, deciding existence.

    side="right": find x with a @ x == y (x is a.cols x y.cols).
    side="left":  find x with x @ a == y (x is y.rows x a.rows).
    Returns one exact solution (free variables zero) or None when the system
    is inconsistent; existence is decided by the rank of the augmented system.
    """
    if side == "left":
        xt = solve_exists(transpose(a), transpose(y), side="right")
        return None if xt is None else transpose(xt)
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if a.rows != y.rows:
        raise ShapeError("solve: row counts differ")
    aug, pivots = rref(a.hstack(y))
    if any(p >= a.cols for p in pivots):
        return None
    x = _pivot_solution(aug, pivots, a.cols)
    if (a @ x) != y:
        raise InternalConsistencyError("solve_exists produced a non-solution")
    return x


def is_invertible(a: MatrixQ) -> bool:
    return a.is_square and rank(a) == a.rows


def inverse(a: MatrixQ) -> MatrixQ:
    """Exact inverse; SingularMatrixError when none exists.  0x0 inverts to itself."""
    if not a.is_square:
        raise SingularMatrixError("inverse of non-square matrix")
    n = a.rows
    if n == 0:
        return a
    aug, pivots = rref(a.hstack(MatrixQ.identity(n)))
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _pivot_solution(aug, pivots, n)


def kron(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Kronecker product a (x) b."""
    re, im = [], []
    for i in range(a.rows):
        for k in range(b.rows):
            br = b._re[k * b.cols:(k + 1) * b.cols]
            bi = b._im[k * b.cols:(k + 1) * b.cols]
            for j in range(a.cols):
                x, y = a._re[i * a.cols + j], a._im[i * a.cols + j]
                re += [x * u - y * v for u, v in zip(br, bi)]
                im += [x * v + y * u for u, v in zip(br, bi)]
    return _canonical(a.rows * b.rows, a.cols * b.cols, a._den * b._den, re, im)


def kron_left_mult(a: MatrixQ) -> MatrixQ:
    """Matrix of x -> a x on n x n matrices, in the row-major entry basis.

    Equals a (x) I_n: row-major vec(a x) = (a (x) I_n) row-major vec(x).
    """
    if not a.is_square:
        raise ShapeError("kron_left_mult needs a square matrix")
    return kron(a, MatrixQ.identity(a.rows))
