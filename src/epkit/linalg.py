"""Exact dense linear algebra over the Gaussian rationals.

Everything here computes exactly and never rounds: row reduction, rank, the
four fundamental subspaces, full-rank factorization, linear solves and
inverses.  Zero-dimensional matrices (0 x n, n x 0) are legal values
throughout.

Subspaces are stored in a canonical column-reduced echelon basis so that
subspace equality is plain structural equality.  `range_space` is the one
canonicaliser of a span; `kernel` reads that form straight off one RREF,
through `null_basis`, the one builder of a kernel basis from an RREF, which
also gives 5.5's basis of ker c.

Representation: a MatrixQ holds one positive common denominator and two
flat row-major lists of Python ints, the real and the imaginary numerators,
so entry k is (re[k] + im[k] i) / den.  The form is canonical: den shares no
factor with all the numerators at once, and the zero matrix has den 1, so
equality and hashing compare integers.  Sums, transposes, stacking and
slicing are integer list work, and every result gets one gcd normalisation.
A product is one numpy integer matrix product of the stacked parts, the left
operand's [re; im] against the right's (re, im); numpy never holds a float
here.  Its dtype is int64 when the operands' bit lengths and the inner
dimension prove that no entry, nor the difference of two, reaches 2**63, and
object (Python ints, through numpy's loop) otherwise.  Past that bound a
complex operand's entries x + y i are packed one Python int each, x + y X
with X = 2**(width + 1) and width the bound's own sum of bit lengths, so
the product is one object matmul whose entries c0 + c1 X + c2 X**2 carry
re = c0 - c2 and im = c1, the one decode (c2 = 0 against a real operand).
Every slot is a sum of at most 2k products of numerators, below
2**width = X / 2 in absolute value by that same bound, so each reads back
exactly as a signed digit.  An identity or zero
operand never reaches numpy: e x and x e return x's lists, and a zero or
empty operand gives `MatrixQ.zeros`.  Inside a `product_memo` block (an
EPInstance opens one over its own dict) any other operand pair is looked up
by content and formed only on a miss.  Every product is a new MatrixQ, which
may share the lists of an equal one: they are never mutated.  Each matrix
computes its hash, its kernel facts (the complex flag, the bit length and
the stacked numerator list) and its `inverse` (or the fact that it is
singular) once, on first use, in slots that pickling and copying leave out.
`__setattr__` refuses every write, so construction fills the eight slots
through their member descriptors' setters, bound once at import.
A unit monomial matrix (denominator 1, one nonzero per row and per column,
each 1, -1, i or -i) is unitary, so its inverse is its adjoint and no
elimination is run for it.  Any other inverse, and g^-1 y for the Grams of
`pseudoinverse.factor_daggers`, is read off one RREF of [g | y].
`rref` is fraction-free Gauss-Jordan elimination over the Gaussian integers
(Bareiss 1968, "Sylvester's identity and multistep integer-preserving
Gaussian elimination"): every division by the previous pivot is exact, and
is checked.  GaussianRational stays the scalar type at the boundary: the
constructor takes GaussianRational entries and `entry`, `row`, `col` and
`to_rows` build them from the integers on demand.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import repeat
from operator import floordiv, mod
from typing import Optional, Sequence

import numpy as np

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

    # _hash, _facts and _inv cache the hash, `_kernel_facts` and `inverse`
    # (_SINGULAR when there is none); None until first read, and never
    # pickled or copied
    __slots__ = ("rows", "cols", "_den", "_re", "_im", "_hash", "_facts", "_inv")

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
        re = [0] * (n * n)
        re[::n + 1] = [1] * n
        return _new(n, n, 1, re, [0] * (n * n))

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
        k = _index(i, self.rows) * self.cols + _index(j, self.cols)
        return _scalar(self._re[k], self._im[k], self._den)

    def row(self, i: int) -> tuple:
        c = self.cols
        i = _index(i, self.rows)
        return self._scalars(range(i * c, (i + 1) * c))

    def col(self, j: int) -> tuple:
        return self._scalars(range(_index(j, self.cols), self.rows * self.cols, self.cols))

    def leading_columns(self) -> list:
        """Per row, the column of its first nonzero entry, None for a zero row."""
        re, im, c = self._re, self._im, self.cols
        return [next((j for j in range(c) if re[i * c + j] or im[i * c + j]), None)
                for i in range(self.rows)]

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

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        _, a_bits, _, a_is_e = self._kernel_facts()
        _, b_bits, _, b_is_e = other._kernel_facts()
        if not a_bits or not b_bits:
            return MatrixQ.zeros(self.rows, other.cols)
        if a_is_e:
            return _alias(other)
        if b_is_e:
            return _alias(self)
        memo = _PRODUCTS.get()
        if memo is None:
            return _product(self, other)
        key = (self, other)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _product(self, other)
            return out
        return _alias(out)

    def _kernel_facts(self) -> tuple:
        """(complex, bits, stacked, identity), computed once: whether an
        imaginary part is nonzero, the bit length of the largest numerator,
        the numerators the product kernel reads (re, then im if complex),
        and whether self is an identity."""
        facts = self._facts
        if facts is None:
            cplx = any(self._im)
            stacked = self._re + self._im if cplx else self._re
            bits = _bits(stacked)
            n, re = self.rows, self._re
            identity = (bits == 1 and not cplx and self._den == 1 and n == self.cols
                        and re[::n + 1].count(1) == n and re.count(0) == n * n - n)
            facts = (cplx, bits, stacked, identity)
            _set_facts(self, facts)
        return facts

    def _same_shape(self, other: "MatrixQ") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- slicing / stacking ---------------------------------------------------

    def select_columns(self, indices: Sequence[int]) -> "MatrixQ":
        idx = list(indices)
        if idx and (min(idx) < 0 or max(idx) >= self.cols):
            raise IndexError(f"column indices {idx} out of range for {self.cols} columns")
        ks = [i * self.cols + j for i in range(self.rows) for j in idx]
        return _canonical(self.rows, len(idx), self._den,
                          [self._re[k] for k in ks], [self._im[k] for k in ks])

    def select_rows(self, indices: Sequence[int]) -> "MatrixQ":
        idx = list(indices)
        if idx and (min(idx) < 0 or max(idx) >= self.rows):
            raise IndexError(f"row indices {idx} out of range for {self.rows} rows")
        ks = [i * self.cols + j for i in idx for j in range(self.cols)]
        return _canonical(len(idx), self.cols, self._den,
                          [self._re[k] for k in ks], [self._im[k] for k in ks])

    def take_rows(self, start: int, stop: Optional[int] = None) -> "MatrixQ":
        """The rows range(start), or range(start, stop) when stop is given;
        IndexError unless 0 <= start <= stop <= rows."""
        if stop is None:
            start, stop = 0, start
        if not 0 <= start <= stop <= self.rows:
            raise IndexError(f"rows {start}:{stop} out of range for {self.rows} rows")
        s = slice(start * self.cols, stop * self.cols)
        return _canonical(stop - start, self.cols, self._den, self._re[s], self._im[s])

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
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self._den, tuple(self._re), tuple(self._im)))
            _set_hash(self, h)
        return h

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"MatrixQ({self.rows}x{self.cols}: {body})"


# the slots' own setters, which `MatrixQ.__setattr__` does not reach
(_set_rows, _set_cols, _set_den, _set_re, _set_im, _set_hash, _set_facts, _set_inv) = (
    MatrixQ.__dict__[name].__set__ for name in MatrixQ.__slots__)


def _fill(m: MatrixQ, rows: int, cols: int, den: int, re: list, im: list,
          h: Optional[int] = None, facts: Optional[tuple] = None) -> None:
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_den(m, den)
    _set_re(m, re)
    _set_im(m, im)
    _set_hash(m, h)
    _set_facts(m, facts)
    _set_inv(m, None)


def _new(rows: int, cols: int, den: int, re: list, im: list) -> MatrixQ:
    """Wrap integer data that is already canonical; the lists are not copied."""
    m = object.__new__(MatrixQ)
    _fill(m, rows, cols, den, re, im)
    return m


def _alias(m: MatrixQ) -> MatrixQ:
    """A new MatrixQ equal to m, sharing its lists and its caches."""
    out = object.__new__(MatrixQ)
    _fill(out, m.rows, m.cols, m._den, m._re, m._im, m._hash, m._facts)
    return out


def _product(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """a @ b by one numpy integer product; the shapes compose."""
    n, k, m = a.rows, a.cols, b.cols
    a_complex, a_bits, left, _ = a._kernel_facts()
    b_complex, b_bits, right, _ = b._kernel_facts()
    # every entry of p is below k 2**(bits(left) + bits(right)) in absolute
    # value, so under this bound a difference of two is below 2**63
    width = a_bits + b_bits + (2 * k).bit_length()
    if width > 63 and (a_complex or b_complex):
        return _packed_product(a, b, width)
    dtype = np.int64 if width <= 63 else object
    # p[j] = [ar; ai] @ (br, bi)[j], for the parts that are nonzero
    p = (np.array(left, dtype).reshape((1 + a_complex) * n, k)
         @ np.array(right, dtype).reshape(1 + b_complex, k, m))
    if a_complex and b_complex:
        re = (p[0, :n] - p[1, n:]).ravel().tolist()
        im = (p[1, :n] + p[0, n:]).ravel().tolist()
    else:  # p holds the real part, then the imaginary part if nonzero
        flat = p.ravel().tolist()
        re, im = flat[:n * m], flat[n * m:] or [0] * (n * m)
    return _canonical(n, m, a._den * b._den, re, im)


def _packed_product(a: MatrixQ, b: MatrixQ, width: int) -> MatrixQ:
    """a @ b for a complex operand past the int64 bound, as one object product.

    Each entry x + y i is packed into the one Python int x + y X, X = 2**K
    with K = width + 1, so one matmul gives c0 + c1 X + c2 X**2 per entry,
    with re = c0 - c2 and im = c1 (c2 = 0 against a real operand).  Each
    slot is below 2**width = X / 2 in absolute value (the bound of
    `_product`), so adding X / 2 to every slot makes each a K-bit digit in
    (0, X), read off by shifts and masks.
    """
    n, k, m = a.rows, a.cols, b.cols
    shift = width + 1
    mask, half = (1 << shift) - 1, 1 << width
    flat = (np.array(_packed(a, shift), object).reshape(n, k)
            @ np.array(_packed(b, shift), object).reshape(k, m)).ravel().tolist()
    bias = (((half << shift) + half) << shift) + half
    biased = [v + bias for v in flat]
    # the biases of c0 and c2 cancel in c0 - c2
    re = [(u & mask) - (u >> 2 * shift) for u in biased]
    im = [((u >> shift) & mask) - half for u in biased]
    return _canonical(n, m, a._den * b._den, re, im)


def _packed(m: MatrixQ, shift: int) -> list:
    """Each entry's numerators re + im i as the one int re + (im << shift)."""
    return [x + (y << shift) for x, y in zip(m._re, m._im)]


# the product memo of the enclosing `product_memo` block; None outside one
_PRODUCTS: ContextVar[Optional[dict]] = ContextVar("epkit_products", default=None)


@contextmanager
def product_memo(memo: dict):
    """Within the block, `@` reads and fills memo, keyed by operand content,
    so a product of equal operands is formed once.  Blocks nest; on exit the
    enclosing block's memo, or none, is active again."""
    token = _PRODUCTS.set(memo)
    try:
        yield
    finally:
        _PRODUCTS.reset(token)


def _canonical(rows: int, cols: int, den: int, re: list, im: list) -> MatrixQ:
    """Wrap integer data with den > 0 after dividing out its common factor."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im]
    return _new(rows, cols, den, re, im)


def _index(i: int, n: int) -> int:
    """i when 0 <= i < n; IndexError otherwise, negative i included."""
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for size {n}")
    return i


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


def _bits(xs: list) -> int:
    """Bit length of the largest absolute value in xs; 0 when xs is empty."""
    return max(max(xs), -min(xs)).bit_length() if xs else 0


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


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    """Exact subspace equality; ambient-dimension mismatch is an error."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    return s1.basis == s2.basis


def null_basis(c: MatrixQ, pivots: list, free: list) -> MatrixQ:
    """K with c K = 0 and K[F, :] = e, read off the RREF c, whose rows are
    all nonzero, with pivot columns P and free columns F: column t is
    e_f - sum_i c[i, f] e_{P_i}, f = F[t].  Its rows at P are -c[:, F] and
    at F are e, as c[:, P] = e gives c K = 0."""
    order = pivots + free
    stacked = (-c.select_columns(free)).vstack(MatrixQ.identity(len(free)))
    return stacked.select_rows(sorted(range(len(order)), key=order.__getitem__))


def kernel(a: MatrixQ) -> Subspace:
    """Null space {x : a x = 0} as a canonical Subspace of C^cols.

    One elimination, of `a` with its columns reversed (column k <- n-1-k),
    and `null_basis` of that RREF R with its free columns f by decreasing f:
    the column of f is e_f - sum_i R[i, f] e_{pivots[i]}, where R[i, f] != 0
    only for pivots[i] < f.  Mapped back by k -> n-1-k, it has a leading 1
    at n-1-f and every other column is 0 there, so they are already the
    column-reduced echelon basis.
    """
    n = a.cols
    flip = range(n - 1, -1, -1)
    r, pivots = rref(a.select_columns(flip))
    free = [f for f in flip if f not in pivots]
    return Subspace(n, null_basis(r.take_rows(len(pivots)), pivots, free).select_rows(flip))


def range_space(a: MatrixQ) -> Subspace:
    """Column space of a, canonicalised: the transposed nonzero rows of rref(a^T)."""
    r, pivots = rref(transpose(a))
    return Subspace(a.rows, transpose(r.take_rows(len(pivots))))


# row_space and right_kernel are not exported from epkit: the package reads
# both facts off the factor subspaces.  They stay here for the tests' direct
# eliminations and for bench/tracer.py, which wraps them by name.
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

    @property
    def rank(self) -> int:
        """The rank of a, the row count of C."""
        return self.c.rows


def full_rank_factorize(a: MatrixQ) -> FullRankFactorization:
    """Full-rank factorization from the RREF: B = pivot columns of a, C = nonzero RREF rows."""
    r, pivots = rref(a)
    return FullRankFactorization(b=a.select_columns(pivots), c=r.take_rows(len(pivots)))


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
    """Whether a is square with an inverse, decided by `inverse`, which a keeps."""
    try:
        inverse(a)
    except SingularMatrixError:
        return False
    return True


# the `_inv` slot of a matrix that has no inverse
_SINGULAR = object()


def inverse(a: MatrixQ) -> MatrixQ:
    """Exact inverse; SingularMatrixError when none exists.

    The result, or the fact that a is singular, is stored on a, so a second
    call runs no elimination.  A unit monomial a (0x0 included) inverts to
    its adjoint without one.
    """
    if not a.is_square:
        raise SingularMatrixError("inverse of non-square matrix")
    inv = a._inv
    if inv is None:
        if _is_unit_monomial(a):
            inv = conj_transpose(a)
        else:
            try:
                inv = _inverse_times(a, MatrixQ.identity(a.rows))
            except SingularMatrixError:
                inv = _SINGULAR
        _set_inv(a, inv)
    if inv is _SINGULAR:
        raise SingularMatrixError("matrix is singular")
    return inv


def _is_unit_monomial(a: MatrixQ) -> bool:
    """Whether square a has denominator 1 and one nonzero per row and per
    column, each 1, -1, i or -i: then a a* = e."""
    n, re, im = a.rows, a._re, a._im
    # such a matrix has exactly n nonzero parts, so counting zeros rejects
    # most others without a Python loop
    if a._den != 1 or re.count(0) + im.count(0) != 2 * n * n - n:
        return False
    units = [k for k in range(n * n) if re[k] or im[k]]
    return (len(units) == n
            and all(re[k] * re[k] + im[k] * im[k] == 1 for k in units)
            and len({k // n for k in units}) == n
            and len({k % n for k in units}) == n)


def _inverse_times(g: MatrixQ, y: MatrixQ) -> MatrixQ:
    """g^-1 y read off one RREF of [g | y], with no product; g is square.

    The left block reduces to e exactly when g is invertible, and then the
    right block is g^-1 y.  SingularMatrixError otherwise.  An identity g,
    0x0 included, gives y with no elimination.
    """
    if not g.rows or g._kernel_facts()[3]:
        return y
    n = g.rows
    aug, pivots = rref(g.hstack(y))
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _pivot_solution(aug, pivots, n)
