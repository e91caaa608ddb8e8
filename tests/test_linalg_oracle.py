"""Differential tests: the integer matrix core against the per-entry oracle.

Every operation of epkit.linalg that works on the common-denominator form is
compared entry for entry with the GaussianRational code in tests/oracles.py,
on real and complex entries, rank-deficient shapes, 0 x n and n x 0
matrices, unit pivots (-1, i, -i) and entries of more than 200 bits.  The
product is also checked against a plain Python-int product at the bit bound
where its numpy kernel switches from int64 to Python ints.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epkit.characterizations import _solve_inner
from epkit.exactnum import GaussianRational
from epkit.linalg import (
    MatrixQ,
    SingularMatrixError,
    inverse,
    kernel,
    rank,
    rref,
    solve_exists,
    transpose,
)
from epkit.pseudoinverse import pinv

from .oracles import (
    assert_canonical,
    oracle_inverse,
    oracle_kernel_basis,
    oracle_matmul,
    oracle_rref,
    oracle_solve,
)

UNITS = [GaussianRational(1), GaussianRational(-1),
         GaussianRational(0, 1), GaussianRational(0, -1)]


def _fractions(bits: int):
    return st.builds(Fraction, st.integers(-(2 ** bits), 2 ** bits),
                     st.integers(1, 2 ** max(bits - 50, 2)))


def scalars(complex_entries: bool):
    parts = st.one_of(st.just(Fraction(0)), _fractions(3), _fractions(260))
    im = parts if complex_entries else st.just(Fraction(0))
    return st.one_of(st.sampled_from(UNITS if complex_entries else UNITS[:2]),
                     st.builds(GaussianRational, parts, im))


@st.composite
def row_lists(draw, rows=None, cols=None):
    """(rows of GaussianRational, column count); often of deficient rank."""
    n = draw(st.integers(0, 4)) if rows is None else rows
    m = draw(st.integers(0, 4)) if cols is None else cols
    sc = scalars(draw(st.booleans()))
    if n and m and draw(st.booleans()):
        r = draw(st.integers(0, min(n, m) - 1))
        left = [[draw(sc) for _ in range(r)] for _ in range(n)]
        right = [[draw(sc) for _ in range(m)] for _ in range(r)]
        return oracle_matmul(left, right, m), m
    return [[draw(sc) for _ in range(m)] for _ in range(n)], m


def to_mq(rows: list, cols: int) -> MatrixQ:
    return MatrixQ(len(rows), cols, [x for r in rows for x in r])


def gi(re, im=0):
    return GaussianRational(re, im)


UNIT_PIVOTS = [  # first pivots -1, i, -i, then a pivot that is a unit times 2
    ([[gi(-1), gi(2), gi(0, 1)], [gi(3), gi(0, -1), gi(1)]], 3),
    ([[gi(0, 1), gi(1), gi(2)], [gi(1), gi(0, 1), gi(0, -1)], [gi(2), gi(0), gi(1)]], 3),
    ([[gi(0, -1), gi(5)], [gi(1), gi(0, 1)]], 2),
    ([[gi(0, -1), gi(1, 1)], [gi(1, -1), gi(0, 2)]], 2),
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_products_and_sums_match_oracle(data):
    a, k = data.draw(row_lists())
    b, m = data.draw(row_lists(rows=k))
    c, _ = data.draw(row_lists(rows=len(a), cols=k))
    am, bm, cm = to_mq(a, k), to_mq(b, m), to_mq(c, k)
    for got, want in (
        (am @ bm, oracle_matmul(a, b, m)),
        (am + cm, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
        (am - cm, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]),
    ):
        assert_canonical(got)
        assert got.to_rows() == want
        assert got == to_mq(want, got.cols)


def _int_product(a: list, b: list, k: int, m: int) -> list:
    """Schoolbook product of rows of (re, im) integer pairs, in Python ints."""
    cols = [[b[t][j] for t in range(k)] for j in range(m)]
    return [[(sum(x * u - y * v for (x, y), (u, v) in zip(row, col)),
              sum(x * v + y * u for (x, y), (u, v) in zip(row, col)))
             for col in cols] for row in a]


def _gaussian(pairs: list) -> list:
    return [[GaussianRational(*z) for z in r] for r in pairs]


def _near_max(bits: int, a_side: bool, complex_part: bool, n: int, k: int, m: int) -> list:
    """n x k (left) or k x m (right) pairs of magnitude just below 2**bits.

    Signs are set so that in every entry of the product one of
    re = ar br - ai bi and im = ar bi + ai br sums terms of one sign, the
    largest sums the bit lengths allow; the offsets keep the entries
    distinct while every bit length stays `bits`.
    """
    top = 2 ** bits - 1
    rows, cols = (n, k) if a_side else (k, m)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if a_side:  # row i of a, column t = j
                re, im = (-1) ** i * (top - 3 * j - i), top - j - 2 * i
            else:  # row t = i of b, column j
                re, im = top - i - 2 * j, (-1) ** (j + 1) * (top - 5 * i - j)
            row.append((re, im if complex_part else 0))
        out.append(row)
    return out


@pytest.mark.parametrize("a_complex, b_complex",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_products_at_the_int64_bound(a_complex, b_complex):
    # bits(a) + bits(b) + (2k).bit_length() at 63 takes int64 and at 64 takes
    # Python ints; at 64 and k = 3 a complex-by-complex entry reaches
    # 6 * 2**61, which int64 would wrap
    cases = [(2, k, 3) for k in range(1, 9)] + [(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0)]
    for total in (63, 64):
        for n, k, m in cases:
            width = (2 * k).bit_length()
            a_bits = (total - width) // 2
            a = _near_max(a_bits, True, a_complex, n, k, m)
            b = _near_max(total - width - a_bits, False, b_complex, n, k, m)
            ga, gb = _gaussian(a), _gaussian(b)
            got = MatrixQ(n, k, sum(ga, [])) @ MatrixQ(k, m, sum(gb, []))
            want = _int_product(a, b, k, m)
            assert (got.rows, got.cols, got._den) == (n, m, 1)
            assert got._re == [z[0] for r in want for z in r], (total, n, k, m)
            assert got._im == [z[1] for r in want for z in r], (total, n, k, m)
            assert got.to_rows() == oracle_matmul(ga, gb, m)


@settings(max_examples=150, deadline=None)
@given(row_lists())
@example(UNIT_PIVOTS[0])
@example(UNIT_PIVOTS[1])
@example(UNIT_PIVOTS[2])
@example(UNIT_PIVOTS[3])
def test_rref_rank_kernel_match_oracle(case):
    rows, cols = case
    a = to_mq(rows, cols)
    r, pivots = rref(a)
    want, want_pivots = oracle_rref(rows, cols)
    assert_canonical(r)
    assert r.to_rows() == want
    assert pivots == want_pivots
    assert rank(a) == len(want_pivots)
    basis = kernel(a).basis
    assert_canonical(basis)
    assert basis.to_rows() == oracle_kernel_basis(rows, cols)
    if a.is_square:
        want_inv = oracle_inverse(rows)
        if want_inv is None:
            with pytest.raises(SingularMatrixError):
                inverse(a)
        else:
            assert_canonical(inverse(a))
            assert inverse(a).to_rows() == want_inv


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solve_matches_oracle(data):
    rows, cols = data.draw(row_lists())
    a = to_mq(rows, cols)
    if data.draw(st.booleans()):  # consistent by construction
        x_true, m = data.draw(row_lists(rows=cols))
        y = oracle_matmul(rows, x_true, m)
    else:
        y, m = data.draw(row_lists(rows=len(rows)))
    got = solve_exists(a, to_mq(y, m))
    want = oracle_solve(rows, y, cols, m)
    if want is None:
        assert got is None
    else:
        assert_canonical(got)
        assert got.to_rows() == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_sided_inverse_solve_matches_solve_exists(data):
    # m (n x k) of any rank, rank 0 and n = 0 included, with its {1}-inverse
    # m+ (m m+ m = m); m^T with (m+)^T on the left.  Consistent and arbitrary
    # right-hand sides on each side.  Penrose's test decides what the
    # elimination decides; when m has full column rank (m^T full row rank)
    # the solution is unique, so it is the elimination's.
    rows, k = data.draw(row_lists())
    a = to_mq(rows, k)
    n = a.rows
    g = pinv(a)
    assert a @ g @ a == a
    sc = scalars(data.draw(st.booleans()))
    h = data.draw(st.integers(0, 3))
    for side, m, inv in (("right", a, g), ("left", transpose(a), transpose(g))):
        if data.draw(st.booleans()):  # consistent by construction
            x0 = [data.draw(sc) for _ in range(k * h)]
            y = m @ MatrixQ(k, h, x0) if side == "right" else MatrixQ(h, k, x0) @ m
        else:
            shape = (n, h) if side == "right" else (h, n)
            y = MatrixQ(*shape, [data.draw(sc) for _ in range(n * h)])
        got = _solve_inner(m, y, side, inv)
        want = solve_exists(m, y, side)
        assert (got is None) == (want is None)
        if got is not None:
            assert_canonical(got)
            assert (m @ got if side == "right" else got @ m) == y
            if rank(a) == k:
                assert got == want
