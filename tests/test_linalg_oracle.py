"""Differential tests: the integer matrix core against the per-entry oracle.

Every operation of epkit.linalg that works on the common-denominator form is
compared entry for entry with the GaussianRational code in tests/oracles.py,
on real and complex entries, rank-deficient shapes, 0 x n and n x 0
matrices, unit pivots (-1, i, -i) and entries of more than 200 bits.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from epkit.pseudoinverse import _solve_one_sided, pinv

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
    # a (n x r) of full column rank, rank 0 and n = 0 included, with its
    # verified left inverse a+; a^T (r x n) has full row rank and the right
    # inverse (a+)^T.  Consistent and arbitrary right-hand sides on each side.
    n = data.draw(st.integers(0, 4))
    r = data.draw(st.integers(0, n))
    sc = scalars(data.draw(st.booleans()))
    a = MatrixQ(n, r, [data.draw(sc) for _ in range(n * r)])
    assume(rank(a) == r)
    left = pinv(a)
    assert left @ a == MatrixQ.identity(r)
    k = data.draw(st.integers(0, 3))
    for side, m, inv in (("right", a, left), ("left", transpose(a), transpose(left))):
        if data.draw(st.booleans()):  # consistent by construction
            x0 = [data.draw(sc) for _ in range(r * k)]
            y = m @ MatrixQ(r, k, x0) if side == "right" else MatrixQ(k, r, x0) @ m
        else:
            shape = (n, k) if side == "right" else (k, n)
            y = MatrixQ(*shape, [data.draw(sc) for _ in range(n * k)])
        got = _solve_one_sided(m, y, side, inv)
        assert got == solve_exists(m, y, side)
        if got is not None:
            assert_canonical(got)
