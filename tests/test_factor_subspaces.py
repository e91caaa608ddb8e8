"""The factor subspaces of `EPInstance` against direct eliminations.

The statement tables read every kernel, range, right-kernel and row-space
criterion as one fact, `rng_ok`: range b = range c*, decided as
b = c* b[P, :] over the pivot columns P of the RREF c, and equivalent to
ker b* = ker c through the orthogonal complements.  The identities behind
that hold for every square matrix, EP or not, at every rank.  Here the
span of 5.5's kernel basis, read off the RREF c with no elimination, is
compared with the direct route that reduces c, a, q and a* a; on EP input c* is
compared with the canonical basis of range b; and each kernel, range,
right-kernel and row-space criterion of the rows, decided by such direct
eliminations, with the fact its row reads.  So a `linalg` defect that
broke one route would show as a mismatch.  The generic identities the
tables rest on are also checked by themselves on rectangular matrices,
empty ones included.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epkit import characterizations as chz
from epkit.characterizations import EPInstance
from epkit.exactnum import I_UNIT, GaussianRational
from epkit.linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    conj_transpose,
    kernel,
    range_space,
    right_kernel,
    row_space,
    subspace_equal,
)
from epkit.pseudoinverse import pinv


def _scalars(complex_entries: bool):
    parts = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    im = parts if complex_entries else st.just(Fraction(0))
    return st.builds(GaussianRational, parts, im)


@st.composite
def square_matrices(draw):
    """An n x n matrix of rank at most r, for every r from 0 to n: x y with
    x of n x r and y of r x n, or x m x* (EP when m is invertible)."""
    n = draw(st.integers(0, 4))
    r = draw(st.integers(0, n))
    sc = _scalars(draw(st.booleans()))

    def block(rows, cols):
        return MatrixQ(rows, cols, [draw(sc) for _ in range(rows * cols)])

    x = block(n, r)
    if draw(st.booleans()):
        return x @ block(r, r) @ conj_transpose(x)
    return x @ block(r, n)


@st.composite
def rect_matrices(draw, rows=None):
    """An m x n matrix of rank at most r, for every r up to min(m, n), with
    m and n from 0 to 4 (m fixed when rows is given), as x y with x of m x r
    and y of r x n."""
    m = draw(st.integers(0, 4)) if rows is None else rows
    n = draw(st.integers(0, 4))
    r = draw(st.integers(0, min(m, n)))
    sc = _scalars(draw(st.booleans()))

    def block(rows, cols):
        return MatrixQ(rows, cols, [draw(sc) for _ in range(rows * cols)])

    return block(m, r) @ block(r, n)


def _direct(m: EPInstance) -> dict:
    """name -> (the span of the table's basis, every direct elimination it
    stands for)."""
    return {"ker_c": (range_space(m.ker_c), [kernel(m.c), kernel(m.a), kernel(m.q), kernel(m.aa)])}


def _direct_criteria(m: EPInstance) -> dict:
    """(battery, statement) -> (the fact its row reads, the row's kernel,
    range, right-kernel or row-space criterion as direct eliminations
    decide it)."""
    a, ad, a_star = m.a, m.a_dagger, m.a_star
    ker_c, rng_b, rker_b, row_c = kernel(m.c), range_space(m.b), right_kernel(m.b), row_space(m.c)
    return {
        ("3.2", "iii"): ("rng_ok", subspace_equal(kernel(m.b_dagger), ker_c)),
        ("3.2", "iv"): ("rng_ok", subspace_equal(rng_b, range_space(m.c_dagger))),
        ("3.7", "v"): ("rng_ok", subspace_equal(rker_b, right_kernel(m.c_dagger))),
        ("3.7", "vi"): ("rng_ok", subspace_equal(row_c, row_space(m.b_dagger))),
        ("3.9", "iii"): ("rng_ok", subspace_equal(kernel(m.b_star), ker_c)),
        ("3.9", "iv"): ("rng_ok", subspace_equal(rng_b, range_space(m.c_star))),
        ("3.9", "v"): ("rng_ok", subspace_equal(rker_b, right_kernel(m.c_star))),
        ("3.9", "vi"): ("rng_ok", subspace_equal(row_c, row_space(m.b_star))),
        ("4.1", "ii"): ("rng_ok", subspace_equal(kernel(a), kernel(ad))),
        ("4.1", "iv"): ("rng_ok", subspace_equal(range_space(a), range_space(ad))),
        ("5.6", "iv"): ("rng_ok", subspace_equal(right_kernel(a), right_kernel(ad))),
        ("5.6", "v"): ("rng_ok", subspace_equal(row_space(a), row_space(ad))),
        ("4.2", "ii"): ("rng_ok", subspace_equal(kernel(a), kernel(a_star))),
        ("4.2", "iv"): ("rng_ok", subspace_equal(range_space(a), range_space(a_star))),
        ("4.1", "viii"): ("rng_ok", subspace_equal(kernel(m.p), kernel(m.q))),
        ("4.1", "xi"): ("rng_ok", subspace_equal(range_space(m.p), range_space(m.q))),
        ("4.2", "viii"): ("rng_ok", subspace_equal(kernel(m.bb), kernel(m.aa))),
        ("4.2", "xi"): ("rng_ok", subspace_equal(range_space(m.bb), range_space(m.aa))),
    }


def _m(rows) -> MatrixQ:
    return MatrixQ.from_rows(rows)


def _with(examples):
    def add(test):
        for a in examples:
            test = example(a)(test)
        return test
    return add


# rank 0, full rank, and both verdicts in between, real and complex
_SQUARE_EXAMPLES = [MatrixQ.zeros(0, 0), MatrixQ.zeros(3, 3), _m([[1, 2], [3, 4]]),
                    _m([[0, 1], [0, 0]]), _m([[2, 0], [0, 0]]), _m([[1, I_UNIT], [0, 0]]),
                    _m([[1, I_UNIT], [-I_UNIT, 1]]),
                    _m([[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1], [2, 4, 0, 2]]),
                    _m([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, I_UNIT, 0], [0, 0, 0, 0]])]


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@_with(_SQUARE_EXAMPLES)
def test_factor_subspaces_equal_the_direct_eliminations(a):
    m = EPInstance.from_matrix(a)
    for name, (table, direct) in _direct(m).items():
        assert all(table == d for d in direct), name
    # 5.5's kernel basis K is read off the RREF c: c K = 0, and its rows at
    # c's free columns F are e
    k = m.ker_c
    assert k.cols == len(m.ker_pivots) == m.a.rows - m.rank
    assert (m.c @ k).is_zero() and k.select_rows(m.ker_pivots) == MatrixQ.identity(k.cols)
    if m.is_ep:
        # the range basis 5.3 and 5.5 read: c* is canonical, as c is an RREF
        assert m.c_star == range_space(m.b).basis
    criteria = _direct_criteria(m)
    for (tid, stmt), (fact, truth) in criteria.items():
        rows = getattr(chz, "_T" + tid.replace(".", ""))
        row, = (row for row in rows if row.stmt == stmt)
        assert row.crit == (fact,) and getattr(m, fact) == truth, (tid, stmt)
    # every kernel and range criterion is one EP-equivalent fact
    assert {truth for _, truth in criteria.values()} == {m.is_ep}


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@_with(_SQUARE_EXAMPLES)
def test_rng_ok_is_the_range_fact_the_kernel_fact_and_ep(a):
    # rng_ok reads b = c* b[P, :] with no elimination; it must decide
    # range b = range c*, ker b* = ker c (their orthogonal complements) and
    # EP alike, as direct eliminations decide the first two
    m = EPInstance.from_matrix(a)
    assert m.rng_ok == subspace_equal(range_space(m.b), range_space(m.c_star))
    assert m.rng_ok == subspace_equal(kernel(m.b_star), kernel(m.c))
    assert m.rng_ok == m.is_ep


def test_a_factor_c_that_is_no_rref_raises():
    # b = c* b[P, :] decides range b = range c* only if c[:, P] = e at c's
    # pivot columns P.  a = [[2, 0], [0, 0]] = b c with b = [1; 0], c = [2 0]
    # passes validation and is EP, but c* = [2; 0] would fail the check and
    # give 3.2 a mixed battery; c = [[1, 0], [1, 1]] repeats its pivot column
    cases = [(_m([[2, 0], [0, 0]]), _m([[1], [0]]), _m([[2, 0]])),
             (MatrixQ.identity(2), _m([[1, 0], [-1, 1]]), _m([[1, 0], [1, 1]]))]
    for a, b, c in cases:
        for battery in (chz.thm32_battery, chz.thm55_battery, chz.thm53_decompose):
            m = EPInstance.from_factorization(a, FullRankFactorization(b, c, c.rows))
            assert m.is_ep
            with pytest.raises(InternalConsistencyError, match="RREF"):
                battery(m)


_RECT_EXAMPLES = [MatrixQ.zeros(0, 3), MatrixQ.zeros(3, 0), MatrixQ.zeros(0, 0),
                  MatrixQ.zeros(2, 3), _m([[1, 2, 3]]), _m([[1], [I_UNIT]]),
                  _m([[1, I_UNIT, 0], [2, "2i", 0]]), _m([[1, 0], [0, 1], [1, 1]])]


@settings(max_examples=150, deadline=None)
@given(rect_matrices())
@_with(_RECT_EXAMPLES)
def test_generic_gram_and_dagger_subspaces_on_rectangular_matrices(a):
    # ker(a a*) = ker a*, ker(a* a) = ker a, range(a a*) = range a,
    # range(a* a) = range a*, ker a+ = ker a* and range a+ = range a*: they
    # hold for every m x n matrix, EP or not
    a_star, ad = conj_transpose(a), pinv(a)
    assert kernel(a @ a_star) == kernel(a_star)
    assert kernel(a_star @ a) == kernel(a)
    assert range_space(a @ a_star) == range_space(a)
    assert range_space(a_star @ a) == range_space(a_star)
    assert kernel(ad) == kernel(a_star)
    assert range_space(ad) == range_space(a_star)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_right_kernels_agree_iff_ranges_agree(data):
    # rker x = rker y iff range x = range y, for x and y with equal row
    # counts; y is often x t, whose range lies in that of x
    x = data.draw(rect_matrices())
    if data.draw(st.booleans()):
        y = x @ data.draw(rect_matrices(rows=x.cols))
    else:
        y = data.draw(rect_matrices(rows=x.rows))
    same_range = subspace_equal(range_space(x), range_space(y))
    assert subspace_equal(right_kernel(x), right_kernel(y)) == same_range


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adjoint_kernels_agree_iff_ranges_agree(data):
    # ker x* = (range x)^perp and ker y = (range y*)^perp, so ker x* = ker y
    # iff range x = range y*, for y with as many columns as x has rows; y* is
    # often x t, whose range lies in that of x
    x = data.draw(rect_matrices())
    if data.draw(st.booleans()):
        y_star = x @ data.draw(rect_matrices(rows=x.cols))
    else:
        y_star = data.draw(rect_matrices(rows=x.rows))
    y = conj_transpose(y_star)
    same_range = subspace_equal(range_space(x), range_space(conj_transpose(y)))
    assert subspace_equal(kernel(conj_transpose(x)), kernel(y)) == same_range
