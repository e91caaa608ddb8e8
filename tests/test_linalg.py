import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from epkit.exactnum import ZERO, GaussianRational
from epkit.linalg import (
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    SingularMatrixError,
    Subspace,
    conj_transpose,
    full_rank_factorize,
    inverse,
    is_invertible,
    kernel,
    product_memo,
    range_space,
    rank,
    right_kernel,
    row_space,
    rref,
    solve_exists,
    subspace_equal,
    transpose,
)
from epkit.linalg import _divide

from .oracles import (
    assert_canonical,
    contains_subspace,
    contains_vector,
    kron,
    kron_left_mult,
    oracle_inverse,
    oracle_matmul,
)
from .test_linalg_oracle import UNIT_PIVOTS, UNITS, to_mq


def rand_mq(rng, rows, cols, bound=4, complex_entries=True):
    def sc():
        re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        im = Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)

    return MatrixQ(rows, cols, [sc() for _ in range(rows * cols)])


# -- construction / basics --------------------------------------------------


def test_construction_and_access():
    m = MatrixQ.from_rows([[1, 2], ["1/2", "3-1i"]])
    assert m.rows == 2 and m.cols == 2
    assert m.entry(1, 0) == GaussianRational(Fraction(1, 2))
    assert m.entry(1, 1) == GaussianRational(3, -1)
    assert m.to_rows()[0] == [GaussianRational(1), GaussianRational(2)]
    assert MatrixQ.identity(3).entry(2, 2).is_one()
    assert MatrixQ.zeros(2, 3).is_zero()
    assert MatrixQ.diagonal([1, "2i"]).entry(1, 1) == GaussianRational(0, 2)


def test_identity_matches_its_entries():
    # identity(n) fills its diagonal by one slice assignment
    for n in range(9):
        e = MatrixQ.identity(n)
        want = MatrixQ(n, n, [GaussianRational(int(i == j)) for i in range(n) for j in range(n)])
        assert e == want and hash(e) == hash(want)
        assert e == MatrixQ.diagonal([1] * n)
        assert_canonical(e)


def test_shape_errors():
    with pytest.raises(ShapeError):
        MatrixQ(2, 2, [GaussianRational(0)] * 3)
    with pytest.raises(ShapeError):
        MatrixQ.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        MatrixQ.from_rows([[1]]) @ MatrixQ.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        MatrixQ.from_rows([[1]]) + MatrixQ.from_rows([[1, 2]])
    with pytest.raises(ShapeError):
        MatrixQ.from_rows([[1]]).hstack(MatrixQ.from_rows([[1], [2]]))
    with pytest.raises(ShapeError):
        MatrixQ.from_rows([[1]]).vstack(MatrixQ.from_rows([[1, 2]]))


@pytest.mark.parametrize("read", [
    "a.entry(0, 5)", "a.entry(0, -1)", "a.entry(3, 0)", "a.entry(-1, 0)",
    "a.row(3)", "a.row(-1)", "a.col(4)", "a.col(3)", "a.col(-1)",
    "a.select_columns([-1])", "a.select_columns([0, 3])",
    "a.take_rows(2, 10)", "a.take_rows(4)", "a.take_rows(-1)", "a.take_rows(-1, 2)",
    "a.take_rows(2, 1)", "MatrixQ.zeros(2, 0).col(0)", "MatrixQ.zeros(0, 2).row(0)",
])
def test_out_of_range_access_raises(read):
    # an index outside 0..rows-1 or 0..cols-1, negative ones included, and a
    # row slice outside 0 <= start <= stop <= rows never read a neighbour
    a = MatrixQ.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(IndexError):
        eval(read, {"a": a, "MatrixQ": MatrixQ})
    # the bounds themselves are in range
    assert a.entry(2, 2) == GaussianRational(9) and a.col(2)[0] == GaussianRational(3)
    assert a.take_rows(3) == a and a.take_rows(3, 3).rows == 0
    assert a.select_columns([]).cols == 0 and MatrixQ.zeros(2, 0).take_rows(2).rows == 2


def test_select_rows_and_leading_columns():
    # select_rows is select_columns through the transpose, repeats and empty
    # selections included, and reads no row outside 0..rows-1
    a = MatrixQ.from_rows([[0, 2, 3], [0, 0, 0], [7, "1/2", 9]])
    for idx in ([], [2, 0], [1, 1, 2]):
        assert a.select_rows(idx) == transpose(transpose(a).select_columns(idx))
    for idx in ([3], [-1]):
        with pytest.raises(IndexError):
            a.select_rows(idx)
    # the column of each row's first nonzero entry, None for a zero row
    assert a.leading_columns() == [1, None, 0]
    assert MatrixQ.from_rows([[0, "1i"]]).leading_columns() == [1]
    assert MatrixQ.zeros(2, 0).leading_columns() == [None, None]
    assert MatrixQ.zeros(0, 2).leading_columns() == []


def test_zero_dimensional_matmul():
    a = MatrixQ.zeros(2, 0)
    b = MatrixQ.zeros(0, 3)
    prod = a @ b
    assert prod.rows == 2 and prod.cols == 3 and prod.is_zero()
    assert (MatrixQ.zeros(0, 0) @ MatrixQ.zeros(0, 0)).rows == 0


def test_transpose_and_adjoint():
    rng = random.Random(1)
    for _ in range(30):
        a = rand_mq(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_mq(rng, a.cols, rng.randint(1, 4))
        assert transpose(transpose(a)) == a
        assert conj_transpose(conj_transpose(a)) == a
        assert conj_transpose(a @ b) == conj_transpose(b) @ conj_transpose(a)
        assert transpose(a @ b) == transpose(b) @ transpose(a)


def test_immutability():
    m = MatrixQ.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3  # type: ignore[misc]


def test_pickle_and_copy_round_trip():
    # the cached hash, product-kernel facts and inverse (or singularity) are
    # filled on the original and left out of every copy, which rebuilds them
    # on demand
    rng = random.Random(10)
    cases = [MatrixQ.zeros(0, 3), MatrixQ.zeros(3, 0), MatrixQ.zeros(0, 0),
             MatrixQ.zeros(2, 2), MatrixQ.identity(3), rand_mq(rng, 3, 4),
             MatrixQ.from_rows([[f"{2 ** 250}/7", "1/3-2i"]]),
             MatrixQ.from_rows([[0, "1i"], [-1, 0]]), MatrixQ.from_rows([["1/2", 3], [1, 4]])]
    for m in cases:
        fresh = MatrixQ(m.rows, m.cols, [x for r in m.to_rows() for x in r])
        m._kernel_facts(), hash(m)
        try:
            inverse(m)
        except SingularMatrixError:
            pass
        assert m._hash is not None and m._facts is not None
        assert m._inv is not None or not m.is_square
        for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert back._hash is None and back._facts is None and back._inv is None
            assert back == fresh and hash(back) == hash(fresh) == hash(m)
            assert (back.rows, back.cols) == (m.rows, m.cols)
            assert back.to_rows() == m.to_rows()
            for name in ("rows", "_re", "_hash", "_facts", "_inv"):
                with pytest.raises(AttributeError):
                    setattr(back, name, None)


# -- products: trivial operands and the product memo ---------------------------


def _kernel_recording(monkeypatch) -> list:
    """Record the operand pairs of every product that reaches numpy."""
    import epkit.linalg as linalg

    formed = []
    orig = linalg._product
    monkeypatch.setattr(linalg, "_product", lambda x, y: formed.append((x, y)) or orig(x, y))
    return formed


def _fields(m: MatrixQ) -> tuple:
    return m.rows, m.cols, m._den, m._re, m._im


def test_identity_and_zero_operands_reach_no_kernel(monkeypatch):
    # e x = x e = x and 0 x = x 0 = 0, entry for entry as the oracle forms
    # them, on every side, real and complex, rectangular and empty
    rng = random.Random(12)
    formed = _kernel_recording(monkeypatch)
    shapes = [(2, 3), (3, 2), (1, 4), (0, 3), (3, 0), (0, 0), (2, 2)]
    for n, k in shapes:
        for x in (rand_mq(rng, n, k), rand_mq(rng, n, k, complex_entries=False),
                  MatrixQ.zeros(n, k)):
            for m in (0, 1, 3):
                pairs = [(MatrixQ.identity(n), x), (x, MatrixQ.identity(k)),
                         (MatrixQ.zeros(m, n), x), (x, MatrixQ.zeros(k, m))]
                for left, right in pairs:
                    got = left @ right
                    want = oracle_matmul(left.to_rows(), right.to_rows(), right.cols)
                    assert _fields(got) == _fields(
                        MatrixQ(left.rows, right.cols, [z for r in want for z in r]))
                    assert got is not left and got is not right
                    assert got is not left @ right
    assert formed == []
    # an identity operand keeps the shape check
    for left, right in ((MatrixQ.identity(3), rand_mq(rng, 2, 2)),
                        (rand_mq(rng, 2, 2), MatrixQ.identity(3)),
                        (MatrixQ.identity(0), MatrixQ.zeros(1, 1))):
        with pytest.raises(ShapeError):
            left @ right
    # a unit diagonal with a -1, or a scaled identity, is no identity
    for e in (MatrixQ.diagonal([1, -1]), MatrixQ.diagonal([2, 2]),
              MatrixQ.from_rows([[1, 1], [0, 1]]), MatrixQ.diagonal(["1i", "1i"])):
        y = rand_mq(rng, 2, 2)
        assert e @ y == to_mq(oracle_matmul(e.to_rows(), y.to_rows(), 2), 2)
    assert len(formed) == 4


def test_product_memo_forms_each_product_once(monkeypatch):
    # inside a product_memo block a product of content-equal operands is
    # formed once and every call returns a new object; outside, and inside
    # another memo, it is formed again
    rng = random.Random(13)
    formed = _kernel_recording(monkeypatch)
    x, y = rand_mq(rng, 3, 2), rand_mq(rng, 2, 4)
    x2, y2 = MatrixQ(3, 2, [z for r in x.to_rows() for z in r]), transpose(transpose(y))
    memo = {}
    with product_memo(memo):
        results = [x @ y, x2 @ y2, x @ y2]
    assert formed == [(x, y)] and len(memo) == 1
    assert len({id(r) for r in results}) == 3 and all(r == results[0] for r in results)
    with product_memo({}):
        x @ y
        with product_memo(memo):
            x2 @ y
        x @ y
    x @ y
    assert len(formed) == 3


# -- canonical form -------------------------------------------------------------


def test_canonical_form_from_equal_fractions():
    half = MatrixQ.from_rows([[Fraction(2, 4), Fraction(3)], [0, "-6/4i"]])
    same = MatrixQ(2, 2, [GaussianRational(Fraction(1, 2)), GaussianRational(3),
                          GaussianRational(0), GaussianRational(0, Fraction(-3, 2))])
    assert half == same and hash(half) == hash(same)
    assert half._den == 2 and half._re == [1, 6, 0, 0] and half._im == [0, 0, 0, -3]


def test_canonical_form_of_results():
    rng = random.Random(11)
    for _ in range(30):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_mq(rng, n, k), rand_mq(rng, k, m)
        c = rand_mq(rng, n, k, complex_entries=False)
        r, pivots = rref(a)
        results = [a, a @ b, a + c, a - c, a - a, -a, a.scale("2/3-1i"), a.scale(0),
                   transpose(a), conj_transpose(a), a.hstack(c), a.vstack(c),
                   a.select_columns(pivots), r, r.take_rows(len(pivots)),
                   kron(a, b), kernel(a).basis, range_space(a).basis]
        for res in results:
            assert_canonical(res)
    zero = MatrixQ.from_rows([["1/3", "2/5i"]]) - MatrixQ.from_rows([["1/3", "2/5i"]])
    assert zero._den == 1 and zero == MatrixQ.zeros(1, 2)


def test_inexact_elimination_division_raises():
    # rref relies on Sylvester's identity for every division; the check stays
    assert _divide([6, -9, 0], 3) == [2, -3, 0]
    assert _divide([4, -8], -4) == [-1, 2]
    with pytest.raises(InternalConsistencyError):
        _divide([6, 7], 3)


# -- rref / rank ------------------------------------------------------------


def test_rref_known():
    a = MatrixQ.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(a)
    assert pivots == [0, 1]
    assert r == MatrixQ.from_rows([[1, 0, -1], [0, 1, 2], [0, 0, 0]])
    assert rank(a) == 2


def test_rref_properties():
    rng = random.Random(2)
    for _ in range(40):
        a = rand_mq(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, pivots = rref(a)
        assert pivots == sorted(pivots)
        # idempotent and rank-stable
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots
        assert rank(a) == rank(transpose(a))
        assert rank(a) == rank(conj_transpose(a))
        assert rank(a) <= min(a.rows, a.cols)


# -- subspaces ----------------------------------------------------------------


def test_kernel_and_range():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_mq(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = kernel(a)
        assert ker.ambient_dim == a.cols
        assert (a @ ker.basis).is_zero()
        assert ker.dim == a.cols - rank(a)
        rng_sp = range_space(a)
        assert rng_sp.ambient_dim == a.rows
        assert rng_sp.dim == rank(a)
        for j in range(a.cols):
            assert contains_vector(rng_sp, a.select_columns([j]))


def test_right_sided_spaces():
    rng = random.Random(4)
    for _ in range(20):
        a = rand_mq(rng, rng.randint(1, 4), rng.randint(1, 4))
        rk = right_kernel(a)
        # rows x with x a = 0, stored as columns
        assert rk.ambient_dim == a.rows
        assert (transpose(rk.basis) @ a).is_zero()
        assert row_space(a).dim == rank(a)


def test_subspace_canonicalization():
    # redundant, rescaled spans canonicalize identically
    s1 = range_space(MatrixQ.from_rows([[1, 2], [0, 0], [1, 2]]))
    s2 = range_space(MatrixQ.from_rows([[5], [0], [5]]))
    assert subspace_equal(s1, s2)
    assert s1.dim == 1
    s3 = range_space(MatrixQ.from_rows([[1], [0], [0]]))
    assert not subspace_equal(s1, s3)
    assert contains_subspace(s1, s2)
    assert not contains_subspace(s3, s1)


def test_subspace_ambient_mismatch():
    s1 = range_space(MatrixQ.identity(2))
    s2 = range_space(MatrixQ.identity(3))
    with pytest.raises(ShapeError):
        subspace_equal(s1, s2)
    with pytest.raises(ShapeError):
        contains_subspace(s1, s2)
    with pytest.raises(ShapeError):
        contains_vector(s1, MatrixQ.zeros(3, 1))


def test_zero_and_full_subspaces():
    z = kernel(MatrixQ.identity(3))
    assert z.dim == 0 and z.basis.cols == 0
    f = kernel(MatrixQ.zeros(2, 3))
    assert f.dim == 3
    assert subspace_equal(f, range_space(MatrixQ.identity(3)))


def test_kernels_take_one_elimination(monkeypatch):
    import epkit.linalg as linalg

    calls = []
    orig = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(a) or orig(a))
    a = MatrixQ.from_rows([[1, "1i", 2], ["1i", -1, "2i"], [0, 1, 1]])  # rank 2
    cases = [MatrixQ.zeros(0, 3), MatrixQ.zeros(3, 0), MatrixQ.zeros(3, 3),
             MatrixQ.identity(3), a] + [to_mq(rows, cols) for rows, cols in UNIT_PIVOTS]
    assert rank(a) == 2
    for m in cases:
        for space in (kernel, right_kernel):
            calls.clear()
            space(m)
            assert len(calls) == 1, (space.__name__, m)


# -- factorization ------------------------------------------------------------


def test_full_rank_factorize():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        a = rand_mq(rng, n, r) @ rand_mq(rng, r, m)
        f = full_rank_factorize(a)
        assert f.b @ f.c == a
        assert f.rank == rank(a)
        assert f.b.cols == f.rank and f.c.rows == f.rank
        assert rank(f.b) == f.rank and rank(f.c) == f.rank


def test_full_rank_factorize_edges():
    f = full_rank_factorize(MatrixQ.zeros(2, 3))
    assert f.rank == 0 and f.b.cols == 0 and f.c.rows == 0
    assert f.b @ f.c == MatrixQ.zeros(2, 3)
    f = full_rank_factorize(MatrixQ.identity(3))
    assert f.b == MatrixQ.identity(3) and f.c == MatrixQ.identity(3)


# -- solves / inverse -----------------------------------------------------------


def test_solve_exists_right_and_left():
    rng = random.Random(6)
    for _ in range(40):
        a = rand_mq(rng, rng.randint(1, 4), rng.randint(1, 4))
        x_true = rand_mq(rng, a.cols, rng.randint(1, 3))
        y = a @ x_true
        x = solve_exists(a, y, side="right")
        assert x is not None and a @ x == y
        z_true = rand_mq(rng, rng.randint(1, 3), a.rows)
        w = z_true @ a
        z = solve_exists(a, w, side="left")
        assert z is not None and z @ a == w


def test_solve_exists_unsolvable():
    a = MatrixQ.from_rows([[1, 0], [0, 0]])
    y = MatrixQ.from_rows([[0], [1]])
    assert solve_exists(a, y, side="right") is None
    assert solve_exists(a, MatrixQ.from_rows([[0, 1]]), side="left") is None
    with pytest.raises(ValueError):
        solve_exists(a, y, side="middle")
    with pytest.raises(ShapeError):
        solve_exists(a, MatrixQ.zeros(3, 1), side="right")


def test_inverse():
    rng = random.Random(7)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = rand_mq(rng, n, n)
        if rank(a) != n:
            continue
        inv = inverse(a)
        assert a @ inv == MatrixQ.identity(n)
        assert inv @ a == MatrixQ.identity(n)
        assert is_invertible(a)
        done += 1
    with pytest.raises(SingularMatrixError):
        inverse(MatrixQ.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(SingularMatrixError):
        inverse(MatrixQ.zeros(2, 3))
    assert inverse(MatrixQ.zeros(0, 0)).rows == 0
    assert not is_invertible(MatrixQ.zeros(2, 3))


def _rref_recording(monkeypatch) -> list:
    import epkit.linalg as linalg

    calls = []
    orig = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(a) or orig(a))
    return calls


def _unit_monomials(n: int):
    """Every n x n matrix with one of 1, -1, i, -i per row, in distinct columns."""
    for perm in itertools.permutations(range(n)):
        for units in itertools.product(UNITS, repeat=n):
            rows = [[ZERO] * n for _ in range(n)]
            for i, (col, u) in enumerate(zip(perm, units)):
                rows[i][col] = u
            yield rows


def test_unit_monomial_inverse_is_the_adjoint(monkeypatch):
    # a unit monomial matrix is unitary: its inverse is its adjoint, equal to
    # what elimination gives, and no elimination is run for it
    calls = _rref_recording(monkeypatch)
    rng = random.Random(11)
    cases = [rows for n in (1, 2, 3) for rows in _unit_monomials(n)]
    assert len(cases) == 4 + 32 + 384
    for n in range(4, 9):
        perms = [rng.sample(range(n), n) for _ in range(10)]
        cases += [[[rng.choice(UNITS) if j == perm[i] else ZERO for j in range(n)]
                    for i in range(n)] for perm in perms]
    for rows in cases + [[]]:
        m = MatrixQ.from_rows(rows)
        inv = inverse(m)
        assert inv == conj_transpose(m)
        assert inv.to_rows() == oracle_inverse(rows)
        assert_canonical(inv)
    assert not calls


@pytest.mark.parametrize("rows, invertible", [
    ([[2]], True),
    ([["1+1i"]], True),
    ([["1/2"]], True),
    ([[1, 0], [0, 2]], True),
    ([[0, "1i"], ["1+1i", 0]], True),
    ([[1, 0], [0, "1/2"]], True),
    ([[1, 0], [0, 0]], False),   # a zero row
    ([[1, 1], [0, 0]], False),   # two units in one row
    ([[1, 1], [0, 1]], True),    # two units in one row, every row nonzero
    ([[1, 0], [-1, 0]], False),  # a repeated column
    ([[0, 0, 1], [0, "1i", 0], [0, 0, -1]], False),
])
def test_near_unit_monomials_are_eliminated(monkeypatch, rows, invertible):
    # a near miss of the closed form is decided by elimination, whose
    # inverse (or singularity) matches the oracle's
    calls = _rref_recording(monkeypatch)
    m = MatrixQ.from_rows(rows)
    want = oracle_inverse(m.to_rows())
    assert (want is not None) == invertible
    if invertible:
        assert inverse(m).to_rows() == want
    else:
        with pytest.raises(SingularMatrixError):
            inverse(m)
    assert len(calls) == 1


def test_inverse_is_stored(monkeypatch):
    # a second inverse of the same matrix, or of a singular one, runs no
    # elimination; a singular matrix raises on every call
    calls = _rref_recording(monkeypatch)
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_mq(rng, n, n)
        calls.clear()
        want = oracle_inverse(m.to_rows())
        if want is None:
            for _ in range(3):
                with pytest.raises(SingularMatrixError):
                    inverse(m)
        else:
            first = inverse(m)
            assert inverse(m) == first and first.to_rows() == want
        assert len(calls) == 1
    singular = MatrixQ.from_rows([[1, "2i"], [2, "4i"]])
    calls.clear()
    for _ in range(3):
        with pytest.raises(SingularMatrixError, match="singular"):
            inverse(singular)
    assert len(calls) == 1


# -- kron ---------------------------------------------------------------------


def test_kron_mixed_product():
    rng = random.Random(8)
    for _ in range(15):
        a = rand_mq(rng, 2, 2)
        b = rand_mq(rng, 2, 3)
        c = rand_mq(rng, 2, 2)
        d = rand_mq(rng, 3, 2)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def row_major_vec(x: MatrixQ) -> MatrixQ:
    return MatrixQ(x.rows * x.cols, 1,
                   [x.entry(i, j) for i in range(x.rows) for j in range(x.cols)])


def test_kron_left_mult_is_left_multiplication():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = rand_mq(rng, n, n)
        x = rand_mq(rng, n, n)
        assert kron_left_mult(a) @ row_major_vec(x) == row_major_vec(a @ x)
    with pytest.raises(ShapeError):
        kron_left_mult(MatrixQ.zeros(2, 3))
