import random
from fractions import Fraction

import pytest

from epkit.characterizations import EPInstance
from epkit.exactnum import GaussianRational
from epkit.linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    conj_transpose,
    full_rank_factorize,
    inverse,
    kernel,
    kron_left_mult,
    range_space,
    rank,
    subspace_equal,
)
from epkit.pseudoinverse import (
    MPPair,
    is_ep,
    lemma38_factor_witnesses,
    lemma38_witnesses,
    penrose_certificate,
    pinv,
    pinv_from_factorization,
)

from .oracles import brute_force_pinv


def rand_mq(rng, rows, cols, bound=3):
    def sc():
        re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if rng.random() < 0.5:
            return GaussianRational(re)
        return GaussianRational(re, Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))

    return MatrixQ(rows, cols, [sc() for _ in range(rows * cols)])


def rand_with_rank(rng, rows, cols, r, bound=3):
    while True:
        m = rand_mq(rng, rows, r, bound) @ rand_mq(rng, r, cols, bound)
        if rank(m) == r:
            return m


def test_known_values():
    assert pinv(MatrixQ.from_rows([[0, 1], [0, 0]])) == MatrixQ.from_rows([[0, 0], [1, 0]])
    assert pinv(MatrixQ.identity(3)) == MatrixQ.identity(3)
    assert pinv(MatrixQ.zeros(2, 3)) == MatrixQ.zeros(3, 2)
    assert pinv(MatrixQ.diagonal([2, 0])) == MatrixQ.diagonal([Fraction(1, 2), 0])
    # a column vector: a+ = a* / |a|^2
    col = MatrixQ.from_rows([["1i"], [2]])
    assert pinv(col) == MatrixQ.from_rows([["-1/5i", "2/5"]])


def test_certificate_and_involution_random():
    rng = random.Random(42)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(rows, cols))
        a = rand_with_rank(rng, rows, cols, r)
        x = pinv(a)
        cert = penrose_certificate(a, x)
        assert cert.valid
        assert cert.cond1_residual.is_zero() and cert.cond2_residual.is_zero()
        assert pinv(x) == a


def test_certificate_rejects_wrong_shape_and_detects_bad_candidate():
    a = MatrixQ.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ShapeError):
        penrose_certificate(a, MatrixQ.zeros(3, 2))
    bad = MatrixQ.from_rows([[1, 0], [1, 0]])
    assert not penrose_certificate(a, bad).valid


def test_pinv_from_factorization_matches():
    rng = random.Random(43)
    for _ in range(20):
        a = rand_with_rank(rng, 3, 3, rng.randint(0, 3))
        assert pinv_from_factorization(full_rank_factorize(a)) == pinv(a)


def test_full_rank_inputs():
    # full column rank gives c = e, taken as its own c+ without an elimination;
    # a hand-built factorization with another invertible c still inverts it
    rng = random.Random(49)
    for rows, cols in ((1, 1), (3, 3), (4, 2), (2, 4), (4, 1)):
        for _ in range(5):
            a = rand_with_rank(rng, rows, cols, min(rows, cols))
            x = pinv(a)
            assert penrose_certificate(a, x).valid
            assert x == brute_force_pinv(a)
            if rows >= cols:
                g = rand_with_rank(rng, cols, cols, cols)
                f = FullRankFactorization(b=a @ inverse(g), c=g, rank=cols)
                assert pinv_from_factorization(f) == x


def test_uniqueness_against_brute_force():
    rng = random.Random(44)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        r = rng.randint(0, min(rows, cols))
        a = rand_with_rank(rng, rows, cols, r)
        assert pinv(a) == brute_force_pinv(a)


def test_projections_and_fundamental_subspaces():
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        x = pinv(a)
        p = a @ x
        q = x @ a
        for proj in (p, q):
            assert proj @ proj == proj
            assert conj_transpose(proj) == proj
        # the classical identifications
        assert subspace_equal(range_space(p), range_space(a))
        assert subspace_equal(kernel(q), kernel(a))
        assert subspace_equal(range_space(q), range_space(x))
        assert subspace_equal(kernel(p), kernel(x))


def test_ep_equivalent_subspace_readings():
    rng = random.Random(46)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        x = pinv(a)
        ep = is_ep(a)
        assert ep == subspace_equal(kernel(a), kernel(x))
        assert ep == subspace_equal(range_space(a), range_space(x))
        seen[ep] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_is_ep_requires_square():
    with pytest.raises(ShapeError):
        is_ep(MatrixQ.zeros(2, 3))


def test_ep_iff_left_multiplication_lift_is_ep():
    rng = random.Random(47)
    for _ in range(30):
        a = rand_with_rank(rng, 3, 3, rng.randint(0, 3))
        assert is_ep(a) == is_ep(kron_left_mult(a))


def test_mppair():
    a = MatrixQ.from_rows([[0, 1], [0, 0]])
    pair = MPPair.from_matrix(a)
    assert pair.a_dagger == MatrixQ.from_rows([[0, 0], [1, 0]])
    assert pair.p == MatrixQ.diagonal([1, 0])
    assert pair.q == MatrixQ.diagonal([0, 1])
    with pytest.raises(ShapeError):
        MPPair.from_matrix(MatrixQ.zeros(1, 2))


def test_memoised_quantities_match_pinv():
    # MPPair and EPInstance derive a+, p and q through the factor daggers;
    # they must equal the products of the rectangular pinv route, and is_ep
    # must agree with a a+ == a+ a, over real and complex draws of every rank
    rng = random.Random(50)
    cases = [MatrixQ.zeros(0, 0)]
    for _ in range(40):
        n = rng.randint(1, 4)
        cases.append(rand_with_rank(rng, n, n, rng.randint(0, n)))
    cases += [MatrixQ.from_rows([[1, "1i"], [0, 0]]), MatrixQ.from_rows([["1i", 0], [0, 0]])]
    ranks = set()
    for a in cases:
        x = pinv(a)
        ranks.add((a.rows, rank(a)))
        for m in (MPPair.from_matrix(a), EPInstance.from_matrix(a)):
            assert m.a_dagger == x
            assert m.p == a @ x
            assert m.q == x @ a
        assert is_ep(a) == ((a @ x) == (x @ a))
    assert {(0, 0), (3, 0), (3, 3)} <= ranks and {(4, r) for r in range(5)} <= ranks


def test_lemma38_witnesses_cold_and_warm():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        cold = lemma38_witnesses(MPPair(a=a))
        warm = MPPair(a=a)
        assert warm.aa == conj_transpose(a) @ a and warm.bb == a @ conj_transpose(a)
        assert lemma38_witnesses(warm) == cold


def test_invertible_norm_witnesses():
    rng = random.Random(48)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        pair = MPPair.from_matrix(a)
        v, w = lemma38_witnesses(pair)
        a_star = conj_transpose(a)
        assert a_star @ v == pair.a_dagger
        assert w @ a_star == pair.a_dagger
        assert (a @ a_star) @ v == pair.p
        assert v @ (a @ a_star) == pair.p
        assert w @ (a_star @ a) == pair.q
        assert (a_star @ a) @ w == pair.q
        # Lemma 3.8's closed-form inverses, rank 0 and non-EP draws included
        e = MatrixQ.identity(n)
        v_inv = (e - pair.p) + a @ a_star
        w_inv = (e - pair.q) + a_star @ a
        assert v @ v_inv == e and w @ w_inv == e
        assert pair.v_inv == v_inv and pair.w_inv == w_inv


def test_factor_level_witness_checks():
    rng = random.Random(49)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        pair = MPPair.from_matrix(a)
        f = full_rank_factorize(a)
        checks = lemma38_factor_witnesses(f, pair)
        assert checks.all_ok
    other = full_rank_factorize(MatrixQ.identity(2))
    pair = MPPair.from_matrix(MatrixQ.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        lemma38_factor_witnesses(other, pair)


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m):
        return sympy.Matrix(m.rows, m.cols, [
            sympy.Rational(z.re.numerator, z.re.denominator)
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)
            for row in m.to_rows() for z in row])

    rng = random.Random(21)
    for _ in range(12):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(n, m))
        a = rand_mq(rng, n, r) @ rand_mq(rng, r, m)
        s = to_sympy(a)
        assert rank(a) == s.rank()
        assert kernel(a).dim == len(s.nullspace())
        assert (to_sympy(pinv(a)) - s.pinv()).expand() == sympy.zeros(m, n)
