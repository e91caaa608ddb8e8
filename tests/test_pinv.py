import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from epkit.battery import _full_rank_instance
from epkit.characterizations import EPInstance
from epkit.exactnum import GaussianRational
from epkit.linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    SingularMatrixError,
    conj_transpose,
    full_rank_factorize,
    inverse,
    is_invertible,
    kernel,
    range_space,
    rank,
    subspace_equal,
)
from epkit.pseudoinverse import (
    factor_daggers,
    is_ep,
    lemma38_witnesses,
    penrose_certificate,
    pinv,
)

from .oracles import (
    brute_force_pinv,
    gram_inverse_daggers,
    kron_left_mult,
    lemma38_factor_witnesses,
)
from .test_factor_subspaces import square_matrices


def rand_mq(rng, rows, cols, bound=3, real=False):
    def sc():
        re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if real or rng.random() < 0.5:
            return GaussianRational(re)
        return GaussianRational(re, Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))

    return MatrixQ(rows, cols, [sc() for _ in range(rows * cols)])


def rand_with_rank(rng, rows, cols, r, bound=3, real=False):
    while True:
        m = rand_mq(rng, rows, r, bound, real) @ rand_mq(rng, r, cols, bound, real)
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
                f = FullRankFactorization(b=a @ inverse(g), c=g)
                b_dagger, c_dagger = factor_daggers(f)
                assert c_dagger @ b_dagger == x


def _dagger_recording(monkeypatch) -> dict:
    """Count `rref` calls, `@` calls and `inverse` calls wherever epkit binds it."""
    import epkit.linalg as linalg

    calls = {"rref": 0, "@": 0, "inverse": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    inverse_, rref_ = linalg.inverse, linalg.rref
    monkeypatch.setattr(MatrixQ, "__matmul__", counting("@", MatrixQ.__matmul__))
    for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "epkit"]:
        for name, fn in (("inverse", inverse_), ("rref", rref_)):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


def test_factor_daggers_eliminate_once_per_factor(monkeypatch):
    # b+ is read off the RREF of [b* b | b*] and (c+)* off that of [c c* | c]:
    # per factor one product, its Gram, and one elimination, none when the
    # Gram is e or 0 x 0, and no inverse; an identity c is its own c+.  The
    # daggers equal the Gram-inverse route
    rng = random.Random(52)
    facts = []
    for rows, cols in ((1, 1), (3, 3), (4, 2), (2, 4), (3, 5), (0, 0), (0, 2), (2, 0)):
        for r in range(min(rows, cols) + 1):
            for real in (True, False):
                a = rand_with_rank(rng, rows, cols, r, real=real)
                f = full_rank_factorize(a)
                facts.append(f)
                if r:  # a c that is no RREF: b g^-1 and g c for an invertible g
                    g = rand_with_rank(rng, r, r, r, real=real)
                    facts.append(FullRankFactorization(b=f.b @ inverse(g), c=g @ f.c))
    # b* b = e: the pivot columns of a are unit vectors
    facts.append(full_rank_factorize(MatrixQ.from_rows([[1, 2, 0], [0, 0, 1], [0, 0, 0]])))
    assert any(f.c != full_rank_factorize(f.c).c for f in facts)  # c is no RREF
    assert {f.rank == f.b.rows for f in facts} == {True, False}
    assert any(f.rank == 0 for f in facts)

    def grams(f):
        out = [conj_transpose(f.b) @ f.b]
        if not (f.rank == f.c.cols and f.c == MatrixQ.identity(f.rank)):
            out.append(f.c @ conj_transpose(f.c))
        return out

    cases = [(f, gram_inverse_daggers(f), grams(f)) for f in facts]
    assert any(g == MatrixQ.identity(g.rows) for _, _, gs in cases for g in gs if g.rows)
    calls = _dagger_recording(monkeypatch)
    for f, want, gs in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert factor_daggers(f) == want
        assert calls == {"@": len(gs), "inverse": 0,
                         "rref": sum(g.rows > 0 and g != MatrixQ.identity(g.rows) for g in gs)}


@settings(max_examples=150, deadline=None)
@given(square_matrices().filter(is_invertible))
@example(MatrixQ.zeros(0, 0))
@example(MatrixQ.from_rows([[1, 2], [3, 4]]))
@example(MatrixQ.from_rows([[1, "1i", 0], [0, 1, 2], [2, 0, "-1i"]]))  # complex
@example(MatrixQ.from_rows([[0, "1i"], [-1, 0]]))  # unit monomial, inverted as its adjoint
def test_full_rank_instance_is_the_factorization_and_its_daggers(a):
    # an invertible a is a = a e with daggers a^-1 and e, the inverse that
    # is_invertible stored on a.  That must be full_rank_factorize's
    # factorization and factor_daggers' daggers of it, which from_matrix,
    # eliminating a alone, holds too
    assert is_invertible(a)
    inst = _full_rank_instance(a)
    f = full_rank_factorize(a)
    assert inst.f == f
    assert inst.daggers == factor_daggers(f) == EPInstance.from_matrix(a).daggers


def test_factor_daggers_reject_factors_without_full_rank():
    # a rank-deficient b or c has a singular Gram, as when it was inverted
    e2 = MatrixQ.identity(2)
    short = MatrixQ.from_rows([[1, 2], [2, 4]])
    for f in (FullRankFactorization(b=short, c=e2),
              FullRankFactorization(b=e2, c=MatrixQ.from_rows([[1, "1i", 0], [2, "2i", 0]])),
              FullRankFactorization(b=MatrixQ.zeros(3, 1), c=MatrixQ.from_rows([[1, 0]]))):
        with pytest.raises(SingularMatrixError):
            factor_daggers(f)


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


def test_instance_pinv_and_projections():
    a = MatrixQ.from_rows([[0, 1], [0, 0]])
    inst = EPInstance.from_matrix(a)
    assert inst.a_dagger == MatrixQ.from_rows([[0, 0], [1, 0]])
    assert inst.p == MatrixQ.diagonal([1, 0])
    assert inst.q == MatrixQ.diagonal([0, 1])
    with pytest.raises(ShapeError):
        EPInstance.from_matrix(MatrixQ.zeros(1, 2))


def test_memoised_quantities_match_pinv():
    # EPInstance derives a+, p and q through the factor daggers; they must
    # equal the products of the rectangular pinv route, and is_ep must agree
    # with a a+ == a+ a and with the validated instance's verdict, over real
    # and complex draws of every rank
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
        m = EPInstance.from_matrix(a)
        assert m.a_dagger == x
        assert m.p == a @ x
        assert m.q == x @ a
        assert is_ep(a) == ((a @ x) == (x @ a)) == m.is_ep
    assert {(0, 0), (3, 0), (3, 3)} <= ranks and {(4, r) for r in range(5)} <= ranks


def test_lemma38_witnesses_cold_and_warm():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        cold = lemma38_witnesses(EPInstance(a=a))
        warm = EPInstance(a=a)
        assert warm.aa == conj_transpose(a) @ a and warm.bb == a @ conj_transpose(a)
        assert lemma38_witnesses(warm) == cold


def test_invertible_norm_witnesses():
    rng = random.Random(48)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        inst = EPInstance.from_matrix(a)
        v, w = lemma38_witnesses(inst)
        a_star = conj_transpose(a)
        assert a_star @ v == inst.a_dagger
        assert w @ a_star == inst.a_dagger
        assert (a @ a_star) @ v == inst.p
        assert v @ (a @ a_star) == inst.p
        assert w @ (a_star @ a) == inst.q
        assert (a_star @ a) @ w == inst.q
        # Lemma 3.8's closed-form inverses, rank 0 and non-EP draws included
        e = MatrixQ.identity(n)
        v_inv = (e - inst.p) + a @ a_star
        w_inv = (e - inst.q) + a_star @ a
        assert v @ v_inv == e and w @ w_inv == e
        assert inst.v_inv == v_inv and inst.w_inv == w_inv


def test_factor_level_witness_checks():
    rng = random.Random(49)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_with_rank(rng, n, n, rng.randint(0, n))
        inst = EPInstance.from_matrix(a)
        f = full_rank_factorize(a)
        checks = lemma38_factor_witnesses(f, inst)
        assert checks.all_ok
    other = full_rank_factorize(MatrixQ.identity(2))
    inst = EPInstance.from_matrix(MatrixQ.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        lemma38_factor_witnesses(other, inst)


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
