"""Validation and Lemma 3.8 check generating sets, not every consequence.

`EPInstance` validates `mp_generators`: b c = a, b+ b = e, c c+ = e, p = b b+
and q = c+ c hermitian, and each held a+, p, q equal to the product that
defines it.  The four Penrose conditions for a+ = c+ b+ follow by exact
associativity, so here `penrose_certificate` is the oracle for that
implication on rectangular matrices, with b+ and c+ replaced by other
one-sided inverses of b and c, for which it must fail exactly when the
generators do, and daggers an instance is handed are certified the same
way.  `lemma38_witnesses` verifies four identities; the four it
no longer checks are verified here, and a wrong closed-form inverse must
still be caught.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epkit import characterizations as chz
from epkit.characterizations import EPInstance
from epkit.linalg import (
    InternalConsistencyError,
    MatrixQ,
    conj_transpose,
    full_rank_factorize,
)
from epkit.pseudoinverse import factor_daggers, lemma38_witnesses, penrose_certificate

from .test_factor_subspaces import rect_matrices, square_matrices
from .test_pinv import rand_mq

DIAG20 = MatrixQ.diagonal([2, 0])
_m = MatrixQ.from_rows


def _hermitian(x: MatrixQ) -> bool:
    return conj_transpose(x) == x


@settings(max_examples=200, deadline=None)
@given(rect_matrices(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(MatrixQ.zeros(2, 3), 0, False, False)                  # rank 0
@example(MatrixQ.zeros(0, 2), 0, True, True)                    # empty
@example(_m([[1, 2], [3, 4]]), 0, True, False)                  # full rank, square
@example(_m([[1, "1i", 0], [0, 1, 2]]), 1, False, True)         # full row rank, complex
@example(_m([[1, 0], [0, 1], [1, 1]]), 2, True, True)           # full column rank
@example(_m([[1, "1i", 0], [2, "2i", 0]]), 3, True, True)       # rank 1, complex
def test_generating_set_implies_the_four_penrose_conditions(a, seed, move_b, move_c):
    # b_l = b+ + y (e - b b+) is a left inverse of b and c_r = c+ + (e - c+ c) z
    # a right inverse of c, for every y and z, so b c = a, b_l b = e and
    # c c_r = e hold; x = c_r b_l is the Moore-Penrose inverse of a exactly
    # when p = b b_l and q = c_r c are also hermitian (then b_l = b+, c_r = c+).
    # The instance is built directly, not by from_matrix, since a may be
    # rectangular, and it holds (b_l, c_r) as its daggers
    f = full_rank_factorize(a)
    b, c, r = f.b, f.c, f.rank
    bd, cd = factor_daggers(f)
    rng = random.Random(seed)
    if move_b:
        bd = bd + rand_mq(rng, r, a.rows, 2) @ (MatrixQ.identity(a.rows) - b @ bd)
    if move_c:
        cd = cd + (MatrixQ.identity(a.cols) - cd @ c) @ rand_mq(rng, a.cols, r, 2)
    e_r = MatrixQ.identity(r)
    assert b @ c == a and bd @ b == e_r and c @ cd == e_r
    m = EPInstance(a=a)
    m.__dict__["daggers"] = (bd, cd)
    generators = m.mp_generators
    assert generators == (_hermitian(b @ bd) and _hermitian(cd @ c))
    assert penrose_certificate(a, cd @ bd).valid == generators
    if not (move_b or move_c):
        assert generators


def _unit(rows: int, cols: int) -> MatrixQ:
    """The rows x cols matrix with a single 1, at (0, 0)."""
    return _m([[int(i == j == 0) for j in range(cols)] for i in range(rows)])


@pytest.mark.parametrize("a", [
    MatrixQ.zeros(3, 3),                                         # rank 0
    _m([[1, "1i", 0], [0, 0, 0], [2, 0, "-1i"]]),                # rank 2, not EP
    _m([[1, 0, 0], [0, "1i", 0], [0, 0, 0]]),                    # rank 2, EP
    _m([[1, 2], [3, "4i"]]),                                     # full rank
])
def test_held_daggers_are_certified_not_trusted(a):
    # from_factorization holds the daggers a draw hands it, and validation
    # checks the same generating set on them as on computed ones: the true
    # (b+, c+) pass, and every other pair raises.  An entry off breaks
    # b+ b = e or c c+ = e, or p or q; a left inverse b_l of b that is not
    # b+ is a {1,2,4}-inverse with b b_l not hermitian, and a right inverse
    # c_r of c that is not c+ a {1,2,3}-inverse with c_r c not hermitian.
    # At rank 0 the daggers are empty, and a wrongly shaped one is caught;
    # at full rank both are unique one-sided inverses
    f = full_rank_factorize(a)
    b, c, r, n = f.b, f.c, f.rank, a.rows
    bd, cd = factor_daggers(f)
    m = EPInstance.from_factorization(a, f, (bd, cd))
    assert m.daggers == (bd, cd) and m.a_dagger == cd @ bd
    e_n, e_r = MatrixQ.identity(n), MatrixQ.identity(r)
    wrong = []
    if r:
        wrong += [(bd + _unit(r, n), cd), (bd, cd + _unit(n, r))]
    else:
        wrong += [(MatrixQ.zeros(1, n), cd), (bd, MatrixQ.zeros(n, 1))]
    if 0 < r < n:
        b_l = bd + _m([[1, "1i", 2]] + [[0, 0, 0]] * (r - 1)) @ (e_n - b @ bd)
        c_r = cd + (e_n - cd @ c) @ _m([["1i"] + [0] * (r - 1), [2] + [0] * (r - 1),
                                        [1] + [0] * (r - 1)])
        assert b_l @ b == e_r and not _hermitian(b @ b_l)        # {1,2,4}, not {3}
        assert c @ c_r == e_r and not _hermitian(c_r @ c)        # {1,2,3}, not {4}
        wrong += [(b_l, cd), (bd, c_r)]
    assert len(wrong) == (4 if 0 < r < n else 2)
    for daggers in wrong:
        with pytest.raises(InternalConsistencyError):
            EPInstance.from_factorization(a, f, daggers)


def test_certificate_catches_a_held_q_that_is_not_c_dagger_c(monkeypatch):
    # of DIAG20, q = c+ c = diag(1, 0); a held diag(0, 1) is a hermitian
    # idempotent, so only its comparison with c+ c catches it
    held = MatrixQ.diagonal([0, 1])
    monkeypatch.setitem(chz._QUANTITIES, "q", lambda m: held)
    m = EPInstance(a=DIAG20)
    assert m.bc == m.a and m.bd_b_is_e and m.c_cd_is_e and _hermitian(m.q) and held @ held == held
    with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
        EPInstance.from_matrix(DIAG20)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example(MatrixQ.zeros(3, 3))                                    # rank 0
@example(MatrixQ.zeros(0, 0))
@example(_m([[1, 2], [3, 4]]))                                   # full rank
@example(_m([[0, 1], [0, 0]]))                                   # not EP
@example(_m([[1, "1i", 0], [0, 0, 0], [2, 0, "-1i"]]))           # complex, rank 2
def test_the_lemma38_identities_that_follow_hold(a):
    # lemma38_witnesses verifies v v^-1 = e, w w^-1 = e, a* v = a+ and
    # w a* = a+; v and w are hermitian by construction, and the other four
    # identities follow from those on a validated instance
    inst = EPInstance.from_matrix(a)
    v, w = lemma38_witnesses(inst)
    aat, ata = a @ conj_transpose(a), conj_transpose(a) @ a
    assert _hermitian(v) and _hermitian(w)
    assert aat @ v == inst.p and v @ aat == inst.p
    assert w @ ata == inst.q and ata @ w == inst.q


@pytest.mark.parametrize("name", ["v_inv", "w_inv"])
def test_lemma38_catches_a_wrong_closed_form_inverse(monkeypatch, name):
    # of DIAG20, v = diag(1/4, 1) and w = diag(1/4, 1), so e is no inverse
    monkeypatch.setitem(chz._QUANTITIES, name, lambda m: m.e_n)
    inst = EPInstance.from_matrix(DIAG20)
    with pytest.raises(InternalConsistencyError, match="lemma38 witness identities failed"):
        lemma38_witnesses(inst)
