import dataclasses
import math
import random
from fractions import Fraction

import pytest

from epkit import pnorms
from epkit.battery import GeneratorConfig, child_seed, gen_block_pair, gen_matrix
from epkit.characterizations import (
    EPInstance,
    StatementResult,
    prop52_battery,
    thm310_battery,
    thm32_battery,
    thm34_battery,
    thm35_battery,
    thm37_battery,
    thm39_battery,
    thm41_battery,
    thm42_battery,
    thm53_decompose,
    thm55_battery,
    thm56_battery,
)
from epkit.exactnum import GaussianRational
from epkit.cli import battery_configs
from epkit.linalg import (
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    SingularMatrixError,
    conj_transpose,
    inverse,
    is_invertible,
)
from epkit.pnorms import PNorm, is_hermitian_idempotent, is_hermitian_idempotent_exact
from epkit.pseudoinverse import is_ep, pinv

from .oracles import oracle_is_ep

NILPOTENT = MatrixQ.from_rows([[0, 1], [0, 0]])
DIAG20 = MatrixQ.diagonal([2, 0])
SHEAR = MatrixQ.from_rows([[1, 1], [0, 1]])

EXPECTED_COUNTS = {
    "3.2": 4, "3.4": 6, "3.5": 11, "3.7": 26, "3.9": 14, "3.10": 7,
    "4.1": 14, "4.2": 17, "5.5": 2, "5.6": 4,
}


# every exact battery takes a square matrix or its EPInstance alike
EXACT_BATTERIES = {
    "3.2": thm32_battery, "3.4": thm34_battery, "3.5": thm35_battery,
    "3.7": thm37_battery, "3.9": thm39_battery, "3.10": thm310_battery,
    "4.1": thm41_battery, "4.2": thm42_battery,
    "5.5": thm55_battery, "5.6": thm56_battery,
}


def all_batteries(a):
    inst = EPInstance.from_matrix(a)
    return {tid: fn(inst) for tid, fn in EXACT_BATTERIES.items()}


# -- instance construction -----------------------------------------------------


def test_epinstance_factors_known():
    inst = EPInstance.from_matrix(MatrixQ.from_rows([[1, 1], [0, 0]]))
    assert inst.b == MatrixQ.from_rows([[1], [0]])
    assert inst.c == MatrixQ.from_rows([[1, 1]])
    assert inst.b_dagger == MatrixQ.from_rows([[1, 0]])
    assert inst.c_dagger == MatrixQ.from_rows([["1/2"], ["1/2"]])
    assert inst.a_dagger == inst.c_dagger @ inst.b_dagger
    assert inst.rank == 1
    assert not inst.is_ep


def test_epinstance_identity_and_zero():
    inst = EPInstance.from_matrix(MatrixQ.identity(3))
    assert inst.b == MatrixQ.identity(3) and inst.c == MatrixQ.identity(3)
    assert inst.is_ep
    inst = EPInstance.from_matrix(MatrixQ.zeros(2, 2))
    assert inst.rank == 0
    assert inst.a_dagger == MatrixQ.zeros(2, 2)
    assert inst.is_ep
    with pytest.raises(ShapeError):
        EPInstance.from_matrix(MatrixQ.zeros(2, 3))


# -- battery shape ---------------------------------------------------------------


def test_statement_counts_and_ids():
    for tid, results in all_batteries(DIAG20).items():
        assert len(results) == EXPECTED_COUNTS[tid]
        ids = [r.statement_id for r in results]
        assert len(set(ids)) == len(ids)
        for r in results:
            assert isinstance(r, StatementResult)
            assert r.theorem_id == tid
            assert r.statement_id.startswith(tid + ".")
            assert r.evaluation_route in ("constructive", "criterion")


def test_thm37_has_split_statement_ids():
    ids = {r.statement_id for r in thm37_battery(EPInstance.from_matrix(DIAG20))}
    assert "3.7.xxiv-a" in ids and "3.7.xxiv-b" in ids
    assert "3.7.xxvi" in ids and "3.7.xxv" not in ids


# -- truth values on the worked examples ------------------------------------------


def test_all_false_on_non_ep():
    for tid, results in all_batteries(NILPOTENT).items():
        for r in results:
            assert r.truth is False, (tid, r.statement_id)
            assert r.witness is None
            assert r.evaluation_route == "criterion"


def test_all_true_on_ep():
    for a in (DIAG20, MatrixQ.identity(2), MatrixQ.zeros(2, 2)):
        for tid, results in all_batteries(a).items():
            for r in results:
                assert r.truth is True, (tid, r.statement_id, a)


def test_existential_results_carry_verified_witnesses():
    inst = EPInstance.from_matrix(DIAG20)
    r35 = {r.statement_id: r for r in thm35_battery(inst)}
    u = r35["3.5.ii"].witness["U"]
    z = r35["3.5.ii"].witness["Z"]
    assert u @ z == inst.e_r and z @ u == inst.e_r
    assert inst.c == u @ inst.b_dagger
    assert r35["3.5.ii"].evaluation_route == "constructive"
    assert r35["3.5.x"].witness["S1"] @ inst.c == inst.b_dagger
    assert inst.b @ r35["3.5.xi"].witness["S2"] == inst.c_dagger

    r37 = {r.statement_id: r for r in thm37_battery(inst)}
    assert r37["3.7.xiii"].witness["x"] == MatrixQ.from_rows([[2]])
    assert r37["3.7.xxiv-b"].witness.keys() == {"right_multiplier", "left_multiplier"}
    g = r37["3.7.xxiv-b"].witness["right_multiplier"]
    h = r37["3.7.xxiv-b"].witness["left_multiplier"]
    assert inst.c_dagger @ g == inst.a
    assert h @ inst.b_dagger == inst.a

    r39 = {r.statement_id: r for r in thm39_battery(inst)}
    zw = r39["3.9.vii"].witness["z"]
    assert conj_transpose(inst.c) @ zw == inst.b and is_invertible(zw)
    s1 = r39["3.9.xiii"].witness["s1"]
    assert s1 @ inst.c == conj_transpose(inst.b)
    assert zw @ r39["3.9.xiv"].witness["s2"] == inst.e_r

    r41 = {r.statement_id: r for r in thm41_battery(DIAG20)}
    s = r41["4.1.ii"].witness["s"]
    assert s == MatrixQ.diagonal([Fraction(1, 4), 1])
    assert s @ DIAG20 == pinv(DIAG20)
    assert r41["4.1.xiv"].witness.keys() == {"z1", "z2"}

    r42 = {r.statement_id: r for r in thm42_battery(DIAG20)}
    h1 = r42["4.2.xv"].witness["h1"]
    a_star = conj_transpose(DIAG20)
    assert DIAG20 @ h1 == a_star
    assert DIAG20 @ h1 @ conj_transpose(h1) @ a_star == a_star @ DIAG20
    assert is_invertible(h1)


def test_solvable_statements_on_non_ep_have_criterion_route():
    results = {r.statement_id: r for r in thm35_battery(EPInstance.from_matrix(NILPOTENT))}
    assert results["3.5.iv"].truth is False
    assert results["3.5.iv"].witness is None


# -- uniformity against the independent oracle -------------------------------------


def test_uniform_truth_matches_is_ep_oracle(monkeypatch):
    # every battery's truth is is_ep's verdict and oracle_is_ep's, rank
    # [a | a*] == rank a over GaussianRational rows, which shares no kernel
    # with the package.  The n = 6, 7 and 8 draws at entry bound 40, real
    # and complex, carry products past int64 into the object and packed paths
    import numpy as np

    import epkit.linalg as linalg

    log, reached = [], {"int64": 0, "object": 0, "packed": 0}

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, x, dtype):
            log.append(dtype)
            return np.array(x, dtype)

    product, packed = linalg._product, linalg._packed_product

    def counted(a, b):
        start = len(log)
        out = product(a, b)
        made = log[start:]
        reached["packed" if "packed" in made else "object" if object in made else "int64"] += 1
        return out
    monkeypatch.setattr(linalg, "np", RecordingNumpy())
    monkeypatch.setattr(linalg, "_product", counted)
    monkeypatch.setattr(linalg, "_packed_product",
                        lambda a, b, width: log.append("packed") or packed(a, b, width))
    kinds = ["ep", "non_ep", "arbitrary", "ep"]
    cfgs = [GeneratorConfig(seed=child_seed(500, i), n=2 + i % 3, kind=kinds[i % 4])
            for i in range(36)]
    cfgs += [GeneratorConfig(seed=child_seed(501, i), n=6, kind=kinds[i % 4], entry_bound=40)
             for i in range(8)]
    cfgs += [GeneratorConfig(seed=child_seed(502, i), n=7 + i % 2, kind=kinds[i % 4],
                             entry_bound=40) for i in range(16)]
    complex_ = {6: set(), 7: set(), 8: set()}
    for i, cfg in enumerate(cfgs):
        a = gen_matrix(cfg)
        expected = is_ep(a)
        assert oracle_is_ep(a) == expected, i
        if cfg.n >= 6:
            complex_[cfg.n].add(any(a._im))
        for tid, results in all_batteries(a).items():
            truths = {r.truth for r in results}
            assert truths == {expected}, (tid, i)
            for r in results:
                if r.truth and r.evaluation_route == "constructive":
                    assert r.witness is not None
                if r.truth is False:
                    assert r.witness is None
    assert all(seen == {False, True} for seen in complex_.values()), complex_
    assert reached["object"] and reached["packed"], reached


def test_witness_route_discipline():
    # true existentials must be constructive, identity statements stay criterion
    results = {r.statement_id: r for r in thm35_battery(EPInstance.from_matrix(DIAG20))}
    assert results["3.5.i"].evaluation_route == "criterion"
    for sid in ("3.5.ii", "3.5.iii", "3.5.iv", "3.5.v"):
        assert results[sid].evaluation_route == "constructive"
        assert results[sid].witness


# -- block decomposition -------------------------------------------------------------


def test_thm53_known_values():
    dec = thm53_decompose(MatrixQ.diagonal([3, 0]))
    t1, j, j_inv, q1 = dec
    assert t1 == MatrixQ.from_rows([[3]])
    assert q1 == MatrixQ.diagonal([1, 0])
    assert j @ j_inv == MatrixQ.identity(2)
    assert thm53_decompose(NILPOTENT) is None
    with pytest.raises(ShapeError):
        thm53_decompose(MatrixQ.zeros(2, 3))


def test_thm53_invertible_and_zero_edges():
    a = MatrixQ.from_rows([[1, 2], [0, 1]])
    t1, j, j_inv, q1 = thm53_decompose(a)
    assert t1.rows == 2 and q1 == MatrixQ.identity(2)
    t1, j, j_inv, q1 = thm53_decompose(MatrixQ.zeros(3, 3))
    assert t1.rows == 0 and q1 == MatrixQ.zeros(3, 3)
    assert j.rows == 3 and is_invertible(j)


def test_thm53_reconstructs_on_random_ep():
    for i in range(12):
        a = gen_matrix(GeneratorConfig(seed=child_seed(600, i), n=2 + i % 3, kind="ep"))
        dec = thm53_decompose(a)
        assert dec is not None
        t1, j, j_inv, q1 = dec
        assert q1 == a @ pinv(a)
        assert is_invertible(j) and j @ j_inv == MatrixQ.identity(a.rows)


def test_thm55_witness_keys():
    results = {r.statement_id: r for r in thm55_battery(DIAG20)}
    assert results["5.5.ii"].witness.keys() == {
        "V1", "A1", "B1", "W1", "S1", "V2", "A2", "B2", "W2", "S2"}
    assert results["5.5.iii"].witness.keys() == {
        "V3", "A3", "B3", "S3", "S4", "V4", "A4", "B4", "S5", "S6"}
    w = results["5.5.ii"].witness
    assert w["A1"] == MatrixQ.from_rows([[2]])
    assert w["B1"] == MatrixQ.from_rows([["1/2"]])
    draws = [gen_matrix(GeneratorConfig(seed=child_seed(55, i), n=4, kind="ep"))
             for i in range(6)]
    for a in [DIAG20] + draws:
        w = {r.statement_id: r for r in thm55_battery(a)}["5.5.ii"].witness
        assert w["V1"] @ w["S1"] == MatrixQ.identity(a.rows)
        assert w["A1"] @ w["B1"] == MatrixQ.identity(w["A1"].rows)


def test_thm56_witness_keys():
    results = {r.statement_id: r for r in thm56_battery(DIAG20)}
    assert results["5.6.ii"].witness.keys() == {"b1", "c1", "g1", "f1", "d1"}
    assert results["5.6.iii"].witness.keys() == {"h1", "k1", "l1", "m1", "n1"}
    assert results["5.6.iv"].witness.keys() == {"b2", "c2", "g2", "d2", "g3"}
    assert results["5.6.v"].witness.keys() == {"h2", "k2", "l2", "h3", "m2"}
    assert results["5.6.ii"].witness["c1"] == DIAG20
    assert results["5.6.ii"].witness["d1"] == pinv(DIAG20)


def test_square_batteries_reject_rectangles():
    # a raw EPInstance is validated like a matrix, so a rectangular one raises too
    rects = [MatrixQ.zeros(2, 3), MatrixQ.from_rows([[1, 0, 0], [0, 1, 0]])]
    for fn in (*EXACT_BATTERIES.values(), thm53_decompose):
        for a in (*rects, *(EPInstance(a=rect) for rect in rects)):
            with pytest.raises(ShapeError):
                fn(a)


# -- norm-relative battery ---------------------------------------------------------


def test_prop52_shear_all_false_at_p2():
    results = prop52_battery(MatrixQ.from_rows([[1]]), SHEAR, PNorm(2))
    assert [r.truth for r in results] == [False, False, False, False]
    by_id = {r.statement_id: r for r in results}
    assert by_id["5.2.iii"].witness["Q1"] == MatrixQ.from_rows([[1, -1], [0, 0]])
    assert by_id["5.2.iv"].witness["Q2"] == MatrixQ.from_rows([[0, 1], [0, 1]])


def test_prop52_signed_permutations_all_true_at_p1():
    rng = random.Random(18)
    for _ in range(6):
        n = rng.randint(2, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[(1 if rng.random() < 0.5 else -1) if j == perm[i] else 0
                 for j in range(n)] for i in range(n)]
        j_mat = MatrixQ.from_rows(rows)
        k = rng.randint(1, n)
        t1 = None
        while t1 is None or not is_invertible(t1):
            t1 = MatrixQ.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                     for _ in range(k)] for _ in range(k)])
        results = prop52_battery(t1, j_mat, PNorm(1))
        assert [r.truth for r in results] == [True, True, True, True]
        t_prime = results[0].witness["T_prime"]
        q1 = results[2].witness["Q1"]
        block = [[t1.entry(i, jj) if i < k and jj < k else 0
                  for jj in range(n)] for i in range(n)]
        t = j_mat @ MatrixQ.from_rows(block) @ inverse(j_mat)
        assert t @ t_prime == q1 and t_prime @ t == q1
        assert results[0].evaluation_route == "constructive"
        assert q1 @ q1 == q1


def test_prop52_zero_block():
    results = prop52_battery(MatrixQ.zeros(0, 0), MatrixQ.identity(2), PNorm(2))
    assert [r.truth for r in results] == [True, True, True, True]
    assert results[2].witness["Q1"] == MatrixQ.zeros(2, 2)


def test_prop52_input_validation():
    with pytest.raises(ShapeError):
        prop52_battery(MatrixQ.identity(3), MatrixQ.identity(2), PNorm(2))
    with pytest.raises(SingularMatrixError, match="t1 must be invertible"):
        prop52_battery(MatrixQ.zeros(1, 1), MatrixQ.identity(2), PNorm(2))
    with pytest.raises(SingularMatrixError, match="j must be invertible"):
        prop52_battery(MatrixQ.identity(1), MatrixQ.from_rows([[1, 1], [1, 1]]), PNorm(2))
    with pytest.raises(ShapeError):
        prop52_battery(MatrixQ.zeros(1, 2), MatrixQ.identity(2), PNorm(2))


def test_prop52_p2_route_is_exact_ep():
    results = {r.statement_id: r for r in
               prop52_battery(MatrixQ.from_rows([[2]]), MatrixQ.identity(2), PNorm(2))}
    assert results["5.2.ii"].truth is True
    assert "exact" in results["5.2.ii"].note


# units, unit-modulus non-units (3/5 + 4/5 i), and entries of other moduli
_ISO_ENTRIES = [GaussianRational(*z) for z in (
    (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-4, 5), Fraction(3, 5)), (Fraction(5, 13), Fraction(-12, 13)),
    (2, 0), (Fraction(1, 2), 0), (1, 1), (Fraction(3, 5), 0))]


def _near_generalized_permutation(rng, n):
    """A generalized permutation, then perhaps one entry added, moved or zeroed."""
    unit_only = rng.random() < 0.5
    pool = _ISO_ENTRIES[:7] if unit_only else _ISO_ENTRIES
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice(pool) if jj == perm[i] else GaussianRational(0) for jj in range(n)]
            for i in range(n)]
    if n and rng.random() < 0.5:
        i, jj = rng.randrange(n), rng.randrange(n)
        change = rng.randrange(3)
        if change == 0:
            rows[i][jj] = rng.choice(_ISO_ENTRIES)
        elif change == 1:
            rows[i][jj] = GaussianRational(0)
        else:  # two rows share a column
            rows[i] = list(rows[(i + 1) % n])
    return MatrixQ.from_rows(rows) if n else MatrixQ.zeros(0, 0)


def _invertible(rng, n):
    """A near generalized permutation when that is invertible, else a random matrix."""
    j = _near_generalized_permutation(rng, n)
    while not is_invertible(j):
        j = MatrixQ.from_rows([[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                                 rng.choice((0, 0, 1, -1)))
                                for _ in range(n)] for _ in range(n)])
    return j


def _is_real_diagonal(q):
    n = q.rows
    return q == MatrixQ.diagonal([q.entry(i, i) for i in range(n)]) and all(
        q.entry(i, i).im == 0 for i in range(n))


def test_hermitian_idempotent_rule_on_conjugated_projections():
    # q = j d j^-1 is an idempotent for every invertible j and 0/1 diagonal d;
    # it is hermitian exactly when self-adjoint (p = 2) or real diagonal (p != 2)
    rng = random.Random(52)
    seen = {(p, t): 0 for p in (1, 2, math.inf) for t in (True, False)}
    for trial in range(40):
        n = 1 + trial % 4
        j = _invertible(rng, n)
        q = j @ MatrixQ.diagonal([rng.randint(0, 1) for _ in range(n)]) @ inverse(j)
        assert q @ q == q
        for p in (1, 2, math.inf):
            truth, rep = is_hermitian_idempotent(q, PNorm(p))
            expected = conj_transpose(q) == q if p == 2 else _is_real_diagonal(q)
            assert truth is expected and is_hermitian_idempotent_exact(q, PNorm(p)) is expected
            if rep.verdict != "inconclusive":
                assert (rep.verdict == "hermitian") == expected
            seen[p, expected] += 1
    assert all(seen.values()), seen


def test_hermitian_idempotent_rule_separates_p2_from_p1():
    half = MatrixQ.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    for p, expected in ((1, False), (2, True), (math.inf, False)):
        truth, rep = is_hermitian_idempotent(half, PNorm(p))
        assert truth is expected
        assert rep.verdict == ("hermitian" if expected else "not_hermitian")


def test_grid_contradicting_the_rule_raises(monkeypatch):
    real_check = pnorms.hermitian_check
    flip = {"hermitian": "not_hermitian", "not_hermitian": "hermitian"}
    oblique = MatrixQ.from_rows([[1, 1], [0, 0]])
    for verdict_of, raises in ((flip.get, True), (lambda v: "inconclusive", False)):
        def check(a, norm, verdict_of=verdict_of):
            rep = real_check(a, norm, grid=16)
            return dataclasses.replace(rep, verdict=verdict_of(rep.verdict))
        monkeypatch.setattr(pnorms, "hermitian_check", check)
        for q, truth in ((MatrixQ.diagonal([1, 0]), True), (oblique, False)):
            for p in (1, 2, math.inf):
                if raises:
                    with pytest.raises(InternalConsistencyError, match="contradicts"):
                        is_hermitian_idempotent(q, PNorm(p))
                else:
                    assert is_hermitian_idempotent(q, PNorm(p))[0] is truth


def _rule_violation(q, p):
    """max |q - q*| at p = 2; at p = 1 or inf the largest off-diagonal modulus or |Im q_ii|."""
    rows = q.to_complex_rows()
    n = len(rows)
    if p == 2:
        return max(abs(rows[i][jj] - rows[jj][i].conjugate()) for i in range(n) for jj in range(n))
    return max(abs(rows[i][jj]) if i != jj else abs(rows[i][i].imag)
               for i in range(n) for jj in range(n))


def test_grid_pass_on_a_near_hermitian_idempotent_is_false_not_an_error():
    # 1e-12 off hermitian: the grid passes it, the rule does not, and that
    # is a sampling limit rather than an inconsistency
    q = MatrixQ.from_rows([[1, "1/1000000000000"], [0, 0]])
    for p in (1, 2, math.inf):
        truth, rep = is_hermitian_idempotent(q, PNorm(p))
        assert truth is False and rep.verdict == "hermitian"


def test_near_hermitian_idempotents_never_raise():
    # q = j d j^-1 with j = e + eps k: the grid deviation tracks the rule's
    # violation, so a grid pass only happens below HERMITIAN_TOL_FAIL
    rng = random.Random(71)
    seen = set()
    for k in range(5, 13):
        eps = Fraction(1, 10 ** k)
        for trial in range(10):
            n = 2 + trial % 3
            kk = MatrixQ.from_rows([[GaussianRational(rng.randint(-3, 3), rng.choice((0, 0, 1, -1)))
                                     for _ in range(n)] for _ in range(n)])
            j = MatrixQ.identity(n) + MatrixQ.diagonal([eps] * n) @ kk
            q = j @ MatrixQ.diagonal([rng.randint(0, 1) for _ in range(n)]) @ inverse(j)
            for p in (1, 2, math.inf):
                truth, rep = is_hermitian_idempotent(q, PNorm(p))
                assert truth is is_hermitian_idempotent_exact(q, PNorm(p))
                assert rep.max_deviation >= 0.4 * _rule_violation(q, p)
                seen.add((truth, rep.verdict))
    assert {(False, "hermitian"), (False, "inconclusive"), (False, "not_hermitian")} <= seen


def test_prop52_never_reaches_the_series(monkeypatch):
    # q1 and q2 are exact idempotents, so both grid reports use the closed form
    def series(mats):
        raise AssertionError("_expm_batch called on an exact idempotent")
    monkeypatch.setattr(pnorms, "_expm_batch", series)
    for n in range(1, 5):
        for cfg in battery_configs("5.2", 4, n, 7):
            t1, j = gen_block_pair(cfg)
            for p in (1, 2, math.inf):
                assert len(prop52_battery(t1, j, PNorm(p))) == 4


def test_prop52_ii_reads_t_alone(monkeypatch):
    # t t# = b (c b)^-1 c equals the block projection q1 on every draw, yet
    # 5.2.ii reaches it from t alone, without a grid check of its own
    calls = []
    real_check = pnorms.hermitian_check
    monkeypatch.setattr(pnorms, "hermitian_check",
                        lambda a, norm: calls.append(norm) or real_check(a, norm))
    for n in range(5):
        for cfg in battery_configs("5.2", 4, n, 11):
            t1, j = gen_block_pair(cfg)
            t = j @ _embed(t1, n) @ inverse(j)
            q1 = j @ _embed(MatrixQ.identity(t1.rows), n) @ inverse(j)
            m = EPInstance(a=t)
            assert m.b @ inverse(m.u) @ m.c == q1
            calls.clear()
            prop52_battery(t1, j, PNorm(math.inf))
            assert len(calls) == 2


def _embed(x, n):
    """x ⊕ 0: the k×k block x as the leading corner of an n×n zero matrix."""
    k = x.rows
    return MatrixQ.from_rows([[x.entry(i, jj) if i < k and jj < k else 0 for jj in range(n)]
                              for i in range(n)])


def test_block_maps_at_the_extreme_ranks_match_the_embedded_reference():
    # k = 0 and k = n leave one of j's column blocks (and j^-1's row blocks)
    # empty; the battery's j1 x j_inv1 and j2 j_inv2 must still equal the
    # padded j (x + 0) j^-1 and j (0 + e) j^-1
    rng = random.Random(54)
    for n in range(5):
        e = MatrixQ.identity(n)
        for k in sorted({0, n}):
            for _ in range(3):
                j, t1 = _invertible(rng, n), _invertible(rng, k)
                j_inv = inverse(j)
                t = j @ _embed(t1, n) @ j_inv
                q1 = j @ _embed(MatrixQ.identity(k), n) @ j_inv
                q2 = j @ (e - _embed(MatrixQ.identity(k), n)) @ j_inv
                t_prime = j @ _embed(inverse(t1), n) @ j_inv
                assert q1 == (MatrixQ.zeros(n, n) if k == 0 else e)
                for p in (1, 2, math.inf):
                    norm = PNorm(p)
                    by_id = {r.statement_id: r for r in prop52_battery(t1, j, norm)}
                    truth1 = is_hermitian_idempotent_exact(q1, norm)
                    assert by_id["5.2.iii"].witness["Q1"] == q1
                    assert by_id["5.2.iv"].witness["Q2"] == q2
                    assert [r.truth for r in by_id.values()] == [
                        truth1, truth1, truth1, is_hermitian_idempotent_exact(q2, norm)]
                    assert by_id["5.2.i"].witness == {"T_prime": t_prime}
                t1_d, j_d, j_inv_d, q1_d = thm53_decompose(t)
                assert t1_d.rows == k and j_d @ j_inv_d == e
                assert j_d @ _embed(t1_d, n) @ j_inv_d == t
                assert q1_d == j_d @ _embed(MatrixQ.identity(k), n) @ j_inv_d == q1
                assert j_d @ _embed(inverse(t1_d), n) @ j_inv_d == pinv(t) == t_prime
