import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from epkit import pnorms
from epkit.battery import GeneratorConfig, child_seed, gen_block_pair
from epkit.exactnum import GaussianRational
from epkit.linalg import MatrixQ, ShapeError, conj_transpose, inverse, is_invertible
from epkit.pnorms import (
    HermitianCheckReport,
    PNorm,
    expm,
    hermitian_check,
    is_hermitian_exact,
    is_hermitian_idempotent,
    is_hermitian_idempotent_exact,
    op_norm,
    parse_p,
)
from epkit.pnorms import _expm_batch, _op_norms  # white-box agreement checks

GOLDEN_DEVIATION = (1.0 + math.sqrt(5.0)) / 2.0 - 1.0


def rand_complex(rng, n, scale=2.0):
    re = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    im = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return re + 1j * im


# -- PNorm / parse_p ---------------------------------------------------------


def test_pnorm_validation():
    assert PNorm(1).p == 1
    assert PNorm(2).p == 2
    assert PNorm(math.inf).p == math.inf
    with pytest.raises(ValueError):
        PNorm(3)


def test_parse_p():
    assert parse_p("1") == 1
    assert parse_p("2") == 2
    assert parse_p("inf") == math.inf
    assert parse_p("Inf") == math.inf
    with pytest.raises(ValueError):
        parse_p("3")
    with pytest.raises(ValueError):
        parse_p("two")


# -- operator norms -----------------------------------------------------------


def test_op_norm_against_numpy():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = rand_complex(rng, n)
        assert op_norm(a, PNorm(1)) == pytest.approx(np.linalg.norm(a, 1), rel=1e-12)
        assert op_norm(a, PNorm(math.inf)) == pytest.approx(np.linalg.norm(a, np.inf), rel=1e-12)
        assert op_norm(a, PNorm(2)) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_op_norm_accepts_exact_matrices():
    m = MatrixQ.from_rows([[3, 0], [0, "4i"]])
    arr = np.array([[3, 0], [0, 4j]], dtype=complex)
    for p in (1, 2, math.inf):
        assert op_norm(m, PNorm(p)) == pytest.approx(op_norm(arr, PNorm(p)), rel=1e-12)
    assert op_norm(m, PNorm(2)) == pytest.approx(4.0, rel=1e-10)


def test_op_norm_shape_and_empty():
    with pytest.raises(ShapeError):
        op_norm(np.zeros((2, 3)), PNorm(1))
    assert op_norm(np.zeros((0, 0)), PNorm(2)) == 0.0
    assert op_norm(np.zeros((3, 3)), PNorm(2)) == 0.0


def test_op_norm_submultiplicative():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        a, b = rand_complex(rng, n), rand_complex(rng, n)
        for p in (1, 2, math.inf):
            norm = PNorm(p)
            assert op_norm(a @ b, norm) <= op_norm(a, norm) * op_norm(b, norm) * (1 + 1e-10)


def test_spectral_norm_of_large_entries():
    # the SVD never forms A*A, so 1e100 does not underflow against 1 and
    # 1e200 does not overflow
    for big in (1e100, 1e200):
        assert op_norm(np.array([[1, big], [0, 0]]), PNorm(2)) == pytest.approx(big, rel=1e-12)


def test_spectral_batch_matches_single():
    rng = random.Random(13)
    mats = np.stack([rand_complex(rng, 3) for _ in range(8)])
    batch = _op_norms(mats, PNorm(2))
    for i in range(8):
        assert batch[i] == pytest.approx(op_norm(mats[i], PNorm(2)), rel=1e-10)


# -- matrix exponential ---------------------------------------------------------


def test_expm_against_scipy():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = rand_complex(rng, n, scale=1.5)
        ours = expm(a)
        ref = scipy.linalg.expm(a)
        denom = max(np.abs(ref).max(), 1.0)
        assert np.abs(ours - ref).max() / denom < 1e-10


def test_expm_batch_matches_single():
    rng = random.Random(15)
    mats = np.stack([rand_complex(rng, 3) for _ in range(6)])
    batch = _expm_batch(mats)
    for i in range(6):
        assert np.abs(batch[i] - expm(mats[i])).max() < 1e-12


def test_expm_identities():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))
    a = np.diag([1.0, -2.0]).astype(complex)
    assert np.abs(expm(a) - np.diag(np.exp([1.0, -2.0]))).max() < 1e-12


# -- hermitian check --------------------------------------------------------------


def test_real_diagonals_are_hermitian_every_p():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(1, 4)
        d = np.diag([rng.uniform(-3, 3) for _ in range(n)]).astype(complex)
        for p in (1, 2, math.inf):
            rep = hermitian_check(d, PNorm(p))
            assert rep.verdict == "hermitian"
            assert rep.max_deviation < 1e-9


def test_nilpotent_golden_ratio_deviation():
    n = MatrixQ.from_rows([[0, 1], [0, 0]])
    rep = hermitian_check(n, PNorm(2), grid=513, t_max=1.0)
    assert rep.verdict == "not_hermitian"
    assert abs(rep.max_deviation - GOLDEN_DEVIATION) < 1e-9
    assert abs(rep.argmax_t) == pytest.approx(1.0)


def test_collapsed_spectrum_resolves_tiny_deviations():
    # exp(it eps N) has top singular values 1 +- |t| eps / 2: every
    # singular value collapses toward 1, and the pi*eps deviation must
    # still be resolved.
    for eps, expected in ((1e-6, "not_hermitian"), (1e-7, "inconclusive")):
        m = MatrixQ.from_rows([["0", f"1/{int(1 / eps)}"], ["0", "0"]])
        rep = hermitian_check(m, PNorm(2))
        assert rep.verdict == expected
        assert rep.max_deviation == pytest.approx(math.pi * eps, rel=1e-3)


def test_degenerate_top_over_spread_spectrum_resolves():
    # top pair 1e-10 apart while the rest of the spectrum sits far below
    m = np.diag([2.0, 2.0 * (1.0 + 1e-10), 0.5])
    assert op_norm(m, PNorm(2)) == pytest.approx(2.0 * (1.0 + 1e-10), rel=1e-15)


def test_exactly_degenerate_top_pair_converges():
    # unitary image: every singular value is exactly 1
    rep = hermitian_check(MatrixQ.from_rows([[0, 1], [1, 0]]), PNorm(2))
    assert rep.verdict == "hermitian"
    assert op_norm(np.eye(5), PNorm(2)) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_flip_hermitian_only_for_p2():
    flip = MatrixQ.from_rows([[0, 1], [1, 0]])
    assert hermitian_check(flip, PNorm(2)).verdict == "hermitian"
    assert hermitian_check(flip, PNorm(1)).verdict == "not_hermitian"
    assert hermitian_check(flip, PNorm(math.inf)).verdict == "not_hermitian"


def test_hermitian_check_parameter_validation():
    a = np.eye(2)
    with pytest.raises(ValueError):
        hermitian_check(a, PNorm(2), grid=1)
    with pytest.raises(ValueError):
        hermitian_check(a, PNorm(2), t_max=0.0)
    with pytest.raises(ShapeError):
        hermitian_check(np.zeros((2, 3)), PNorm(2))


def test_non_finite_entries_are_rejected():
    for bad in (np.array([[math.nan]]), np.array([[1.0, math.inf], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="finite"):
            op_norm(bad, PNorm(2))
        for p in (1, 2, math.inf):
            with pytest.raises(ValueError, match="finite"):
                hermitian_check(bad, PNorm(p))


def test_hermitian_check_rejects_non_finite_t_max():
    # 1e308 is finite, but the grid on [-1e308, 1e308] is not
    for t_max in (math.nan, math.inf, 1e308):
        for a in (np.eye(2), MatrixQ.diagonal([1, 0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="t_max"):
                    hermitian_check(a, PNorm(2), t_max=t_max)


def test_hermitian_check_empty_matrix_same_verdict_every_p():
    for a in (np.zeros((0, 0)), MatrixQ.zeros(0, 0)):
        reports = [hermitian_check(a, PNorm(p), grid=16) for p in (1, 2, math.inf)]
        assert len({(r.verdict, r.max_deviation) for r in reports}) == 1


def _conjugated_projection(rng, n):
    """q = j d j^-1 for a random invertible Gaussian-rational j and 0/1 diagonal d."""
    while True:
        j = MatrixQ(n, n, [GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                            rng.choice((0, 0, 1, -2)))
                           for _ in range(n * n)])
        if is_invertible(j):
            return j @ MatrixQ.diagonal([rng.randint(0, 1) for _ in range(n)]) @ inverse(j)


def test_idempotent_closed_form_matches_the_series():
    # a MatrixQ idempotent takes exp(itq) = e + (e^{it} - 1) q; its float
    # image as a numpy array still goes through the series
    rng = random.Random(18)
    verdicts = set()
    for trial in range(30):
        q = _conjugated_projection(rng, 1 + trial % 5)
        assert q @ q == q
        arr = np.array(q.to_complex_rows(), dtype=complex)
        for p in (1, 2, math.inf):
            closed = hermitian_check(q, PNorm(p))
            series = hermitian_check(arr, PNorm(p))
            assert closed.verdict == series.verdict
            assert abs(closed.max_deviation - series.max_deviation) <= 1e-10 * max(
                1.0, series.max_deviation)
            verdicts.add(closed.verdict)
    assert verdicts == {"hermitian", "not_hermitian"}


def test_only_exact_idempotents_skip_the_series(monkeypatch):
    calls = []
    real = pnorms._expm_batch
    monkeypatch.setattr(pnorms, "_expm_batch", lambda mats: calls.append(1) or real(mats))
    q = MatrixQ.from_rows([[1, 1], [0, 0]])
    rep = hermitian_check(q, PNorm(2))
    assert rep.verdict == "not_hermitian" and calls == [] and rep.closed_form is True
    nilpotent, empty = MatrixQ.from_rows([[0, 1], [0, 0]]), MatrixQ.zeros(0, 0)
    for a in (np.array([[1, 1], [0, 0]], dtype=complex), nilpotent, empty):
        assert hermitian_check(a, PNorm(2)).closed_form is False
    assert len(calls) == 3
    # is_hermitian_idempotent reads idempotence from closed_form (or n = 0)
    # and keeps the truth of the exact rule
    for a, truth in ((q, False), (nilpotent, False), (empty, True),
                     (MatrixQ.diagonal([1, 0]), True)):
        for p in (1, 2, math.inf):
            assert is_hermitian_idempotent(a, PNorm(p))[0] is truth
            assert is_hermitian_idempotent_exact(a, PNorm(p)) is truth


def test_exact_hermitian_inputs_take_eigh_and_match_the_series(monkeypatch):
    # a MatrixQ for which the exact rule holds (and that is no idempotent)
    # takes V diag(e^{it lambda}) V* from eigh, and so does its numpy image,
    # whose float values satisfy the same rule; the series agrees with both
    # at these moderate norms
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1024)
    calls = []
    real = pnorms._expm_batch
    monkeypatch.setattr(pnorms, "_expm_batch", lambda mats: calls.append(1) or real(mats))
    rng = random.Random(24)
    diagonals = [MatrixQ.diagonal([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                   for _ in range(1 + trial % 4)]) for trial in range(8)]
    symmetric = []
    for trial in range(8):
        n = 2 + trial % 3
        x = MatrixQ(n, n, [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(n * n)])
        symmetric.append(x + conj_transpose(x))
    for a, norms in [(d, (1, 2, math.inf)) for d in diagonals] + [(x, (2,)) for x in symmetric]:
        if a @ a == a:
            continue
        arr = np.array(a.to_complex_rows(), dtype=complex)
        series = real(1j * ts[:, None, None] * arr)
        for p in norms:
            calls.clear()
            exact = hermitian_check(a, PNorm(p))
            assert hermitian_check(arr, PNorm(p)) == exact
            assert calls == [] and exact.closed_form is False
            assert exact.verdict == "hermitian"
            deviation = np.abs(pnorms._op_norms(series, PNorm(p)) - 1.0).max()
            assert abs(exact.max_deviation - deviation) <= 1e-12
    # the rule fails for a symmetric non-diagonal matrix at p = 1 and inf
    calls.clear()
    for p in (1, math.inf):
        assert hermitian_check(symmetric[0], PNorm(p)).verdict == "not_hermitian"
    assert calls == [1, 1]


def test_numpy_inputs_decided_by_the_exact_rule_take_eigh(monkeypatch):
    # a numpy array whose float values satisfy the exact rule takes its grid
    # from eigh like a MatrixQ, so a large norm reads rounding error only;
    # the symmetric non-diagonal matrix misses the rule at p = 1 and inf and
    # still takes the series there
    calls = []
    real = pnorms._expm_batch
    monkeypatch.setattr(pnorms, "_expm_batch", lambda mats: calls.append(1) or real(mats))
    cases = [(np.diag([1e10, -1e10]), (1, 2, math.inf)),
             (np.diag([1e6, -1e6]), (1, 2, math.inf)),
             (np.array([[3.0, 1.0], [1.0, 5e9]]), (2,))]
    for a, norms in cases:
        for p in norms:
            rep = hermitian_check(a, PNorm(p))
            assert rep.verdict == "hermitian" and not rep.closed_form, (a, p)
            assert rep.max_deviation <= 4.5e-16, (a, p, rep.max_deviation)
    assert calls == []
    for p in (1, math.inf):
        assert hermitian_check(cases[2][0], PNorm(p)).verdict == "not_hermitian"
    assert calls == [1, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_hermitian_phase_stays_finite_past_float_range():
    # t lambda overflows past |lambda| ~ 2.8e307 on the default grid, but
    # exp(i t a) is still unitary: the phase is reduced modulo 2 pi first
    cases = [(MatrixQ.diagonal([10 ** 308, -10 ** 308]), (1, 2, math.inf)),
             (MatrixQ.diagonal([3 * 10 ** 307, 0, -1]), (1, 2, math.inf)),
             (MatrixQ.from_rows([[3, 1], [1, 10 ** 308]]), (2,))]
    for a, norms in cases:
        for p in norms:
            rep = hermitian_check(a, PNorm(p))
            assert rep.verdict == "hermitian" and not rep.closed_form, (a, p)
            assert rep.max_deviation <= 1e-15, (a, p, rep.max_deviation)


def test_idempotent_p2_closed_form_matches_the_stack():
    # at p = 2 the grid of an idempotent reads sigma(|e^{it} - 1| s),
    # s = ||q - q*||_2, instead of the norm of each e + (e^{it} - 1) q
    rng = random.Random(19)
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1024)
    verdicts = set()
    for trial in range(40):
        n = 1 + trial % 5
        q = _conjugated_projection(rng, n)
        arr = np.array(q.to_complex_rows(), dtype=complex)
        stack = np.eye(n) + (np.exp(1j * ts) - 1.0)[:, None, None] * arr
        dev = np.abs(pnorms._op_norms(stack, PNorm(2)) - 1.0).max()
        rep = hermitian_check(q, PNorm(2))
        expected = ("hermitian" if dev <= rep.tol_pass
                    else "not_hermitian" if dev >= rep.tol_fail else "inconclusive")
        assert rep.verdict == expected
        assert abs(rep.max_deviation - dev) <= 1e-12 * max(1.0, dev)
        verdicts.add(rep.verdict)
    assert verdicts == {"hermitian", "not_hermitian"}


def test_idempotent_p1_pinf_sums_match_the_stack():
    # at p = 1 (inf) the grid of an idempotent reads the largest column (row)
    # sum |1 + w q_jj| + |w| sum_{i != j} |q_ij| instead of the norm of each
    # e + w q; the sums hold for any q, so scaled draws check them too
    rng = random.Random(21)
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1024)
    w = np.exp(1j * ts) - 1.0
    verdicts = set()

    def verdict(dev):
        return ("hermitian" if dev <= pnorms.HERMITIAN_TOL_PASS
                else "not_hermitian" if dev >= pnorms.HERMITIAN_TOL_FAIL else "inconclusive")

    for trial in range(40):
        n = 1 + trial % 5
        q = _conjugated_projection(rng, n)
        arr = np.array(q.to_complex_rows(), dtype=complex)
        for p in (1, math.inf):
            for scale in (1.0, 1e50, 1e-50, 1e100):
                x = scale * arr
                stack = _op_norms(np.eye(n) + w[:, None, None] * x, PNorm(p))
                sums = pnorms._idempotent_sum_norms(x, w, np.abs(w), PNorm(p))
                assert np.allclose(sums, stack, rtol=1e-12, atol=0.0)
                assert verdict(np.abs(sums - 1.0).max()) == verdict(np.abs(stack - 1.0).max())
            rep = hermitian_check(q, PNorm(p))
            dev = np.abs(_op_norms(np.eye(n) + w[:, None, None] * arr, PNorm(p)) - 1.0).max()
            assert rep.closed_form and rep.verdict == verdict(dev)
            assert abs(rep.max_deviation - dev) <= 1e-12 * max(1.0, dev)
            verdicts.add(rep.verdict)
    assert verdicts == {"hermitian", "not_hermitian"}


def _broadcast_sum_norms(q, w, r, norm):
    """The (grid, n) expression the column-wise fold must equal bit for bit."""
    moduli = np.abs(q)
    np.fill_diagonal(moduli, 0.0)
    off = moduli.sum(axis=0 if norm.p == 1 else 1)
    return (np.abs(1.0 + w[:, None] * np.diagonal(q)) + r[:, None] * off).max(axis=1)


def test_idempotent_sums_fold_columns_bit_for_bit():
    # max is exact and each column goes through the same operations, so the
    # column-wise fold equals the (grid, n) expression exactly, nan included
    rng = random.Random(23)
    inputs = []
    for n in range(1, 9):
        for k in range(n + 1):
            _, j = gen_block_pair(GeneratorConfig(seed=child_seed(23, 9 * n + k), n=n, rank=k))
            j_inv = inverse(j)
            for q in (j.select_columns(range(k)) @ j_inv.take_rows(k),
                      j.select_columns(range(k, n)) @ j_inv.take_rows(k, n)):
                inputs.append(np.array(q.to_complex_rows(), dtype=complex))
    for n in range(1, 9):
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8, 1e308):
            inputs.append(scale * rand_complex(rng, n, 1.0))
    non_finite = 0
    for grid, t_max in ((1024, 2.0 * math.pi), (7, 1.0), (1024, 100.0)):
        _, w, r = pnorms._grid(grid, t_max)
        for q in inputs:
            for p in (1, math.inf):
                with np.errstate(all="ignore"):
                    want = _broadcast_sum_norms(q, w, r, PNorm(p))
                    got = pnorms._idempotent_sum_norms(q, w, r, PNorm(p))
                assert got.shape == want.shape == (grid,)
                assert np.array_equal(got, want, equal_nan=True), (grid, t_max, p, q)
                non_finite += not np.isfinite(want).all()
    assert non_finite  # the 1e308 draws overflow, so inf and nan are compared too


def test_p1_pinf_idempotent_check_forms_no_stack(monkeypatch):
    stacks, series = [], []
    real_norms, real_series = pnorms._op_norms, pnorms._expm_batch
    monkeypatch.setattr(pnorms, "_op_norms",
                        lambda mats, norm: stacks.append(mats.shape) or real_norms(mats, norm))
    monkeypatch.setattr(pnorms, "_expm_batch",
                        lambda mats: series.append(1) or real_series(mats))
    rng = random.Random(22)
    for trial in range(6):
        q = _conjugated_projection(rng, 1 + trial % 4)
        for p in (1, math.inf):
            assert hermitian_check(q, PNorm(p)).closed_form
    assert stacks == [] and series == []
    hermitian_check(MatrixQ.from_rows([[0, 1], [0, 0]]), PNorm(1), grid=16)
    assert series == [1] and stacks[-1] == (16, 2, 2)


def test_rule_reads_the_off_diagonal_numerators():
    # at p = 1 and inf the rule is "a equals its own diagonal, and that
    # diagonal is real"; at p = 2 it is a* = a, which a complex diagonal fails
    def by_diagonal(a):
        return a == MatrixQ.diagonal([a.entry(i, i) for i in range(a.rows)])

    def real_diagonal(a):
        return by_diagonal(a) and all(a.entry(i, i).im == 0 for i in range(a.rows))

    cases = [MatrixQ.zeros(0, 0), MatrixQ.from_rows([["2/3+1i"]]), MatrixQ.from_rows([[0]]),
             MatrixQ.diagonal(["1i", 0, "-1/2+3i"]), MatrixQ.diagonal([1, 0, 1]),
             MatrixQ.from_rows([[1, "1/5i"], [0, 0]]), MatrixQ.from_rows([[1, 0], ["-1i", 1]]),
             MatrixQ.from_rows([[0, 0, 0], [0, 0, 0], [0, "7", 0]])]
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        cases.append(MatrixQ(n, n, [GaussianRational(rng.choice((0, 0, 0, 1)),
                                                     rng.choice((0, 0, 0, Fraction(1, 2))))
                                    if i != j or rng.random() < 0.5 else GaussianRational(3, 1)
                                    for i in range(n) for j in range(n)]))
    truths = set()
    for a in cases:
        for p in (1, math.inf):
            assert is_hermitian_exact(a, PNorm(p)) is real_diagonal(a)
        assert is_hermitian_exact(a, PNorm(2)) is (conj_transpose(a) == a)
        if by_diagonal(a) and not real_diagonal(a):  # a complex diagonal
            assert not any(is_hermitian_exact(a, PNorm(p)) for p in (1, 2, math.inf))
            truths.add("complex diagonal")
        truths.add(real_diagonal(a))
    assert truths == {True, False, "complex diagonal"}
    for a in (MatrixQ.zeros(2, 3), MatrixQ.zeros(0, 1)):
        for p in (1, 2, math.inf):
            with pytest.raises(ShapeError):
                is_hermitian_exact(a, PNorm(p))


def test_grid_is_built_once_per_shape():
    q, arr = MatrixQ.from_rows([[1, 1], [0, 0]]), np.array([[0, 1], [0, 0]], dtype=complex)
    for a in (q, arr):
        for p in (1, 2, math.inf):
            assert len({hermitian_check(a, PNorm(p)) for _ in range(3)}) == 1
    ts, w, r = pnorms._grid(1024, 2.0 * math.pi)
    assert pnorms._grid(1024, 2.0 * math.pi)[0] is ts
    for x in (ts, w, r):
        with pytest.raises(ValueError):
            x[0] = 0.0
    # an exception is never cached: a bad grid or t_max raises on every call
    for _ in range(3):
        with pytest.raises(ValueError, match="t_max"):
            hermitian_check(q, PNorm(1), t_max=1e308)
        with pytest.raises(ValueError, match="grid"):
            hermitian_check(q, PNorm(1), grid=1)


def test_series_scaling_past_float_range():
    # ||t a||_1 past 2^1023 (and past float range for the 3) reads
    # not_hermitian instead of overflowing the scaling step
    for a in ([[0, 1], [0, 0]], [[0, 3], [0, 0]]):
        rep = hermitian_check(np.array(a), PNorm(2), t_max=8.9e307)
        assert rep.verdict == "not_hermitian"


def test_idempotent_p2_closed_form_values():
    half = MatrixQ.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    assert hermitian_check(half, PNorm(2)).max_deviation == 0.0
    # s = 1: the peak sigma(2) - 1 = sqrt(2) sits at |t| = pi
    rep = hermitian_check(MatrixQ.from_rows([[1, 1], [0, 0]]), PNorm(2))
    assert rep.max_deviation == pytest.approx(math.sqrt(2.0), rel=1e-5)
    assert abs(rep.argmax_t) == pytest.approx(math.pi, rel=1e-3)


def test_huge_idempotent_every_p():
    # ||e + w q|| - 1 = |w| 1e100 up to rounding at every p; the grid's
    # largest |w| is 2 |sin(t/2)| at the point nearest |t| = pi
    q = MatrixQ.from_rows([[1, 10 ** 100], [0, 0]])
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1024)
    expected = 1e100 * np.abs(2.0 * np.sin(ts / 2.0)).max()
    for p in (1, 2, math.inf):
        rep = hermitian_check(q, PNorm(p))
        assert rep.verdict == "not_hermitian"
        assert rep.max_deviation == pytest.approx(expected, rel=1e-12)


def test_p2_idempotent_check_runs_one_spectral_norm(monkeypatch):
    slices, series = [], []
    real_norms, real_series = pnorms._op_norms, pnorms._expm_batch

    def norms(mats, norm):
        if norm.p == 2:
            slices.append(mats.shape[0])
        return real_norms(mats, norm)

    monkeypatch.setattr(pnorms, "_op_norms", norms)
    monkeypatch.setattr(pnorms, "_expm_batch",
                        lambda mats: series.append(1) or real_series(mats))
    rng = random.Random(20)
    for trial in range(6):
        hermitian_check(_conjugated_projection(rng, 2 + trial % 3), PNorm(2))
        assert slices == [1] and series == []
        slices.clear()
    hermitian_check(MatrixQ.from_rows([[0, 1], [0, 0]]), PNorm(2), grid=16)
    assert series == [1] and slices == [16]


def test_report_fields():
    rep = hermitian_check(np.eye(2), PNorm(1), grid=64, t_max=3.0)
    assert isinstance(rep, HermitianCheckReport)
    assert rep.grid_size == 64 and rep.t_max == 3.0
    assert rep.tol_pass == 1e-9 and rep.tol_fail == 1e-6
    assert rep.verdict in ("hermitian", "not_hermitian", "inconclusive")


# -- hermitian idempotents ----------------------------------------------------------


def test_is_hermitian_idempotent_examples():
    half = MatrixQ.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    truth, rep = is_hermitian_idempotent(half, PNorm(2))
    assert truth is True
    skew = MatrixQ.from_rows([[1, 1], [0, 0]])
    truth, rep = is_hermitian_idempotent(skew, PNorm(2))
    assert truth is False
    truth, rep = is_hermitian_idempotent(skew, PNorm(1))
    assert truth is False
    diag = MatrixQ.diagonal([1, 0])
    for p in (1, 2, math.inf):
        truth, rep = is_hermitian_idempotent(diag, PNorm(p))
        assert truth is True
    # not idempotent -> false regardless of norm behaviour
    truth, rep = is_hermitian_idempotent(MatrixQ.diagonal([2, 0]), PNorm(1))
    assert truth is False


def test_p2_truth_is_exact_never_inconclusive():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = MatrixQ(n, n, [
            GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                             Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            for _ in range(n * n)])
        truth, rep = is_hermitian_idempotent(m, PNorm(2))
        assert truth is not None
        expected = (m @ m == m) and (conj_transpose(m) == m)
        assert truth == expected
