"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every numeric tolerance is stated inline; exact checks use the
rational arithmetic directly.
"""

import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from epkit.battery import (
    GeneratorConfig,
    child_seed,
    gen_block_pair,
    gen_matrix,
    run_battery,
)
from epkit.characterizations import EPInstance, prop52_battery
from epkit.cli import main
from epkit.linalg import (
    MatrixQ,
    conj_transpose,
    inverse,
    is_invertible,
)
from epkit.pnorms import PNorm, expm, hermitian_check, is_hermitian_exact
from epkit.pseudoinverse import (
    is_ep,
    lemma38_witnesses,
    penrose_certificate,
    pinv,
)

from .oracles import brute_force_pinv, kron_left_mult

GOLDEN_DEVIATION = (1.0 + math.sqrt(5.0)) / 2.0 - 1.0


def report(n, detail):
    print(f"[acceptance] criterion {n}: PASS ({detail})")


def seeded_matrices(base, count, sizes, kinds=("arbitrary",), rank_cycle=False):
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        kind = kinds[i % len(kinds)]
        rank = None
        if rank_cycle and kind == "arbitrary" and i % 2 == 0:
            rank = (i // 2) % (n + 1)
        cfg = GeneratorConfig(seed=child_seed(base, i), n=n, kind=kind, rank=rank)
        out.append(gen_matrix(cfg))
    return out


def test_criterion_1_penrose_exactness():
    started = time.perf_counter()
    mats = seeded_matrices(9001, 500, sizes=[1, 2, 3, 4, 5, 6], rank_cycle=True)
    for a in mats:
        x = pinv(a)
        cert = penrose_certificate(a, x)
        assert cert.cond1_residual.is_zero()
        assert cert.cond2_residual.is_zero()
        assert cert.ax_hermitian and cert.xa_hermitian
        assert pinv(x) == a
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, f"500 instances, sizes 1-6, four exact conditions + involution, {elapsed:.1f}s")


def test_criterion_2_uniqueness_oracle():
    count = 0
    for i in range(150):
        n = 1 + i % 3
        kind = ["arbitrary", "ep", "arbitrary", "non_ep"][i % 4]
        if kind == "non_ep" and n < 2:
            kind = "arbitrary"
        a = gen_matrix(GeneratorConfig(seed=child_seed(9002, i), n=n, kind=kind))
        assert pinv(a) == brute_force_pinv(a)
        count += 1
    report(2, f"{count} instances of size <= 3 match the brute-force Penrose solve exactly")


def test_criterion_3_factor_identities():
    for i in range(200):
        n = 1 + i % 4
        inst = EPInstance.from_matrix(gen_matrix(GeneratorConfig(seed=child_seed(9003, i), n=n)))
        b, c, bd, cd = inst.b, inst.c, inst.b_dagger, inst.c_dagger
        assert inst.a_dagger == cd @ bd
        assert bd == c @ inst.a_dagger
        assert cd == inst.a_dagger @ b
        assert bd @ b == inst.e_r
        assert c @ cd == inst.e_r
    report(3, "200 instances, five factor identities exact")


def test_criterion_4_equivalence_batteries():
    started = time.perf_counter()
    kinds = ["ep", "ep", "non_ep", "arbitrary"]
    sizes = [2, 3, 4, 3]
    cfgs = [GeneratorConfig(seed=child_seed(9004, i), n=sizes[i % 4], kind=kinds[i % 4])
            for i in range(200)]
    mats = [gen_matrix(cfg) for cfg in cfgs]
    n_ep = sum(1 for a in mats if is_ep(a))
    assert n_ep >= 50 and (200 - n_ep) >= 50
    theorems = ("3.2", "3.4", "3.5", "3.7", "3.9", "3.10", "4.1", "4.2", "5.5", "5.6")
    for tid in theorems:
        rep = run_battery(tid, cfgs, seed=9004)
        assert rep.trials == 200
        assert not rep.failed, (tid, rep.equivalence_violations)
        assert rep.inconclusive_count == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, f"10 batteries x 200 instances ({n_ep} ep / {200 - n_ep} non-ep), "
              f"0 violations, 0 witness failures, {elapsed:.1f}s")


def test_criterion_5_invertible_norm_witnesses():
    for i in range(200):
        n = 1 + i % 4
        kind = ["arbitrary", "ep", "non_ep", "invertible"][i % 4]
        if kind == "non_ep" and n < 2:
            kind = "arbitrary"
        a = gen_matrix(GeneratorConfig(seed=child_seed(9005, i), n=n, kind=kind))
        x = pinv(a)
        inst = EPInstance.from_matrix(a)
        v, w = lemma38_witnesses(inst)
        a_star = conj_transpose(a)
        assert is_invertible(v) and is_invertible(w)
        assert a_star @ v == x
        assert w @ a_star == x
        assert (a @ a_star) @ v == inst.p and v @ (a @ a_star) == inst.p
        assert w @ (a_star @ a) == inst.q and (a_star @ a) @ w == inst.q
    report(5, "200 square instances, v and w invertible, five clauses exact")


def test_criterion_6_hermitian_checker():
    rng_seed = 9006
    # real diagonals pass every supported norm
    for i in range(10):
        diag = [Fraction(((i * 7 + j * 3) % 9) - 4) for j in range(1 + i % 4)]
        m = MatrixQ.diagonal(diag)
        for p in (1, 2, math.inf):
            rep = hermitian_check(m, PNorm(p))
            assert rep.verdict == "hermitian"
            assert rep.max_deviation < 1e-9

    # golden deviation of the order-two nilpotent at |t| = 1
    rep = hermitian_check(MatrixQ.from_rows([[0, 1], [0, 0]]), PNorm(2),
                          grid=513, t_max=1.0)
    assert rep.verdict == "not_hermitian"
    assert abs(rep.max_deviation - GOLDEN_DEVIATION) < 1e-6
    assert abs(abs(rep.argmax_t) - 1.0) < 1e-12

    # p = 2 verdicts match exact self-adjointness, zero inconclusives
    agreements = 0
    for i in range(200):
        n = 2 + i % 3
        a = gen_matrix(GeneratorConfig(seed=child_seed(rng_seed, i), n=n))
        if i % 2 == 0:
            a = a + conj_transpose(a)
        rep = hermitian_check(a, PNorm(2))
        assert rep.verdict != "inconclusive"
        exact = conj_transpose(a) == a
        assert (rep.verdict == "hermitian") == exact
        agreements += 1

    # added check: the same draws and diagonals scaled by 10^6 and 10^10,
    # where the series' rounding grows with ||t a||; every hermitian input
    # still passes and every verdict still matches the exact rule
    scaled = 0
    for scale in (10 ** 6, 10 ** 10):
        for i in range(40):
            n = 2 + i % 3
            a = gen_matrix(GeneratorConfig(seed=child_seed(rng_seed, i), n=n))
            if i % 2 == 0:
                a = a + conj_transpose(a)
            diag = MatrixQ.diagonal([Fraction(((i * 7 + j * 3) % 9) - 4) for j in range(n)])
            for m, norms in ((a.scale(scale), (2,)), (diag.scale(scale), (1, 2, math.inf))):
                for p in norms:
                    rep = hermitian_check(m, PNorm(p))
                    assert rep.verdict != "inconclusive"
                    assert (rep.verdict == "hermitian") == is_hermitian_exact(m, PNorm(p))
                    if rep.verdict == "hermitian":
                        assert rep.max_deviation <= 1e-12
                    scaled += 1
    report(6, f"diagonals pass p in {{1,2,inf}}, golden deviation {GOLDEN_DEVIATION:.10f} "
              f"reproduced at |t|=1, {agreements} p=2 verdicts agree with self-adjointness, "
              f"{scaled} verdicts at scales 1e6 and 1e10 agree with the exact rule")


def embed_block(top_left, n):
    k = top_left.rows
    return MatrixQ.from_rows(
        [[top_left.entry(i, j) if i < k and j < k else 0 for j in range(n)]
         for i in range(n)])


def test_criterion_7_projection_exponential_and_block_battery():
    # closed form: exp(i t P1) = P2 + e^{it} P1 for idempotent P1, P2 = e - P1
    t_grid = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 64)
    checked = 0
    for i in range(12):
        n = 2 + i % 3
        if i % 2 == 0:
            a = gen_matrix(GeneratorConfig(seed=child_seed(9007, i), n=n))
            p1 = a @ pinv(a)  # orthogonal projection
        else:
            t1, j = gen_block_pair(GeneratorConfig(seed=child_seed(9107, i), n=n))
            k = t1.rows
            p1 = j @ embed_block(MatrixQ.identity(k), n) @ inverse(j)  # oblique
        assert p1 @ p1 == p1
        arr = np.array(p1.to_complex_rows(), dtype=complex)
        eye = np.eye(n, dtype=complex)
        p2 = eye - arr
        for t in t_grid:
            lhs = expm(1j * t * arr)
            rhs = p2 + np.exp(1j * t) * arr
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        checked += 1

    # all-true for signed-permutation basis maps at p = 1
    rng = np.random.default_rng(2026)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        perm = rng.permutation(n)
        rows = [[int(rng.choice([1, -1])) if j == perm[i] else 0 for j in range(n)]
                for i in range(n)]
        j_mat = MatrixQ.from_rows(rows)
        k = int(rng.integers(1, n + 1))
        t1 = None
        while t1 is None or not is_invertible(t1):
            t1 = MatrixQ.from_rows(
                [[int(rng.integers(-3, 4)) for _ in range(k)] for _ in range(k)])
        results = prop52_battery(t1, j_mat, PNorm(1))
        assert [r.truth for r in results] == [True, True, True, True], trial

    # all-false for the shear at p = 2
    results = prop52_battery(MatrixQ.from_rows([[1]]),
                             MatrixQ.from_rows([[1, 1], [0, 1]]), PNorm(2))
    assert [r.truth for r in results] == [False, False, False, False]
    report(7, f"closed-form exponential on {checked} projections to 1e-12 over 64 t-points, "
              f"20 signed-permutation maps all-true at p=1, shear all-false at p=2")


def test_criterion_8_left_multiplication_lift():
    for i in range(100):
        a = gen_matrix(GeneratorConfig(seed=child_seed(9008, i), n=3,
                                       kind=["arbitrary", "ep", "non_ep"][i % 3]))
        assert is_ep(a) == is_ep(kron_left_mult(a))
    report(8, "100 random 3x3: ep(a) == ep(left-multiplication lift) exactly")


def test_criterion_9_cli_golden(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "0"]]}))

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    code1, pinv1 = run(["pinv", str(a_path)])
    code2, pinv2 = run(["pinv", str(a_path)])
    assert code1 == code2 == 0 and pinv1 == pinv2 and pinv1

    code1, ep1 = run(["ep", str(a_path)])
    code2, ep2 = run(["ep", str(a_path)])
    assert code1 == code2 == 1 and ep1 == ep2  # this matrix is not ep
    assert ep1.startswith("EP: no\n")

    bat_argv = ["battery", "--theorem", "3.7", "--trials", "200",
                "--size", "4", "--seed", "42"]
    code1, bat1 = run(bat_argv)
    code2, bat2 = run(bat_argv)
    assert code1 == code2 == 0
    scrub = re.compile(r'"elapsed": [0-9.eE+-]+')
    assert scrub.sub('"elapsed": X', bat1) == scrub.sub('"elapsed": X', bat2)
    obj = json.loads(bat1)
    assert obj["equivalence_violations"] == [] and obj["trials"] == 200
    report(9, "pinv/ep/battery outputs byte-stable across repeat runs "
              "(battery modulo elapsed); 3.7 x200 seed 42 exits 0")
