import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from epkit import battery
from epkit.battery import (
    KINDS,
    SUPPORTED_THEOREMS,
    BatteryReport,
    GeneratorConfig,
    GeneratorError,
    child_seed,
    gen_block_pair,
    gen_matrix,
    run_battery,
    splitmix64,
)
from epkit.characterizations import EPInstance, thm53_decompose
from epkit.cli import battery_configs
from epkit.exactnum import GaussianRational
from epkit.linalg import (
    MatrixQ,
    SingularMatrixError,
    conj_transpose,
    full_rank_factorize,
    is_invertible,
    rank,
    solve_exists,
)
from epkit.pnorms import PNorm
from epkit.pseudoinverse import factor_daggers, is_ep

from .oracles import (
    ep_by_projection,
    invertible_by_elimination,
    oracle_inverse,
    rand_rank_r_by_elimination,
)
from .test_characterizations import EXACT_BATTERIES
from .test_linalg import _kernel_recording
from .test_linalg_oracle import UNITS


def test_child_seed_deterministic_and_dispersed():
    assert child_seed(42, 0) == child_seed(42, 0)
    seen = {child_seed(42, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= s < 2**64 for s in seen)
    assert splitmix64(0) != splitmix64(1)


def test_config_validation():
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=1, n=-1)
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=1, n=2, entry_bound=0)
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=1, n=2, rank=5)
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=1, n=2, rank=-1)
    with pytest.raises(GeneratorError):
        GeneratorConfig(seed=1, n=2, kind="strange")
    GeneratorConfig(seed=1, n=0, rank=0)  # degenerate but legal


def test_same_seed_same_matrix():
    for kind in KINDS:
        cfg = GeneratorConfig(seed=987, n=3, kind=kind, rank=2 if kind == "non_ep" else None)
        assert gen_matrix(cfg) == gen_matrix(cfg)
    cfg = GeneratorConfig(seed=987, n=3)
    assert gen_matrix(cfg) != gen_matrix(GeneratorConfig(seed=988, n=3))


def test_generator_soundness():
    for i in range(40):
        n = 2 + i % 3
        a = gen_matrix(GeneratorConfig(seed=child_seed(1, i), n=n, kind="ep"))
        assert is_ep(a)
        a = gen_matrix(GeneratorConfig(seed=child_seed(2, i), n=n, kind="non_ep"))
        assert not is_ep(a)
        a = gen_matrix(GeneratorConfig(seed=child_seed(3, i), n=n, kind="invertible"))
        assert rank(a) == n and is_ep(a)


def test_rank_targeting():
    for i in range(12):
        n = 3
        r = i % 4
        a = gen_matrix(GeneratorConfig(seed=child_seed(4, i), n=n, rank=r, kind="arbitrary"))
        assert rank(a) == r
        if 0 < r < n:
            a = gen_matrix(GeneratorConfig(seed=child_seed(5, i), n=n, rank=r, kind="ep"))
            assert rank(a) == r and is_ep(a)
            a = gen_matrix(GeneratorConfig(seed=child_seed(6, i), n=n, rank=r, kind="non_ep"))
            assert rank(a) == r and not is_ep(a)


def test_ep_rank_edges():
    a = gen_matrix(GeneratorConfig(seed=11, n=3, rank=0, kind="ep"))
    assert a == MatrixQ.zeros(3, 3)
    a = gen_matrix(GeneratorConfig(seed=11, n=3, rank=3, kind="ep"))
    assert rank(a) == 3


def test_entry_bound_respected_on_plain_draws():
    cfg = GeneratorConfig(seed=13, n=4, entry_bound=2)
    a = gen_matrix(cfg)
    for i in range(4):
        for j in range(4):
            z = a.entry(i, j)
            assert abs(z.re) <= 2 and abs(z.im) <= 2


def test_infeasible_draws():
    with pytest.raises(GeneratorError):
        gen_matrix(GeneratorConfig(seed=1, n=1, kind="non_ep"))
    with pytest.raises(GeneratorError):
        gen_matrix(GeneratorConfig(seed=1, n=3, rank=0, kind="non_ep"))
    with pytest.raises(GeneratorError):
        gen_matrix(GeneratorConfig(seed=1, n=3, rank=3, kind="non_ep"))
    with pytest.raises(GeneratorError):
        gen_matrix(GeneratorConfig(seed=1, n=3, rank=2, kind="invertible"))
    with pytest.raises(GeneratorError):
        gen_matrix(GeneratorConfig(seed=1, n=9))


def test_validation_never_fires_bulk():
    # ten thousand seeded draws; construction validates every identity
    for i in range(10_000):
        n = 1 + i % 3
        a = gen_matrix(GeneratorConfig(seed=child_seed(77, i), n=n))
        inst = EPInstance.from_matrix(a)
        assert inst.a is a


def test_rejection_budget_exhausted(monkeypatch, capsys):
    from epkit.cli import main

    monkeypatch.setattr(battery, "_MAX_ATTEMPTS", 0)
    draws = {
        "invertible": "could not draw an invertible matrix of size 3",
        "ep": "could not draw a rank-2 projection of size 3",
        "non_ep": "could not draw a non-ep matrix of size 3",
        "arbitrary": "could not draw a rank-2 matrix of size 3",
    }
    for kind, message in draws.items():
        rank = 3 if kind == "invertible" else 2
        with pytest.raises(GeneratorError, match=message):
            gen_matrix(GeneratorConfig(seed=5, n=3, kind=kind, rank=rank))
    # seeds whose coin flip draws j as a permutation and as an invertible map
    messages = set()
    for seed in range(8):
        with pytest.raises(GeneratorError) as err:
            gen_block_pair(GeneratorConfig(seed=seed, n=3, rank=2))
        messages.add(str(err.value))
    assert messages == {"could not draw an invertible block of size 2",
                        "could not draw an invertible basis map of size 3"}
    assert main(["battery", "--theorem", "3.2", "--trials", "2", "--size", "3"]) == 2
    assert "could not draw" in capsys.readouterr().err


def test_gen_block_pair():
    for i in range(20):
        n = 2 + i % 3
        t1, j = gen_block_pair(GeneratorConfig(seed=child_seed(8, i), n=n))
        assert j.rows == n and is_invertible(j)
        assert t1.rows == t1.cols <= n and is_invertible(t1)
    t1, j = gen_block_pair(GeneratorConfig(seed=5, n=4, rank=2))
    assert t1.rows == 2
    with pytest.raises(GeneratorError):
        gen_block_pair(GeneratorConfig(seed=5, n=9))


def test_rand_matrix_matches_per_scalar_draws(monkeypatch):
    # the reference: one GaussianRational per entry, real part's numerator
    # and denominator first, then the imaginary part's
    def per_scalar(rng, rows, cols, bound, use_complex):
        def frac():
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        return MatrixQ(rows, cols, [GaussianRational(frac(), frac() if use_complex else 0)
                                    for _ in range(rows * cols)])

    def no_randint(*args):
        raise AssertionError("_rand_matrix draws through getrandbits, not randint")

    # bounds 8 and 16 make the denominator range a power of two, where
    # n.bit_length() and not (n - 1).bit_length() sets the bits per draw
    for seed in range(200):
        bound = 1 + seed % 16
        for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4), (5, 6), (6, 6)):
            for use_complex in (False, True):
                new, old = random.Random(seed), random.Random(seed)
                with monkeypatch.context() as patched:
                    patched.setattr(random.Random, "randint", no_randint)
                    got = battery._rand_matrix(new, rows, cols, bound, use_complex)
                assert got == per_scalar(old, rows, cols, bound, use_complex)
                assert new.getstate() == old.getstate()
                assert got.to_rows() == per_scalar(random.Random(seed), rows, cols, bound,
                                                   use_complex).to_rows()


def test_run_battery_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        run_battery("9.9", [])


def test_run_battery_empty():
    rep = run_battery("3.2", [])
    assert rep.trials == 0 and not rep.failed and rep.seed == 0
    assert rep.per_statement_truth_counts == {}


def test_run_battery_counts_and_uniformity():
    cfgs = [GeneratorConfig(seed=child_seed(21, i), n=3,
                            kind=["ep", "non_ep", "ep", "arbitrary"][i % 4])
            for i in range(12)]
    rep = run_battery("3.7", cfgs)
    assert rep.trials == 12
    assert not rep.failed
    assert rep.inconclusive_count == 0
    assert set(rep.per_statement_truth_counts) == {
        f"3.7.{s}" for s in
        "i ii iii iv v vi vii viii ix x xi xii xiii xiv xv xvi xvii xviii "
        "xix xx xxi xxii xxiii xxiv-a xxiv-b xxvi".split()}
    totals = {s: c["true"] + c["false"] for s, c in rep.per_statement_truth_counts.items()}
    assert set(totals.values()) == {12}
    truths = {s: c["true"] for s, c in rep.per_statement_truth_counts.items()}
    assert len(set(truths.values())) == 1  # uniform across statements


def test_run_battery_every_theorem():
    for tid in SUPPORTED_THEOREMS:
        cfgs = [GeneratorConfig(seed=child_seed(31, i), n=2 + i % 2,
                                kind="ep" if i % 2 else "arbitrary")
                for i in range(4)]
        rep = run_battery(tid, cfgs, seed=31)
        assert rep.theorem_id == tid and rep.trials == 4
        assert not rep.failed, tid
        assert rep.seed == 31


def test_no_matrix_is_both_rank_tested_and_inverted(monkeypatch):
    """An elimination of x against the identity already decides whether x is
    invertible, so no call also tests the rank of x."""
    import epkit.linalg as linalg

    reduced, rank_tested = [], []
    orig_rref, orig_rank = linalg.rref, linalg.rank
    monkeypatch.setattr(linalg, "rref", lambda a: reduced.append(a) or orig_rref(a))
    for module in (linalg, battery):
        monkeypatch.setattr(module, "rank", lambda a: rank_tested.append(a) or orig_rank(a))

    def assert_single_elimination(label, fn, arg):
        reduced.clear()
        rank_tested.clear()
        fn(arg)
        for aug in reduced:
            n = aug.rows
            if n == 0 or aug.cols != 2 * n:
                continue
            if aug.select_columns(range(n, 2 * n)) == MatrixQ.identity(n):
                x = aug.select_columns(range(n))
                assert x not in rank_tested, (label, x)

    batteries = {"3.9": battery.thm39_battery, "4.2": battery.thm42_battery,
                 "5.5": battery.thm55_battery}
    for tid, fn in batteries.items():
        for s in (1, 2):
            for cfg in battery_configs(tid, 8, 4, s):
                assert_single_elimination(tid, fn, gen_matrix(cfg))
    for i in range(12):
        cfg = GeneratorConfig(seed=child_seed(17, i), n=4, kind="ep")
        assert_single_elimination("ep draw", gen_matrix, cfg)


def _is_unit_monomial(x: MatrixQ) -> bool:
    """One nonzero per row and per column, each 1, -1, i or -i."""
    places = [(i, j, z) for i, row in enumerate(x.to_rows()) for j, z in enumerate(row)
              if not z.is_zero()]
    return (x.is_square and len(places) == x.rows and all(z in UNITS for *_, z in places)
            and len({i for i, *_ in places}) == len({j for _, j, _ in places}) == x.rows)


def test_prop52_eliminates_each_drawn_map_once(monkeypatch):
    """The generator accepts t1 and a random j by inverting them, and the
    battery reads those inverses back, so a 5.2 request tests no rank,
    reduces no matrix twice, inverts t1 and a random j by at most one
    elimination each and a unit monomial j by none.  A rejected (singular)
    draw is reduced too, and may equal an earlier one; those are not counted."""
    import epkit.linalg as linalg

    reduced, rank_tested, drawn = [], [], []
    _record_calls(monkeypatch, linalg.rref, reduced.append)
    _record_calls(monkeypatch, linalg.rank, rank_tested.append)
    orig_pair = battery.gen_block_pair
    monkeypatch.setattr(battery, "gen_block_pair",
                        lambda cfg, **kw: drawn.append(orig_pair(cfg, **kw)) or drawn[-1])

    def rejected(m: MatrixQ) -> bool:
        n = m.rows
        return (m.cols == 2 * n and m.select_columns(range(n, 2 * n)) == MatrixQ.identity(n)
                and oracle_inverse(m.select_columns(range(n)).to_rows()) is None)

    monomials = 0
    for n in range(6):
        for s in (1, 2):
            for cfg in battery_configs("5.2", 16, n, s):
                for p in (1, 2, math.inf):
                    reduced.clear()
                    drawn.clear()
                    rep = run_battery("5.2", [cfg], norm=PNorm(p))
                    assert rep.trials == 1 and not rep.failed
                    assert not rank_tested, (cfg, p)
                    kept = [m for m in reduced if not rejected(m)]
                    assert len(set(kept)) == len(kept), (cfg, p)
                    (t1, j), = drawn
                    inverted = [kept.count(x.hstack(MatrixQ.identity(x.rows))) if x.rows else 0
                                for x in (t1, j)]
                    assert inverted[0] <= 1 and inverted[1] <= 1, (cfg, p)
                    if _is_unit_monomial(j):
                        monomials += 1
                        assert j.rows == 0 or j.hstack(MatrixQ.identity(j.rows)) not in reduced
    assert monomials


def _record_calls(monkeypatch, orig, record):
    """Route every epkit module's reference to the function `orig` through a
    wrapper that passes the call's arguments to `record` first."""
    def wrapped(*args, **kw):
        record(*args, **kw)
        return orig(*args, **kw)
    for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "epkit"]:
        if getattr(module, orig.__name__, None) is orig:
            monkeypatch.setattr(module, orig.__name__, wrapped)


def _recording(monkeypatch):
    """Record rref operands and solve_exists systems in every epkit module,
    and keep the EPInstance each battery reads so a test can read its
    quantities.  Draw the inputs first: the ep generator's Gram solve is
    generation, not battery work."""
    import epkit.characterizations as chz
    import epkit.linalg as linalg

    reduced, solved, built = [], [], []
    _record_calls(monkeypatch, linalg.rref, reduced.append)
    _record_calls(monkeypatch, linalg.solve_exists,
                  lambda a, y, side="right": solved.append((a, y, side)))
    orig_instance = chz._instance
    monkeypatch.setattr(chz, "_instance", lambda a: built.append(orig_instance(a)) or built[-1])
    return reduced, solved, built


def _inner_recording(monkeypatch):
    """Record the systems decided through a verified {1}-inverse."""
    import epkit.characterizations as chz

    decided = []
    orig = chz._solve_inner
    monkeypatch.setattr(chz, "_solve_inner", lambda a, y, side, g:
                        decided.append((a, y, side)) or orig(a, y, side, g))
    return decided


def _table_systems(m, rows) -> set:
    """The (matrix, matrix, side) systems that the solvable rows name, on m."""
    return {(getattr(m, x), getattr(m, y), side)
            for row in rows if row.solve for x, y, side in row.solve.values()}


def _ep_draws(tid):
    return [gen_matrix(cfg) for s in (1, 2)
            for cfg in battery_configs(tid, 8, 4, s) if cfg.kind == "ep"]


def test_thm42_reads_vhat_what_invertibility_from_lemma38(monkeypatch):
    # lemma38_witnesses verified v v^-1 = e and w w^-1 = e, so w^-1 v and
    # v w^-1 are invertible without an elimination of their own
    draws = _ep_draws("4.2")
    reduced, _, built = _recording(monkeypatch)
    for a in draws:
        reduced.clear()
        battery.thm42_battery(a)
        m = built[-1]
        assert "vhat" in m.__dict__ and "what" in m.__dict__
        assert not any(x is m.vhat or x is m.what for x in reduced)


def test_thm56_never_reduces_the_identity(monkeypatch):
    # the square identity is its own inverse, so e e = e makes it injective,
    # right-injective and surjective without an elimination (a kernel would
    # reduce it with its columns reversed)
    draws = _ep_draws("5.6")
    reduced, _, built = _recording(monkeypatch)
    for a in draws:
        n = a.rows
        e = MatrixQ.identity(n)
        forms = (e, e.select_columns(range(n - 1, -1, -1)))
        reduced.clear()
        battery.thm56_battery(a)
        assert built[-1].__dict__["e_invertible"]  # the rows that test e ran
        assert not any(x in forms for x in reduced)


def test_exact_tables_read_every_inverse_without_elimination(monkeypatch):
    # once the factorization and the Gram inverses of b+ and c+ are held,
    # every exact table reads its inverses in closed form and decides its
    # systems through verified {1}-inverses: only the three factor subspaces
    # reduce, and nothing tests a rank or inverts
    import sys

    import epkit.characterizations as chz

    tables = {"3.2": chz._T32, "3.4": chz._T34, "3.5": chz._T35, "3.7": chz._T37,
              "3.9": chz._T39, "3.10": chz._T310, "4.1": chz._T41, "4.2": chz._T42,
              "5.5": chz._T55, "5.6": chz._T56}
    instances = {tid: [EPInstance(a=gen_matrix(cfg)) for s in (1, 2) for n in (0, 1, 2, 4)
                       for cfg in battery_configs(tid, 8, n, s)] for tid in tables}
    assert all(m.daggers for insts in instances.values() for m in insts)  # daggers read f
    called = []
    for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "epkit"]:
        for name in ("rank", "is_invertible", "solve_exists", "inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *args, name=name, **kw: called.append(name))
    ranks = set()
    for tid, rows in tables.items():
        for m in instances[tid]:
            results = chz._evaluate(tid, m, rows)
            ranks.add((tid, m.rank == 0, m.rank == m.a.rows, results[0].truth))
            assert called == [], tid
    # rank 0, full rank, and in between both EP and not, for each table
    assert ranks >= {(tid, z, f, t) for tid in tables for z, f, t in
                     ((True, False, True), (False, True, True),
                      (False, False, True), (False, False, False))}


def test_exact_batteries_never_reduce_on_a_validated_instance(monkeypatch):
    # every kernel, range, right kernel and row space a table reads is the
    # product fact rng_ok, 5.5's range basis is c* and its kernel basis is
    # read off the RREF c, so once validation has factorized a and eliminated
    # the two Grams, no battery and no thm53_decompose calls rref at all
    instances = {tid: [EPInstance.from_matrix(gen_matrix(cfg)) for s in (1, 2)
                       for n in (0, 1, 2, 4, 6) for cfg in battery_configs(tid, 8, n, s)]
                 for tid in EXACT_BATTERIES}
    # from_matrix hands each instance its daggers before any battery runs
    assert all("daggers" in m.__dict__ for insts in instances.values() for m in insts)
    reduced, _, _ = _recording(monkeypatch)
    ranks = set()
    for tid, fn in EXACT_BATTERIES.items():
        for m in instances[tid]:
            fn(m)
            thm53_decompose(m)
            assert reduced == [], tid
            ranks.add((tid, m.rank == 0, m.rank == m.a.rows, m.is_ep))
    # rank 0, full rank, and in between both EP and not, for each battery
    assert ranks >= {(tid, z, f, ep) for tid in EXACT_BATTERIES for z, f, ep in
                     ((True, False, True), (False, True, True),
                      (False, False, True), (False, False, False))}


def test_no_identity_is_inverted(monkeypatch):
    # a full-rank factorization a = b c with c = e needs no inverse of c c* = e;
    # `factor_daggers` eliminates each Gram g beside its factor y, [g | y]
    import epkit.characterizations as chz
    import epkit.linalg as linalg
    import epkit.pseudoinverse as pseudoinverse

    inverted = []
    orig = linalg.inverse
    for module in (linalg, chz):
        monkeypatch.setattr(module, "inverse", lambda a: inverted.append(a) or orig(a))
    times = pseudoinverse._inverse_times
    for module in (pseudoinverse, battery):  # battery reads an ep draw's b+ off [K | c]
        monkeypatch.setattr(module, "_inverse_times",
                            lambda g, y: inverted.append(g) or times(g, y))
    for tid in SUPPORTED_THEOREMS:
        for s in (1, 2):
            run_battery(tid, battery_configs(tid, 8, 4, s))
    # a 0 x 0 inverse returns at once, with no elimination
    assert any(a.rows for a in inverted)
    assert all(a != MatrixQ.identity(a.rows) for a in inverted if a.rows)


def test_thm41_solves_equal_systems_once(monkeypatch):
    # on an EP input p = q, so 4.1.x's (p, q) and (q, p) are one system; on a
    # hermitian involution a = a+, so (a, a+) and (a+, a) are one system too;
    # each is decided once, through its verified {1}-inverse
    involutions = [MatrixQ.diagonal([1, -1, 1, -1]), MatrixQ.from_rows([[0, 1], [1, 0]])]
    draws = _ep_draws("4.1") + involutions
    _, solved, built = _recording(monkeypatch)
    decided = _inner_recording(monkeypatch)
    for a in draws:
        decided.clear()
        battery.thm41_battery(a)
        m = built[-1]
        assert m.p == m.q
        assert sum(side == "left" and x == m.p and y == m.q for x, y, side in decided) == 1
        assert len(set(decided)) == len(decided)  # no system is decided twice
        if a in involutions:
            assert m.a_dagger == a
            assert sorted(side for x, y, side in decided if x == y == a) == ["left", "right"]
    assert solved == []


def test_thm37_decides_factor_systems_without_elimination(monkeypatch):
    # every 3.7 system has b, c, b+ or c+ as its coefficient, and b+ b = e_r
    # and c c+ = e_r are verified, so none reaches solve_exists (the only way
    # a system is eliminated); rank 0 gives b of n x 0 and b+ of 0 x n
    import epkit.characterizations as chz

    instances = [EPInstance.from_matrix(gen_matrix(cfg))
                 for s in (1, 2) for n in (0, 1, 4) for cfg in battery_configs("3.7", 8, n, s)]
    assert any(inst.rank == 0 for inst in instances)
    _, solved, _ = _recording(monkeypatch)
    decided = _inner_recording(monkeypatch)
    for inst in instances:
        decided.clear()
        battery.thm37_battery(inst)
        systems = _table_systems(inst, chz._T37)
        # a solvable row stops at its first inconsistent system
        assert decided and set(decided) <= systems
    assert solved == []


def test_thm4x_decides_every_system_without_elimination(monkeypatch):
    # at every rank, Penrose 1 and 2 and the idempotence of p and q make a+,
    # a, (a+)*, p and q {1}-inverses of a, a+, a*, p and q, and with Lemma
    # 3.8's v and w of a a* and a* a, so no 4.1 or 4.2 system reaches
    # solve_exists (the only way a system is eliminated).  4.1 decides each
    # of its systems through _solve_inner; a 4.2 system is decided so, or
    # read off its adjoint system (x m = y iff m* x* = y*) once that one is
    # decided, and every witness equals _solve_inner run on its own system
    import epkit.characterizations as chz

    tables = {"4.1": (battery.thm41_battery, chz._T41), "4.2": (battery.thm42_battery, chz._T42)}
    draws = {tid: [gen_matrix(cfg) for s in (1, 2) for n in (0, 1, 2, 4)
                   for cfg in battery_configs(tid, 8, n, s)] for tid in tables}
    reference = chz._solve_inner
    _, solved, built = _recording(monkeypatch)
    decided = _inner_recording(monkeypatch)
    flip = {"left": "right", "right": "left"}
    ranks, read = set(), 0
    for tid, (fn, rows) in tables.items():
        for a in draws[tid]:
            decided.clear()
            results = fn(a)
            m = built[-1]
            ranks.add((tid, m.rank == 0, m.rank == a.rows))
            systems = _table_systems(m, rows)
            adjoints = {(conj_transpose(x), conj_transpose(y), flip[side])
                        for x, y, side in decided}
            # a solvable row stops at its first inconsistent system
            assert decided and set(decided) <= systems
            if results[0].truth:
                if tid == "4.1":
                    assert set(decided) == systems
                else:
                    assert systems <= set(decided) | adjoints
                    read += len(systems - set(decided))
            for row, res in zip(rows, results):
                if row.solve is None:
                    continue
                direct = {key: reference(getattr(m, x), getattr(m, y), side,
                                         getattr(m, chz._INNER[x][0]))
                          for key, (x, y, side) in row.solve.items()}
                assert res.truth == all(x is not None for x in direct.values())
                assert res.witness == (direct if res.truth else None)
    assert read  # some 4.2 system was read off its adjoint
    assert solved == []
    # rank 0, full rank and in between, for each battery
    assert ranks >= {(tid, z, f) for tid in tables for z, f in
                     ((True, False), (False, True), (False, False))}


def test_prop52_forms_each_product_once(monkeypatch):
    # the hermitian check's closed form already proved q q = q, so the
    # hermitian-idempotent rule does not form q q again
    pairs = [gen_block_pair(cfg) for cfg in battery_configs("5.2", 16, 4, 7)]
    products = []
    orig = MatrixQ.__matmul__
    monkeypatch.setattr(MatrixQ, "__matmul__", lambda x, y: products.append(1) or orig(x, y))
    for p in (1, 2, math.inf):
        for t1, j in pairs:
            products.clear()
            battery.prop52_battery(t1, j, PNorm(p))
            assert len(products) == 16, (p, t1, j)


def test_run_battery_forms_each_product_once(monkeypatch):
    # within one request every product that reaches numpy has operands that
    # no earlier one had, by content, and none is an identity or zero: those
    # return at once, and an instance memoises the rest
    formed = _kernel_recording(monkeypatch)
    requests = [(tid, cfg) for tid in EXACT_BATTERIES for n in (4, 6) for s in (1, 2)
                for cfg in battery_configs(tid, 4, n, s)]
    total = 0
    for tid, cfg in requests:
        formed.clear()
        run_battery(tid, [cfg])
        assert len(set(formed)) == len(formed), (tid, cfg)
        assert not any(x.is_zero() or y.is_zero() or _is_identity(x) or _is_identity(y)
                       for x, y in formed), (tid, cfg)
        total += len(formed)
    assert total


def _is_identity(x: MatrixQ) -> bool:
    return x.is_square and x == MatrixQ.identity(x.rows)


def test_thm53_forms_q1_with_one_product(monkeypatch):
    # q1 = j (e + 0) j^-1 is the one product j1 j_inv1 of j's leading k
    # columns (the range basis) and j^-1's leading k rows
    products = []
    orig = MatrixQ.__matmul__
    monkeypatch.setattr(MatrixQ, "__matmul__",
                        lambda x, y: products.append((x, y, orig(x, y))) or products[-1][2])
    decomposed = 0
    for a in _ep_draws("5.5"):
        products.clear()
        t1, j, j_inv, q1 = thm53_decompose(a)
        k = t1.rows
        assert [(x, y) for x, y, out in products if out is q1] == [
            (j.select_columns(range(k)), j_inv.take_rows(k))]
        decomposed += 1
    assert decomposed


def test_thm53_reads_t1_through_the_range_basis_pivot_rows(monkeypatch):
    # on EP input c* is the canonical range basis B, with identity pivot rows
    # P, and a c* = c* t1, so t1 = a[P, :] c* is read off those rows: no
    # system is decided, and t1 is the one solution of c* x = a c* that the
    # elimination reference gives; rank 0 gives B of n x 0
    draws = [MatrixQ.zeros(3, 3)] + _ep_draws("5.5")
    _, _, built = _recording(monkeypatch)
    decided = _inner_recording(monkeypatch)
    for a in draws:
        t1 = thm53_decompose(a)[0]
        m = built[-1]
        c_star = m.c_star
        assert c_star.select_rows(m.c_pivots) == MatrixQ.identity(c_star.cols)
        assert c_star @ t1 == a @ c_star
        assert t1 == solve_exists(c_star, a @ c_star)
    assert decided == []


def test_run_battery_factorizes_each_draw_once(monkeypatch):
    # the generator's acceptance tests read the validated instance it draws,
    # and run_battery hands that instance to the battery, so the drawn a is
    # factorized once and never rank-tested or EP-tested on its own.  An
    # invertible or unranked arbitrary draw is eliminated once, as [a | e],
    # by is_invertible, whose inverse gives the factorization a = a e and
    # its daggers; a unit monomial a, 0x0 included, is inverted as its
    # adjoint with none.  A singular unranked draw then goes through
    # from_matrix, which factorizes a off rref(a).  Every other draw (ep,
    # non_ep, arbitrary with a rank) is factorized from a factor it was
    # drawn with, so neither a nor [a | e] is reduced
    import epkit.linalg as linalg
    import epkit.pseudoinverse as pseudoinverse

    def unranked(master, n, bound, accept):
        return next(cfg for cfg in (GeneratorConfig(seed=child_seed(master, i), n=n,
                                                    entry_bound=bound) for i in range(200))
                    if accept(gen_matrix(cfg)))
    cfgs = [cfg for n in (0, 1, 2, 4) for cfg in battery_configs("3.7", 4, n, 5)]
    cfgs += [GeneratorConfig(seed=child_seed(5, i), n=3, kind=kind, rank=rank)
             for i, (kind, rank) in enumerate((("invertible", None), ("arbitrary", 2),
                                               ("ep", 1), ("non_ep", 2)))]
    cfgs += [unranked(6, 3, 1, lambda a: rank(a) < 3), unranked(7, 2, 1, _is_unit_monomial)]
    requests = [(tid, cfg, gen_matrix(cfg)) for tid in SUPPORTED_THEOREMS if tid != "5.2"
                for cfg in cfgs]
    calls = []
    for orig in (linalg.full_rank_factorize, linalg.rank, pseudoinverse.is_ep, linalg.rref):
        _record_calls(monkeypatch, orig, lambda a, name=orig.__name__: calls.append((name, a)))
    routes = set()
    for tid, cfg, a in requests:
        a_e = a.hstack(MatrixQ.identity(a.rows))
        inverted = cfg.kind == "invertible" or cfg.kind == "arbitrary" and cfg.rank is None
        route = ("other" if not inverted
                 else "unit monomial" if _is_unit_monomial(a)
                 else "singular" if rank(a) < a.rows else "full rank")
        calls.clear()
        run_battery(tid, [cfg])
        expected = {"full rank": [("rref", a_e)],
                    "singular": [("rref", a_e), ("full_rank_factorize", a), ("rref", a)]}
        # at size 0 an ep draw's basis m0* is as empty as a and [a | e], so
        # only its rref cannot be told from theirs
        assert [(name, x) for name, x in calls
                if x in (a, a_e) and (a.rows or name != "rref")] == expected.get(route, []), (
                    tid, cfg)
        routes.add(route)
    assert {cfg.kind for cfg in cfgs} == set(KINDS)
    assert routes == {"other", "unit monomial", "singular", "full rank"}


def _seed_flipping(master: int, complex_: bool) -> int:
    """The first child seed of master whose generator's first coin flip,
    the entry field's, gives complex entries exactly when complex_."""
    return next(seed for seed in (child_seed(master, i) for i in range(64))
                if (random.Random(seed).random() < 0.5) == complex_)


def test_rank_r_draws_are_factorized_from_their_drawn_factors(monkeypatch):
    # a ranked draw a = left right takes c from the RREF of right and an ep
    # draw from that of m0*, with b as a's pivot columns, and an invertible
    # draw is a = a e with daggers a^-1 and e; each must give what
    # eliminating a gives, leave the rng where the eliminating route leaves
    # it, and reject a rank-deficient a (bound 1 draws many): a ranked draw
    # through b's singular Gram, an invertible one at is_invertible, an ep
    # draw through a singular K = c m c+
    import epkit.characterizations as chz

    singular = []
    orig = chz.factor_daggers

    def daggers(f):
        try:
            return orig(f)
        except SingularMatrixError:
            singular.append(f)
            raise
    monkeypatch.setattr(chz, "factor_daggers", daggers)
    for n in range(2, 7):
        for r in range(1, n):
            for bound in (1, 3):
                for use_complex in (False, True):
                    for s in range(8):
                        seed = child_seed(n * 1000 + r * 100 + bound * 10 + use_complex, s)
                        drawn, parent = random.Random(seed), random.Random(seed)
                        inst = battery._rand_rank_r(drawn, n, r, bound, use_complex)
                        ref = rand_rank_r_by_elimination(parent, n, r, bound, use_complex)
                        assert inst.a == ref.a and drawn.getstate() == parent.getstate()
                        f = full_rank_factorize(inst.a)
                        assert (inst.b, inst.c, inst.rank) == (f.b, f.c, f.rank) == (
                            ref.b, ref.c, r)
    assert singular and all(rank(f.b) < f.rank for f in singular)
    for kind, rank_of in (("non_ep", lambda n, i: None), ("non_ep", lambda n, i: 1 + i % (n - 1)),
                          ("arbitrary", lambda n, i: i % (n + 1))):
        for n in range(2, 7):
            for bound in (1, 3):
                for i in range(6):
                    cfg = GeneratorConfig(seed=child_seed(77 * n + bound, i), n=n,
                                          rank=rank_of(n, i), entry_bound=bound, kind=kind)
                    inst = battery.gen_instance(cfg)
                    f = full_rank_factorize(inst.a)
                    assert (inst.b, inst.c, inst.rank) == (f.b, f.c, f.rank), cfg
    # ep and invertible draws against the routes they took before they were
    # built from drawn factors, with the generator's own rng captured: an
    # invertible draw eliminated each candidate, an ep draw formed the
    # projection m0 (m0* m0)^-1 m0* and eliminated each candidate proj m proj.
    # An ep draw is a b c with its daggers held, and rejects a candidate
    # through a singular K = c m c+, never through b's Gram; an invertible
    # draw rejects a candidate at is_invertible, never through either
    made = []
    monkeypatch.setattr(battery, "random", SimpleNamespace(
        Random=lambda seed: made.append(random.Random(seed)) or made[-1]))
    singular_k = []
    times = battery._inverse_times

    def k_inverse_times(k, y):
        try:
            return times(k, y)
        except SingularMatrixError:
            singular_k.append(k)
            raise
    monkeypatch.setattr(battery, "_inverse_times", k_inverse_times)
    singular_a = []
    accept = battery.is_invertible
    monkeypatch.setattr(battery, "is_invertible",
                        lambda a: accept(a) or singular_a.append(a) or False)
    seen = set()
    for kind in ("ep", "invertible"):
        for n in range(7):
            for rank_ in [None, *(range(n + 1) if kind == "ep" else [n])]:
                for bound in (1, 3):
                    for complex_ in (False, True):
                        for s in range(2):
                            cfg = GeneratorConfig(seed=_seed_flipping(n * 100 + bound * 10 + s,
                                                                      complex_),
                                                  n=n, rank=rank_, entry_bound=bound, kind=kind)
                            singular.clear()
                            singular_k.clear()
                            singular_a.clear()
                            inst = battery.gen_instance(cfg)
                            if kind == "ep":
                                a, f, daggers, parent = ep_by_projection(cfg)
                                assert (inst.a, inst.f, inst.daggers) == (a, f, daggers), cfg
                                assert not singular and not singular_a
                                assert all(rank(k) < k.rows for k in singular_k)
                            else:
                                ref, parent = invertible_by_elimination(cfg)
                                assert inst.a == ref.a and not singular and not singular_k, cfg
                                f = full_rank_factorize(inst.a)
                                assert (inst.b, inst.c, inst.rank) == (f.b, f.c, f.rank) == (
                                    ref.b, ref.c, ref.rank), cfg
                                assert inst.daggers == factor_daggers(f) == ref.daggers, cfg
                                assert all(rank(a) < a.rows for a in singular_a), cfg
                            assert made[-1].getstate() == parent.getstate(), cfg
                            seen.add((kind, bound, complex_,
                                      bool(singular or singular_k or singular_a)))
    assert seen >= {(kind, bound, complex_, False) for kind in ("ep", "invertible")
                    for bound in (1, 3) for complex_ in (False, True)}
    assert {kind for kind, _, _, rejected in seen if rejected} == {"ep", "invertible"}
    with pytest.raises(GeneratorError, match="rank = size"):
        battery.gen_instance(GeneratorConfig(seed=1, n=3, rank=2, kind="invertible"))


def test_work_per_instance_is_pinned(monkeypatch):
    # products reaching numpy and rref calls over battery_configs(id, 24, 4, 11),
    # generation included, as upper bounds: validation checks a generating
    # set of the four Penrose conditions, Lemma 3.8 four identities, every
    # draw but an unranked arbitrary one is factorized from a factor it was
    # drawn with, an ep draw hands over the daggers c+ and b+ = K^-1 c that
    # its draw reads off [c c* | c] and [K | c], an unranked arbitrary one
    # of full rank a^-1 and e, a^-1 off the one rref of [a | e] by which
    # is_invertible accepted it (test_invertible_draws_pin_their_work), the
    # one subspace fact is the product b = c* b[P, :], which trades one
    # product per rank-deficient draw for up to three eliminations, 5.5
    # reads its kernel basis off the RREF c, it selects pivot rows rather
    # than multiplying by them, so t1 = a[P, :] c* is one product and no
    # solve, 3.5 and 3.7 check the r x r inverse z of u by u z = e alone,
    # and 4.2 reads v's and xiii's systems and w as the adjoints of iii's,
    # x's and v-hat.  A change that brings back a check which follows from
    # the others, or re-forms a product, raises a count past its bound
    import epkit.linalg as linalg

    counts = {"product": 0, "rref": 0}
    product = linalg._product

    def counted(a, b):
        counts["product"] += 1
        return product(a, b)
    monkeypatch.setattr(linalg, "_product", counted)
    _record_calls(monkeypatch, linalg.rref, lambda a: counts.__setitem__("rref", counts["rref"] + 1))
    bounds = {"3.2": (167, 56), "3.4": (204, 56), "3.5": (245, 56), "3.7": (423, 56),
              "3.9": (338, 56), "3.10": (329, 56), "4.1": (397, 56), "4.2": (802, 56),
              "5.5": (247, 56), "5.6": (167, 56)}
    assert set(bounds) == set(EXACT_BATTERIES)
    for tid, (products, rrefs) in bounds.items():
        counts.update(product=0, rref=0)
        run_battery(tid, battery_configs(tid, 24, 4, 11))
        assert counts["product"] <= products and counts["rref"] <= rrefs, (tid, counts)


def test_invertible_draws_pin_their_work(monkeypatch):
    # an invertible draw, and an unranked arbitrary one of full rank, is
    # accepted by is_invertible, whose one rref of [a | e] per candidate
    # leaves a^-1 on the candidate, and is the instance a = a e with daggers
    # a^-1 and e.  Its validation then makes two products, b+ b = a^-1 a and
    # p = a a^-1; a = a e, c c+ = e e, q and a+ = e a^-1 need none.  Over a
    # fixed prefix of seeds, so a change that reduces e, forms a Gram or
    # eliminates an accepted draw again raises a count
    import epkit.linalg as linalg

    counts = {"product": 0, "rref": 0}
    product = linalg._product

    def counted(a, b):
        counts["product"] += 1
        return product(a, b)
    monkeypatch.setattr(linalg, "_product", counted)
    _record_calls(monkeypatch, linalg.rref, lambda a: counts.__setitem__("rref", counts["rref"] + 1))
    candidates = []
    accept = battery.is_invertible
    monkeypatch.setattr(battery, "is_invertible", lambda a: candidates.append(a) or accept(a))
    rejected = full_rank = 0
    for n in (4, 6):
        for s in range(300):
            for kind in ("invertible", "arbitrary"):
                counts.update(product=0, rref=0)
                candidates.clear()
                inst = battery.gen_instance(GeneratorConfig(seed=child_seed(n, s), n=n, kind=kind))
                assert not any(_is_unit_monomial(a) for a in candidates), (n, s, kind)
                if kind == "invertible":
                    assert counts == {"product": 2, "rref": len(candidates)}, (n, s, counts)
                    rejected += len(candidates) - 1
                elif inst.rank == n:
                    assert candidates == [inst.a], (n, s)
                    assert counts == {"product": 2, "rref": 1}, (n, s, counts)
                    full_rank += 1
    assert rejected and full_rank


def test_no_request_eliminates_a_subspace(monkeypatch):
    # every kernel and range criterion is the one product b = c* b[P, :], and
    # 5.5's kernel basis is read off the RREF c, so no request, generation
    # included, calls kernel or range_space
    import epkit.linalg as linalg

    calls = []
    for orig in (linalg.kernel, linalg.range_space):
        _record_calls(monkeypatch, orig,
                      lambda a, name=orig.__name__: calls.append((name, a)))
    _, _, built = _recording(monkeypatch)
    ep_deficient = 0
    for tid in EXACT_BATTERIES:
        for n in (0, 1, 4):
            for cfg in battery_configs(tid, 24, n, 11):
                run_battery(tid, [cfg])
                m = built[-1]
                assert calls == [], (tid, cfg)
                ep_deficient += tid == "5.5" and m.is_ep and m.rank < n
    assert ep_deficient


def test_run_battery_5_2_norms():
    cfgs = [GeneratorConfig(seed=child_seed(41, i), n=3) for i in range(6)]
    rep2 = run_battery("5.2", cfgs, norm=PNorm(2))
    rep1 = run_battery("5.2", cfgs, norm=PNorm(1))
    assert rep2.trials == rep1.trials == 6
    assert not rep2.failed
    assert rep2.inconclusive_count == 0  # p = 2 decides exactly
    assert set(rep2.per_statement_truth_counts) == {"5.2.i", "5.2.ii", "5.2.iii", "5.2.iv"}


def test_run_battery_5_2_empty_ambient_every_norm():
    # an empty diagonal is vacuously 0/1, so every p gives the p = 2 verdict
    for s in (0, 1, 2):
        counts = []
        for p in (1, 2, math.inf):
            rep = run_battery("5.2", battery_configs("5.2", 4, 0, s), norm=PNorm(p))
            assert rep.trials == 4 and not rep.failed
            counts.append(rep.per_statement_truth_counts)
        assert counts[0] == counts[1] == counts[2]


def test_report_determinism_modulo_elapsed():
    cfgs = [GeneratorConfig(seed=child_seed(51, i), n=3) for i in range(5)]
    d1 = run_battery("3.5", cfgs).to_dict()
    d2 = run_battery("3.5", cfgs).to_dict()
    d1.pop("elapsed"), d2.pop("elapsed")
    assert d1 == d2


def test_report_json_key_order():
    rep = BatteryReport(theorem_id="3.2", trials=0, per_statement_truth_counts={},
                        equivalence_violations=(), inconclusive_count=0,
                        seed=7, elapsed=0.25)
    obj = json.loads(rep.to_json())
    assert list(obj) == ["theorem_id", "trials", "per_statement_truth_counts",
                         "equivalence_violations", "inconclusive_count",
                         "seed", "failed", "elapsed"]
    assert obj["failed"] is False
    assert rep.to_json().endswith("\n")


def test_violation_recording():
    # a manufactured violation: feed statements from different matrices into
    # the aggregation by running a battery whose statements cannot disagree,
    # then checking the recorded shape on a crafted report instead
    rep = BatteryReport(theorem_id="3.2", trials=2, per_statement_truth_counts={},
                        equivalence_violations=({"instance": 1, "pair": ["3.2.i", "3.2.iii"]},),
                        inconclusive_count=0, seed=0, elapsed=0.0)
    assert rep.failed
    assert json.loads(rep.to_json())["equivalence_violations"] == [
        {"instance": 1, "pair": ["3.2.i", "3.2.iii"]}]
