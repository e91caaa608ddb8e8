"""Pinned battery output, memo isolation and the verify-once rule.

The pinning test hashes, per battery id, the statement id, truth value,
evaluation route, sorted witness keys and note of every result over a fixed
set of inputs: `battery_configs(tid, 8, n, 2024)` at n = 3 and 4 plus three
named 2×2 matrices, and for 5.2 the `gen_block_pair` equivalents at
p = 1, 2 and inf.  The digests were recorded before the batteries became
statement tables and must not move; only 5.2 was re-recorded, when its
statements became exact at every p and again when the grid of an exact
idempotent became the closed form of exp(itq), each time after a per-input
comparison showed every truth, route and witness key unchanged and only
notes moving (the second time only their `.3e` deviation text).  Since the
5.2 notes quote grid deviations, 5.2 also has a note-free pin
(`PINNED_52_NOTE_FREE`) over the same pairs and p values; `PINNED["5.2"]`
was re-recorded once more, when the p = 2 grid norm of an idempotent became
closed-form, with that note-free digest unchanged.
"""

import dis
import hashlib
import json
import math
import pickle
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings

from epkit import characterizations as chz
from epkit.battery import gen_block_pair, gen_matrix
from epkit.characterizations import EPInstance, prop52_battery, thm53_decompose
from epkit.cli import battery_configs
from epkit.linalg import InternalConsistencyError, MatrixQ, conj_transpose
from epkit.pnorms import PNorm

from .test_characterizations import EXACT_BATTERIES
from .test_factor_subspaces import square_matrices
from .test_linalg import _kernel_recording

NILPOTENT = MatrixQ.from_rows([[0, 1], [0, 0]])
DIAG20 = MatrixQ.diagonal([2, 0])
SHEAR = MatrixQ.from_rows([[1, 1], [0, 1]])

PINNED = {
    "3.2": "95dd830a6ee24a7414bf90cbb505bb3b1db9a6b3e5699800adebf57575ff2d13",
    "3.4": "1fa68cb31aa8bb15f4bf51619d9a6f0c57900498cdd4ea7241f642d38a1fb29a",
    "3.5": "7ae5ed26e0211761f91d8ed981f9f3312aa3a98b535afa46071f1a4658b6e63d",
    "3.7": "fb81a3cb6d9346cfec83aa7dbc342728315c5db84b0d3c129408ade548d0c7e0",
    "3.9": "f18c57b05781a008699a084a6ff814fcddcee37d702b2adad08e9bf1d60daa67",
    "3.10": "47b82300692dd5e6be01057c835877cfd4c3f45e7e448393fc8c7922584812d6",
    "4.1": "5460cb0ead775c73776e41553603ac1363d19747c14ce8512506261bfd1d58d5",
    "4.2": "eb9f70538c67dadcefefbe19f80763700c43a2cf177b525f59b42311435d4d33",
    "5.2": "f92e6a0edf3af80f3788479aad3dbe43ceaca63f694c0cc4746865eea6ae6d5f",
    "5.5": "c58a534a1fd053f3447d5faa3674edc3ae25bc9ad20cc72182154e5ebb08f427",
    "5.6": "125ba1e425935891a65676e2201727e55da5982c039f553f9754a6dab664e016",
}

# truth, route and sorted witness keys of the 5.2 results, without the notes
PINNED_52_NOTE_FREE = "47bbacd8bca9d4da444a90ac0d79ff5f584596957ccb7408cb44cc8b68fe963c"


def _shape(results, notes=True) -> list:
    return [[r.statement_id, r.truth, r.evaluation_route,
             sorted(r.witness) if r.witness is not None else None]
            + ([r.note] if notes else [])
            for r in results]


def _digest(runs) -> str:
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def _matrices(tid):
    out = [gen_matrix(cfg) for n in (3, 4) for cfg in battery_configs(tid, 8, n, 2024)]
    return out + [NILPOTENT, DIAG20, SHEAR]


def test_pinned_statement_digests():
    got = {tid: _digest([_shape(battery(a)) for a in _matrices(tid)])
           for tid, battery in EXACT_BATTERIES.items()}
    pairs = [gen_block_pair(cfg) for n in (3, 4)
             for cfg in battery_configs("5.2", 8, n, 2024)]
    results = [prop52_battery(t1, j, PNorm(p)) for t1, j in pairs for p in (1, 2, math.inf)]
    got["5.2"] = _digest([_shape(res) for res in results])
    assert _digest([_shape(res, notes=False) for res in results]) == PINNED_52_NOTE_FREE
    assert got == PINNED


def _isolation_inputs():
    return [gen_matrix(cfg) for cfg in battery_configs("3.7", 8, 3, 31)] + [NILPOTENT, DIAG20, SHEAR]


def test_memo_isolation_instance_batteries(monkeypatch):
    # all ten batteries share one warm instance, in either order: what one
    # battery leaves in the memo never changes another's answers
    formed = _kernel_recording(monkeypatch)
    for a in _isolation_inputs():
        fresh = {tid: fn(EPInstance.from_matrix(a)) for tid, fn in EXACT_BATTERIES.items()}
        formed.clear()
        first = EPInstance.from_matrix(a)
        forward = {tid: fn(first) for tid, fn in EXACT_BATTERIES.items()}
        by_first = list(formed)
        second = EPInstance.from_matrix(a)
        backward = {tid: EXACT_BATTERIES[tid](second) for tid in reversed(EXACT_BATTERIES)}
        assert forward == fresh and backward == fresh
        # each instance forms its own products, each once, whatever another
        # instance of the same matrix already formed
        formed.clear()
        third = EPInstance.from_matrix(a)
        assert {tid: fn(third) for tid, fn in EXACT_BATTERIES.items()} == fresh
        assert formed == by_first and len(set(formed)) == len(formed)
        # outside any instance, and inside another instance's memo, a product
        # the instances memoised is formed again; inside its own it is not
        for x, y in by_first[:3]:
            formed.clear()
            x @ y
            with EPInstance(a=a).memoised():
                x @ y
            with first.memoised():
                x @ y
            assert formed == [(x, y), (x, y)]
        # a cold and a warm instance, and the matrix itself, survive pickling
        # with the same answers
        for held in (EPInstance.from_matrix(a), first, second, a):
            loaded = pickle.loads(pickle.dumps(held))
            assert loaded == held
            assert {tid: fn(loaded) for tid, fn in EXACT_BATTERIES.items()} == fresh


def test_every_exact_battery_reads_a_matrix_or_its_instance_alike():
    # a square matrix and its validated instance are read alike, so both
    # give the same results, 3.x included
    batteries = {**EXACT_BATTERIES, "5.3": thm53_decompose}
    inputs = [gen_matrix(cfg) for n in (0, 1, 2, 4) for cfg in battery_configs("3.7", 6, n, 7)]
    assert {a.rows for a in inputs} == {0, 1, 2, 4}
    for a in inputs:
        for tid, fn in batteries.items():
            assert fn(a) == fn(EPInstance.from_matrix(a)), (tid, a)


_TABLES = {"3.2": chz._T32, "3.4": chz._T34, "3.5": chz._T35, "3.7": chz._T37,
           "3.9": chz._T39, "3.10": chz._T310, "4.1": chz._T41, "4.2": chz._T42,
           "5.5": chz._T55, "5.6": chz._T56}


def test_every_listed_check_is_required():
    # an existential row reports its witness only after each identity on its
    # check list holds; a memoised identity forced false must raise under the
    # statement id and the identity's name, even though the criterion is true
    for tid, rows in _TABLES.items():
        for row in rows:
            for name in row.checks:
                # _decide reads the checks only once the criterion held, so
                # a check that repeats it could never fail
                assert name not in row.crit, (tid, row.stmt, name)
                if tid.startswith("3."):
                    m = EPInstance.from_matrix(DIAG20)
                else:
                    m = EPInstance(a=DIAG20)
                m.__dict__[name] = False
                with pytest.raises(InternalConsistencyError,
                                   match=re.escape(f"{tid}.{row.stmt} {name}")):
                    chz._evaluate(tid, m, (row,))


def test_every_block_identity_is_required():
    # thm53_decompose returns its blocks only after each identity of
    # _BLOCKS holds; one forced false on a validated EP instance raises
    # under "5.3 <name>"
    assert thm53_decompose(EPInstance.from_matrix(DIAG20)) is not None
    for name in chz._BLOCKS:
        m = EPInstance.from_matrix(DIAG20)
        m.__dict__[name] = False
        with pytest.raises(InternalConsistencyError, match=re.escape(f"5.3 {name}")):
            thm53_decompose(m)


def test_every_battery_validates_the_instance_it_is_handed():
    # a raw EPInstance is validated like a matrix: one holding a wrong p
    # raises the certificate error instead of giving a mixed battery
    for fn in (*EXACT_BATTERIES.values(), thm53_decompose):
        m = EPInstance(a=DIAG20)
        m.__dict__["p"] = MatrixQ.from_rows([[1, 1], [0, 0]])
        with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
            fn(m)


def _bare_rename(define) -> bool:
    """Whether a table entry only loads one attribute of m and returns it."""
    ops = [i.opname for i in dis.get_instructions(define)
           if i.opname not in ("RESUME", "NOP", "CACHE")]
    return (len(ops) == 3 and ops[0].startswith("LOAD_FAST") and ops[1] == "LOAD_ATTR"
            and ops[2] == "RETURN_VALUE")


def test_every_table_name_is_a_quantity_and_none_a_bare_rename():
    # the rows and _INNER read only names that _QUANTITIES defines (or the
    # instance's one field, a), and no entry there is another name for one
    # value: a kernel or range criterion is read under its fact's own name
    known = set(chz._QUANTITIES) | {"a"}
    for tid, rows in _TABLES.items():
        for row in rows:
            assert all(isinstance(name, str) for name in row.checks), (tid, row.stmt)
            read = {*row.crit, *row.checks,
                    *(row.witness or {}).values(),
                    *(x for system in (row.solve or {}).values() for x in system[:2])}
            assert read <= known, (tid, row.stmt, read - known)
    for coefficient, (g, guard) in chz._INNER.items():
        assert {coefficient, g, guard} <= known, coefficient
    assert [name for name, define in chz._QUANTITIES.items() if _bare_rename(define)] == []
    # the detector itself: a lambda that only reads one attribute is a rename,
    # one that reads an attribute of an attribute or calls is not
    assert _bare_rename(lambda m: m.rng_ok)
    assert not _bare_rename(chz._QUANTITIES["b"]) and not _bare_rename(chz._QUANTITIES["rng_ok"])


def test_a_held_p_that_is_not_bb_dagger_fails_mp_generators(monkeypatch):
    # _validate requires mp_generators, which reads the p the instance holds;
    # a held p other than b b+ is caught under the certificate's message
    monkeypatch.setitem(chz._QUANTITIES, "p", lambda m: MatrixQ.zeros(2, 2))
    with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
        EPInstance.from_matrix(DIAG20)


def test_certificate_catches_another_left_inverse_of_b(monkeypatch):
    # b+ = c a+ and c+ = a+ b are not checked apart, since they follow from
    # b+ b = e and c c+ = e; a held b+ that is another left inverse of b
    # passes every generator but one, p = b b+ hermitian, so the certificate
    # still catches it
    held = MatrixQ.from_rows([["1/2", 1]])     # DIAG20 = b c, b = [2; 0], c = [1 0]
    monkeypatch.setitem(chz._QUANTITIES, "b_dagger", lambda m: held)
    m = EPInstance(a=DIAG20)
    assert m.bc == m.a and m.bd_b_is_e and m.c_cd_is_e and m.q == m.c_dagger @ m.c
    assert m.a_dagger == m.c_dagger @ m.b_dagger and conj_transpose(m.q) == m.q
    assert conj_transpose(m.p) != m.p
    with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
        EPInstance.from_matrix(DIAG20)


def test_4x_5x_batteries_certify_the_held_pseudoinverse(monkeypatch):
    # every exact battery, 4.x and 5.x as much as 3.x, reads a validated
    # instance: an a+ that passes a a+ = b b+ and a+ a = c+ c but not
    # Penrose 2 (a+ a a+ = a+) is caught under the certificate's message
    held = MatrixQ.from_rows([["1/2", 0], [0, 1]])     # of DIAG20; a+ is diag(1/2, 0)
    monkeypatch.setitem(chz._QUANTITIES, "a_dagger", lambda m: held)
    for fn in (*EXACT_BATTERIES.values(), thm53_decompose):
        with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
            fn(DIAG20)


def test_every_solved_coefficient_has_a_guarded_inner_inverse():
    # every coefficient a solvable row names has a {1}-inverse in _INNER, and
    # no entry is unused (c* is 3.9's; 5.3/5.5's t1 is read off c*'s pivot
    # rows, not solved for); solve never eliminates, so an entry whose guard
    # is forced false raises instead of falling back
    tables = (chz._T35, chz._T37, chz._T39, chz._T41, chz._T42)
    solved = {x for rows in tables for row in rows if row.solve
              for x, _, _ in row.solve.values()}
    assert solved == set(chz._INNER)
    for coefficient, (_, guard) in chz._INNER.items():
        for side in ("right", "left"):
            m = EPInstance.from_matrix(DIAG20)
            x = m.solve(coefficient, coefficient, side)  # m x = m: always solvable
            assert x is not None
            m = EPInstance.from_matrix(DIAG20)
            m.__dict__[guard] = False
            with pytest.raises(InternalConsistencyError, match=re.escape(guard)):
                m.solve(coefficient, coefficient, side)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example(MatrixQ.zeros(3, 3))                                    # rank 0
@example(MatrixQ.zeros(0, 0))
@example(MatrixQ.from_rows([[1, 2], [3, 4]]))                    # full rank
@example(NILPOTENT)                                              # not EP
@example(MatrixQ.from_rows([[1, "1i", 0], [0, 0, 0], [2, 0, "-1i"]]))  # complex, rank 2
def test_4_2_reads_adjoint_systems_as_their_direct_decisions(a):
    # x m = y iff m* x* = y*, so once iii's and x's systems are decided, v's
    # and xiii's are read as the adjoints of their solutions (or None) with
    # no product; each must equal _solve_inner run on the system itself.
    # what is read as vhat*, and must equal v w^-1
    m = EPInstance.from_matrix(a)
    systems = [system for row in chz._T42 if row.solve for system in row.solve.values()]
    direct = {system: chz._solve_inner(getattr(m, system[0]), getattr(m, system[1]),
                                       system[2], getattr(m, chz._INNER[system[0]][0]))
              for system in systems}
    decided = []
    reference = chz._solve_inner
    with mock.patch.object(chz, "_solve_inner", lambda x, y, side, g:
                           decided.append((x, y, side)) or reference(x, y, side, g)):
        for system in systems:  # table order: iii, v, x, xiii
            assert m.solve(*system) == direct[system], system
    first = {(getattr(m, x), getattr(m, y), side) for row in chz._T42
             if row.stmt in ("iii", "x") for x, y, side in row.solve.values()}
    assert set(decided) == first
    assert m.what == m.v @ m.w_inv
    assert (m.bb @ m.what == m.aa) == m.vhat_bb_is_aa
