"""Statement batteries for the EP equivalence theorems.

Each battery evaluates every statement of one theorem independently on a
concrete instance and returns one StatementResult per statement.  The point
is that equivalences become testable: on any valid instance all truth values
within a battery must agree, and a mixed battery is a counterexample.  The
exceptions are ties that hold for every matrix, not through the theorem:
the shared subspace fact `rng_ok` (below), and 4.2's adjoint pairs, where
x m = y holds iff m* x* = y* (see `_ADJOINT`): the systems of v and xiii
are the adjoints of those of iii and x and are read off their solutions,
and xi and xii check viii's identity, as a a* v-hat* = (v-hat a a*)*.

Statement tables.  Every exact battery is a table of rows that `_evaluate`
reads in order.  A row names its statement id, its note and one of three
kinds:

- criterion: the truth is the conjunction of named exact conditions (an
  identity, a vanishing product, a kernel or range equality); evaluation
  route "criterion".
- existential: when its criterion holds, each witness key is mapped to a
  named derived matrix, reported only after every identity on the row's
  check list has been re-verified (route "constructive", witness attached).
  When the criterion fails the statement is false through that exact
  equivalent criterion, never because a search came up empty.
- solvable: each witness key names a linear system m x = y or x m = y,
  decided exactly by `EPInstance.solve`.  `_INNER` gives the coefficient m
  a {1}-inverse g (m g m = m) under a named guard, and the system is
  solvable iff m (g y) = y (y g m = y on the left), Penrose's consistency
  test, so the candidate g y and one product decide it.  All consistent
  gives the solutions as the witness; any inconsistent one is an exact
  refutation.

Verify once.  Rows hold names, never matrices or functions.  The named
quantities live on one lazily memoised EPInstance per input, the package's
only memoised object: one table, `_QUANTITIES`, holds the factorization,
a+, p, q, the Grams and the rank with what every exact battery reads.
Every exact battery and `thm53_decompose` take a square MatrixQ or an
EPInstance and validate it (`battery.gen_instance` hands over the one it
drew, already validated, whose memoised certificate is read back), so
every verdict, and `epkit ep`'s, rests on the four-condition certificate
for a+.  Validation checks a generating set of it, `mp_generators`, from
which the four conditions follow by exact associativity.  Each product,
subspace, inverse, solve and identity check runs at most once per object
however many rows name it, and solves are keyed by their two matrices and
side, so equal systems under different names (4.1's p and q on an EP
input) are decided once.  Products are memoised the same way: validation and every
table run inside the instance's `linalg.product_memo` block, so a product
of content-equal operands (3.10's chains, whose b c is a; p q in a solve
and in 4.1's two-sided check) is formed once per instance, and one with
an identity or zero operand (c = e and p = q = e at full rank, 4.1's and
5.6's literal e) is never formed.  The memo is a dict in the instance, so
EPInstance is still the only memoised object and no cache outlives it.
Each {1}-inverse of `_INNER` rests on a named guard that holds by
construction, so a failed guard raises.  Every inverse a row reads is a
named closed form x^-1 that holds once a a+ = a+ a = p, as Lemma 3.8's v^-1
and w^-1 do, checked by the one product x x^-1 = e (a right inverse of a
square matrix is two-sided) after an EP-equivalent criterion held, so a
failed product is a defect in a+ or the factors, not a singular input.  The
tables eliminate only to factorize a and form b+ and c+, which is done by
the time an instance is validated (by validation itself in `from_matrix`,
or by the draw that hands over its factors and daggers): no battery and no
`thm53_decompose` eliminates on a validated instance.
Every kernel, range, right-kernel and row-space statement is one fact,
`rng_ok` (range b = range c*, equivalently ker b* = ker c, their
orthogonal complements), by identities that hold for every matrix,
written beside that entry.  c is an RREF, so the fact is the one product b = c* b[P, :]
over c's pivot columns P, checked to be identity columns of c, and no
elimination.  Every row still `_require`s each identity on its check list,
a `_QUANTITIES` name, before it reports the witness; one that fails to
re-verify raises InternalConsistencyError naming the statement and the
identity ("3.7.xxi bd_is_z_c"): a bug, not a result.  `thm53_decompose`
requires its block identities, `_BLOCKS`, the same way under "5.3", and
5.5's rows check that same list.

Block maps.  The 5.x statements read t = j (t1 ⊕ 0) j⁻¹, and no padded n×n
matrix is formed for it: j (x ⊕ 0) j⁻¹ = j₁ x j⁻¹₁, with j₁ the leading k
columns of j and j⁻¹₁ the leading k rows of j⁻¹, and j (0 ⊕ e) j⁻¹ = j₂ j⁻¹₂
from the trailing ones.  In 5.3 and 5.5, j₁ is c*, on EP input the
canonical basis of range a, j₂ the basis of ker c read off the RREF c, and
j⁻¹₁ the memoised `j_inv1`.  c*'s rows at c's pivot columns P are e, so
t1 = a[P, :] c* and t1⁻¹ = a+[P, :] c*, each one product and no solve.  The
exact hermitian rule is `pnorms.is_hermitian_exact`, which 5.2 and the 5.3
block projection read through `is_hermitian_idempotent_exact`.

Rectangular reading: instances carry a square a = b·c with b of full column
rank (n×r) and c of full row rank (r×n); each identity `e` is the identity
of the inferred shape.  Composite-letter statements quantify over r×r or
n×n matrices as their shapes dictate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    SingularMatrixError,
    conj_transpose,
    full_rank_factorize,
    inverse,
    null_basis,
    product_memo,
)
from .pnorms import PNorm, is_hermitian_idempotent, is_hermitian_idempotent_exact
from .pseudoinverse import factor_daggers, lemma38_witnesses

CONSTRUCTIVE = "constructive"
CRITERION = "criterion"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise InternalConsistencyError(f"witness re-verification failed: {what}")


_QUANTITIES = {
    # the factorization, the daggers, a+ = c+ b+, the projections and the Grams
    "f": lambda m: full_rank_factorize(m.a),
    "rank": lambda m: m.f.rank,
    "b": lambda m: m.f.b,
    "c": lambda m: m.f.c,
    "daggers": lambda m: factor_daggers(m.f),
    "b_dagger": lambda m: m.daggers[0],
    "c_dagger": lambda m: m.daggers[1],
    "a_dagger": lambda m: m.c_dagger @ m.b_dagger,
    "p": lambda m: m.b @ m.b_dagger,                             # a a+, onto range(a)
    "q": lambda m: m.c_dagger @ m.c,                             # a+ a, kernel(a) as kernel
    "e_n": lambda m: MatrixQ.identity(m.a.rows),
    "e_r": lambda m: MatrixQ.identity(m.rank),
    "a_star": lambda m: conj_transpose(m.a),
    "aa": lambda m: m.a_star @ m.a,                              # a* a
    "bb": lambda m: m.a @ m.a_star,                              # a a*
    "is_ep": lambda m: m.p == m.q,                               # a a+ = a+ a
    "p_perp": lambda m: m.e_n - m.p,
    "q_perp": lambda m: m.e_n - m.q,
    "v_inv": lambda m: m.p_perp + m.bb,                          # Lemma 3.8's v^-1
    "w_inv": lambda m: m.q_perp + m.aa,                          # Lemma 3.8's w^-1
    # the generating set validation checks, kept for the batteries: with
    # b c = a, b+ b = e_r, c c+ = e_r and hermitian p = b b+, q = c+ c, the
    # held a+ = c+ b+ meets all four Penrose conditions by associativity:
    # a a+ = b (c c+) b+ = p, a a+ a = b (b+ b) c = a, a+ a = c+ (b+ b) c = q
    # and a+ a a+ = c+ (c c+) b+ = a+.  Comparing each held p, q, a+ with the
    # product that defines it is a memo lookup, and catches a wrong entry
    "bd_b_is_e": lambda m: m.b_dagger @ m.b == m.e_r,            # b+ b = e_r
    "c_cd_is_e": lambda m: m.c @ m.c_dagger == m.e_r,            # c c+ = e_r
    "bc": lambda m: m.b @ m.c,
    "mp_generators": lambda m: (m.bc == m.a and m.bd_b_is_e and m.c_cd_is_e
                                and conj_transpose(m.p) == m.p
                                and conj_transpose(m.q) == m.q
                                and m.a_dagger == m.c_dagger @ m.b_dagger
                                and m.p == m.b @ m.b_dagger
                                and m.q == m.c_dagger @ m.c),
    "b_star": lambda m: conj_transpose(m.b),
    "c_star": lambda m: conj_transpose(m.c),
    "cd_star": lambda m: conj_transpose(m.c_dagger),
    "bd_star": lambda m: conj_transpose(m.b_dagger),
    "ad_star": lambda m: conj_transpose(m.a_dagger),
    # the one subspace fact the tables read, rng_ok.  b has full column rank,
    # c full row rank, b+ = (b* b)^-1 b* and c+ = c* (c c*)^-1, so for every
    # matrix, EP or not,
    #   ker a = ker q = ker a* a = ker c,  ker a+ = ker a* = ker p = ker a a* = ker b*,
    #   range a = range p = range a a* = range b,
    #   range a+ = range a* = range q = range a* a = range c*,
    # and rker x = conj ker x*, row x = conj range x*: every kernel and
    # right-kernel criterion is ker b* = ker c, every range and row-space one
    # range b = range c*.  c is an RREF, so c*'s rows at c's pivot columns P
    # are e_r; range b and range c* both have dimension r, so they are equal
    # iff range b lies in range c*, iff b = c* b[P, :]: one product, no
    # elimination, and none at full rank, where c = c* = e
    "c_pivots": lambda m: _pivots(m.c),
    # range b = range c*, and ker b* = (range b)^perp, ker c = (range c*)^perp
    # make it ker b* = ker c too
    "rng_ok": lambda m: m.b == m.c_star @ m.b.select_rows(m.c_pivots),
    # 3.4: the vanishing products
    "g2": lambda m: m.c @ m.p_perp,                              # c (e - bb+)
    "g3": lambda m: m.b_dagger @ m.q_perp,                       # b+ (e - c+c)
    "g1_zero": lambda m: (m.q_perp @ m.b).is_zero(),             # (e - c+c) b
    "g2_zero": lambda m: m.g2.is_zero(),
    "g3_zero": lambda m: m.g3.is_zero(),
    "g4_zero": lambda m: (m.p_perp @ m.c_dagger).is_zero(),      # (e - bb+) c+
    "g3b_zero": lambda m: (m.g3 @ m.b).is_zero(),
    "g2cd_zero": lambda m: (m.g2 @ m.c_dagger).is_zero(),
    # 3.5, 3.7: the composites u = c b and z = b+ c+ and their identities
    "u": lambda m: m.c @ m.b,
    "z": lambda m: m.b_dagger @ m.c_dagger,
    "u_inverts_z": lambda m: m.u @ m.z == m.e_r,                 # r x r: z u = e too
    "c_is_u_bd": lambda m: m.c == m.u @ m.b_dagger,
    "b_is_cd_u": lambda m: m.b == m.c_dagger @ m.u,
    "bd_is_z_c": lambda m: m.b_dagger == m.z @ m.c,
    "cd_is_b_z": lambda m: m.c_dagger == m.b @ m.z,
    # 3.9: the adjoint composite z_adj = (c c*)^-1 u, which carries b = c* z_adj
    # when EP; there u^-1 = z, so z_adj^-1 = z (c c*)
    "z_adj": lambda m: (m.cd_star @ m.c_dagger) @ m.u,
    "x_adj": lambda m: conj_transpose(m.s2_adj),                # (z*)^-1 = (z^-1)*
    "s1_adj": lambda m: conj_transpose(m.z_adj),
    "s2_adj": lambda m: m.z @ (m.c @ m.c_star),
    "b_is_cs_z": lambda m: m.b == m.c_star @ m.z_adj,
    "z_adj_invertible": lambda m: m.z_adj @ m.s2_adj == m.e_r,
    "c_is_x_bs": lambda m: m.c == m.x_adj @ m.b_star,
    "bs_is_s1_c": lambda m: m.b_star == m.s1_adj @ m.c,
    "cs_is_b_s2": lambda m: m.c_star == m.b @ m.s2_adj,
    # 3.10: literal factor chains, with (bc)* = c* b* and a+ = c+ b+ as built
    "cs_bs": lambda m: m.c_star @ m.b_star,
    "chain_ii1": lambda m: m.aa == m.cs_bs @ m.bc @ m.p,                   # c* b* bc bb+
    "chain_ii2": lambda m: m.aa == m.cs_bs @ m.q @ m.bc,                   # c* b* c+c bc
    "chain_iii1": lambda m: m.bb == m.bc @ m.cs_bs @ (m.c_star @ m.cd_star),  # bc c*b* c*(c*)+
    "chain_iii2": lambda m: m.bb == m.bc @ m.p @ m.cs_bs,                  # bc bb+ c*b*
    "chain_v1": lambda m: m.bb == m.a_dagger @ m.bc @ m.bc @ m.cs_bs,      # c+b+ bc bc c*b*
    "chain_vi1": lambda m: m.aa == m.bc @ m.a_dagger @ m.cs_bs @ m.bc,     # bc c+b+ c*b* bc
    # 4.1: invertible multiples of a giving a+, inverted on EP input (a a+ = a+ a)
    "ad2": lambda m: m.a_dagger @ m.a_dagger,
    "a2": lambda m: m.a @ m.a,
    "s_dag": lambda m: m.ad2 + m.p_perp,
    "u_dag": lambda m: m.ad2 + m.q_perp,
    "s_inv": lambda m: m.a2 + m.p_perp,
    "u_inv": lambda m: m.a2 + m.q_perp,
    "s_a_is_ad": lambda m: m.s_dag @ m.a == m.a_dagger,
    "s_invertible": lambda m: m.s_dag @ m.s_inv == m.e_n,
    "a_u_is_ad": lambda m: m.a @ m.u_dag == m.a_dagger,
    "u_invertible": lambda m: m.u_dag @ m.u_inv == m.e_n,
    "q_is_e_p": lambda m: m.q == m.e_n @ m.p,
    "q_is_p_e": lambda m: m.q == m.p @ m.e_n,
    "pq_two_sided": lambda m: m.p @ m.q @ m.p == m.q and m.q @ m.p @ m.q == m.p,
    "z1": lambda m: m.a_dagger @ m.q @ m.a,
    "z2": lambda m: m.a @ m.p @ m.a_dagger,
    "a_z1_ad_is_q": lambda m: m.a @ m.z1 @ m.a_dagger == m.q,
    "ad_z2_a_is_p": lambda m: m.a_dagger @ m.z2 @ m.a == m.p,
    # 4.2: the adjoint versions, through the Lemma 3.8 witnesses (v, w)
    "lemma38": lambda m: lemma38_witnesses(m),
    "s_adj": lambda m: m.w_inv @ m.s_dag,
    "u_adj": lambda m: m.u_dag @ m.v_inv,
    "v": lambda m: m.lemma38[0],
    "w": lambda m: m.lemma38[1],
    "vhat": lambda m: m.w_inv @ m.v,
    # v and w^-1 are hermitian, so v w^-1 = (w^-1 v)*
    "what": lambda m: conj_transpose(m.vhat),
    # lemma38 has verified v v^-1 = e and w w^-1 = e, so vhat = w^-1 v,
    # what = v w^-1, w^-1 s and u v^-1 are invertible when their factors are
    "v_w_invertible": lambda m: m.lemma38 is not None,
    "z1_adj": lambda m: m.u_adj @ conj_transpose(m.u_adj),
    "z2_adj": lambda m: conj_transpose(m.s_adj) @ m.s_adj,
    "h": lambda m: (m.a_dagger @ m.a_star) + m.q_perp,
    "h_inv": lambda m: (m.ad_star @ m.a) + m.q_perp,             # on EP input
    "s_adj_a_is_as": lambda m: m.s_adj @ m.a == m.a_star,
    "s_adj_invertible": lambda m: m.v_w_invertible and m.s_invertible,  # w^-1 s
    "a_u_adj_is_as": lambda m: m.a @ m.u_adj == m.a_star,
    "u_adj_invertible": lambda m: m.v_w_invertible and m.u_invertible,  # u v^-1
    "vhat_bb_is_aa": lambda m: m.vhat @ m.bb == m.aa,
    "grams_two_sided": lambda m: (m.p @ m.aa @ m.p == m.aa) and (m.q @ m.bb @ m.q == m.bb),
    "a_z1_as_is_aa": lambda m: m.a @ m.z1_adj @ m.a_star == m.aa,
    "as_z2_a_is_bb": lambda m: m.a_star @ m.z2_adj @ m.a == m.bb,
    "h_invertible": lambda m: m.h @ m.h_inv == m.e_n,
    "a_h_is_as": lambda m: m.a @ m.h == m.a_star,
    "a_hh_as_is_aa": lambda m: m.a @ m.h @ conj_transpose(m.h) @ m.a_star == m.aa,
    # 5.3, 5.5: t = j (t1 + 0) j^-1 with j = [B K] over a range basis B and a
    # kernel basis K, whose rows S, S' give S B = e, S' K = e.  Both read them
    # only on EP input, where range a = range c* has the canonical basis
    # B = c*, as conj c is an RREF, with S its pivot rows P, and ker a = ker c
    # has the basis K read off the RREF c, with S' its free columns F.  There
    # j^-1 = [S p; S' (e - p)], and t1 = S a B has inverse S a+ B; S x is
    # the selection of x's rows, not a product
    "ker_pivots": lambda m: [f for f in range(m.a.rows) if f not in m.c_pivots],   # F
    "ker_c": lambda m: null_basis(m.c, m.c_pivots, m.ker_pivots),
    "j": lambda m: m.c_star.hstack(m.ker_c),
    "j_inv1": lambda m: m.p.select_rows(m.c_pivots),             # j^-1's top rank rows
    "j_inv": lambda m: m.j_inv1.vstack(m.p_perp.select_rows(m.ker_pivots)),
    "j_invertible": lambda m: m.j.rows == m.j.cols == m.a.rows and m.j @ m.j_inv == m.e_n,
    "t1": lambda m: m.a.select_rows(m.c_pivots) @ m.c_star,
    "t1_inv": lambda m: m.a_dagger.select_rows(m.c_pivots) @ m.c_star,
    "t1_invertible": lambda m: m.t1 @ m.t1_inv == m.e_r,
    "t_is_block": lambda m: m.a == m.c_star @ m.t1 @ m.j_inv1,
    "td_is_block": lambda m: m.a_dagger == m.c_star @ m.t1_inv @ m.j_inv1,
    "q1": lambda m: m.c_star @ m.j_inv1,                          # j (e + 0) j^-1
    "q1_is_p": lambda m: is_hermitian_idempotent_exact(m.q1, PNorm(2)) and m.q1 == m.p,
    # 5.6: identity-framed factorizations; e is its own inverse, so e e = e
    # makes it injective, right-injective and surjective alike, and every
    # 5.6 row checks the same two identities
    "identity_framed": lambda m: (m.e_n @ m.a @ m.e_n == m.a
                                  and m.e_n @ m.a_dagger @ m.e_n == m.a_dagger),
    "e_invertible": lambda m: m.e_n @ m.e_n == m.e_n,
}


def _pivots(c: MatrixQ) -> list:
    """P, the column of each row's leading nonzero entry of c, with
    c[:, P] = e checked: the pivot columns of an RREF."""
    pivots = c.leading_columns()
    if None in pivots or c.select_columns(pivots) != MatrixQ.identity(c.rows):
        raise InternalConsistencyError("c is not an RREF: c[:, P] != e at its pivot columns P")
    return pivots


# coefficient -> (g, guard): g is a {1}-inverse (m g m = m) once the named
# exact guard holds.  b+ b = e_r gives b b+ b = b, b+ b b+ = b+ and
# b* (b+)* b* = b*, and c c+ = e_r the same for c.  The generating set gives
# Penrose 1 and 2 for a+ (a a+ a = a, a+ a a+ = a+, and the adjoint of the
# first) and p p = b (b+ b) b+ = p, q q = q.  lemma38 verified a* v = a+, so
# (a a*) v = a a+ = p and (a a*) v (a a*) = p a a* = a a*; likewise
# (a* a) w (a* a) = q a* a = a* a.
_INNER = {
    "b": ("b_dagger", "bd_b_is_e"),          # 3.5, 3.7
    "b_dagger": ("b", "bd_b_is_e"),          # 3.5, 3.7
    "b_star": ("bd_star", "bd_b_is_e"),      # 3.9
    "c": ("c_dagger", "c_cd_is_e"),          # 3.5, 3.7, 3.9
    "c_dagger": ("c", "c_cd_is_e"),          # 3.5, 3.7
    "c_star": ("cd_star", "c_cd_is_e"),      # 3.9
    "a": ("a_dagger", "mp_generators"),      # 4.1, 4.2: a a+ a = a
    "a_star": ("ad_star", "mp_generators"),  # 4.2: a* (a+)* a* = (a a+ a)*
    "a_dagger": ("a", "mp_generators"),      # 4.1: a+ a a+ = a+
    "p": ("p", "mp_generators"),             # 4.1: p p p = p
    "q": ("q", "mp_generators"),             # 4.1: q q q = q
    "bb": ("v", "mp_generators"),            # 4.2
    "aa": ("w", "mp_generators"),            # 4.2
}

# name -> the name of its adjoint, for the coefficients and right-hand sides
# of 4.2's systems.  x m = y holds iff m* x* = y*, so a system and its
# adjoint with the other side are solvable together, and the witness of one
# is the adjoint of the other's: `_INNER` gives a* the {1}-inverse
# (a+)* = g(a)*, and v = g(a a*) and w = g(a* a) are hermitian, so
# g(m*) = g(m)* for every m here and (y* g(m*))* = g(m) y exactly.  So
# 4.2 iii's systems (x a = a*, x a* = a) are the adjoints of v's (a* x = a,
# a x = a*), and x's (x bb = aa, x aa = bb) of xiii's (bb x = aa,
# aa x = bb).  4.1 and the dagger-level tables stay out: their statements
# also hold for an a+ taken relative to a norm, where no adjoint need exist
_ADJOINT = {"a": "a_star", "a_star": "a", "aa": "aa", "bb": "bb"}


@dataclass(frozen=True)
class EPInstance:
    """A square matrix with the derived quantities of every exact battery.

    Only a is stored.  Every other attribute is a name in `_QUANTITIES`,
    computed on first read and then kept: reading a name the instance does
    not hold yet evaluates its table entry and stores the value in the
    instance `__dict__` (which a frozen dataclass allows, since that bypasses
    `__setattr__`), so every later read is a plain attribute read.  The
    table starts from the full-rank factorization a = b·c, b†, c†,
    a† = c†·b†, p = b·b†, q = c†·c, the Grams and the rank, and adds what
    the 3.x, 4.x and 5.x batteries read.  Next to those values the instance
    keeps `_solves`, its decided systems, and `_products`, the product memo
    that `memoised()` makes active; both are keyed by matrix content and
    live and die with the instance.

    `from_matrix` validates the generating set `mp_generators`: a = b·c,
    b†·b = e_r, c·c† = e_r, p and q hermitian, and each held a†, p, q equal
    to the product that defines it (c†·b†, b·b†, c†·c), a memo lookup.
    Those make b† and c† the Moore-Penrose inverses of b and c, so a† meets
    the four Penrose conditions by associativity, and a·a† = p, a†·a = q,
    b† = c·a† and c† = a†·b follow the same way; none of them is formed.
    The products it forms (`bc`, `p`, `q`, `a_dagger`, b†·b and c·c†) stay
    for the batteries.  `from_factorization` validates the same set on a
    factorization the caller already holds, and on its daggers when it
    holds those too, so held daggers are certified, never trusted.
    """

    a: MatrixQ

    def __getattr__(self, name: str):
        try:
            define = _QUANTITIES[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}") from None
        value = self.__dict__[name] = define(self)
        return value

    @classmethod
    def from_matrix(cls, a: MatrixQ) -> "EPInstance":
        """The validated instance of a square a: one elimination of a, and
        `factor_daggers`' two of the factors' Grams."""
        return cls(a=a)._validate()

    @classmethod
    def from_factorization(cls, a: MatrixQ, f: FullRankFactorization,
                           daggers: Optional[tuple] = None, *,
                           products: Optional[dict] = None) -> "EPInstance":
        """The validated instance of a, for a caller that holds its factors:
        a is not eliminated.  f must be what `full_rank_factorize(a)` returns
        (c the nonzero rows of a's RREF, b the pivot columns of a); the
        generator reads c off the RREF of a factor it drew, or, for an
        invertible draw, takes b = a and c = e.  daggers, when given, is
        (b+, c+) as the caller read them off its own eliminations (a^-1 and
        e for an invertible draw); otherwise `factor_daggers` forms them,
        and a b without full column rank has a singular Gram and raises
        SingularMatrixError.  Held daggers are certified, not trusted:
        validation checks the same generating set, and a wrong one raises
        InternalConsistencyError.  products, when given, is the product
        memo the caller filled while forming a from f, and becomes the
        instance's."""
        inst = cls(a=a)
        inst.__dict__["f"] = f
        if daggers is not None:
            inst.__dict__["daggers"] = daggers
        if products is not None:
            inst.__dict__["_products"] = products
        return inst._validate()

    def memoised(self):
        """The block in which `@` reads and fills this instance's product
        memo (`linalg.product_memo`): validation, the statement tables and
        the 5.3 decomposition run in it."""
        return product_memo(self.__dict__.setdefault("_products", {}))

    def _validate(self) -> "EPInstance":
        if not self.a.is_square:
            raise ShapeError("EPInstance expects a square matrix")
        with self.memoised():
            _require(self.mp_generators, "four-condition certificate for a+")
        return self

    def solve(self, a: str, y: str, side: str) -> Optional[MatrixQ]:
        """The system a x = y (side "right") or x a = y ("left") on two named
        quantities, decided once per system, with no elimination.

        `_INNER[a]` names a {1}-inverse g of a and the exact guard that makes
        it one (a g a = a); `_solve_inner` decides the system from g by one
        product.  The guard holds by construction, so a failed guard is a
        defect and raises InternalConsistencyError.  The cache is keyed by
        the two matrices and the side, so equal systems under different
        names are decided once, and a system whose names `_ADJOINT` pairs
        is read off its adjoint system when that one is already decided.
        """
        cache = self.__dict__.setdefault("_solves", {})
        key = (getattr(self, a), getattr(self, y), side)
        if key not in cache:
            adjoint = None
            if a in _ADJOINT and y in _ADJOINT:
                adjoint = (getattr(self, _ADJOINT[a]), getattr(self, _ADJOINT[y]),
                           "left" if side == "right" else "right")
            if adjoint in cache:
                x = cache[adjoint]
                cache[key] = None if x is None else conj_transpose(x)
            else:
                g, guard = _INNER[a]
                if not getattr(self, guard):
                    raise InternalConsistencyError(
                        f"{guard} failed: {g} is no inner inverse of {a}")
                cache[key] = _solve_inner(*key, getattr(self, g))
        return cache[key]


def _solve_inner(a: MatrixQ, y: MatrixQ, side: str, g: MatrixQ) -> Optional[MatrixQ]:
    """A solution of a x = y (side "right") or x a = y ("left"), or None.

    `g` must be a {1}-inverse of a that the caller has verified, a g a = a.
    Any solution x0 gives a (g y) = a g a x0 = y, so a solution exists iff
    g y (y g on the left) is one (Penrose's consistency test): the one
    product a x == y decides the system, and None is an exact refutation.
    The solution g y need not be the one `solve_exists` returns.
    """
    if side == "right":
        x = g @ y
        return x if a @ x == y else None
    x = y @ g
    return x if x @ a == y else None


def _instance(a: MatrixQ | EPInstance) -> EPInstance:
    """The validated EPInstance of a square MatrixQ, or the EPInstance given,
    validated too: on one already validated that reads only its memoised
    `mp_generators`, with no product and no elimination."""
    return (a if isinstance(a, EPInstance) else EPInstance(a=a))._validate()


@dataclass(frozen=True)
class StatementResult:
    """Outcome of one statement of one battery.

    truth is always decided exactly, the norm-relative battery 5.2 included;
    a float check can only corroborate it (see `pnorms`).
    """

    theorem_id: str
    statement_id: str
    truth: bool
    evaluation_route: str
    witness: Optional[dict] = None
    note: Optional[str] = None


# -- statement tables ---------------------------------------------------------


class _Row(NamedTuple):
    stmt: str
    crit: tuple = ()                  # names of exact conditions, conjoined
    witness: Optional[dict] = None    # existential: key -> derived matrix name
    checks: tuple = ()                # existential: identity names, required in order
    solve: Optional[dict] = None      # solvable: key -> (name, name, side)
    note: Optional[str] = None


def _names(crit) -> tuple:
    return (crit,) if isinstance(crit, str) else tuple(crit)


def _criterion(stmt: str, crit, note=None) -> _Row:
    return _Row(stmt, crit=_names(crit), note=note)


def _exists(stmt: str, crit, checks, note=None, **witness) -> _Row:
    return _Row(stmt, crit=_names(crit), witness=witness, checks=_names(checks), note=note)


def _solvable(stmt: str, note=None, **systems) -> _Row:
    return _Row(stmt, solve=systems, note=note)


def _decide(m: EPInstance, row: _Row, sid: str) -> tuple:
    """(truth, witness) of one row, statement sid, over the memoised
    quantities of m."""
    if row.solve is not None:
        witness = {}
        for key, (x, y, side) in row.solve.items():
            sol = m.solve(x, y, side)
            if sol is None:
                return False, None
            witness[key] = sol
        return True, witness
    if not all(getattr(m, name) for name in row.crit):
        return False, None
    if row.witness is None:
        return True, None
    for name in row.checks:
        _require(getattr(m, name), f"{sid} {name}")
    return True, {key: getattr(m, name) for key, name in row.witness.items()}


def _evaluate(thm: str, m: EPInstance, rows: tuple) -> list:
    """One StatementResult per row, in table order."""
    out = []
    with m.memoised():
        for row in rows:
            sid = f"{thm}.{row.stmt}"
            truth, witness = _decide(m, row, sid)
            out.append(StatementResult(
                theorem_id=thm, statement_id=sid, truth=truth,
                evaluation_route=CRITERION if witness is None else CONSTRUCTIVE,
                witness=witness, note=row.note))
    return out


_COSET = "coset equality evaluated through its single-witness reduction"

# the solvable systems shared by 3.5 and 3.7
_BD_C = ("b_dagger", "c", "left")      # x b+ = c
_C_BD = ("c", "b_dagger", "left")      # x c = b+
_CD_B = ("c_dagger", "b", "right")     # c+ x = b
_B_CD = ("b", "c_dagger", "right")     # b x = c+

# six conjunctions of vanishing products: 3.4 i-vi, 3.7 vii-xii
_VANISHING = (("g1_zero", "g2_zero"), ("g3_zero", "g2_zero"), ("g1_zero", "g4_zero"),
              ("g3_zero", "g4_zero"), ("g2_zero", "g3b_zero"), ("g3_zero", "g2cd_zero"))


# -- Batteries 3.2 and 3.4: exact identities on the factors -----------------

_T32 = (
    _criterion("i", "is_ep"),
    _criterion("ii", "is_ep"),
    _criterion("iii", "rng_ok"),
    _criterion("iv", "rng_ok"),
)


def thm32_battery(a: MatrixQ | EPInstance) -> list:
    """Four statements: EP; b b+ = c+ c; kernel(b+) = kernel(c); range(b) = range(c+)."""
    return _evaluate("3.2", _instance(a), _T32)


_T34 = tuple(_criterion(sid, crit) for sid, crit in
             zip(("i", "ii", "iii", "iv", "v", "vi"), _VANISHING))


def thm34_battery(a: MatrixQ | EPInstance) -> list:
    """Six conjunctions of exact product-vanishing conditions."""
    return _evaluate("3.4", _instance(a), _T34)


# -- Battery 3.5: composite-letter existentials over r×r ------------------

_U_35 = ("u_inverts_z", "c_is_u_bd")
_U_RNG_35 = _U_35 + ("b_is_cd_u",)
_Z_KER_35 = _U_35 + ("bd_is_z_c",)
_Z_RNG_35 = _U_35 + ("cd_is_b_z",)

_T35 = (
    _criterion("i", "is_ep"),
    _exists("ii", "rng_ok", _U_35, U="u", Z="z"),
    _exists("iii", "rng_ok", _U_35, U1="u"),
    _solvable("iv", U2=_BD_C, U3=_C_BD),
    _exists("v", "rng_ok", _U_RNG_35, W="u"),
    _exists("vi", "rng_ok", _U_RNG_35, W1="u"),
    _solvable("vii", W2=_CD_B, W3=_B_CD),
    _solvable("viii", H1=_BD_C, H2=_CD_B),
    _solvable("ix", K1=_C_BD, K2=_B_CD),
    _exists("x", "rng_ok", _Z_KER_35, S1="z"),
    _exists("xi", "rng_ok", _Z_RNG_35, S2="z"),
)


def thm35_battery(a: MatrixQ | EPInstance) -> list:
    return _evaluate("3.5", _instance(a), _T35)


# -- Battery 3.7: the 26-statement mixed family -------------------------

_U_RNG_37 = ("u_inverts_z", "b_is_cd_u")
_Z_KER_37 = ("bd_is_z_c", "u_inverts_z")
_Z_RNG_37 = ("cd_is_b_z", "u_inverts_z")

_T37 = (
    _criterion("i", "is_ep"),
    _criterion("ii", "is_ep"),
    _criterion("iii", "rng_ok"),
    _criterion("iv", "rng_ok"),
    _criterion("v", "rng_ok"),
    _criterion("vi", "rng_ok"),
    *(_criterion(sid, crit) for sid, crit in
      zip(("vii", "viii", "ix", "x", "xi", "xii"), _VANISHING)),
    _exists("xiii", "rng_ok", _U_35, x="u"),
    _exists("xiv", "rng_ok", _U_35, y="u"),
    _solvable("xv", z1=_BD_C, z2=_C_BD),
    _exists("xvi", "rng_ok", _U_RNG_37, u="u"),
    _exists("xvii", "rng_ok", _U_RNG_37, v="u"),
    _solvable("xviii", w1=_CD_B, w2=_B_CD),
    _solvable("xix", h1=_BD_C, h2=_CD_B),
    _solvable("xx", k1=_C_BD, k2=_B_CD),
    _exists("xxi", "rng_ok", _Z_KER_37, s1="z"),
    _exists("xxii", "rng_ok", _Z_RNG_37, s2="z"),
    _exists("xxiii", "rng_ok", _U_RNG_37, note=_COSET, u="u"),
    _exists("xxiv-a", "rng_ok", _U_35, note=_COSET, x="u"),
    _solvable("xxiv-b", right_multiplier=("c_dagger", "a", "right"),
              left_multiplier=("b_dagger", "a", "left")),
    _solvable("xxvi", right_multiplier=("b", "a_dagger", "right"),
              left_multiplier=("c", "a_dagger", "left")),
)


def thm37_battery(a: MatrixQ | EPInstance) -> list:
    """Twenty-six statements; the catalog numbering carries two (xxiv) slots,
    reported as xxiv-a and xxiv-b (and no xxv)."""
    return _evaluate("3.7", _instance(a), _T37)


# -- Battery 3.9: adjoint in place of the dagger ---------------------------

_Z_39 = ("b_is_cs_z", "z_adj_invertible")
_X_39 = _Z_39 + ("c_is_x_bs",)

_T39 = (
    _criterion("i", "is_ep"),
    _solvable("ii", right_multiplier=("c_star", "a", "right"),
              left_multiplier=("b_star", "a", "left")),
    _criterion("iii", "rng_ok"),
    _criterion("iv", "rng_ok"),
    _criterion("v", "rng_ok"),
    _criterion("vi", "rng_ok"),
    _exists("vii", "rng_ok", _Z_39, note=_COSET, z="z_adj"),
    _exists("viii", "rng_ok", _X_39, note=_COSET, x="x_adj"),
    _exists("ix", "rng_ok", _X_39, x="x_adj"),
    _exists("x", "rng_ok", _X_39, y="x_adj"),
    _solvable("xi", z1=("b_star", "c", "left"), z2=("c", "b_star", "left")),
    _exists("xii", "rng_ok", _Z_39, v="z_adj"),
    _exists("xiii", "rng_ok", _Z_39 + ("bs_is_s1_c",), s1="s1_adj"),
    _exists("xiv", "rng_ok", _Z_39 + ("cs_is_b_s2",), s2="s2_adj"),
)


def thm39_battery(a: MatrixQ | EPInstance) -> list:
    return _evaluate("3.9", _instance(a), _T39)


# -- Battery 3.10: multi-factor product identities -------------------------

_STAR_NOTE = "adjoint factor composed as (bc)* = c* b*"

_T310 = (
    _criterion("i", "is_ep"),
    _criterion("ii", ("chain_ii1", "chain_ii2")),
    _criterion("iii", ("chain_iii1", "chain_iii2")),
    _criterion("iv", ("chain_ii1", "chain_iii1")),
    _criterion("v", ("chain_v1", "chain_ii1")),
    _criterion("vi", ("chain_vi1", "chain_iii1"), note=_STAR_NOTE),
    _criterion("vii", ("chain_v1", "chain_vi1"), note=_STAR_NOTE),
)


def thm310_battery(a: MatrixQ | EPInstance) -> list:
    """Seven statements built from literal factor chains.

    Two chains pair the adjoint of the product with its factors; they are
    composed as (b c)* = c* b* so every chain is shape-consistent under the
    rectangular reading.
    """
    return _evaluate("3.10", _instance(a), _T310)


# -- Battery 4.1: factorizations of the pseudoinverse through the element --

_S_41 = ("s_a_is_ad", "s_invertible")
_U_41 = ("a_u_is_ad", "u_invertible")

_T41 = (
    _criterion("i", "is_ep"),
    _exists("ii", "rng_ok", _S_41, s="s_dag"),
    _solvable("iii", s1=("a", "a_dagger", "left"), s2=("a_dagger", "a", "left")),
    _exists("iv", "rng_ok", _U_41, u="u_dag"),
    _solvable("v", u1=("a", "a_dagger", "right"), u2=("a_dagger", "a", "right")),
    _exists("vi", "rng_ok", _U_41, t="u_dag"),
    _exists("vii", "rng_ok", _S_41, x="s_dag"),
    _exists("viii", "rng_ok", "q_is_e_p", v="e_n"),
    _exists("ix", "rng_ok", "q_is_e_p", v1="e_n"),
    _solvable("x", v2=("p", "q", "left"), v3=("q", "p", "left")),
    _exists("xi", "rng_ok", "q_is_p_e", w="e_n"),
    _exists("xii", "rng_ok", "q_is_p_e", w1="e_n"),
    _solvable("xiii", w2=("p", "q", "right"), w3=("q", "p", "right")),
    _exists("xiv", "pq_two_sided", ("a_z1_ad_is_q", "ad_z2_a_is_p"), z1="z1", z2="z2"),
)


def thm41_battery(a: MatrixQ | EPInstance) -> list:
    return _evaluate("4.1", _instance(a), _T41)


# -- Battery 4.2: the adjoint versions, via the invertible norm witnesses --

_S_42 = ("s_adj_a_is_as", "s_adj_invertible")
_U_42 = ("a_u_adj_is_as", "u_adj_invertible")
# a a* what = (vhat a a*)*, so xi and xii check v's identity as w's
_V_42 = ("vhat_bb_is_aa", "v_w_invertible")
_H_42 = ("h_invertible", "a_h_is_as", "a_hh_as_is_aa")

_T42 = (
    _criterion("i", "is_ep"),
    _exists("ii", "rng_ok", _S_42, s="s_adj"),
    _solvable("iii", s1=("a", "a_star", "left"), s2=("a_star", "a", "left")),
    _exists("iv", "rng_ok", _U_42, u="u_adj"),
    _solvable("v", u1=("a", "a_star", "right"), u2=("a_star", "a", "right")),
    _exists("vi", "rng_ok", _U_42, t="u_adj"),
    _exists("vii", "rng_ok", _S_42, x="s_adj"),
    _exists("viii", "rng_ok", _V_42, v="vhat"),
    _exists("ix", "rng_ok", _V_42, v1="vhat"),
    _solvable("x", v2=("bb", "aa", "left"), v3=("aa", "bb", "left")),
    _exists("xi", "rng_ok", _V_42, w="what"),
    _exists("xii", "rng_ok", _V_42, w1="what"),
    _solvable("xiii", w2=("bb", "aa", "right"), w3=("aa", "bb", "right")),
    _exists("xiv", "grams_two_sided", ("a_z1_as_is_aa", "as_z2_a_is_bb"),
            z1="z1_adj", z2="z2_adj"),
    _exists("xv", "rng_ok", _H_42, h1="h"),
    _exists("xvi", "rng_ok", _H_42, h2="h"),
    _exists("xvii", "rng_ok", _H_42, h3="h"),
)


def thm42_battery(a: MatrixQ | EPInstance) -> list:
    return _evaluate("4.2", _instance(a), _T42)


# -- Block decomposition (5.x family) ---------------------------------------

# 5.3's block identities, in order: j = [c* K] and t1 invertible,
# t = j (t1 + 0) j^-1, q1 = j (e + 0) j^-1 a self-adjoint idempotent equal
# to t t+ = p, and t+ = j (t1^-1 + 0) j^-1.  5.5's rows read their
# witnesses off the same decomposition and check it
_BLOCKS = ("j_invertible", "t1_invertible", "t_is_block", "q1_is_p", "td_is_block")


def thm53_decompose(t: MatrixQ | EPInstance):
    """Exact block decomposition of an EP matrix; None when not EP.

    Returns (t1, j, j_inv, q1) with t = j (t1 ⊕ 0) j⁻¹, t1 invertible,
    j the column concatenation of a range basis and a kernel basis, and
    q1 = j (e ⊕ 0) j⁻¹ a self-adjoint idempotent equal to t·t†, after each
    identity of `_BLOCKS` is required under "5.3 <name>".
    """
    m = _instance(t)
    with m.memoised():
        if not m.is_ep:
            return None
        for name in _BLOCKS:
            _require(getattr(m, name), f"5.3 {name}")
        return m.t1, m.j, m.j_inv, m.q1


_T55 = (
    _exists("ii", "rng_ok", _BLOCKS,
            note="both clauses verified with one decomposition",
            V1="j", A1="t1", S1="j_inv", W1="j", B1="t1_inv",
            V2="j", A2="t1", S2="j_inv", W2="j", B2="t1_inv"),
    _exists("iii", "rng_ok", _BLOCKS,
            note="first-clause block operator reported under its clause-local key A3",
            V3="j", A3="t1", S3="j_inv", S4="j_inv", B3="t1_inv",
            V4="j", A4="t1", S5="j_inv", S6="j_inv", B4="t1_inv"),
)


def thm55_battery(t: MatrixQ | EPInstance) -> list:
    """Two statements: shared-right-factor and shared-left-factor forms
    for t and t† together; each combines its two clauses."""
    return _evaluate("5.5", _instance(t), _T55)


_FRAMED_56 = ("identity_framed", "e_invertible")

# the kernel, range, right-annihilator and row-space conditions on the middle
# factors are the rows' criteria, read once: each is rng_ok
_T56 = (
    _exists("ii", "rng_ok", _FRAMED_56,
            b1="e_n", c1="a", g1="e_n", f1="e_n", d1="a_dagger"),
    _exists("iii", "rng_ok", _FRAMED_56,
            h1="e_n", k1="a", l1="e_n", m1="a_dagger", n1="e_n"),
    _exists("iv", "rng_ok", _FRAMED_56,
            note="kernel condition read clause-locally (c2 against d2)",
            b2="e_n", c2="a", g2="e_n", d2="a_dagger", g3="e_n"),
    _exists("v", "rng_ok", _FRAMED_56,
            h2="e_n", k2="a", l2="e_n", h3="e_n", m2="a_dagger"),
)


def thm56_battery(a: MatrixQ | EPInstance) -> list:
    """Four statements factoring a and a† with matched kernel/range conditions."""
    return _evaluate("5.6", _instance(a), _T56)


# -- Battery 5.2: norm-relative statements on a conjugated block map ----


def _res(thm: str, stmt: str, truth, route: str, witness=None, note=None) -> StatementResult:
    return StatementResult(theorem_id=thm, statement_id=f"{thm}.{stmt}",
                           truth=truth, evaluation_route=route,
                           witness=witness, note=note)


def _checked(q: MatrixQ, norm: PNorm) -> tuple:
    """(truth, note) for "q is a hermitian idempotent"; the note quotes the grid."""
    truth, rep = is_hermitian_idempotent(q, norm)
    return truth, f"hermitian check: {rep.verdict}, max deviation {rep.max_deviation:.3e}"


def prop52_battery(t1: MatrixQ, j: MatrixQ, norm: PNorm) -> list:
    """Four statements about t = j (t1 ⊕ 0) j⁻¹ under the given norm.

    Every statement is decided by the exact hermitian-idempotent rule of
    `is_hermitian_idempotent_exact`: i, iii and iv on the block projections
    q1 = j (e ⊕ 0) j⁻¹ and q2 = j (0 ⊕ e) j⁻¹, whose notes quote the grid
    check that must agree with it; ii on t t# = b (c b)⁻¹ c, read from the
    full-rank factorization t = b c alone (Cline's group inverse
    t# = b (c b)⁻² c).  With j = [j₁ j₂] split after its first k columns and
    j⁻¹ = [j⁻¹₁; j⁻¹₂] after its first k rows, j (x ⊕ 0) j⁻¹ = j₁ x j⁻¹₁ and
    j (0 ⊕ e) j⁻¹ = j₂ j⁻¹₂, so no n×n block matrix is formed.

    `inverse` keeps its result on the matrix, and `battery.gen_block_pair`
    accepts t1 and a random j by inverting them, so on its draws this reads
    those inverses back, and a unit monomial j inverts to its adjoint.  A
    request then eliminates t1, a random j, and, for statement ii, t's own
    factorization and c b, unless c b equals t1.
    """
    if not t1.is_square or not j.is_square:
        raise ShapeError("prop52_battery expects square t1 and j")
    k, n = t1.rows, j.rows
    if k > n:
        raise ShapeError("block size exceeds ambient size")
    try:
        t1_inv = inverse(t1)
    except SingularMatrixError:
        raise SingularMatrixError("t1 must be invertible") from None
    try:
        j_inv = inverse(j)
    except SingularMatrixError:
        raise SingularMatrixError("j must be invertible") from None
    j1, j2 = j.select_columns(range(k)), j.select_columns(range(k, n))
    ji1, ji2 = j_inv.take_rows(k), j_inv.take_rows(k, n)
    t = j1 @ t1 @ ji1
    t_prime = j1 @ t1_inv @ ji1
    q1 = j1 @ ji1
    q2 = j2 @ ji2
    tt_prime = t @ t_prime
    t_prime_t = t_prime @ t
    # algebra that holds for every invertible t1, j
    _require(tt_prime == q1 and t_prime_t == q1, "5.2 t t' = t' t = q1")
    _require(tt_prime @ t == t and t_prime_t @ t_prime == t_prime,
             "5.2 t' is a normalized generalized inverse")
    _require(q1 + q2 == MatrixQ.identity(n), "5.2 complementary block projections")

    truth1, note1 = _checked(q1, norm)
    truth2, note2 = _checked(q2, norm)
    f = full_rank_factorize(t)
    # with b = j1 x and c = y ji1, x y = t1, c b = y x is similar to t1 and
    # equal to it at k = 1 at least; then t1's inverse is the one already held
    cb = f.c @ f.b
    group_proj = f.b @ (t1_inv if cb == t1 else inverse(cb)) @ f.c  # t t#

    return [
        _res("5.2", "i", truth1, CONSTRUCTIVE if truth1 else CRITERION,
             witness={"T_prime": t_prime} if truth1 else None, note=note1),
        _res("5.2", "ii", is_hermitian_idempotent_exact(group_proj, norm), CRITERION,
             note="decided exactly: t t# = b (c b)^-1 c from the full-rank factorization "
                  "of t is a hermitian idempotent for this norm"),
        _res("5.2", "iii", truth1, CRITERION, witness={"Q1": q1}, note=note1),
        _res("5.2", "iv", truth2, CRITERION, witness={"Q2": q2}, note=note2),
    ]
