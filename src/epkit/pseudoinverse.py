"""Exact Moore-Penrose inverses and the EP property.

Everything goes through the full-rank factorization a = b c, with b of full
column rank and c of full row rank:

    b^+ = (b* b)^-1 b*,   c^+ = c* (c c*)^-1,   a^+ = c^+ b^+

which is exact over the Gaussian rationals for any rank (rank 0 gives the
zero matrix of transposed shape).  `factor_daggers` is the one place that
forms b^+ and c^+.  `penrose_certificate` re-checks the four defining
conditions from scratch.

`MPPair` is the one lazily memoised object per square matrix: it holds only
a, and a name table derives the factorization, b^+, c^+, a^+, the
projections p = b b^+ = a a^+ and q = c^+ c = a^+ a, the Grams a* a and
a a*, and the identity, each once, on first read.  `is_ep` decides
p == q exactly on it.

`lemma38_witnesses` / `lemma38_factor_witnesses` build the invertible
elements v, w with a^+ = a* v = w a* (and the related factor identities) and
re-verify every claimed identity before returning.  Their inverses come in
closed form, v^-1 = (e - p) + a a* and w^-1 = (e - q) + a* a (the pair's
`v_inv` and `w_inv`), so one product each, v v^-1 = e and w w^-1 = e,
checks invertibility without an elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    conj_transpose,
    full_rank_factorize,
    inverse,
)


def factor_daggers(f: FullRankFactorization) -> tuple:
    """(b^+, c^+) of a full-rank factorization: (b* b)^-1 b* and c* (c c*)^-1.

    An identity c is its own c^+, with no elimination; `full_rank_factorize`
    gives one whenever a has full column rank, since c is then a square RREF.
    """
    bs = conj_transpose(f.b)
    b_dagger = inverse(bs @ f.b) @ bs
    if f.rank == f.c.cols and f.c == MatrixQ.identity(f.rank):
        return b_dagger, f.c
    cs = conj_transpose(f.c)
    return b_dagger, cs @ inverse(f.c @ cs)


def pinv(a: MatrixQ) -> MatrixQ:
    """Exact Moore-Penrose inverse of any rectangular matrix."""
    f = full_rank_factorize(a)
    return pinv_from_factorization(f)


def pinv_from_factorization(f: FullRankFactorization) -> MatrixQ:
    b_dagger, c_dagger = factor_daggers(f)
    return c_dagger @ b_dagger


@dataclass(frozen=True)
class PenroseCertificate:
    """Residuals/truths of the four Moore-Penrose conditions for a pair (a, x)."""

    cond1_residual: MatrixQ  # a x a - a
    cond2_residual: MatrixQ  # x a x - x
    ax_hermitian: bool  # (a x)* == a x
    xa_hermitian: bool  # (x a)* == x a

    @property
    def valid(self) -> bool:
        return (
            self.cond1_residual.is_zero()
            and self.cond2_residual.is_zero()
            and self.ax_hermitian
            and self.xa_hermitian
        )


def penrose_certificate(a: MatrixQ, x: MatrixQ) -> PenroseCertificate:
    """Evaluate the four conditions exactly; shapes must be a: n x m, x: m x n."""
    if x.rows != a.cols or x.cols != a.rows:
        raise ShapeError(
            f"candidate inverse must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}"
        )
    return _penrose_from_products(a, x, a @ x, x @ a)


def _penrose_from_products(a: MatrixQ, x: MatrixQ,
                           ax: MatrixQ, xa: MatrixQ) -> PenroseCertificate:
    """The certificate from products a x and x a the caller already holds."""
    return PenroseCertificate(
        cond1_residual=(ax @ a) - a,
        cond2_residual=(xa @ x) - x,
        ax_hermitian=conj_transpose(ax) == ax,
        xa_hermitian=conj_transpose(xa) == xa,
    )


class _Quantities:
    """Derived quantities by name, each computed on first use and then kept.

    A subclass lists its quantities in `_DEFS`, name -> function of the
    instance.  Reading an attribute the instance does not hold yet computes
    it from that table and stores it in the instance `__dict__` (which a
    frozen dataclass allows, since that bypasses `__setattr__`), so every
    later read is a plain attribute read.
    """

    _DEFS: dict = {}    # a class-level default, so `__getattr__` never recurses on it
    # coefficient name -> (name of a {1}-inverse g of it, name of the exact
    # check that makes g one); see `solve`
    _INNER: dict = {}

    def __getattr__(self, name: str):
        try:
            define = self._DEFS[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}") from None
        value = self.__dict__[name] = define(self)
        return value

    def solve(self, a: str, y: str, side: str) -> Optional[MatrixQ]:
        """The system a x = y (side "right") or x a = y ("left") on two named
        quantities, decided once per system, with no elimination.

        `_INNER[a]` names a {1}-inverse g of a and the exact guard that makes
        it one (a g a = a); `_solve_inner` decides the system from g by one
        product.  The guard holds by construction, so a failed guard is a
        defect and raises InternalConsistencyError.  The cache is keyed by
        the two matrices and the side, so equal systems under different
        names are decided once.
        """
        cache = self.__dict__.setdefault("_solves", {})
        key = (getattr(self, a), getattr(self, y), side)
        if key not in cache:
            g, guard = self._INNER[a]
            if not getattr(self, guard):
                raise InternalConsistencyError(f"{guard} failed: {g} is no inner inverse of {a}")
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


@dataclass(frozen=True)
class MPPair(_Quantities):
    """A square matrix with its pseudoinverse and the two associated projections.

    Only a is stored.  a^+ = c^+ b^+ from the full-rank factorization a = b c;
    p = b b^+ = a a^+ projects onto range(a); q = c^+ c = a^+ a has kernel(a)
    as kernel.  `from_matrix` checks that a is square and re-verifies that p
    and q are exact hermitian idempotents.
    """

    a: MatrixQ

    _DEFS = {
        "f": lambda m: full_rank_factorize(m.a),
        "b": lambda m: m.f.b,
        "c": lambda m: m.f.c,
        "daggers": lambda m: factor_daggers(m.f),
        "b_dagger": lambda m: m.daggers[0],
        "c_dagger": lambda m: m.daggers[1],
        "a_dagger": lambda m: m.c_dagger @ m.b_dagger,
        "p": lambda m: m.b @ m.b_dagger,
        "q": lambda m: m.c_dagger @ m.c,
        "e_n": lambda m: MatrixQ.identity(m.a.rows),
        "a_star": lambda m: conj_transpose(m.a),
        "aa": lambda m: m.a_star @ m.a,                              # a* a
        "bb": lambda m: m.a @ m.a_star,                              # a a*
        "p_eq_q": lambda m: m.p == m.q,
        "p_perp": lambda m: m.e_n - m.p,
        "q_perp": lambda m: m.e_n - m.q,
        "v_inv": lambda m: m.p_perp + m.bb,                          # Lemma 3.8's v^-1
        "w_inv": lambda m: m.q_perp + m.aa,                          # Lemma 3.8's w^-1
    }

    @classmethod
    def from_matrix(cls, a: MatrixQ) -> "MPPair":
        if not a.is_square:
            raise ShapeError("MPPair expects a square matrix")
        pair = cls(a=a)
        for proj in (pair.p, pair.q):
            if proj @ proj != proj or conj_transpose(proj) != proj:
                raise InternalConsistencyError("a a^+ / a^+ a not a hermitian idempotent")
        return pair


def is_ep(a: MatrixQ) -> bool:
    """True when a a^+ == a^+ a (exact).  Square input required."""
    if not a.is_square:
        raise ShapeError("is_ep expects a square matrix")
    return MPPair(a=a).p_eq_q


def lemma38_witnesses(pair: MPPair) -> tuple:
    """Invertible v, w with a^+ = a* v = w a*.

    v = e - p + (a^+)* a^+  satisfies  a^+ = a* v,  a a* v = v a a* = p.
    w = e - q + a^+ (a^+)*  satisfies  a^+ = w a*,  w a* a = a* a w = q.
    Their inverses are v^-1 = e - p + a a* and w^-1 = e - q + a* a, so
    invertibility is the one product v v^-1 = e (likewise w w^-1 = e); for a
    square matrix a one-sided inverse is two-sided.  All identities are
    re-verified exactly.
    """
    x, p, q, a_star = pair.a_dagger, pair.p, pair.q, pair.a_star
    xs = conj_transpose(x)
    v = pair.p_perp + (xs @ x)
    w = pair.q_perp + (x @ xs)
    checks = (
        v @ pair.v_inv == pair.e_n,
        w @ pair.w_inv == pair.e_n,
        a_star @ v == x,
        w @ a_star == x,
        pair.bb @ v == p,
        v @ pair.bb == p,
        w @ pair.aa == q,
        pair.aa @ w == q,
    )
    if not all(checks):
        raise InternalConsistencyError("lemma38 witness identities failed")
    return v, w


@dataclass(frozen=True)
class Lemma38FactorChecks:
    """Pass/fail record for the factor-level witness identities."""

    bpinv_gram_inverse_ok: bool  # (b^+ (b^+)*)^-1 == b* b
    cpinv_gram_inverse_ok: bool  # ((c^+)* c^+)^-1 == c c*
    vb_identity_ok: bool  # v b == (b^+)* (c^+)* c^+
    cw_identity_ok: bool  # c w == b^+ (b^+)* (c^+)*

    @property
    def all_ok(self) -> bool:
        return (
            self.bpinv_gram_inverse_ok
            and self.cpinv_gram_inverse_ok
            and self.vb_identity_ok
            and self.cw_identity_ok
        )


def lemma38_factor_witnesses(f: FullRankFactorization, pair: MPPair) -> Lemma38FactorChecks:
    """Check the factor-level identities tied to the v, w witnesses.

    `f` must factor pair.a (b c == a), otherwise it is rejected.
    """
    if f.b @ f.c != pair.a:
        raise ValueError("factorization does not reproduce the matrix of the pair")
    v, w = lemma38_witnesses(pair)
    b, c = f.b, f.c
    bp, cp = factor_daggers(f)
    bps = conj_transpose(bp)
    cps = conj_transpose(cp)
    e_r = MatrixQ.identity(f.rank)
    g_b = bp @ bps
    g_c = cps @ cp
    bsb = conj_transpose(b) @ b
    ccs = c @ conj_transpose(c)
    return Lemma38FactorChecks(
        bpinv_gram_inverse_ok=(g_b @ bsb == e_r and bsb @ g_b == e_r),
        cpinv_gram_inverse_ok=(g_c @ ccs == e_r and ccs @ g_c == e_r),
        vb_identity_ok=(v @ b == bps @ cps @ cp),
        cw_identity_ok=(c @ w == bp @ bps @ cps),
    )
