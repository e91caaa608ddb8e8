"""Exact Moore-Penrose inverses and the EP property.

Everything goes through the full-rank factorization a = b c, with b of full
column rank and c of full row rank:

    b^+ = (b* b)^-1 b*,   c^+ = c* (c c*)^-1,   a^+ = c^+ b^+

which is exact over the Gaussian rationals for any rank (rank 0 gives the
zero matrix of transposed shape).  `factor_daggers` is the one place that
forms b^+ and c^+, each from one elimination of its Gram beside the factor,
[b* b | b*] and [c c* | c], which reads (b* b)^-1 b* and (c c*)^-1 c = (c^+)*
without forming a Gram inverse.  `penrose_certificate` re-checks the four
defining conditions from scratch.

`is_ep` decides p == q exactly, with p = b b^+ = a a^+ and q = c^+ c = a^+ a.
The memoised, validated form of these quantities, with the Grams and
everything the batteries read, is `characterizations.EPInstance`; this
module sits below it and never imports it.

`lemma38_witnesses` builds, on such an instance, the invertible elements
v, w with a^+ = a* v = w a* and re-verifies every claimed identity before
returning.  Their inverses come in closed form, v^-1 = (e - p) + a a* and
w^-1 = (e - q) + a* a (the instance's `v_inv` and `w_inv`), so one product
each, v v^-1 = e and w w^-1 = e, checks invertibility without an
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    FullRankFactorization,
    InternalConsistencyError,
    MatrixQ,
    ShapeError,
    _inverse_times,
    conj_transpose,
    full_rank_factorize,
)


def factor_daggers(f: FullRankFactorization) -> tuple:
    """(b^+, c^+) of a full-rank factorization: (b* b)^-1 b* and c* (c c*)^-1.

    Each is one Gram product and one elimination: b^+ is read off the RREF
    of [b* b | b*], and (c^+)* = (c c*)^-1 c, as c c* is hermitian, off that
    of [c c* | c].  A factor without full rank has a singular Gram and
    raises SingularMatrixError.  An identity c is its own c^+, with no
    elimination; `full_rank_factorize` gives one whenever a has full column
    rank, since c is then a square RREF.
    """
    bs = conj_transpose(f.b)
    b_dagger = _inverse_times(bs @ f.b, bs)
    if f.rank == f.c.cols and f.c == MatrixQ.identity(f.rank):
        return b_dagger, f.c
    return b_dagger, conj_transpose(_inverse_times(f.c @ conj_transpose(f.c), f.c))


def pinv(a: MatrixQ) -> MatrixQ:
    """Exact Moore-Penrose inverse of any rectangular matrix."""
    b_dagger, c_dagger = factor_daggers(full_rank_factorize(a))
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
    ax, xa = a @ x, x @ a
    return PenroseCertificate(
        cond1_residual=(ax @ a) - a,
        cond2_residual=(xa @ x) - x,
        ax_hermitian=conj_transpose(ax) == ax,
        xa_hermitian=conj_transpose(xa) == xa,
    )


def is_ep(a: MatrixQ) -> bool:
    """True when a a^+ == a^+ a, decided exactly as b b^+ == c^+ c.  Square input required."""
    if not a.is_square:
        raise ShapeError("is_ep expects a square matrix")
    f = full_rank_factorize(a)
    b_dagger, c_dagger = factor_daggers(f)
    return f.b @ b_dagger == c_dagger @ f.c


def lemma38_witnesses(inst) -> tuple:
    """Invertible v, w with a^+ = a* v = w a*, from the memoised quantities of
    a `characterizations.EPInstance`.

    v = e - p + (a^+)* a^+  satisfies  a^+ = a* v,  a a* v = v a a* = p.
    w = e - q + a^+ (a^+)*  satisfies  a^+ = w a*,  w a* a = a* a w = q.
    Their inverses are v^-1 = e - p + a a* and w^-1 = e - q + a* a, so
    invertibility is the one product v v^-1 = e (likewise w w^-1 = e); for a
    square matrix a one-sided inverse is two-sided.  All identities are
    re-verified exactly.
    """
    x, p, q, a_star = inst.a_dagger, inst.p, inst.q, inst.a_star
    xs = conj_transpose(x)
    v = inst.p_perp + (xs @ x)
    w = inst.q_perp + (x @ xs)
    checks = (
        v @ inst.v_inv == inst.e_n,
        w @ inst.w_inv == inst.e_n,
        a_star @ v == x,
        w @ a_star == x,
        inst.bb @ v == p,
        v @ inst.bb == p,
        w @ inst.aa == q,
        inst.aa @ w == q,
    )
    if not all(checks):
        raise InternalConsistencyError("lemma38 witness identities failed")
    return v, w
