"""Exact Moore-Penrose inverses and the EP property.

Everything goes through the full-rank factorization a = b c, with b of full
column rank and c of full row rank:

    b^+ = (b* b)^-1 b*,   c^+ = c* (c c*)^-1,   a^+ = c^+ b^+

which is exact over the Gaussian rationals for any rank (rank 0 gives the
zero matrix of transposed shape).  `factor_daggers` forms b^+ and c^+ from
the factors alone, each from one elimination of its Gram beside the factor,
[b* b | b*] and [c c* | c], which reads (b* b)^-1 b* and (c c*)^-1 c = (c^+)*
without forming a Gram inverse; `row_dagger` is its c^+ half.
An invertible a has the factorization a = a e, and its daggers are a^-1
and e, so `linalg.inverse` is its whole route.  A caller that built a from
its factors, or inverted it, may know the daggers already (`battery` does
for an ep draw and for every invertible one); `EPInstance` certifies held
daggers as it does computed ones.
`penrose_certificate` re-checks the four defining conditions from scratch.
`EPInstance` does not call it: when b+ and c+ are the Moore-Penrose
inverses of b and c (b+ b = e, c c+ = e, b b+ and c+ c hermitian),
a^+ = c^+ b^+ meets all four conditions by associativity, so its
validation checks that generating set instead.

`is_ep` decides p == q exactly, with p = b b^+ = a a^+ and q = c^+ c = a^+ a.
The memoised, validated form of these quantities, with the Grams and
everything the batteries read, is `characterizations.EPInstance`; this
module sits below it and never imports it.

`lemma38_witnesses` builds, on such an instance, the invertible elements
v, w with a^+ = a* v = w a* and verifies four identities before returning;
the other four claimed ones follow from those and the validated instance.
Their inverses come in closed form, v^-1 = (e - p) + a a* and
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
    of [b* b | b*], and c^+ is `row_dagger(c)`.  A factor without full rank
    has a singular Gram and raises SingularMatrixError.
    """
    bs = conj_transpose(f.b)
    return _inverse_times(bs @ f.b, bs), row_dagger(f.c)


def row_dagger(c: MatrixQ) -> MatrixQ:
    """c^+ = c* (c c*)^-1 of a c with full row rank.

    (c^+)* = (c c*)^-1 c, as c c* is hermitian, is read off the RREF of
    [c c* | c]; SingularMatrixError when c has no full row rank.  An
    identity c is its own c^+, with no elimination; `full_rank_factorize`
    gives one whenever a has full column rank, since c is then a square
    RREF.
    """
    if c.rows == c.cols and c == MatrixQ.identity(c.rows):
        return c
    return conj_transpose(_inverse_times(c @ conj_transpose(c), c))


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
    a validated `characterizations.EPInstance`.

    v = e - p + (a^+)* a^+  satisfies  a^+ = a* v,  a a* v = v a a* = p.
    w = e - q + a^+ (a^+)*  satisfies  a^+ = w a*,  w a* a = a* a w = q.
    Their inverses are v^-1 = e - p + a a* and w^-1 = e - q + a* a, so
    invertibility is the one product v v^-1 = e (likewise w w^-1 = e); for a
    square matrix a one-sided inverse is two-sided.

    Four identities are verified exactly: v v^-1 = e, w w^-1 = e, a* v = a^+
    and w a* = a^+.  The other four follow by associativity, since
    validation made p and q hermitian with a a^+ = p and a^+ a = q, so v and
    w are hermitian by construction: (a a*) v = a (a* v) = a a^+ = p and
    v (a a*) = ((a a*) v)* = p, and likewise w (a* a) = (w a*) a = a^+ a = q
    and (a* a) w = (w (a* a))* = q.
    """
    x = inst.a_dagger
    xs = conj_transpose(x)
    v = inst.p_perp + (xs @ x)
    w = inst.q_perp + (x @ xs)
    if not (v @ inst.v_inv == inst.e_n and w @ inst.w_inv == inst.e_n
            and inst.a_star @ v == x and w @ inst.a_star == x):
        raise InternalConsistencyError("lemma38 witness identities failed")
    return v, w
