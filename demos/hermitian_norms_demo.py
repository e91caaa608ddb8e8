"""Hermitian-ness relative to a norm, as a grid-sampled property.

An element is hermitian for a norm when ||exp(i t a)|| stays at 1 for every
real t.  With the spectral norm that recovers plain self-adjointness; with
the 1-norm or the max-norm it is a genuinely different, smaller class.  The
checker samples a symmetric t-grid and reports a three-way verdict, since a
finite grid can only ever give evidence for the for-all direction.

For an exact idempotent q the grid uses exp(i t q) = e + (e^{it} - 1) q, and
at p = 2 its norm sigma(|e^{it} - 1| s) with s = ||q - q*||_2 and
sigma(x) = (x + sqrt(x^2 + 4)) / 2, so the deviation peaks at |t| = pi.
Any other exact matrix that is hermitian for the norm (real diagonal, or
self-adjoint at p = 2) takes exp(i t a) = V diag(e^{it lambda}) V* from eigh.
"""

import math

from epkit import MatrixQ, PNorm, hermitian_check

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def verdict_line(m, p, **kw):
    rep = hermitian_check(m, PNorm(p), **kw)
    return (f"p={p!s:<4} verdict={rep.verdict:<14} "
            f"max dev {rep.max_deviation:.3e} at t={rep.argmax_t:+.4f}")


def main():
    diag = MatrixQ.diagonal([1, -2, 3])
    print("real diagonal, hermitian for every p:")
    for p in (1, 2, math.inf):
        print("  " + verdict_line(diag, p))

    nil = MatrixQ.from_rows([[0, 1], [0, 0]])
    print("\norder-two nilpotent, spectral norm, t in [-1, 1]:")
    print("  " + verdict_line(nil, 2, grid=513, t_max=1.0))
    print(f"  expected peak deviation: golden ratio - 1 = {GOLDEN - 1:.12f}")

    flip = MatrixQ.from_rows([[0, 1], [1, 0]])
    print("\nthe flip map: self-adjoint, so hermitian for p=2,")
    print("but its exponential bulges in the 1-norm:")
    for p in (2, 1):
        print("  " + verdict_line(flip, p))

    oblique = MatrixQ.from_rows([[1, 1], [0, 0]])
    print("\na non-self-adjoint idempotent (s = ||q - q*|| = 1), hermitian for no p:")
    for p in (1, 2, math.inf):
        print("  " + verdict_line(oblique, p))
    print(f"  expected p=2 peak deviation: sigma(2) - 1 = sqrt(2) = {math.sqrt(2.0):.12f}")


if __name__ == "__main__":
    main()
