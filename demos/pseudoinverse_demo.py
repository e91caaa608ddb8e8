"""Walk through an exact pseudoinverse computation.

Everything here happens over the Gaussian rationals, so the four defining
conditions hold with literally zero residual, not residual-below-epsilon.
"""

from epkit import MatrixQ, full_rank_factorize, penrose_certificate, pinv


def show(label, m):
    print(f"{label} =")
    for i in range(m.rows):
        print("   ", [str(x) for x in m.row(i)])


def main():
    a = MatrixQ.from_rows([
        ["1", "2", "0"],
        ["1/2", "1", "0"],
        ["0", "0", "3i"],
    ])
    show("a", a)

    f = full_rank_factorize(a)
    print(f"\nrank {f.rank} factorization a = b c")
    show("b", f.b)
    show("c", f.c)

    x = pinv(a)
    print()
    show("a+", x)

    cert = penrose_certificate(a, x)
    print("\ndefining conditions:")
    print("  a x a = a        :", cert.cond1_residual.is_zero())
    print("  x a x = x        :", cert.cond2_residual.is_zero())
    print("  (a x)* = a x     :", cert.ax_hermitian)
    print("  (x a)* = x a     :", cert.xa_hermitian)
    assert cert.cond1_residual.is_zero() and cert.cond2_residual.is_zero()
    assert cert.ax_hermitian and cert.xa_hermitian

    involution = pinv(x) == a
    print("\ninvolution: (a+)+ == a :", involution)
    assert involution, "(a+)+ must equal a"


if __name__ == "__main__":
    main()
