"""Block structure of EP matrices, and what survives under other norms.

An EP matrix is an invertible block conjugated into place: t = j (t1 + 0) j^-1
with j gluing a range basis to a kernel basis.  The pseudoinverse then falls
out by inverting the block.  The second half plays the same construction
against the 1-norm, where the conjugation only behaves when j is an isometry
(a signed permutation).
"""

from epkit import MatrixQ, PNorm, inverse, pinv, prop52_battery, thm53_decompose


def show(label, m):
    print(f"{label} =")
    for i in range(m.rows):
        print("   ", [str(x) for x in m.row(i)])


def embed(block, n):
    k = block.rows
    return MatrixQ.from_rows(
        [[block.entry(i, j) if i < k and j < k else 0 for j in range(n)]
         for i in range(n)])


def main():
    t = MatrixQ.from_rows([
        ["2", "2", "0"],
        ["2", "2", "0"],
        ["0", "0", "5"],
    ])
    dec = thm53_decompose(t)
    assert dec is not None, "matrix is ep, decomposition must exist"
    t1, j, j_inv, q1 = dec
    show("t", t)
    show("invertible block t1", t1)
    show("basis map j (range columns then kernel columns)", j)
    show("q1 = t t+ (orthogonal projection onto the range)", q1)
    rebuilt = j @ embed(inverse(t1), t.rows) @ j_inv
    agrees = pinv(t) == rebuilt
    print("t+ agrees with conjugating the inverted block:", agrees)
    assert agrees, "t+ must equal j (t1^-1 + 0) j^-1"

    print("\nsame block, two basis maps, 1-norm battery:")
    t1 = MatrixQ.from_rows([["3"]])
    signed_perm = MatrixQ.from_rows([[0, -1], [1, 0]])
    shear = MatrixQ.from_rows([[1, 1], [0, 1]])
    for name, j_mat in (("signed permutation", signed_perm), ("shear", shear)):
        results = prop52_battery(t1, j_mat, PNorm(1))
        truths = [r.truth for r in results]
        print(f"  {name:<18} truths={truths}")
        print(f"    note on the projection statement: {results[2].note}")


if __name__ == "__main__":
    main()
