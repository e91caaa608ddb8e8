"""Equivalence batteries on one EP and one non-EP matrix.

A battery evaluates every statement of one equivalence family on the same
instance.  The point of the design is that each statement is decided by its
own route; agreement across the battery is evidence the routes are right,
and the seeded runner turns that into a bulk property check.
"""

from epkit import (
    EPInstance,
    GeneratorConfig,
    MatrixQ,
    child_seed,
    gen_matrix,
    run_battery,
    thm32_battery,
    thm37_battery,
)


def print_results(results):
    for r in results:
        mark = {True: "true ", False: "false", None: "  ?  "}[r.truth]
        wit = f"  witness keys: {sorted(r.witness)}" if r.witness else ""
        print(f"  {r.statement_id:<10} {mark}  via {r.evaluation_route}{wit}")


def main():
    ep = gen_matrix(GeneratorConfig(seed=child_seed(7, 0), n=3, kind="ep", rank=2))
    non_ep = MatrixQ.from_rows([[0, 1], [0, 0]])

    print("rank-2 ep draw, kernel-and-range battery:")
    print_results(thm32_battery(EPInstance.from_matrix(ep)))

    print("\norder-two nilpotent (not ep), same battery:")
    print_results(thm32_battery(EPInstance.from_matrix(non_ep)))

    print("\nthe 26-statement battery on the ep draw:")
    results = thm37_battery(EPInstance.from_matrix(ep))
    n_true = sum(1 for r in results if r.truth)
    n_witness = sum(1 for r in results if r.witness)
    print(f"  {n_true}/{len(results)} true, {n_witness} carry re-verified witnesses")

    # bulk run: 40 seeded instances, half guaranteed ep, a quarter guaranteed not
    kinds = ["ep", "ep", "non_ep", "arbitrary"]
    cfgs = [GeneratorConfig(seed=child_seed(7, i), n=3, kind=kinds[i % 4])
            for i in range(40)]
    report = run_battery("3.7", cfgs, seed=7)
    print(f"\nseeded bulk run: {report.trials} instances, "
          f"violations={list(report.equivalence_violations)}, "
          f"failed={report.failed}")
    assert not report.failed, "a battery must agree on every instance"


if __name__ == "__main__":
    main()
