"""Command-line surface: exact pseudoinverses, EP verdicts, batteries, norm checks.

Matrix files are JSON objects {"rows": n, "cols": m, "entries": [[...], ...]}
with entries written in the exact scalar grammar (integers allowed and
canonicalized to strings on output).  Writing a parsed canonical file
reproduces it byte for byte.

Exit codes are a stable contract: 0 pass, 1 property false, 2 input error,
3 inconclusive, which only `hermitian` returns, for a grid deviation between
its two tolerances.  `hermitian` also prints the exact verdict of
`is_hermitian_exact` on its `exact:` line; the exit code follows the grid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .battery import GeneratorConfig, GeneratorError, child_seed, run_battery
from .characterizations import EPInstance
from .exactnum import ScalarParseError, as_scalar, format_scalar, parse_scalar
from .linalg import MatrixQ, ShapeError
from .pnorms import PNorm, hermitian_check, is_hermitian_exact, parse_p
from .pseudoinverse import penrose_certificate, pinv

EXIT_PASS = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


class InputError(ValueError):
    """Bad file, shape, or flag value; maps to exit code 2."""


def parse_matrix_obj(obj) -> MatrixQ:
    if not isinstance(obj, dict):
        raise InputError("matrix file must be a JSON object")
    missing = [k for k in ("rows", "cols", "entries") if k not in obj]
    if missing:
        raise InputError(f"matrix file missing keys: {', '.join(missing)}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in (rows, cols)):
        raise InputError("rows and cols must be nonnegative integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputError(f"expected {rows} entry rows")
    flat = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"entry row {i} must hold {cols} values")
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                try:
                    flat.append(parse_scalar(cell))
                except ScalarParseError as exc:
                    raise InputError(f"entry ({i},{j}): {exc}") from exc
            elif isinstance(cell, int) and not isinstance(cell, bool):
                flat.append(as_scalar(cell))
            else:
                raise InputError(f"entry ({i},{j}) must be a scalar string or integer")
    return MatrixQ(rows, cols, flat)


def read_matrix(path: str) -> MatrixQ:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, nesting too deep, or an integer beyond the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix_obj(obj)


def matrix_to_obj(m: MatrixQ) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[format_scalar(x) for x in m.row(i)] for i in range(m.rows)],
    }


def format_matrix(m: MatrixQ) -> str:
    """Canonical matrix file text; read_matrix of this text round-trips byte-identically."""
    try:
        return json.dumps(matrix_to_obj(m), indent=2) + "\n"
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputError(f"result too large to write: {exc}") from exc


def cmd_pinv(args) -> int:
    a = read_matrix(args.input)
    x = pinv(a)
    cert = penrose_certificate(a, x)
    text = format_matrix(x)  # before any output, so an input error leaves none
    sys.stdout.write(text)
    checks = [
        ("axa = a", cert.cond1_residual.is_zero()),
        ("xax = x", cert.cond2_residual.is_zero()),
        ("(ax)* = ax", cert.ax_hermitian),
        ("(xa)* = xa", cert.xa_hermitian),
    ]
    for label, ok in checks:
        sys.stdout.write(f"{label}: {'PASS' if ok else 'FAIL'}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_PASS if cert.valid else EXIT_PROPERTY_FALSE


def cmd_ep(args) -> int:
    a = read_matrix(args.input)
    if not a.is_square:
        raise InputError(f"ep check needs a square matrix, got {a.rows}x{a.cols}")
    inst = EPInstance.from_matrix(a)
    p_text, q_text = format_matrix(inst.p), format_matrix(inst.q)
    sys.stdout.write(f"EP: {'yes' if inst.p_eq_q else 'no'}\n")
    sys.stdout.write("p = a a+:\n")
    sys.stdout.write(p_text)
    sys.stdout.write("q = a+ a:\n")
    sys.stdout.write(q_text)
    return EXIT_PASS if inst.p_eq_q else EXIT_PROPERTY_FALSE


def battery_configs(theorem_id: str, trials: int, size: int, seed: int) -> list:
    """Deterministic mixed workload: half ep, a quarter non_ep, a quarter arbitrary.

    Sizes below 2 cannot produce non_ep draws, so those slots fall back to
    arbitrary.  Seeds are split per instance index.
    """
    kinds = ["ep", "ep", "non_ep", "arbitrary"]
    if size < 2:
        kinds = ["ep", "ep", "arbitrary", "arbitrary"]
    out = []
    for i in range(trials):
        out.append(GeneratorConfig(seed=child_seed(seed, i), n=size,
                                   kind=kinds[i % len(kinds)]))
    return out


def cmd_battery(args) -> int:
    if args.trials < 0:
        raise InputError("--trials must be nonnegative")
    if args.size < 0:
        raise InputError("--size must be nonnegative")
    cfgs = battery_configs(args.theorem, args.trials, args.size, args.seed)
    try:
        report = run_battery(args.theorem, cfgs, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if report.failed:
        sys.stdout.write(f"battery {args.theorem}: "
                         f"{len(report.equivalence_violations)} violation(s)\n")
        return EXIT_PROPERTY_FALSE
    return EXIT_PASS


def cmd_hermitian(args) -> int:
    a = read_matrix(args.input)
    if not a.is_square:
        raise InputError(f"hermitian check needs a square matrix, got {a.rows}x{a.cols}")
    try:
        norm = PNorm(parse_p(args.p))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.grid < 2:
        raise InputError("--grid must be at least 2")
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise InputError("--tmax must be finite and positive")
    try:
        rep = hermitian_check(a, norm, grid=args.grid, t_max=args.tmax)
    except OverflowError as exc:
        raise InputError(f"entries too large for the floating-point check: {exc}") from exc
    except ValueError as exc:  # grid and entries are valid here: the t-grid overflows
        raise InputError(f"--tmax {args.tmax:g} is too large: {exc}") from exc
    exact = "hermitian" if is_hermitian_exact(a, norm) else "not_hermitian"
    sys.stdout.write(f"verdict: {rep.verdict}\n")
    sys.stdout.write(f"exact: {exact}\n")
    sys.stdout.write(f"max deviation of |exp(i t a)| from 1: {rep.max_deviation:.12g} "
                     f"at t = {rep.argmax_t:.12g}\n")
    sys.stdout.write(f"grid: {rep.grid_size} points on [{-rep.t_max:.6g}, {rep.t_max:.6g}], "
                     f"pass below {rep.tol_pass:g}, fail above {rep.tol_fail:g}\n")
    if rep.verdict == "hermitian":
        return EXIT_PASS
    if rep.verdict == "not_hermitian":
        return EXIT_PROPERTY_FALSE
    return EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exact pseudoinverse and EP-matrix toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pinv = sub.add_parser("pinv", help="Moore-Penrose inverse with a four-condition certificate")
    p_pinv.add_argument("input", help="matrix file (JSON)")
    p_pinv.add_argument("--out", help="also write the pseudoinverse to this file")
    p_pinv.set_defaults(func=cmd_pinv)

    p_ep = sub.add_parser("ep", help="decide a a+ = a+ a for a square matrix")
    p_ep.add_argument("input", help="matrix file (JSON)")
    p_ep.set_defaults(func=cmd_ep)

    p_bat = sub.add_parser("battery", help="run an equivalence battery over random instances")
    p_bat.add_argument("--theorem", required=True, help="battery id, e.g. 3.7")
    p_bat.add_argument("--trials", type=int, default=100)
    p_bat.add_argument("--size", type=int, default=4)
    p_bat.add_argument("--seed", type=int, default=0)
    p_bat.add_argument("--out", help="write the JSON report here instead of stdout")
    p_bat.set_defaults(func=cmd_battery)

    p_her = sub.add_parser("hermitian", help="norm-relative hermitian check on a t-grid")
    p_her.add_argument("input", help="matrix file (JSON)")
    p_her.add_argument("--p", default="2", help="norm index: 1, 2, or inf")
    p_her.add_argument("--grid", type=int, default=1024)
    p_her.add_argument("--tmax", type=float, default=2.0 * math.pi)
    p_her.set_defaults(func=cmd_hermitian)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (InputError, ScalarParseError, ShapeError, GeneratorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
