import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import pnorms
from epkit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    EXIT_PROPERTY_FALSE,
    InputError,
    format_matrix,
    main,
    parse_matrix_obj,
    read_matrix,
)
from epkit.linalg import MatrixQ


def mfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(path)


def matrix_obj(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "entries": rows}


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- matrix file parsing --------------------------------------------------------


def test_parse_matrix_obj_happy():
    m = parse_matrix_obj({"rows": 2, "cols": 2, "entries": [["1", "1/2i"], [3, "2-1/3i"]]})
    assert m == MatrixQ.from_rows([["1", "1/2i"], ["3", "2-1/3i"]])


def test_parse_matrix_obj_rejections():
    bad = [
        [],  # not a dict
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [["1", "2"]]},
        {"rows": 1, "cols": 2, "entries": [["1"]]},
        {"rows": 1, "cols": 1, "entries": [[1.5]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
        {"rows": -1, "cols": 1, "entries": []},
        {"rows": "2", "cols": 1, "entries": []},
    ]
    for obj in bad:
        with pytest.raises(InputError):
            parse_matrix_obj(obj)


def test_format_matrix_round_trips(tmp_path):
    m = MatrixQ.from_rows([["1/2", "-3i"], ["0", "2+2i"]])
    text = format_matrix(m)
    path = tmp_path / "m.json"
    path.write_text(text)
    again = read_matrix(str(path))
    assert again == m
    assert format_matrix(again) == text


# -- pinv -----------------------------------------------------------------------


def test_pinv_golden_output(tmp_path, capsys):
    path = mfile(tmp_path, "n.json", matrix_obj([["0", "1"], ["0", "0"]]))
    code, out, err = run_main(capsys, ["pinv", path])
    assert code == EXIT_PASS and err == ""
    expected_matrix = format_matrix(MatrixQ.from_rows([["0", "0"], ["1", "0"]]))
    assert out == (expected_matrix
                   + "axa = a: PASS\n"
                   + "xax = x: PASS\n"
                   + "(ax)* = ax: PASS\n"
                   + "(xa)* = xa: PASS\n")


def test_pinv_out_file(tmp_path, capsys):
    path = mfile(tmp_path, "a.json", matrix_obj([["2", "0"], ["0", "0"], ["0", "0"]]))
    out_path = tmp_path / "x.json"
    code, out, _ = run_main(capsys, ["pinv", path, "--out", str(out_path)])
    assert code == EXIT_PASS
    x = read_matrix(str(out_path))
    assert x == MatrixQ.from_rows([["1/2", "0", "0"], ["0", "0", "0"]])
    assert out.startswith(format_matrix(x))


def test_pinv_byte_stable(tmp_path, capsys):
    path = mfile(tmp_path, "a.json", matrix_obj([["1", "2"], ["3", "4"]]))
    _, out1, _ = run_main(capsys, ["pinv", path])
    _, out2, _ = run_main(capsys, ["pinv", path])
    assert out1 == out2


# -- ep -------------------------------------------------------------------------


def test_ep_yes_and_no(tmp_path, capsys):
    path = mfile(tmp_path, "d.json", matrix_obj([["2", "0"], ["0", "0"]]))
    code, out, _ = run_main(capsys, ["ep", path])
    assert code == EXIT_PASS
    assert out.startswith("EP: yes\n")
    assert "p = a a+:\n" in out and "q = a+ a:\n" in out

    path = mfile(tmp_path, "n.json", matrix_obj([["0", "1"], ["0", "0"]]))
    code, out, _ = run_main(capsys, ["ep", path])
    assert code == EXIT_PROPERTY_FALSE
    assert out.startswith("EP: no\n")


def test_ep_verdict_rests_on_the_certificate(tmp_path, monkeypatch):
    # epkit ep reads the validated instance every battery reads, so a held a+
    # that passes a a+ = b b+ and a+ a = c+ c but not Penrose 2 is a defect
    # raised under the certificate's message, never a verdict
    from epkit import characterizations as chz
    from epkit.linalg import InternalConsistencyError

    held = MatrixQ.from_rows([["1/2", 0], [0, 1]])     # of diag(2, 0); a+ is diag(1/2, 0)
    monkeypatch.setitem(chz._QUANTITIES, "a_dagger", lambda m: held)
    path = mfile(tmp_path, "d.json", matrix_obj([["2", "0"], ["0", "0"]]))
    with pytest.raises(InternalConsistencyError, match="four-condition certificate for a\\+"):
        main(["ep", path])


def test_ep_rejects_scalars_outside_the_grammar(tmp_path, capsys):
    # the grammar has no whitespace, not even a trailing newline, and only
    # ASCII digits: such an entry is an input error, not a number
    for entry in ("5\n", "3-4i\n", "\u0663", "1/\uff12"):
        path = mfile(tmp_path, "s.json", matrix_obj([[entry]]))
        code, out, err = run_main(capsys, ["ep", path])
        assert code == EXIT_INPUT_ERROR and out == "", entry
        assert err.startswith("error:") and "entry (0,0)" in err, entry


def test_ep_rejects_rectangular(tmp_path, capsys):
    path = mfile(tmp_path, "r.json", matrix_obj([["1", "0"]]))
    code, out, err = run_main(capsys, ["ep", path])
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and "square" in err


# -- shared input error paths ------------------------------------------------------


def test_input_error_paths(tmp_path, capsys):
    bad_scalar = mfile(tmp_path, "b.json", matrix_obj([["1//2"]]))
    code, _, err = run_main(capsys, ["pinv", bad_scalar])
    assert code == EXIT_INPUT_ERROR and "entry (0,0)" in err

    code, _, err = run_main(capsys, ["pinv", str(tmp_path / "missing.json")])
    assert code == EXIT_INPUT_ERROR and "cannot read" in err

    not_json = mfile(tmp_path, "x.json", "{nope")
    code, _, err = run_main(capsys, ["pinv", not_json])
    assert code == EXIT_INPUT_ERROR and "not valid JSON" in err

    ragged = mfile(tmp_path, "g.json", {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]})
    code, _, err = run_main(capsys, ["pinv", ragged])
    assert code == EXIT_INPUT_ERROR and "entry row 1" in err


# -- battery -----------------------------------------------------------------------


def test_battery_stdout_report(capsys):
    code, out, _ = run_main(capsys, ["battery", "--theorem", "3.2",
                                     "--trials", "8", "--size", "3", "--seed", "7"])
    assert code == EXIT_PASS
    obj = json.loads(out)
    assert obj["theorem_id"] == "3.2"
    assert obj["trials"] == 8
    assert obj["failed"] is False
    assert obj["seed"] == 7
    assert list(obj) == ["theorem_id", "trials", "per_statement_truth_counts",
                         "equivalence_violations", "inconclusive_count",
                         "seed", "failed", "elapsed"]


def test_battery_report_file_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for dest in (out1, out2):
        code, out, _ = run_main(capsys, ["battery", "--theorem", "3.5",
                                         "--trials", "6", "--size", "3",
                                         "--seed", "9", "--out", str(dest)])
        assert code == EXIT_PASS and out == ""
    o1, o2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    o1.pop("elapsed"), o2.pop("elapsed")
    assert o1 == o2


def test_battery_unknown_theorem(capsys):
    code, _, err = run_main(capsys, ["battery", "--theorem", "9.9", "--trials", "1"])
    assert code == EXIT_INPUT_ERROR
    assert "unknown theorem id '9.9'" in err and "supported:" in err


def test_battery_zero_trials(capsys):
    code, out, _ = run_main(capsys, ["battery", "--theorem", "4.1", "--trials", "0"])
    assert code == EXIT_PASS
    assert json.loads(out)["trials"] == 0


def test_battery_size_one_falls_back(capsys):
    # sizes below 2 cannot host non-ep draws; the workload swaps them out
    code, out, _ = run_main(capsys, ["battery", "--theorem", "3.4",
                                     "--trials", "8", "--size", "1", "--seed", "3"])
    assert code == EXIT_PASS
    assert json.loads(out)["failed"] is False


def test_battery_bad_flags(capsys):
    code, _, err = run_main(capsys, ["battery", "--theorem", "3.2", "--trials", "-1"])
    assert code == EXIT_INPUT_ERROR and "--trials" in err
    code, _, err = run_main(capsys, ["battery", "--theorem", "3.2", "--size", "-1"])
    assert code == EXIT_INPUT_ERROR and "--size" in err
    code, _, err = run_main(capsys, ["battery", "--theorem", "3.2", "--size", "9"])
    assert code == EXIT_INPUT_ERROR and "size cap" in err


# -- hermitian ----------------------------------------------------------------------


def test_hermitian_pass(tmp_path, capsys):
    path = mfile(tmp_path, "d.json", matrix_obj([["1", "0"], ["0", "-2"]]))
    for p in ("1", "2", "inf"):
        code, out, _ = run_main(capsys, ["hermitian", path, "--p", p])
        assert code == EXIT_PASS
        assert out.startswith("verdict: hermitian\n")
        assert "grid: 1024 points" in out


def test_hermitian_fail_golden_deviation(tmp_path, capsys):
    path = mfile(tmp_path, "n.json", matrix_obj([["0", "1"], ["0", "0"]]))
    code, out, _ = run_main(capsys, ["hermitian", path, "--p", "2",
                                     "--tmax", "1.0", "--grid", "513"])
    assert code == EXIT_PROPERTY_FALSE
    assert out.startswith("verdict: not_hermitian\n")
    assert "max deviation of |exp(i t a)| from 1: 0.61803398875 at t = -1\n" in out


def test_hermitian_idempotent_but_oblique(tmp_path, capsys, monkeypatch):
    # exact idempotents take the closed form of exp(i t a), not the series
    def series(mats):
        raise AssertionError("_expm_batch called on an exact idempotent")
    monkeypatch.setattr(pnorms, "_expm_batch", series)
    path = mfile(tmp_path, "q.json", matrix_obj([["1", "1"], ["0", "0"]]))
    diag = mfile(tmp_path, "d.json", matrix_obj([["1", "0"], ["0", "0"]]))
    for p in ("1", "2", "inf"):
        assert run_main(capsys, ["hermitian", path, "--p", p])[0] == EXIT_PROPERTY_FALSE
        assert run_main(capsys, ["hermitian", diag, "--p", p])[0] == EXIT_PASS


def test_hermitian_large_norm_exact_inputs(tmp_path, capsys):
    # exactly hermitian files whose norm makes the series' rounding visible:
    # their grid comes from eigh, so it reads rounding error only; the
    # symmetric non-diagonal file is hermitian at p = 2 alone
    cases = (
        ([["3", "1"], ["1", "5000000000"]], {"1": False, "2": True, "inf": False}),
        ([["10000000000", "0"], ["0", "-10000000000"]], dict.fromkeys(("1", "2", "inf"), True)),
        ([["1000000", "0"], ["0", "-1000000"]], dict.fromkeys(("1", "2", "inf"), True)),
    )
    for k, (rows, hermitian) in enumerate(cases):
        path = mfile(tmp_path, f"big{k}.json", matrix_obj(rows))
        for p, expected in hermitian.items():
            code, out, err = run_main(capsys, ["hermitian", path, "--p", p])
            assert err == ""
            if expected:
                assert code == EXIT_PASS and out.startswith("verdict: hermitian\n")
                dev = float(out.split("from 1: ")[1].split()[0])
                assert dev <= 1e-9
            else:
                assert code == EXIT_PROPERTY_FALSE and out.startswith("verdict: not_hermitian\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_eigenvalues_past_float_range(tmp_path, capsys):
    # self-adjoint files with entries 10^308 whose eigenvalues (2e308, and
    # about 2.4e308) leave float range: eigh runs on a 2^-s, so the grid
    # reads rounding error, for the exact matrix and its float image alike
    big = str(10 ** 308)
    cases = ([[big, big], [big, big]],
             [[big, big, "0"], [big, big, big], ["0", big, big]])
    for k, rows in enumerate(cases):
        floats = np.array([[float(x) for x in row] for row in rows])
        for a in (MatrixQ.from_rows(rows), floats):
            rep = pnorms.hermitian_check(a, pnorms.PNorm(2))
            assert rep.verdict == "hermitian" and rep.max_deviation <= 1e-15, rep
        path = mfile(tmp_path, f"huge{k}.json", matrix_obj(rows))
        code, out, err = run_main(capsys, ["hermitian", path, "--p", "2"])
        assert (code, err) == (EXIT_PASS, "")
        assert out.startswith("verdict: hermitian\nexact: hermitian\n")


def test_hermitian_prints_the_exact_verdict_beside_the_grid(tmp_path, capsys):
    # the exact line comes from is_hermitian_exact; the exit code still
    # follows the grid, so a tiny violation the grid cannot resolve exits 3
    cases = (
        ([["1", "0"], ["0", "0"]], "1", "hermitian", "hermitian", EXIT_PASS),
        ([["1", "0"], ["0", "0"]], "2", "hermitian", "hermitian", EXIT_PASS),
        ([["3", "1"], ["1", "5000000000"]], "1", "not_hermitian", "not_hermitian",
         EXIT_PROPERTY_FALSE),
        ([["3", "1"], ["1", "5000000000"]], "2", "hermitian", "hermitian", EXIT_PASS),
        ([["0", "1/10000000"], ["0", "0"]], "2", "inconclusive", "not_hermitian",
         EXIT_INCONCLUSIVE),
    )
    for k, (rows, p, grid, exact, exit_code) in enumerate(cases):
        path = mfile(tmp_path, f"m{k}.json", matrix_obj(rows))
        code, out, err = run_main(capsys, ["hermitian", path, "--p", p])
        assert (code, err) == (exit_code, ""), (rows, p)
        assert out.startswith(f"verdict: {grid}\nexact: {exact}\n"), (rows, p, out)


def test_hermitian_between_tolerances_is_inconclusive_exit(tmp_path, capsys):
    # deviation lands between tol_pass and tol_fail: a verdict, not an error
    path = mfile(tmp_path, "nd.json", matrix_obj([["0", "1/10000000"], ["0", "0"]]))
    code, out, err = run_main(capsys, ["hermitian", path, "--p", "2"])
    assert code == EXIT_INCONCLUSIVE
    assert "verdict: inconclusive" in out
    assert err == ""


def test_hermitian_near_degenerate_top_pair_is_not_hermitian(tmp_path, capsys):
    # exp(itA) = diag(e^{-t}, e^{-1.000000001t}, e^{2t}) is unbounded; its
    # top singular pair sits 1e-9 apart over a spread spectrum
    path = mfile(tmp_path, "stall.json", matrix_obj(
        [["1i", "0", "0"], ["0", "1000000001/1000000000i", "0"], ["0", "0", "-2i"]]))
    code, out, err = run_main(capsys, ["hermitian", path, "--p", "2", "--grid", "8"])
    assert code == EXIT_PROPERTY_FALSE
    assert out.startswith("verdict: not_hermitian\n")
    assert err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_overflowing_exponential_is_not_hermitian(tmp_path, capsys):
    # exp(itA) = diag(e^{1000t}, 1) overflows on most of the grid, and so
    # does e + (e^{it} - 1) q for an idempotent q with an entry of 1e308
    series = mfile(tmp_path, "big.json", matrix_obj([["-1000i", "0"], ["0", "0"]]))
    closed = mfile(tmp_path, "bigq.json", matrix_obj([["1", str(10 ** 308)], ["0", "0"]]))
    for path in (series, closed):
        for p in ("1", "2", "inf"):
            code, out, err = run_main(capsys, ["hermitian", path, "--p", p, "--grid", "513"])
            assert code == EXIT_PROPERTY_FALSE
            assert out.startswith("verdict: not_hermitian\n")
            assert "max deviation of |exp(i t a)| from 1: inf at" in out
            assert err == ""


def test_hermitian_bad_flags(tmp_path, capsys):
    path = mfile(tmp_path, "d.json", matrix_obj([["1"]]))
    code, _, err = run_main(capsys, ["hermitian", path, "--p", "3"])
    assert code == EXIT_INPUT_ERROR and "p must be" in err
    code, _, err = run_main(capsys, ["hermitian", path, "--grid", "1"])
    assert code == EXIT_INPUT_ERROR and "--grid" in err
    code, _, err = run_main(capsys, ["hermitian", path, "--tmax", "0"])
    assert code == EXIT_INPUT_ERROR and "--tmax" in err
    rect = mfile(tmp_path, "r.json", matrix_obj([["1", "0"]]))
    code, _, err = run_main(capsys, ["hermitian", rect])
    assert code == EXIT_INPUT_ERROR and "square" in err


# -- parser plumbing -------------------------------------------------------------------


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    path = mfile(tmp_path, "d.json", matrix_obj([["2", "0"], ["0", "0"]]))
    proc = subprocess.run([sys.executable, "-m", "epkit", "ep", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("EP: yes\n")


# -- malformed and extreme inputs ------------------------------------------------------


def assert_input_error(capsys, argv, needle="error:"):
    code, _, err = run_main(capsys, argv)
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("error:") and needle in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"rows": 1, "cols": 1, "entries": [["\xe9"]]}')
    assert_input_error(capsys, ["pinv", str(path)], "UTF-8")


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = mfile(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert_input_error(capsys, ["ep", str(path)], "not valid JSON")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="interpreter has no integer digit limit")
def test_digits_beyond_the_int_limit_are_input_errors(tmp_path, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    literal = mfile(tmp_path, "lit.json",
                    '{"rows": 1, "cols": 1, "entries": [[' + digits + ']]}')
    assert_input_error(capsys, ["pinv", literal], "not valid JSON")
    scalar = mfile(tmp_path, "str.json", matrix_obj([[digits + "/3"]]))
    assert_input_error(capsys, ["pinv", scalar], "entry (0,0)")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="interpreter has no integer digit limit")
def test_results_too_large_to_write_are_input_errors(tmp_path, capsys):
    # entries under the digit limit whose a+ (and, for the singular matrix,
    # a a+ and a+ a) have denominators over it: no traceback, no partial output
    big = "1" + "0" * (sys.get_int_max_str_digits() * 2 // 3)
    out_file = tmp_path / "x.json"
    for argv, rows in ((["pinv", "--out", str(out_file)], [[big[:-1] + "1", "1"], ["1", big]]),
                       (["ep"], [[big, big[:-1] + "7"], [big, big[:-1] + "7"]])):
        path = mfile(tmp_path, "big.json", matrix_obj(rows))
        code, out, err = run_main(capsys, argv + [path])
        assert code == EXIT_INPUT_ERROR and out == "" and not out_file.exists()
        assert err.startswith("error:") and "too large to write" in err


def test_pinv_out_that_cannot_be_written_leaves_no_output(tmp_path, capsys):
    # the --out file is written before stdout, so a path in a missing
    # directory is an input error with no pseudoinverse and no PASS lines
    path = mfile(tmp_path, "a.json", matrix_obj([["1", "2"], ["3", "4"]]))
    out_file = tmp_path / "missing" / "x.json"
    code, out, err = run_main(capsys, ["pinv", "--out", str(out_file), path])
    assert code == EXIT_INPUT_ERROR and out == "" and not out_file.exists()
    assert err.startswith("error:")


def test_bool_dimensions_are_rejected(tmp_path, capsys):
    obj = {"rows": True, "cols": True, "entries": [["1"]]}
    with pytest.raises(InputError):
        parse_matrix_obj(obj)
    assert_input_error(capsys, ["ep", mfile(tmp_path, "bool.json", obj)], "rows and cols")


def test_hermitian_non_finite_tmax(tmp_path, capsys):
    # 1e308 is finite, but the grid on [-1e308, 1e308] is not
    path = mfile(tmp_path, "d.json", matrix_obj([["1", "0"], ["0", "0"]]))
    for tmax in ("nan", "inf", "1e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_main(capsys, ["hermitian", path, "--tmax", tmax])
        assert code == EXIT_INPUT_ERROR and err.startswith("error:") and "--tmax" in err
        assert "RuntimeWarning" not in err
    assert run_main(capsys, ["hermitian", path, "--tmax", "8.9e307"])[0] == EXIT_PASS
    # the series scales ||t a||_1 = 8.9e307 > 2^1022 without overflowing
    nilpotent = mfile(tmp_path, "n.json", matrix_obj([["0", "1"], ["0", "0"]]))
    code, out, err = run_main(capsys, ["hermitian", nilpotent, "--tmax", "8.9e307"])
    assert code == EXIT_PROPERTY_FALSE and err == "" and "not_hermitian" in out


def test_hermitian_entry_beyond_float_range(tmp_path, capsys):
    path = mfile(tmp_path, "big.json", matrix_obj([["1" + "0" * 400]]))
    assert_input_error(capsys, ["hermitian", path, "--p", "1"], "float")


def test_hermitian_empty_matrix_same_verdict_every_p(tmp_path, capsys):
    path = mfile(tmp_path, "e.json", {"rows": 0, "cols": 0, "entries": []})
    outcomes = {p: run_main(capsys, ["hermitian", path, "--p", p]) for p in ("1", "2", "inf")}
    assert outcomes["1"] == outcomes["2"] == outcomes["inf"]
    assert outcomes["2"][2] == ""


# Any file, however malformed, must map to an exit code of the contract.

_ENTRY = st.one_of(
    st.integers(-9, 9),
    st.integers(),
    st.builds("{}/{}{:+d}i".format, st.integers(-9, 9), st.integers(0, 9), st.integers(-9, 9)),
    st.text(alphabet="0123456789-+/i", max_size=6),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.floats(),
)
_JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=8)


@st.composite
def _matrix_objects(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    obj = {"rows": rows, "cols": cols,
           "entries": [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]}
    for key in draw(st.lists(st.sampled_from(["rows", "cols", "entries"]), max_size=2)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_JUNK)
    return obj


def _exit_codes_for(content: bytes) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "wb") as fh:
            fh.write(content)
        codes = []
        for argv in (["pinv", path], ["ep", path], ["hermitian", path, "--grid", "8"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
            # 3 is only ever a grid verdict between the two tolerances
            assert codes[-1] != EXIT_INCONCLUSIVE or out.getvalue().startswith(
                "verdict: inconclusive\n")
        return codes


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=64))
def test_fuzz_random_bytes_keep_the_exit_contract(content):
    assert all(code in (0, 1, 2, 3) for code in _exit_codes_for(content))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_matrix_objects(), _JUNK))
def test_fuzz_random_json_keeps_the_exit_contract(obj):
    assert all(code in (0, 1, 2, 3) for code in _exit_codes_for(json.dumps(obj).encode()))
