import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tensorjet import (
    find_fixed_point,
    fractional_iterate,
    iterating_velocity,
    schroeder,
)
from tensorjet.cli import main
from tensorjet.sexpr import MAX_NESTING, parse

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "multitensor.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def exp_file(tmp_path):
    f = tmp_path / "exp.sexp"
    f.write_text("(elem exp)")
    return str(f)


@pytest.fixture
def half_file(tmp_path):
    f = tmp_path / "half.sexp"
    f.write_text("(affine [[0.5]] [0.0])")
    return str(f)


@pytest.fixture
def sin_affine_file(tmp_path):
    f = tmp_path / "sin_affine.sexp"
    f.write_text("(compose (elem sin) (affine [[2.0]] [0.0]))")
    return str(f)


class TestTau:
    def test_exponential_tower_json(self, capsys, exp_file):
        code, out, err = run_cli(
            capsys, "tau", "--program", exp_file, "--at", "[0]", "--order", "2"
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["tower"]["components"] == [[1], [1], [1]]
        assert obj["at"] == [0]

    def test_tower_json_validates_against_schema(self, capsys, sin_affine_file):
        code, out, _ = run_cli(
            capsys, "tau", "--program", sin_affine_file, "--at", "[0.3]", "--order", "3"
        )
        assert code == 0
        jsonschema.validate(json.loads(out)["tower"], SCHEMA)

    def test_program_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(elem sin)"))
        code, out, _ = run_cli(capsys, "tau", "--program", "-", "--at", "[0]", "--order", "1")
        assert code == 0
        assert json.loads(out)["tower"]["components"] == [[0], [1]]


class TestTaylor:
    def test_output_lines(self, capsys, exp_file):
        code, out, err = run_cli(
            capsys, "taylor", "--program", exp_file, "--at", "[0]",
            "--order", "3", "--h", "0.1", "--dir", "[1]",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("series: ")
        assert lines[1].startswith("truth: ")
        assert lines[2].startswith("error: ")
        series = float(lines[0].split("[")[1].rstrip("]"))
        truth = float(lines[1].split("[")[1].rstrip("]"))
        assert series == pytest.approx(1.1051666666666666, abs=1e-15)
        assert truth == pytest.approx(math.exp(0.1), abs=1e-15)
        assert float(lines[2].split(": ")[1]) < 1e-5


class TestComposeModes:
    def test_both_modes_agree(self, capsys, half_file, sin_affine_file, tmp_path):
        code, out, _ = run_cli(
            capsys, "compose-modes", "--chain", half_file, sin_affine_file,
            "--at", "[0.3]", "--order", "2", "--mode", "both",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["max_discrepancy"] <= 1e-10
        assert obj["forward"]["components"][0][0] == pytest.approx(math.sin(0.3))
        jsonschema.validate(obj["forward"], SCHEMA)
        jsonschema.validate(obj["reverse"], SCHEMA)

    def test_single_mode_output(self, capsys, half_file, sin_affine_file):
        code, out, _ = run_cli(
            capsys, "compose-modes", "--chain", half_file, sin_affine_file,
            "--at", "[0.3]", "--order", "1", "--mode", "forward",
        )
        assert code == 0
        jsonschema.validate(json.loads(out)["tower"], SCHEMA)


class TestReduceSum:
    def test_monomial_mode_prints_value_then_polynomial(self, capsys):
        code, out, err = run_cli(capsys, "reduce-sum", "--m", "2", "--n", "3")
        assert code == 0 and err == ""
        assert out == "14\n1/3 n^3 + 1/2 n^2 + 1/6 n\n"

    def test_monomial_mode_without_count(self, capsys):
        code, out, _ = run_cli(capsys, "reduce-sum", "--m", "0")
        assert code == 0
        assert out == "n + 1\n"

    def test_velocity_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce-sum", "--m", "2", "--n", "3", "--velocity", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "14"
        assert lines[2] == "73/6"

    def test_program_mode(self, capsys, tmp_path):
        f = tmp_path / "square.sexp"
        f.write_text("(compose (elem pow2) id)")
        code, out, _ = run_cli(
            capsys, "reduce-sum", "--program", str(f), "--at", "[0]",
            "--dir", "[1]", "--order", "3", "--n", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0].strip("[]")) == 14.0
        assert lines[1] == "1/3 n^3 + 1/2 n^2 + 1/6 n"

    def test_mode_flags_are_exclusive(self, capsys, exp_file):
        with pytest.raises(SystemExit) as exc:
            main(["reduce-sum", "--m", "2", "--program", exp_file, "--n", "1"])
        assert exc.value.code == 1


class TestIterate:
    def test_linear_half_program(self, capsys, half_file):
        code, out, err = run_cli(
            capsys, "iterate", "--program", half_file, "--seed", "1.0",
            "--x", "0.5", "--at", "0.2", "--order", "6",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("iterate: ") and lines[1].startswith("velocity: ")
        assert float(lines[0].split(": ")[1]) == pytest.approx(
            0.2 / math.sqrt(2), abs=1e-12
        )
        assert float(lines[1].split(": ")[1]) == pytest.approx(
            math.log(0.5) * 0.2, abs=1e-12
        )

    def test_point_outside_the_series_radius_is_one_warning_line(self, capsys, tmp_path):
        """The library warns once per call; the CLI prints each distinct warning once."""
        f = tmp_path / "map.sexp"
        f.write_text('(layer {"dim_out":1,"dim_in":1,"order":2,'
                     '"components":[[0.0],[[0.5]],[[[0.25]]]]})')
        code, out, err = run_cli(capsys, "iterate", "--program", str(f), "--seed", "0.3",
                                 "--x", "0.5", "--at", "1.0", "--order", "6")
        program = parse(f.read_text())
        data = schroeder(program, find_fixed_point(program, 0.3), 6)
        with pytest.warns(RuntimeWarning, match="exceeds the estimated series radius") as seen:
            value = fractional_iterate(data, 0.5, 1.0)
            velocity = iterating_velocity(data, 1.0)
        assert len(seen) == 2 and str(seen[0].message) == str(seen[1].message)
        assert code == 0
        assert out == f"iterate: {value:.17g}\nvelocity: {velocity:.17g}\n"
        assert err == f"tensorjet: warning: {seen[0].message}\n"

    def test_multiplier_whose_powers_overflow_iterates(self, capsys, tmp_path):
        """|lam|^m overflows from degree 16 on, yet the linear map's series is exact."""
        f = tmp_path / "big.sexp"
        f.write_text("(affine [[1e20]] [0.0])")
        code, out, err = run_cli(capsys, "iterate", "--program", str(f), "--seed", "0",
                                 "--x", "0.5", "--at", "0.1", "--order", "24")
        assert code == 0 and err == ""
        assert out == f"iterate: {1e20**0.5 * 0.1:.17g}\nvelocity: {math.log(1e20) * 0.1:.17g}\n"

    def test_overflowing_schroeder_series_is_a_numeric_failure(self, capsys, tmp_path):
        """The error names the series and degree; no radius or numpy warning precedes it."""
        f = tmp_path / "steep.sexp"
        f.write_text('(layer {"dim_out":1,"dim_in":1,"order":2,'
                     '"components":[[0.0],[[0.5]],[[[1e20]]]]})')
        code, out, err = run_cli(capsys, "iterate", "--program", str(f), "--seed", "0",
                                 "--x", "0.5", "--at", "1e-30", "--order", "24")
        assert code == 2 and out == ""
        assert err == "tensorjet: h series coefficient of degree 17 is not finite: inf\n"

    def test_no_fixed_point_is_a_numeric_failure(self, capsys, tmp_path):
        f = tmp_path / "shift.sexp"
        f.write_text("(affine [[1.0]] [1.0])")
        code, out, err = run_cli(
            capsys, "iterate", "--program", str(f), "--seed", "0.0",
            "--x", "0.5", "--at", "0.1", "--order", "4",
        )
        assert code == 2
        assert out == "" and "tensorjet" in err


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys, exp_file):
        with pytest.raises(SystemExit) as exc:
            main(["tau", "--program", exp_file, "--at", "[0]"])
        assert exc.value.code == 1

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.sexp"
        f.write_text("(compose (elem sin))")
        code, out, err = run_cli(capsys, "tau", "--program", str(f), "--at", "[0]", "--order", "1")
        assert code == 1
        assert out == "" and "parse error" in err

    @pytest.mark.parametrize("text", [
        '(layer {"dim_out": 1})',
        '(layer {"dim_out": "a", "dim_in": 1, "order": 0, "components": [[1.0]]})',
        '(layer {"dim_out": 1, "dim_in": 1, "order": 0, "components": [["x"]]})',
        '(layer {"dim_out": 1, "dim_in": 1, "order": 0, "components": [[NaN]]})',
        "(const [1e999])",
        "(affine [[1e400]] [0.0])",
    ])
    def test_malformed_or_non_finite_program_text_is_a_parse_error(self, capsys, tmp_path, text):
        f = tmp_path / "bad.sexp"
        f.write_text(text)
        code, out, err = run_cli(capsys, "tau", "--program", str(f), "--at", "[0]", "--order", "1")
        assert code == 1 and out == ""
        assert err.startswith("tensorjet: parse error: 1:") and err.count("\n") == 1

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "tau", "--program", "/nonexistent.sexp", "--at", "[0]", "--order", "1"
        )
        assert code == 1 and out == ""

    def test_unreadable_program_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "tau", "--program", str(tmp_path), "--at", "[0]", "--order", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("tensorjet: ") and err.count("\n") == 1

    def test_program_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "latin1.sexp"
        f.write_bytes(b"(elem exp) ; \xff")
        code, out, err = run_cli(capsys, "tau", "--program", str(f), "--at", "[0]", "--order", "1")
        assert code == 1 and out == ""
        assert err.startswith("tensorjet: 'utf-8' codec can't decode") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("tau", "--at", "[0]", "--order", "-1"),
        ("taylor", "--at", "[0]", "--order", "-2", "--h", "0.1", "--dir", "[1]"),
        ("reduce-sum", "--at", "[0]", "--dir", "[1]", "--order", "-1", "--n", "2"),
    ])
    def test_negative_order_is_usage_error(self, capsys, exp_file, argv):
        argv = (argv[0], "--program", exp_file) + argv[1:]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "tensorjet: --order must be >= 0\n")

    @pytest.mark.parametrize("flag, argv", [
        ("--n", ("--m", "3", "--n", "-2")),
        ("--velocity", ("--m", "3", "--n", "4", "--velocity", "-1")),
        ("--n", ("--at", "[0]", "--dir", "[1]", "--order", "3", "--n", "-1")),
        ("--velocity", ("--at", "[0]", "--dir", "[1]", "--order", "3", "--n", "2",
                        "--velocity", "-3")),
    ])
    def test_negative_n_or_velocity_is_usage_error(self, capsys, exp_file, flag, argv):
        if "--m" not in argv:
            argv = ("--program", exp_file) + argv
        code, out, err = run_cli(capsys, "reduce-sum", *argv)
        assert (code, out, err) == (1, "", f"tensorjet: {flag} must be >= 0\n")

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("tau", "--at", "[nan]", "--order", "2"), "--at", "finite"),
            (("tau", "--at", "[0.5,inf]", "--order", "2"), "--at", "finite"),
            (("taylor", "--at", "[0]", "--order", "2", "--h", "inf", "--dir", "[1]"),
             "--h", "finite"),
            (("taylor", "--at", "[0]", "--order", "2", "--h", "0.1", "--dir", "[-inf]"),
             "--dir", "finite"),
            (("iterate", "--seed", "nan", "--x", "0.5", "--at", "0.1", "--order", "2"),
             "--seed", "finite"),
            (("iterate", "--seed", "0", "--x", "inf", "--at", "0.1", "--order", "2"),
             "--x", "finite"),
            (("iterate", "--seed", "0", "--x", "0.5", "--at=-inf", "--order", "2"),
             "--at", "finite"),
            (("iterate", "--seed", "zero", "--x", "0.5", "--at", "0.1", "--order", "2"),
             "--seed", "not a number"),
        ],
    )
    def test_non_finite_argument_is_usage_error(self, capsys, exp_file, argv, flag, text):
        argv = (argv[0], "--program", exp_file) + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and text in captured.err

    def test_program_at_the_nesting_limit_runs(self, capsys, tmp_path):
        f = tmp_path / "deep.sexp"
        f.write_text(_sin_chain(MAX_NESTING))
        code, out, err = run_cli(capsys, "tau", "--program", str(f), "--at", "[0.2]", "--order", "2")
        assert code == 0 and err == ""
        assert len(json.loads(out)["tower"]["components"]) == 3

    def test_program_past_the_nesting_limit_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "deeper.sexp"
        f.write_text(_sin_chain(MAX_NESTING + 1))
        code, out, err = run_cli(capsys, "tau", "--program", str(f), "--at", "[0.2]", "--order", "2")
        assert code == 1 and out == ""
        # the first expression past the limit is the sin of the innermost compose
        column = (MAX_NESTING - 1) * len("(compose (elem sin) ") + len("(compose ") + 1
        assert err == (
            f"tensorjet: parse error: 1:{column}: "
            f"program nested deeper than {MAX_NESTING} levels\n"
        )

    def test_domain_failure_is_numeric_error(self, capsys, tmp_path):
        f = tmp_path / "log.sexp"
        f.write_text("(elem log)")
        code, out, err = run_cli(
            capsys, "tau", "--program", str(f), "--at", "[-1]", "--order", "1"
        )
        assert code == 2 and out == ""
        assert "log" in err


class TestCleanFailures:
    """Each input ends in exit 1 or 2 with one stderr line and nothing on stdout."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, argv, code, message", [
        ("(elem exp)",
         ("reduce-sum", "--at", "[709]", "--dir", "[1]", "--order", "3", "--n", "5"),
         2, "integer division result too large for a float"),
        ("(prod (elem exp) (elem exp))", ("tau", "--at", "[400]", "--order", "1"),
         2, "non-finite result: inf"),
        ("(elem reciprocal)", ("tau", "--at", "[1e-200]", "--order", "1"),
         2, "/: elem(reciprocal) failed at 1e-200: float division by zero"),
        ("(elem log)", ("tau", "--at", "[1e-200]", "--order", "2"),
         2, "/: elem(log) failed at 1e-200: float division by zero"),
        ("(elem exp)",
         ("taylor", "--at", "[700]", "--order", "3", "--h", "100", "--dir", "[1]"),
         2, "/: elem(exp) failed at 800.0: math range error"),
        ("\n\n(compose (affine [[1.0,2.0]] [0.0])\n  (affine [[1.0],[2.0],[3.0]] [0,0,0]))",
         ("tau", "--at", "[1]", "--order", "1"),
         1, "parse error: 3:1: dimension mismatch: cannot compose: "
            "inner yields dim 3, outer expects dim 2"),
        ('(layer {"dim_out":1,"dim_in":2.5,"order":0,"components":[[1.0]]})',
         ("tau", "--at", "[1]", "--order", "1"),
         1, "parse error: 1:8: bad layer payload: dim_in must be an integer, got 2.5"),
        ("(elem sin)",
         ("reduce-sum", "--at", "[0.1]", "--dir", "[0.2]", "--order", "171", "--n", "3"),
         2, "/: elem(sin): order 171 is above 170, the largest whose factorial is a float"),
        ("(elem sin)", ("tau", "--at", "[0.1]", "--order", "64"),
         2, "order 64 is above 63, the largest of a dense tower "
            "(component j has j + 1 axes, and numpy arrays have at most 64)"),
        ("(elem sin)", ("taylor", "--at", "[0.1]", "--order", "64", "--h", "0.1", "--dir", "[1]"),
         2, "order 64 is above 63, the largest of a dense tower "
            "(component j has j + 1 axes, and numpy arrays have at most 64)"),
        ("(deriv (elem sin) 1)",
         ("reduce-sum", "--at", "[0.1]", "--dir", "[0.2]", "--order", "63", "--n", "3"),
         2, "/: deriv: order 63 is above 62, the largest for a derivative of order 1 "
            "(it needs its inner's dense tower to order 64, component j has j + 1 axes, "
            "and numpy arrays have at most 64)"),
    ], ids=["reduce-sum-overflow", "tau-inf", "reciprocal-underflow", "log-underflow",
            "taylor-overflow", "mismatch-line-3", "non-integer-dim", "reduce-sum-order-171",
            "tau-order-64", "taylor-order-64", "reduce-sum-deriv-order-63"])
    def test_one_line_and_exit_code(self, capsys, tmp_path, text, argv, code, message):
        f = tmp_path / "prog.sexp"
        f.write_text(text)
        argv = (argv[0], "--program", str(f)) + argv[1:]
        got, out, err = run_cli(capsys, *argv)
        assert (got, out, err) == (code, "", f"tensorjet: {message}\n")


    def test_compose_modes_order_64_is_one_line(self, capsys, tmp_path):
        f = tmp_path / "sin.sexp"
        f.write_text("(elem sin)")
        for mode in ("forward", "reverse"):
            got, out, err = run_cli(capsys, "compose-modes", "--chain", str(f), str(f),
                                    "--at", "[0.1]", "--order", "64", "--mode", mode)
            assert (got, out) == (2, "")
            assert err.startswith("tensorjet: order 64 is above 63") and err.count("\n") == 1

    def test_stdout_closed_by_its_reader_is_one_line_and_exit_1(self, tmp_path):
        f = tmp_path / "sin.sexp"
        f.write_text("(elem sin)")
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "tensorjet", "reduce-sum", "--program", str(f),
             "--at", "[0.1]", "--dir", "[0.2]", "--order", "170", "--n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        proc.stdout.close()  # before the run writes anything
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err
        assert err == "tensorjet: output error: stdout was closed before the output was written\n"


def _sin_chain(levels):
    """Program text nested ``levels`` deep: sin composed onto an affine leaf."""
    return "(compose (elem sin) " * (levels - 1) + "(affine [[0.5]] [0.1])" + ")" * (levels - 1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce-sum", "--m", "4", "--n", "7", "--velocity", "2"),
            ("taylor", "--program", "PROG", "--at", "[0.2]", "--order", "3",
             "--h", "0.05", "--dir", "[1]"),
            ("tau", "--program", "PROG", "--at", "[0.1]", "--order", "3"),
        ],
    )
    def test_identical_invocations_identical_output(self, capsys, exp_file, argv):
        argv = [exp_file if a == "PROG" else a for a in argv]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10
