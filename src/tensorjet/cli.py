"""Command-line driver.

Subcommands::

    tau            value + derivative tensors of a program at a point (JSON)
    taylor         truncated series value vs. true value at a shifted argument
    compose-modes  tower of a program chain, forward/reverse/both accumulation
    reduce-sum     exact closed-form partial sums and their n-derivatives
    iterate        fractional iteration and iterating velocity near a fixed point
    selftest       run the built-in oracle checks and print a pass/fail table

Programs are given as s-expression files or ``-`` for standard input;
vectors as bracketed comma-separated reals, e.g. ``[0.5,1.0]``.  All floats
are printed with 17 significant digits.  Exit codes: 0 success, 1 usage,
parse or output error (a stdout closed before the output is written, as by
``| head -c 1``, included), 2 numerical/domain failure, a non-finite result
included; a failing run prints nothing on stdout.  Diagnostics go to stderr
only, one line per failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .iterators import (
    FixedPointError,
    find_fixed_point,
    fractional_iterate,
    iterating_velocity,
    schroeder,
)
from .operators import forward_chain, reverse_chain, series_eval, taylor_series
from .program import derivative_tower, evaluate
from .reducesum import (
    reduce_sum_apply,
    reduce_sum_closed_form,
    reduce_sum_polynomials,
    reduction_velocity,
)
from .sexpr import SexprError, parse

USAGE_ERROR = 1
NUMERIC_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _fmt(x: float) -> str:
    """``x`` at 17 significant digits; a non-finite ``x`` is a numerical failure."""
    x = float(x)
    if not math.isfinite(x):
        raise FloatingPointError(f"non-finite result: {x}")
    return format(x, ".17g")


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.atleast_1d(v)) + "]"


def _json_value(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {_json_value(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _tower_dict(tower) -> dict:
    return {
        "dim_out": tower.dim_out,
        "dim_in": tower.dim_in,
        "order": tower.order,
        "components": [c.ravel().tolist() for c in tower.components],
    }


def _parse_vector_arg(text: str) -> np.ndarray:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise argparse.ArgumentTypeError(
            f"vector must look like [1,2.5,-3], got {text!r}"
        )
    body = text[1:-1].strip()
    if not body:
        raise argparse.ArgumentTypeError("vector must not be empty")
    return np.array([_finite_float(tok) for tok in body.split(",")], dtype=np.float64)


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text.strip()!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text.strip()!r}")
    return x


def _read_program(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensorjet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="derivative tower of a program at a point")
    p_tau.add_argument("--program", required=True, help="program file or - for stdin")
    p_tau.add_argument("--at", required=True, type=_parse_vector_arg)
    p_tau.add_argument("--order", required=True, type=int)

    p_taylor = sub.add_parser("taylor", help="series vs. truth at a shifted argument")
    p_taylor.add_argument("--program", required=True)
    p_taylor.add_argument("--at", required=True, type=_parse_vector_arg)
    p_taylor.add_argument("--order", required=True, type=int)
    p_taylor.add_argument("--h", required=True, type=_finite_float, dest="step")
    p_taylor.add_argument("--dir", required=True, type=_parse_vector_arg, dest="direction")

    p_chain = sub.add_parser("compose-modes", help="tower of a chain of programs")
    p_chain.add_argument("--chain", required=True, nargs="+", help="program files, first runs first")
    p_chain.add_argument("--at", required=True, type=_parse_vector_arg)
    p_chain.add_argument("--order", required=True, type=int)
    p_chain.add_argument("--mode", choices=("forward", "reverse", "both"), default="both")

    p_rs = sub.add_parser("reduce-sum", help="closed-form partial sums over shifts")
    p_rs.add_argument("--m", type=int, default=None, help="monomial exponent mode")
    p_rs.add_argument("--program", default=None)
    p_rs.add_argument("--at", type=_parse_vector_arg, default=None)
    p_rs.add_argument("--dir", type=_parse_vector_arg, default=None, dest="direction")
    p_rs.add_argument("--order", type=int, default=None)
    p_rs.add_argument("--n", type=int, default=None)
    p_rs.add_argument("--velocity", type=int, default=None, metavar="K")

    p_it = sub.add_parser("iterate", help="fractional iteration near a fixed point")
    p_it.add_argument("--program", required=True)
    p_it.add_argument("--seed", required=True, type=_finite_float)
    p_it.add_argument("--x", required=True, type=_finite_float)
    p_it.add_argument("--at", required=True, type=_finite_float)
    p_it.add_argument("--order", required=True, type=int)

    sub.add_parser("selftest", help="run built-in oracle checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("order", "n", "velocity"):
        if getattr(args, name, None) is not None and getattr(args, name) < 0:
            print(f"tensorjet: --{name} must be >= 0", file=sys.stderr)
            return USAGE_ERROR
    try:
        # an overflow shows up as a non-finite result, which _fmt rejects
        with np.errstate(all="ignore"):
            if args.command == "selftest":
                from .selftest import run_selftest

                code = run_selftest()
                sys.stdout.flush()
                return code
            lines = _dispatch(args, parser)
    except BrokenPipeError:
        return _stdout_closed()
    except SexprError as exc:
        print(f"tensorjet: parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, UnicodeDecodeError) as exc:  # a program that cannot be read as text
        print(f"tensorjet: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, FixedPointError) as exc:
        print(f"tensorjet: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    return 0


def _stdout_closed() -> int:
    """One stderr line and exit 1 for a stdout closed by its reader.

    Stdout is pointed at the null device, so the flush at exit writes the
    rest of the buffer there instead of raising again.
    """
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    print("tensorjet: output error: stdout was closed before the output was written",
          file=sys.stderr)
    return USAGE_ERROR


def _dispatch(args, parser) -> list[str]:
    """The stdout lines of the subcommand, all built before any is printed."""
    if args.command == "tau":
        program = _read_program(args.program)
        t = derivative_tower(program, args.at, args.order)
        return [_json_value({"at": args.at.tolist(), "tower": _tower_dict(t.tower)})]

    if args.command == "taylor":
        program = _read_program(args.program)
        series = taylor_series(program, args.at, args.order)
        approx = series_eval(series, args.step, args.direction)
        truth = evaluate(program, args.at + args.step * args.direction)
        return [
            f"series: {_fmt_vec(approx)}",
            f"truth: {_fmt_vec(truth)}",
            f"error: {_fmt(float(np.max(np.abs(approx - truth))))}",
        ]

    if args.command == "compose-modes":
        chain = [_read_program(path) for path in args.chain]
        out = {}
        if args.mode in ("forward", "both"):
            fwd = forward_chain(chain, args.at, args.order)
            out["forward"] = _tower_dict(fwd.tower)
        if args.mode in ("reverse", "both"):
            rev = reverse_chain(chain, args.at, args.order)
            out["reverse"] = _tower_dict(rev.tower)
        if args.mode == "both":
            gap = max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(fwd.tower.components, rev.tower.components)
            )
            out["max_discrepancy"] = gap
            return [_json_value(out)]
        tower = out.get("forward") or out.get("reverse")
        return [_json_value({"at": args.at.tolist(), "tower": tower})]

    if args.command == "reduce-sum":
        return _run_reduce_sum(args, parser)

    program = _read_program(args.program)  # the one command left: iterate
    fixed = find_fixed_point(program, args.seed)
    data = schroeder(program, fixed, args.order)
    value = fractional_iterate(data, args.x, args.at)
    velocity = iterating_velocity(data, args.at)
    return [f"iterate: {_fmt(value)}", f"velocity: {_fmt(velocity)}"]


def _run_reduce_sum(args, parser) -> list[str]:
    if (args.m is None) == (args.program is None):
        parser.error("reduce-sum needs exactly one of --m or --program")
    if args.m is not None:
        if args.m < 0:
            parser.error("--m must be >= 0")
        if args.velocity is not None and args.n is None:
            parser.error("--velocity needs --n")
        poly = reduce_sum_closed_form(args.m)
        if args.n is None:
            return [str(poly)]
        lines = [str(poly(args.n)), str(poly)]
        if args.velocity is not None:
            lines.append(str(poly.derivative(args.velocity)(args.n)))
        return lines

    for name in ("at", "direction", "order", "n"):
        if getattr(args, name) is None:
            flag = "--dir" if name == "direction" else f"--{name}"
            parser.error(f"reduce-sum with --program needs {flag}")
    program = _read_program(args.program)
    value = reduce_sum_apply(program, args.at, args.direction, args.n, args.order)
    lines = [_fmt_vec(value)]
    for poly in reduce_sum_polynomials(program, args.at, args.direction, args.order):
        lines.append(str(poly))
    if args.velocity is not None:
        vel = reduction_velocity(
            program, args.at, args.direction, args.n, args.velocity, args.order
        )
        lines.append(_fmt_vec(vel))
    return lines


if __name__ == "__main__":
    sys.exit(main())
