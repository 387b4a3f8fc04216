"""Closed forms for summing a program over equally spaced shifts.

``reduce_sum_apply`` computes  sum_{h=0..n} p(v0 + h*v)  without looping over
h: the program is expanded into its truncated series along the ray, and each
monomial t^m is replaced by the exact power-sum polynomial in n built from
Bernoulli numbers.  All combinatorial work is done in exact rational
arithmetic (``fractions.Fraction``); floats enter only once, at the end.

Convention freeze (validated against the literal-loop oracle): Bernoulli
numbers follow the recurrence  sum_{j<m} C(m,j) B_j = 0, so B_1 = -1/2.
With that convention the textbook polynomial

    (1/(m+1)) * sum_{i=0..m} C(m+1, i) B_i n^{m+1-i}

equals sum_{h=0..n-1} h^m; the closed form exposed here adds the final term
n^m so that it equals  sum_{h=0..n} h^m  with 0^0 = 1.  Both bound choices
and both B_1 signs were checked against brute-force partial sums for
m in {0,1,2}, n in {1,2,3}; only this pairing reproduces them.

``reduction_velocity`` differentiates the same closed-form polynomial with
respect to n, so rates of change of the accumulated sum in the iteration
count come out of polynomial calculus rather than finite differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .operators import series_eval, taylor_series
from .program import Program, derivative_tower, evaluate

# Exact rationals: numerator/denominator pairs in lowest terms with a
# positive denominator -- precisely what fractions.Fraction guarantees.
Rational = Fraction


@lru_cache(maxsize=None)
def bernoulli(i: int) -> Fraction:
    """Exact Bernoulli number B_i (B_1 = -1/2 convention); zero for odd i > 1."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if i == 0:
        return Fraction(1)
    if i > 1 and i % 2 == 1:
        return Fraction(0)
    # sum_{j<m} C(m,j) B_j = 0 for m >= 2, solved for the top term
    m = i + 1
    acc = Fraction(0)
    for j in range(i):
        acc += math.comb(m, j) * bernoulli(j)
    return -acc / math.comb(m, i)


class RationalPoly:
    """Univariate polynomial in the iteration count n, exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def __call__(self, n) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(n) + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        size = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * size
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RationalPoly(out)

    def scaled(self, factor) -> "RationalPoly":
        factor = Fraction(factor)
        return RationalPoly([c * factor for c in self.coeffs])

    def derivative(self, k: int = 1) -> "RationalPoly":
        coeffs = list(self.coeffs)
        for _ in range(k):
            coeffs = [m * c for m, c in enumerate(coeffs)][1:] or [Fraction(0)]
        return RationalPoly(coeffs)

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)})"

    def __str__(self):
        """Render like ``1/3 n^3 + 1/2 n^2 + 1/6 n`` (exact coefficients)."""
        if self.degree < 0:
            return "0"
        terms = [
            (c, power)
            for power in range(len(self.coeffs) - 1, -1, -1)
            if (c := self.coeffs[power]) != 0
        ]
        parts = []
        for idx, (c, power) in enumerate(terms):
            mag = -c if c < 0 else c
            if power == 0:
                body = str(mag)
            else:
                var = "n" if power == 1 else f"n^{power}"
                body = var if mag == 1 else f"{mag} {var}"
            if idx == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class ShiftOp:
    """Linear shift of a program: move the argument by n steps of v from v0."""

    v0: np.ndarray
    direction: np.ndarray
    n: float

    def __post_init__(self):
        for name in ("v0", "direction"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def apply(self, program: Program, order: int) -> np.ndarray:
        """Evaluate p(v0 + n*direction) through the order-``order`` series."""
        series = taylor_series(program, self.v0, order)
        return series_eval(series, self.n, self.direction)


@lru_cache(maxsize=None)
def reduce_sum_closed_form(m: int) -> RationalPoly:
    """Exact polynomial in n equal to sum_{h=0..n} h^m (with 0^0 = 1)."""
    if m < 0:
        raise ValueError("exponent must be >= 0")
    coeffs = [Fraction(0)] * (m + 2)
    for i in range(m + 1):
        # contributes to the n^{m+1-i} coefficient
        coeffs[m + 1 - i] += Fraction(math.comb(m + 1, i), m + 1) * bernoulli(i)
    coeffs[m] += 1  # closing n^m term: the h = n summand
    return RationalPoly(coeffs)


def brute_force_partial_sum(program: Program, v0, direction, n: int) -> np.ndarray:
    """Literal loop sum_{h=0..n} p(v0 + h*direction); the reference oracle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    v0 = np.asarray(v0, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    total = np.zeros(program.dim_out)
    for h in range(n + 1):
        total += evaluate(program, v0 + h * direction)
    return total


def _ray_coefficients(program: Program, v0, direction, order: int) -> np.ndarray:
    """Coefficients c_j of t -> p(v0 + t*direction) as rows, from the tower."""
    tower = derivative_tower(program, v0, order)
    direction = np.asarray(direction, dtype=np.float64)
    rows = []
    for j in range(order + 1):
        term = tower.component(j)
        for _ in range(j):
            term = np.tensordot(term, direction, axes=([-1], [0]))
        rows.append(term / math.factorial(j))
    return np.array(rows)  # shape (order+1, dim_out)


def reduce_sum_apply(program: Program, v0, direction, n: int, order: int) -> np.ndarray:
    """Sum of p over the n+1 points v0, v0+v, ..., v0+n*v via closed forms.

    Exact (up to one final rounding) when the restriction of p to the ray is
    a polynomial of degree <= ``order``; otherwise the truncated series
    introduces the usual truncation error.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = _ray_coefficients(program, v0, direction, order)
    sums = [reduce_sum_closed_form(j)(n) for j in range(order + 1)]
    out = np.empty(program.dim_out)
    for i in range(program.dim_out):
        acc = Fraction(0)
        for j in range(order + 1):
            acc += Fraction(coeffs[j, i]) * sums[j]
        out[i] = float(acc)
    return out


def reduce_sum_polynomials(program: Program, v0, direction, order: int) -> list[RationalPoly]:
    """Per-coordinate closed-form polynomial in n for sum_{h=0..n} p(v0 + h*v)."""
    coeffs = _ray_coefficients(program, v0, direction, order)
    polys = []
    for i in range(program.dim_out):
        acc = RationalPoly([0])
        for j in range(order + 1):
            acc = acc + reduce_sum_closed_form(j).scaled(Fraction(coeffs[j, i]))
        polys.append(acc)
    return polys


def reduction_velocity(
    program: Program, v0, direction, n, k: int, series_order: int
) -> np.ndarray:
    """k-th derivative in n of the closed-form reduction, evaluated at n.

    k = 0 reproduces :func:`reduce_sum_apply`; k above the polynomial degree
    gives zero.  ``n`` may be any real (the closed form extends off the
    integers).
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    polys = reduce_sum_polynomials(program, v0, direction, series_order)
    return np.array([float(p.derivative(k)(Fraction(n))) for p in polys])
