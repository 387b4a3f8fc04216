"""Closed forms for summing a program over equally spaced shifts.

``reduce_sum_apply`` computes  sum_{h=0..n} p(v0 + h*v)  without looping over
h: the program is expanded into its truncated series along the ray, and each
monomial t^m is replaced by the exact power-sum polynomial in n built from
Bernoulli numbers.  There is one exact route to the per-coordinate
polynomial sum_j c_j S_j(n): every float c_j is dyadic, a_j / 2^e_j, and the
closed forms S_0..S_order are cached per order as integer numerators over
one denominator, so each coordinate's polynomial is integer numerators N_m
over one integer D.  ``reduce_sum_polynomials`` divides each N_m by D
(``fractions.Fraction``).  Apply and ``reduction_velocity`` build no
``Fraction`` from them: they evaluate sum_m N_m n^m (or its k-th derivative
in n) at n = a/b by integer Horner and make one int/int true division, which
Python rounds correctly.  Every output is the exact rational rounded to a
float once, at the end, the same float as ``float(poly(n))``.

The ray coefficients c_j = [t^j] p(v0 + t*v) come from one jet walk of the
program (``program.jet``, the third rule column next to values and towers)
started from the input series (v0, v, 0, ...): the tower kernels in the one
variable t at every node, with no dense derivative tensors.  The walk
carries the coefficients themselves, and a layer contracts its raw
weights, so on integer data every step of it is exact while every
coefficient, partial product and primitive derivative stays below 2^53
(pow(m)'s derivatives m!/(m-j)! do up to m = 22), and polynomial rays sum
exactly.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .multitensor import _as_vector
from .operators import series_eval, taylor_series
# derivative_tower is unused here; bench/spans.py wraps this binding
from .program import Program, _linear_series, derivative_tower, evaluate, jet

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
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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
        n = Fraction(n)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def derivative(self, k: int = 1) -> "RationalPoly":
        if k < 0:
            raise ValueError("derivative order must be >= 0")
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
    """Coefficients c_j of t -> p(v0 + t*direction) as rows, shape (order+1, dim_out)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    v0 = _as_vector(v0, program.dim_in, "v0")
    direction = _as_vector(direction, program.dim_in, "direction")
    return jet(program, _linear_series(v0, direction[:, None], 1, order)).T


def reduce_sum_apply(program: Program, v0, direction, n: int, order: int) -> np.ndarray:
    """Sum of p over the n+1 points v0, v0+v, ..., v0+n*v via closed forms.

    Exact (up to one final rounding) when the restriction of p to the ray is
    a polynomial of degree <= ``order``; otherwise the truncated series
    introduces the usual truncation error.  The closed forms are evaluated
    at n in integers and divided once, the same float as rounding
    ``reduce_sum_polynomials``' value at n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _evaluate(_sum_numerators(program, v0, direction, order), n, 0)


def reduce_sum_polynomials(program: Program, v0, direction, order: int) -> list[RationalPoly]:
    """Per-coordinate closed-form polynomial in n for sum_{h=0..n} p(v0 + h*v)."""
    return [RationalPoly([Fraction(num, den) for num in nums])
            for nums, den in _sum_numerators(program, v0, direction, order)]


def _sum_numerators(program: Program, v0, direction, order: int) -> list[tuple[list[int], int]]:
    """Per coordinate ``(nums, den)``: the n^m coefficient of its closed form is nums[m]/den."""
    coeffs = _ray_coefficients(program, v0, direction, order)
    den, columns = _closed_form_numerators(order)
    rows = []
    for row in coeffs.T.tolist():
        ratios = [c.as_integer_ratio() for c in row]  # each b is a power of two
        scale = max(b for _, b in ratios)
        nums = [a * (scale // b) for a, b in ratios]
        rows.append(([sum(map(operator.mul, nums, col)) for col in columns], scale * den))
    return rows


def _evaluate(rows, n, k: int) -> np.ndarray:
    """The k-th n-derivative of each closed form at n, rounded once.

    With n = a/b, sum_m d_m n^m is sum_m d_m a^m b^(M-m) / b^M: integer
    Horner, then one int/int true division, which is correctly rounded (and
    is what ``float(Fraction)`` does), so each float is the exact value rounded once.
    """
    a, b = Fraction(n).as_integer_ratio()  # every n that Fraction takes
    out = []
    for nums, den in rows:
        d = [math.perm(m, k) * c for m, c in enumerate(nums)][k:]  # n^(m-k) coefficients
        acc, bpow = (d.pop() if d else 0), 1
        for c in reversed(d):
            bpow *= b
            acc = acc * a + c * bpow
        out.append(acc / (den * bpow))
    return np.array(out)


@lru_cache(maxsize=None)
def _closed_form_numerators(order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, columns)``: the n^m coefficient of S_j is ``columns[m][j] / den``."""
    forms = [reduce_sum_closed_form(j).coeffs + (0,) * (order - j) for j in range(order + 1)]
    den = math.lcm(*(c.denominator for form in forms for c in form))
    return den, tuple(zip(*[[int(c * den) for c in form] for form in forms]))


def reduction_velocity(
    program: Program, v0, direction, n, k: int, series_order: int
) -> np.ndarray:
    """k-th derivative in n of the closed-form reduction, evaluated at n.

    k = 0 reproduces :func:`reduce_sum_apply`; k above the polynomial degree
    gives zero.  ``n`` may be any real (the closed form extends off the
    integers).  Each output is the exact value of the k-th derivative of
    ``reduce_sum_polynomials``' polynomial at n, rounded once.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    return _evaluate(_sum_numerators(program, v0, direction, series_order), n, k)
