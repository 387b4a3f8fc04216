"""Fractional iteration of scalar programs near a hyperbolic fixed point.

Near a fixed point v_f with multiplier lam = p'(v_f), |lam| not in {0, 1},
iteration is conjugate to multiplication: there is a power series h with
h(v_f) = 0, h'(v_f) = 1 and  h(p(v)) = lam * h(v).  In that coordinate the
x-th iterate for *any* real x is

    p^x(v) = h^{-1}(lam^x * h(v)),

and the rate of change of the iterate with respect to the iteration count is

    psi(v) = log(lam) * h(v) / h'(v).

``schroeder`` solves for the series coefficients of h degree by degree from
the program's Taylor expansion at the fixed point, inverts it by series
reversion, and packages everything as :class:`SchroederData`.  Both series
keep a table of powers (of the local map, of the inverse) and fill one new
column per degree with one small matrix-vector product, after Brent & Kung
(1978) and Knuth, TAOCP vol. 2, 4.7; a deeper order leaves every lower
coefficient bitwise unchanged.  A coefficient that overflows is a
``ValueError`` naming its series and degree, never a silent NaN.
Everything is truncated at a caller-chosen order, so results carry the usual
O(|v - v_f|^{order+1}) series error; a root-test radius estimate triggers a
warning (not an error) when the query point looks out of range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import taylor_series
from .program import Program, derivative_tower, evaluate


class FixedPointError(RuntimeError):
    """Newton iteration failed to locate a fixed point."""


class HyperbolicityError(ValueError):
    """Fixed-point multiplier is 0 or on the unit circle; linearization undefined."""


class ResonanceError(ValueError):
    """A series coefficient denominator vanished while solving the eigen equation."""


_LAM_TOL = 1e-9
_NEWTON_TOL = 1e-12  # fixed-point residual |p(v) - v| that ends the iteration
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class SchroederData:
    """Linearizing data of a scalar program at a hyperbolic fixed point.

    ``h_coeffs``/``h_inv_coeffs`` are ascending-power coefficients (constant
    term first) of the eigen map and its inverse in the local coordinate
    u = v - fixed_point, normalized so the linear coefficient is 1.
    ``nu`` is log(lam), or None when lam < 0 (no real logarithm).
    """

    fixed_point: float
    lam: float
    nu: float | None
    h_coeffs: tuple[float, ...]
    h_inv_coeffs: tuple[float, ...]
    order: int


def find_fixed_point(program: Program, seed: float) -> float:
    """Newton iteration for p(v) = v starting from ``seed`` (scalar programs)."""
    _require_scalar(program)
    v = float(seed)
    for _ in range(_NEWTON_MAX_ITER):
        t = derivative_tower(program, [v], 1)
        residual = float(t.value[0]) - v
        if abs(residual) <= _NEWTON_TOL:
            return v
        slope = float(t.component(1)[0, 0]) - 1.0
        if abs(slope) < 1e-14:
            raise FixedPointError(
                f"singular Newton step at v={v!r}: p'(v) - 1 vanishes"
            )
        v -= residual / slope
        if not math.isfinite(v):
            raise FixedPointError("Newton iteration diverged to non-finite values")
    raise FixedPointError(
        f"no fixed point found within {_NEWTON_MAX_ITER} iterations (last iterate {v!r})"
    )


def schroeder(program: Program, fixed_point: float, order: int) -> SchroederData:
    """Solve the eigen equation h(p(v)) = lam*h(v) as a series at the fixed point.

    A coefficient that overflows, in the program's Taylor series, in h or in
    h_inv, raises a ``ValueError`` naming the series and its first
    non-finite degree; numpy's overflow warnings on the way are silenced.
    """
    _require_scalar(program)
    if order < 1:
        raise ValueError("order must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        series = taylor_series(program, [fixed_point], order)
        coeffs = [float(series.tower.component(j).ravel()[0]) for j in range(order + 1)]
        _require_finite("Taylor", coeffs)
        if abs(coeffs[0] - fixed_point) > 1e-10 * max(1.0, abs(fixed_point)):
            raise ValueError(
                f"{fixed_point!r} is not a fixed point: p maps it to {coeffs[0]!r}"
            )
        lam = coeffs[1]
        if abs(lam) < _LAM_TOL or abs(abs(lam) - 1.0) < _LAM_TOL:
            raise HyperbolicityError(
                f"multiplier {lam!r} must have modulus neither 0 nor 1"
            )

        # local map P(u) = p(v_f + u) - v_f, no constant term
        local = [0.0] + coeffs[1:]
        h = _solve_eigen_series(local, lam, order)
        _require_finite("h", h)
        h_inv = _revert_series(h, order)
        _require_finite("h_inv", h_inv)
    return SchroederData(
        fixed_point=float(fixed_point),
        lam=lam,
        nu=math.log(lam) if lam > 0 else None,
        h_coeffs=tuple(h),
        h_inv_coeffs=tuple(h_inv),
        order=order,
    )


def fractional_iterate(data: SchroederData, x: float, v: float) -> float:
    """The x-th iterate p^x(v) = h^{-1}(lam^x h(v)); x may be any real.

    Negative multipliers only admit integer x over the reals.  Points outside
    the estimated convergence radius produce a RuntimeWarning, not an error.
    """
    if data.lam < 0 and x != int(x):
        raise HyperbolicityError(
            "negative multiplier: non-integer iteration orders are complex-valued"
        )
    u = float(v) - data.fixed_point
    _warn_if_outside(data, u)
    w = _polyval(data.h_coeffs, u) * data.lam**x
    return data.fixed_point + _polyval(data.h_inv_coeffs, w)


def iterating_velocity(data: SchroederData, v: float) -> float:
    """Rate of change of the iterate in the iteration count: log(lam)*h(v)/h'(v)."""
    if data.nu is None:
        raise HyperbolicityError(
            "negative multiplier: iterating velocity is complex-valued"
        )
    u = float(v) - data.fixed_point
    _warn_if_outside(data, u)
    hu = _polyval(data.h_coeffs, u)
    dh = _polyval(_deriv_coeffs(data.h_coeffs), u)
    if abs(dh) < 1e-12:
        raise ZeroDivisionError(f"h'({v!r}) is numerically zero")
    return data.nu * hu / dh


def convergence_radius(data: SchroederData) -> float:
    """Root-test estimate of where the truncated series is trustworthy."""
    best = math.inf
    for coeffs in (data.h_coeffs, data.h_inv_coeffs):
        for m, c in enumerate(coeffs):
            if m >= 2 and c != 0.0:
                best = min(best, (1.0 / abs(c)) ** (1.0 / (m - 1)))
    return best


def _warn_if_outside(data: SchroederData, u: float):
    limit = convergence_radius(data)
    if math.isfinite(limit) and abs(u) > limit:
        warnings.warn(
            f"point at distance {abs(u):.3g} from the fixed point exceeds the "
            f"estimated series radius {limit:.3g}; result may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )


def _solve_eigen_series(local: list[float], lam: float, order: int) -> list[float]:
    """Coefficients of h with h(P(u)) = lam*h(u), h'(0) = 1, degree by degree.

    Row j of ``powers`` holds the coefficients of P(u)^j.  P has no constant
    term, so [P^j]_m needs row j-1 only below degree m: at degree m one
    matrix-vector product of rows 0..m-1 with P's coefficients, reversed,
    gives column m of rows 1..m.  Its shape depends only on m, so a deeper
    order leaves the lower coefficients bitwise unchanged.
    """
    powers = np.zeros((order + 1, order + 1))
    powers[0, 0] = 1.0
    series = np.array(local)
    h = [0.0, 1.0] + [0.0] * (order - 1)
    for m in range(1, order + 1):
        column = powers[0:m, :m] @ series[m:0:-1]
        powers[1:m + 1, m] = column
        if m == 1:
            continue
        column = column.tolist()  # column[j - 1] = [P^j]_m
        rhs = sum(h[j] * column[j - 1] for j in range(1, m))
        denom = lam - lam**m
        if abs(denom) < 1e-14:
            raise ResonanceError(f"resonant denominator at series degree {m}")
        h[m] = rhs / denom
    return h


def _revert_series(h: list[float], order: int) -> list[float]:
    """Series g with h(g(w)) = w + O(w^{order+1}); assumes h = u + higher terms.

    Row j of ``powers`` holds the coefficients of g^j (row 1 is g itself).
    [g^j]_m only involves the finished coefficients g_1..g_{m-1}, so at
    degree m one matrix-vector product of rows 1..m-1 with g gives column m
    of rows 2..m, and g_m = -sum_j h_j [g^j]_m is one dot product.  Both
    shapes depend only on m, so a deeper order leaves g_1..g_m bitwise
    unchanged.
    """
    powers = np.zeros((order + 1, order + 1))
    powers[1, 1] = 1.0
    h = np.array(h)
    for m in range(2, order + 1):
        column = powers[1:m, m - 1:0:-1] @ powers[1, 1:m]
        powers[2:m + 1, m] = column
        powers[1, m] = -(h[2:m + 1] @ column)
    return powers[1].tolist()


class _NonFiniteSeriesError(ValueError):
    """A coefficient of a Schroeder computation's series overflowed."""


def _require_finite(name: str, coeffs: list[float]):
    for m, c in enumerate(coeffs):
        if not math.isfinite(c):
            raise _NonFiniteSeriesError(
                f"{name} series coefficient of degree {m} is not finite: {c!r}"
            )


def _polyval(coeffs, u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _deriv_coeffs(coeffs) -> tuple[float, ...]:
    return tuple(m * c for m, c in enumerate(coeffs))[1:] or (0.0,)


def _require_scalar(program: Program):
    if program.dim_in != 1 or program.dim_out != 1:
        raise ValueError(
            "iteration analysis handles scalar programs only; got "
            f"{program.dim_in} -> {program.dim_out}"
        )


def iterate_exact(program: Program, v: float, times: int) -> float:
    """Plain repeated application p^times(v); oracle for integer iterates."""
    out = np.array([float(v)])
    for _ in range(times):
        out = evaluate(program, out)
    return float(out[0])
