"""Result checks that run outside the timed region and use only benchmark code.

Every check raises :class:`CheckFailed` with a reason.  Tolerances are fixed
here, from float64 precision, before any result is seen:

* ``RTOL`` = 2**-30 (about 9.3e-10, i.e. 2**22 ulps) of the magnitude of the
  summands that make up a compared quantity.  It leaves room for rounding
  through 200-deep compositions and order-24 series, and is still about
  1e5 times tighter than the perturbation the gate self-test applies.
* Exact comparisons (``==``) where the arithmetic is exact: tower symmetry,
  reduce-sum on integer polynomial rays, and the closed forms of ``--m``.
* ``SERIES_TOL`` = 1e-8 for truncated Schroeder series evaluated 0.02-0.05
  from the fixed point, well inside the series radius, where the error is set
  by truncation, not rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import jet

RTOL = 2.0**-30
SERIES_TOL = 1e-8


class CheckFailed(AssertionError):
    """A result disagrees with the benchmark's oracle."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def close(got, want, scale, what: str, rtol: float = RTOL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    require(bool(np.all(np.isfinite(got))), f"{what}: non-finite value")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    bound = rtol * max(1.0, float(np.max(scale)))
    require(err <= bound, f"{what}: off by {err:.3g} (allowed {bound:.3g})")


def _contract(comp: np.ndarray, u: np.ndarray) -> np.ndarray:
    for _ in range(comp.ndim - 1):
        comp = comp @ u
    return comp


# --- derivative towers ------------------------------------------------------

def check_tower(components, spec, v, u, what: str = "tower"):
    """Finite, exactly symmetric, and <tower_j, u^j> = j! [t^j] p(v + t u)."""
    K = len(components) - 1
    for j, comp in enumerate(components):
        require(bool(np.all(np.isfinite(comp))), f"{what}: component {j} not finite")
        for p in range(1, j + 1):
            for q in range(p + 1, j + 1):
                require(
                    np.array_equal(comp, np.swapaxes(comp, p, q)),
                    f"{what}: component {j} not symmetric in slots {p},{q}",
                )
    coeffs = jet.ray_coefficients(spec, v, u, K)
    for j, comp in enumerate(components):
        lhs = _contract(comp, u)
        rhs = math.factorial(j) * coeffs[j]
        scale = np.maximum(_contract(np.abs(comp), np.abs(u)), np.abs(rhs))
        close(lhs, rhs, scale, f"{what}: directional identity at order {j}")


def check_towers_agree(a, b, what: str):
    for j, (x, y) in enumerate(zip(a, b)):
        close(x, y, np.abs(x), f"{what}: component {j}")


def perturb_diagonal(components):
    """Copy of a tower whose top component has its [0, 0, ..., 0] entry moved.

    That entry is its own slot orbit, so the copy stays exactly symmetric and
    only the directional identity can notice the change.
    """
    comps = [np.array(c) for c in components]
    top = comps[-1]
    idx = (0,) * top.ndim
    top[idx] += 1e-4 * max(1.0, float(np.max(np.abs(top))))
    return comps


def perturb_off_diagonal(components):
    """Copy of a tower with one entry of an order >= 2 component moved."""
    comps = [np.array(c) for c in components]
    top = comps[-1]
    require(top.ndim >= 3 and top.shape[1] >= 2, "need an order >= 2, dim >= 2 tower")
    idx = (0, 1) + (0,) * (top.ndim - 2)
    top[idx] += 1e-4 * max(1.0, float(np.max(np.abs(top))))
    return comps


def draw_direction(rng, d: int) -> np.ndarray:
    """Direction with every entry in +-[0.5, 1.5], so no entry is nearly zero."""
    return np.array([rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(d)])


# --- partial sums along a ray ------------------------------------------------

@lru_cache(maxsize=None)
def power_sum_poly(m: int) -> tuple[Fraction, ...]:
    """Coefficients in n of sum_{h=0..n} h^m (0^0 = 1), by Newton forward differences.

    sum_h f(h) = sum_k Delta^k f(0) * C(n+1, k+1); no Bernoulli numbers.
    """
    diffs = [h**m for h in range(m + 1)]
    out = [Fraction(0)] * (m + 2)
    for k in range(m + 1):
        # C(n+1, k+1) = prod_{i=0..k} (n + 1 - i) / (k+1)!
        poly = [Fraction(1)]
        for i in range(k + 1):
            shifted = [Fraction(0)] + poly  # n * poly
            for e, c in enumerate(poly):
                shifted[e] += (1 - i) * c
            poly = shifted
        for e, c in enumerate(poly):
            out[e] += diffs[0] * c / math.factorial(k + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return tuple(out)


def poly_eval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs, k: int):
    coeffs = list(coeffs)
    for _ in range(k):
        coeffs = [e * c for e, c in enumerate(coeffs)][1:] or [Fraction(0)]
    return coeffs


def ray_sum_poly(coeff_column) -> list[Fraction]:
    """Exact polynomial in n of sum_{h=0..n} sum_j c_j h^j for float c_j."""
    out = [Fraction(0)] * (len(coeff_column) + 1)
    for j, c in enumerate(coeff_column):
        for e, q in enumerate(power_sum_poly(j)):
            out[e] += Fraction(float(c)) * q
    return out


def ray_sum_scale(coeff_column, n, k: int = 0) -> float:
    """Magnitude of the summands of the k-th n-derivative, for tolerances."""
    x = max(1.0, abs(float(n)))
    total = 0.0
    for j, c in enumerate(coeff_column):
        poly = poly_derivative(power_sum_poly(j), k)
        total += abs(float(c)) * sum(abs(float(q)) * x**e for e, q in enumerate(poly))
    return total


def parse_rational_poly(text: str) -> list[Fraction]:
    """Read the CLI rendering ``1/3 n^3 + 1/2 n^2 - 1/6 n`` back to coefficients."""
    tokens = text.split()
    coeffs: dict[int, Fraction] = {}
    sign = 1
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            i += 1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if tok == "n" or tok.startswith("n^"):
            mag, var = Fraction(1), tok
        else:
            mag = Fraction(tok)
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            if nxt == "n" or nxt.startswith("n^"):
                var = nxt
                i += 1
            else:
                var = ""
        power = 0 if not var else (1 if var == "n" else int(var[2:]))
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * mag
        sign = 1
        i += 1
    top = max(coeffs, default=0)
    return [coeffs.get(e, Fraction(0)) for e in range(top + 1)]


def trim(coeffs) -> list:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# --- fractional iteration -----------------------------------------------------

class Koenigs:
    """Linearizing coordinate h(u) = lim lam^-N P^N(u) of an attracting local map.

    ``local`` holds the Taylor coefficients of P(u) = p(f + u) - f at the
    fixed point (from the jet oracle), so iterating stays accurate as u -> 0.
    """

    STEPS = 80

    def __init__(self, local):
        self.local = [float(c) for c in local]
        self.lam = self.local[1]
        self.dlocal = [e * c for e, c in enumerate(self.local)][1:]
        require(0.0 < self.lam < 0.7, f"multiplier {self.lam} outside (0, 0.7)")

    @staticmethod
    def _horner(coeffs, u):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * u + c
        return acc

    def h_and_slope(self, u: float) -> tuple[float, float]:
        slope = 1.0
        for _ in range(self.STEPS):
            slope *= self._horner(self.dlocal, u) / self.lam
            u = self._horner(self.local, u)
        return u / self.lam**self.STEPS, slope

    def velocity(self, u: float) -> float:
        h, slope = self.h_and_slope(u)
        return math.log(self.lam) * h / slope


def compose_series(outer, inner, order: int) -> np.ndarray:
    """Coefficients of outer(inner(u)) truncated at ``order``; inner(0) = 0."""
    out = np.zeros(order + 1)
    power = np.zeros(order + 1)
    power[0] = 1.0
    for c in outer[: order + 1]:
        out += c * power
        power = np.convolve(power, inner[: order + 1])[: order + 1]
    return out
