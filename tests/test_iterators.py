import math
from fractions import Fraction

import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    FixedPointError,
    HyperbolicityError,
    Identity,
    MultiTensor,
    SchroederData,
    Shape,
    Sum,
    convergence_radius,
    evaluate,
    find_fixed_point,
    fractional_iterate,
    get_primitive,
    integer_power,
    iterating_velocity,
    schroeder,
)
from tensorjet.iterators import _revert_series, _solve_eigen_series, iterate_exact
from tensorjet.multitensor import _mul as _packed_mul

from _gen import loglog_slope


def scalar_poly(*coeffs):
    return ContractionLayer(MultiTensor(Shape(1, 1, len(coeffs) - 1), [[c] for c in coeffs]))


HALF = Affine([[0.5]], [0.0])                 # v -> v/2
QUAD = scalar_poly(0.0, 0.5, 0.25)            # v -> v/2 + v^2/4
SQUARE = Compose(Elementwise(integer_power(2)), Identity(1))


class TestFixedPoints:
    def test_linear_contraction(self):
        assert find_fixed_point(HALF, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_square_has_two_fixed_points(self):
        assert find_fixed_point(SQUARE, 0.1) == pytest.approx(0.0, abs=1e-10)
        assert find_fixed_point(SQUARE, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_translation_has_none(self):
        with pytest.raises(FixedPointError):
            find_fixed_point(Affine([[1.0]], [1.0]), 0.0)

    def test_vector_programs_rejected(self):
        with pytest.raises(ValueError):
            find_fixed_point(Identity(2), 0.0)


class TestSchroeder:
    def test_linear_map_linearizes_trivially(self):
        data = schroeder(Affine([[0.3]], [0.0]), 0.0, 6)
        assert data.lam == pytest.approx(0.3, abs=1e-14)
        assert data.h_coeffs[0] == 0.0 and data.h_coeffs[1] == 1.0
        assert all(abs(c) < 1e-14 for c in data.h_coeffs[2:])

    def test_eigen_equation_residual_vanishes_through_order(self):
        order = 8
        data = schroeder(QUAD, 0.0, order)
        # compare series of h(P(u)) and lam*h(u) coefficient by coefficient
        local = [0.0, 0.5, 0.25] + [0.0] * (order - 2)
        comp = [0.0] * (order + 1)
        power = [1.0] + [0.0] * order
        for j in range(1, order + 1):
            power = _mul(power, local, order)
            comp = [c + data.h_coeffs[j] * w for c, w in zip(comp, power)]
        for m in range(order + 1):
            assert abs(comp[m] - data.lam * data.h_coeffs[m]) < 1e-9

    def test_inverse_series_inverts(self):
        order = 8
        data = schroeder(QUAD, 0.0, order)
        comp = [0.0] * (order + 1)
        power = [1.0] + [0.0] * order
        for j in range(1, order + 1):
            power = _mul(power, list(data.h_coeffs), order)
            comp = [c + data.h_inv_coeffs[j] * w for c, w in zip(comp, power)]
        for m in range(order + 1):
            assert abs(comp[m] - (1.0 if m == 1 else 0.0)) < 1e-9

    def test_multiplier_zero_rejected(self):
        with pytest.raises(HyperbolicityError):
            schroeder(SQUARE, 0.0, 4)  # derivative 0 at the origin

    def test_multiplier_one_rejected(self):
        p = scalar_poly(0.0, 1.0, 1.0)  # v + v^2
        with pytest.raises(HyperbolicityError):
            schroeder(p, 0.0, 4)

    def test_non_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="fixed point"):
            schroeder(HALF, 1.0, 4)


class TestFractionalIterate:
    def test_unit_power_reproduces_the_program(self):
        data = schroeder(QUAD, 0.0, 10)
        for v in (0.02, 0.05, -0.04):
            got = fractional_iterate(data, 1.0, v)
            assert abs(got - evaluate(QUAD, [v])[0]) < 1e-8

    def test_zero_power_is_identity(self):
        data = schroeder(QUAD, 0.0, 10)
        for v in (0.03, -0.06):
            assert abs(fractional_iterate(data, 0.0, v) - v) < 1e-10

    def test_linear_half_step(self):
        data = schroeder(HALF, 0.0, 6)
        v = 0.2
        assert abs(fractional_iterate(data, 0.5, v) - v / math.sqrt(2)) < 1e-12

    def test_half_iterate_squares_to_the_map(self):
        data = schroeder(QUAD, 0.0, 12)
        for v in (0.05, -0.03, 0.08):
            once = fractional_iterate(data, 0.5, v)
            twice = fractional_iterate(data, 0.5, once)
            assert abs(twice - evaluate(QUAD, [v])[0]) < 1e-8

    def test_semigroup_property(self):
        data = schroeder(QUAD, 0.0, 12)
        v = 0.05
        for a, b in [(0.25, 0.5), (0.5, 0.5), (0.25, 1.0)]:
            stepped = fractional_iterate(data, b, fractional_iterate(data, a, v))
            direct = fractional_iterate(data, a + b, v)
            assert abs(stepped - direct) < 1e-8

    def test_integer_powers_match_repeated_application(self):
        data = schroeder(QUAD, 0.0, 12)
        v = 0.05
        for times in (1, 2, 3):
            got = fractional_iterate(data, float(times), v)
            assert abs(got - iterate_exact(QUAD, v, times)) < 1e-8

    def test_negative_multiplier_allows_integer_powers_only(self):
        p = Affine([[-0.5]], [0.0])
        data = schroeder(p, 0.0, 6)
        assert fractional_iterate(data, 2.0, 0.1) == pytest.approx(0.025, abs=1e-12)
        with pytest.raises(HyperbolicityError):
            fractional_iterate(data, 0.5, 0.1)

    def test_out_of_radius_warns(self):
        data = schroeder(QUAD, 0.0, 8)
        with pytest.warns(RuntimeWarning, match="radius"):
            fractional_iterate(data, 0.5, 50.0)

    def test_eigen_residual_decays_at_truncation_order(self):
        order = 6
        data = schroeder(QUAD, 0.0, order)
        us = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        residuals = []
        for u in us:
            pu = evaluate(QUAD, [u])[0]
            residuals.append(abs(_poly(data.h_coeffs, pu) - data.lam * _poly(data.h_coeffs, u)))
        slope = loglog_slope(us, residuals)
        assert abs(slope - (order + 1)) < 0.6


class TestIteratingVelocity:
    def test_zero_at_the_fixed_point(self):
        data = schroeder(QUAD, 0.0, 10)
        assert iterating_velocity(data, 0.0) == 0.0

    def test_linear_case_closed_form(self):
        lam = 0.5
        data = schroeder(Affine([[lam]], [0.0]), 0.0, 6)
        for v in (0.2, -0.35):
            assert iterating_velocity(data, v) == pytest.approx(
                math.log(lam) * v, abs=1e-12
            )

    def test_matches_rate_of_change_of_the_iterate(self):
        data = schroeder(QUAD, 0.0, 12)
        for v in (0.05, -0.04):
            eps = 1e-6
            fd = (
                fractional_iterate(data, eps, v) - fractional_iterate(data, -eps, v)
            ) / (2 * eps)
            assert abs(iterating_velocity(data, v) - fd) < 1e-6

    def test_velocity_along_the_orbit(self):
        data = schroeder(QUAD, 0.0, 12)
        v = 0.05
        for n in (0.5, 1.0, 2.0):
            at = fractional_iterate(data, n, v)
            eps = 1e-6
            fd = (
                fractional_iterate(data, n + eps, v) - fractional_iterate(data, n - eps, v)
            ) / (2 * eps)
            assert abs(iterating_velocity(data, at) - fd) < 1e-6

    def test_negative_multiplier_rejected(self):
        data = schroeder(Affine([[-0.5]], [0.0]), 0.0, 6)
        with pytest.raises(HyperbolicityError):
            iterating_velocity(data, 0.1)

    def test_vanishing_slope_rejected(self):
        data = SchroederData(
            fixed_point=0.0,
            lam=0.5,
            nu=math.log(0.5),
            h_coeffs=(0.0, 1.0, 1.0),       # h'(u) = 1 + 2u, zero at u = -1/2
            h_inv_coeffs=(0.0, 1.0, -1.0),
            order=2,
        )
        with pytest.raises(ZeroDivisionError):
            iterating_velocity(data, -0.5)


class TestRadius:
    def test_linear_series_has_unbounded_estimate(self):
        data = schroeder(HALF, 0.0, 6)
        assert convergence_radius(data) == math.inf

    def test_nonlinear_series_estimate_is_finite(self):
        data = schroeder(QUAD, 0.0, 10)
        assert 0.0 < convergence_radius(data) < math.inf


def _revert_by_fresh_powers(h, order):
    """Reversion that rebuilds g^2..g^m at every degree m, the reference."""
    g = [0.0, 1.0] + [0.0] * (order - 1)
    for m in range(2, order + 1):
        series = np.array(g)
        power = series
        total = 0.0
        for j in range(2, m + 1):
            power = _packed_mul(series, power, 1, order)
            total += h[j] * float(power[m])
        g[m] = -total
    return g


def _random_series(rng, order):
    """h = u + higher terms, with signed zeros among the coefficients."""
    h = [0.0, 1.0]
    for _ in range(2, order + 1):
        r = rng.random()
        h.append(0.0 if r < 0.15 else -0.0 if r < 0.3 else float(rng.normal()) / 2)
    return h


EPS = 2.0**-52
# Worst measured |got - exact| / (eps * M_m) over these cases: reversion 4.21
# when each degree took a packed-series product, 2.65 with one matrix-vector
# and one dot product per degree; eigen series 1.41 and 1.37.
ORACLE_C = 8


def _exact_reversion(h, order, absolute=False):
    """The reversion recurrence in exact arithmetic on the float coefficients of h.

    With ``absolute`` it runs on |h_j| and adds where the recurrence subtracts:
    M_m, the scale of the rounding error in the degree-m coefficient.  Scaling
    u by t = 2^s turns h_j into the integer h_j t^(j-1) and g_m into
    g_m t^(m-1) without changing the recurrence, so it runs on Python ints.
    """
    h = [abs(Fraction(c)) if absolute else Fraction(c) for c in h]
    s = max([-(-_twos(c) // (j - 1)) for j, c in enumerate(h) if j >= 2], default=0)
    h = [int(c * 2 ** (s * (j - 1))) if j >= 1 else 0 for j, c in enumerate(h)]
    g = [0, 1] + [0] * (order - 1)
    powers = [[0] * (order + 1) for _ in range(order + 1)]  # [g^j]_m, scaled
    powers[1][1] = 1
    for m in range(2, order + 1):
        for j in range(2, m + 1):
            powers[j][m] = sum(powers[j - 1][k] * g[m - k] for k in range(j - 1, m))
        total = sum(h[j] * powers[j][m] for j in range(2, m + 1))
        g[m] = powers[1][m] = total if absolute else -total
    return [Fraction(c, 2 ** (s * (m - 1))) if m else Fraction(0) for m, c in enumerate(g)]


def _exact_eigen_series(local, lam, order, absolute=False):
    """The eigen-series recurrence in exact arithmetic; ``absolute`` as above.

    The powers of P run on integers, P's coefficients times 2^e.
    """
    local = [abs(Fraction(c)) if absolute else Fraction(c) for c in local]
    e = max(_twos(c) for c in local)
    ints = [int(c * 2**e) for c in local]
    lam = Fraction(lam)
    powers = [[0] * (order + 1) for _ in range(order + 1)]  # [P^j]_m times 2^(e j)
    powers[0][0] = 1
    h = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for m in range(1, order + 1):
        for j in range(1, m + 1):
            powers[j][m] = sum(powers[j - 1][k] * ints[m - k] for k in range(j - 1, m))
        if m >= 2:
            denom = lam - lam**m
            rhs = sum(h[j] * Fraction(powers[j][m], 2 ** (e * j)) for j in range(1, m))
            h[m] = rhs / (abs(denom) if absolute else denom)
    return h


def _twos(c):
    """log2 of the denominator of a dyadic Fraction: c * 2^e is an integer."""
    return c.denominator.bit_length() - 1


def _within_rounding_bound(got, exact, scale):
    for c, want, size in zip(got, exact, scale):
        assert type(c) is float
        assert abs(Fraction(c) - want) <= ORACLE_C * EPS * size, (c, float(want), float(size))


class TestReversion:
    def test_within_rounding_bound_of_the_exact_recurrences(self):
        """Both series solvers against Fraction arithmetic on their own inputs.

        Each coefficient lies within ORACLE_C * eps * M_m of the exact one, M_m
        being the recurrence on absolute values.  Zero coefficients keep the
        signs of the reversion that rebuilds every power afresh.
        """
        rng = np.random.default_rng(5)
        for order in range(1, 31):
            cases = [_random_series(rng, order) for _ in range(6)]
            for lam in (-0.6, 0.3):  # eigen series of a random local map
                local = [0.0, lam] + [float(c) for c in rng.normal(size=order - 1) / 2]
                h = _solve_eigen_series(local, lam, order)
                _within_rounding_bound(
                    h,
                    _exact_eigen_series(local, lam, order),
                    _exact_eigen_series(local, lam, order, absolute=True),
                )
                cases.append(h)
            for h in cases:
                got = _revert_series(h, order)
                _within_rounding_bound(
                    got, _exact_reversion(h, order), _exact_reversion(h, order, absolute=True)
                )
                want = _revert_by_fresh_powers(h, order)
                assert [c.hex() for c in got if c == 0.0] == [
                    w.hex() for c, w in zip(got, want) if c == 0.0
                ]

    def test_no_packed_series_products(self, monkeypatch):
        import tensorjet.iterators as iterators_module
        import tensorjet.multitensor as multitensor_module

        def refuse(*args, **kwargs):
            raise AssertionError("multitensor._mul called")

        monkeypatch.setattr(multitensor_module, "_mul", refuse)
        assert not hasattr(iterators_module, "_mul")
        rng = np.random.default_rng(6)
        for order in (1, 2, 7, 24):
            local = [0.0, 0.4] + [float(c) for c in rng.normal(size=order - 1) / 2]
            h = _solve_eigen_series(local, 0.4, order)
            g = _revert_series(h, order)
            assert len(h) == len(g) == order + 1 and g[:2] == [0.0, 1.0]
        data = schroeder(QUAD, 0.0, 12)
        assert len(data.h_inv_coeffs) == 13


SIN_SUM = Sum([Affine([[0.2]], [0.05]), Elementwise(get_primitive("sin"))])


def _hex(coeffs):
    return [c.hex() for c in coeffs]


class TestDeeperOrder:
    def test_lower_coefficients_keep_their_bits(self):
        """Asking for a deeper Schroeder series never moves a lower coefficient."""
        top = 40
        rng = np.random.default_rng(8)
        for lam in (-0.6, 0.45, 1.7):
            local = [0.0, lam] + [float(c) for c in rng.normal(size=top - 1) / 2]
            h_top = _solve_eigen_series(local, lam, top)
            g_top = _revert_series(h_top, top)
            for order in range(1, top):
                h = _solve_eigen_series(local[:order + 1], lam, order)
                assert _hex(h) == _hex(h_top[:order + 1])
                assert _hex(_revert_series(h, order)) == _hex(g_top[:order + 1])
        for program, seed in ((QUAD, 0.1), (SIN_SUM, -0.2)):
            fp = find_fixed_point(program, seed)
            deepest = schroeder(program, fp, top)
            for order in range(1, top):
                data = schroeder(program, fp, order)
                assert _hex(data.h_coeffs) == _hex(deepest.h_coeffs[:order + 1])
                assert _hex(data.h_inv_coeffs) == _hex(deepest.h_inv_coeffs[:order + 1])


class TestNonFiniteSeries:
    """An overflowing series is an error naming it, not a silent NaN downstream."""

    STEEP = scalar_poly(0.0, 0.5, 1e20)  # v/2 + 1e20 v^2

    def test_overflowing_eigen_series_names_h_and_its_degree(self):
        with np.errstate(all="raise"):  # no numpy warning escapes either
            with pytest.raises(ValueError, match=r"^h series coefficient of degree 17 "):
                schroeder(self.STEEP, 0.0, 24)

    def test_overflowing_inverse_names_h_inv_and_its_degree(self):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"^h_inv series coefficient of degree 16 "):
                schroeder(self.STEEP, 0.0, 16)
            assert all(map(math.isfinite, schroeder(self.STEEP, 0.0, 15).h_inv_coeffs))

    def test_overflowing_taylor_series_names_it_and_its_degree(self):
        c = 2.0**40  # p(v) = (1/2 - c) v - 1 + exp(c v): fixed point 0, multiplier 1/2
        steep_exp = Sum([
            Affine([[0.5 - c]], [-1.0]),
            Compose(Elementwise(get_primitive("exp")), Affine([[c]], [0.0])),
        ])
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"^Taylor series coefficient of degree 26 "):
                schroeder(steep_exp, 0.0, 30)


def _mul(a, b, order):
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _poly(coeffs, u):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc
