import math

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


class TestReversion:
    def test_matches_fresh_powers_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for order in range(1, 31):
            cases = [_random_series(rng, order) for _ in range(6)]
            for lam in (-0.6, 0.3):  # eigen series of a random local map
                local = [0.0, lam] + [float(c) for c in rng.normal(size=order - 1) / 2]
                cases.append(_solve_eigen_series(local, lam, order))
            for h in cases:
                want = _revert_by_fresh_powers(h, order)
                got = _revert_series(h, order)
                assert all(math.isfinite(c) for c in want)
                assert all(type(c) is float for c in got)
                assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_one_series_product_per_degree(self, monkeypatch):
        import tensorjet.iterators as iterators_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _packed_mul(*args, **kwargs)

        monkeypatch.setattr(iterators_module, "_mul", counting)
        rng = np.random.default_rng(6)
        for order in (1, 2, 7, 24):
            calls.clear()
            _revert_series(_random_series(rng, order), order)
            assert len(calls) == order - 1


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
