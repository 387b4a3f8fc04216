import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    Identity,
    MultiTensor,
    Product,
    RationalPoly,
    Shape,
    ShiftOp,
    Sum,
    bernoulli,
    brute_force_partial_sum,
    evaluate,
    get_primitive,
    integer_power,
    reduce_sum_apply,
    reduce_sum_closed_form,
    reduce_sum_polynomials,
    reduction_velocity,
)

import tensorjet.reducesum as reducesum_module
from tensorjet.reducesum import _ray_coefficients

from _gen import random_multitensor


def monomial(m):
    return Compose(Elementwise(integer_power(m)), Identity(1))


def faulhaber_positive_b1(m, n):
    """Independent oracle: sum_{h=1..n} h^m with the B_1 = +1/2 convention."""
    bplus = lambda i: -bernoulli(i) if i == 1 else bernoulli(i)
    acc = Fraction(0)
    for i in range(m + 1):
        acc += Fraction(math.comb(m + 1, i)) * bplus(i) * Fraction(n) ** (m + 1 - i)
    return acc / (m + 1)


def bracket_antiderivative_form(m, n):
    """Second oracle: antiderivative-plus-Bernoulli-tail bracket, then the last term.

    [ D^{-1} q + sum_{i>=1} B_i D^{i-1} q / i! ] from 0 to n  equals
    sum_{h=0..n-1} h^m for q = t^m; adding n^m gives the 0..n sum.
    """
    def q_deriv(order, t):  # d^order/dt^order of t^m, exact
        if order > m:
            return Fraction(0)
        return Fraction(math.perm(m, order)) * Fraction(t) ** (m - order)

    def antideriv(t):
        return Fraction(t) ** (m + 1) / (m + 1)

    acc = antideriv(n) - antideriv(0)
    for i in range(1, m + 2):
        acc += bernoulli(i) * (q_deriv(i - 1, n) - q_deriv(i - 1, 0)) / math.factorial(i)
    return acc + Fraction(n) ** m


class TestBernoulli:
    def test_known_values(self):
        known = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for i, want in known.items():
            assert bernoulli(i) == want

    def test_recurrence(self):
        for m in range(2, 20):
            assert sum(math.comb(m, j) * bernoulli(j) for j in range(m)) == 0

    def test_odd_indices_vanish(self):
        for i in range(3, 21, 2):
            assert bernoulli(i) == 0


class TestClosedForms:
    def test_constant_exponent_counts_terms(self):
        poly = reduce_sum_closed_form(0)
        for n in range(10):
            assert poly(n) == n + 1

    def test_square_exponent(self):
        assert reduce_sum_closed_form(2)(3) == 14

    def test_linear_exponent(self):
        assert reduce_sum_closed_form(1)(10) == 55

    def test_degree(self):
        for m in range(7):
            assert reduce_sum_closed_form(m).degree == m + 1

    def test_matches_literal_sums_exactly(self):
        for m in range(9):
            poly = reduce_sum_closed_form(m)
            for n in range(31):
                want = sum(Fraction(h) ** m for h in range(1, n + 1))
                if m == 0:
                    want += 1  # 0^0 term
                assert poly(n) == want

    def test_agrees_with_positive_b1_faulhaber(self):
        for m in range(9):
            poly = reduce_sum_closed_form(m)
            for n in range(12):
                want = faulhaber_positive_b1(m, n) + (1 if m == 0 else 0)
                assert poly(n) == want

    def test_agrees_with_antiderivative_bracket_form(self):
        for m in range(9):
            poly = reduce_sum_closed_form(m)
            for n in range(12):
                assert poly(n) == bracket_antiderivative_form(m, n)


class TestRationalPoly:
    def test_rendering(self):
        assert str(reduce_sum_closed_form(2)) == "1/3 n^3 + 1/2 n^2 + 1/6 n"
        assert str(reduce_sum_closed_form(0)) == "n + 1"
        assert str(reduce_sum_closed_form(4)) == "1/5 n^5 + 1/2 n^4 + 1/3 n^3 - 1/30 n"
        assert str(RationalPoly([0])) == "0"
        assert str(RationalPoly([Fraction(-1, 2), 1])) == "n - 1/2"

    def test_derivative_and_degree(self):
        p = RationalPoly([Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)])
        dp = p.derivative()
        assert dp.coeffs == (Fraction(1, 2), Fraction(2, 3))
        assert p.derivative(3).degree == -1
        assert p.derivative(0) == p
        with pytest.raises(ValueError, match="derivative order must be >= 0"):
            p.derivative(-1)

    def test_evaluation_is_exact(self):
        p = RationalPoly([Fraction(1, 3), 0, Fraction(-2, 7)])
        assert p(21) == Fraction(1, 3) + Fraction(-2, 7) * 441

    def test_trailing_zeros_stripped(self):
        assert RationalPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))


def integer_power_rays():
    """pow(m), m = 2..22, on integer rays: ``(program, v0, u, lines)``, where output i
    runs along a_i + b_i h.  The derivatives m!/(m-j)! are exact floats up to m = 22
    and |a_i| <= 2, |b_i| <= 2, so every ray coefficient is an exact integer."""
    rng = np.random.default_rng(34)
    mix = np.array([[1.0, 0.0], [1.0, -1.0]])
    for m in range(2, 23):
        for _ in range(2):
            a, b = int(rng.integers(-2, 3)), int(rng.choice([-1, 1]))
            yield monomial(m), [float(a)], [float(b)], [(a, b)]
            v0, u = rng.integers(-1, 2, size=2), rng.choice([-1, 1], size=2)
            p = Compose(Elementwise(integer_power(m), 2), Affine(mix, [0.0, 0.0]))
            yield p, v0.astype(float), u.astype(float), list(zip(mix @ v0, mix @ u))


def power_sum(a, b, m, n):
    """sum_{h=0..n} (a + b h)^m, in integers."""
    return sum((int(a) + int(b) * h) ** m for h in range(n + 1))


def power_sum_poly(a, b, m):
    """Coefficients in n, ascending, of sum_{h=0..n} (a + b h)^m, from the integer
    sums alone: the polynomial of degree m + 1 through them at n = 0..m + 1."""
    points = range(m + 2)
    out = [Fraction(0)] * (m + 2)
    for x in points:  # Lagrange
        basis, scale = [Fraction(1)], Fraction(power_sum(a, b, m, x))
        for y in points:
            if y != x:
                basis = [lo - y * hi for lo, hi in zip([Fraction(0)] + basis, basis + [0])]
                scale /= x - y
        out = [c + scale * e for c, e in zip(out, basis)]
    return out


class TestReduceSumApply:
    def test_square_program(self):
        """The square, and pow(m) up to m = 22 on integer rays at orders up to 24:
        the brute-force integer sum, rounded once."""
        got = reduce_sum_apply(monomial(2), [0.0], [1.0], 3, 3)
        assert got[0] == 14.0
        for p, v0, u, lines in integer_power_rays():
            m = int(p.outer.fn.name[3:])
            for order in (m, 24):
                for n in range(4):
                    want = [float(power_sum(a, b, m, n)) for a, b in lines]
                    assert reduce_sum_apply(p, v0, u, n, order).tolist() == want

    def test_affine_program(self):
        A = np.array([[2.0, -1.0], [0.5, 1.5]])
        b = np.array([0.3, -0.7])
        p = Affine(A, b)
        v0 = np.array([0.2, 0.4])
        v = np.array([1.0, -2.0])
        got = reduce_sum_apply(p, v0, v, 4, 1)
        want = 5 * evaluate(p, v0) + 10 * (A @ v)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_steps_is_single_evaluation(self):
        p = monomial(3)
        got = reduce_sum_apply(p, [2.0], [1.0], 0, 3)
        assert got[0] == pytest.approx(8.0, abs=1e-12)

    def test_matches_brute_force_on_random_polynomial_programs(self):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 100:
            p, degree = _random_polynomial_program(rng)
            v0 = rng.uniform(-0.7, 0.7, size=p.dim_in)
            v = rng.uniform(-0.7, 0.7, size=p.dim_in)
            n = int(rng.integers(0, 6))
            got = reduce_sum_apply(p, v0, v, n, degree)
            want = brute_force_partial_sum(p, v0, v, n)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-9
            checked += 1

    def test_telescoping_adds_the_last_point(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p, degree = _random_polynomial_program(rng)
            v0 = rng.uniform(-0.5, 0.5, size=p.dim_in)
            v = rng.uniform(-0.5, 0.5, size=p.dim_in)
            for n in (1, 3, 5):
                gap = reduce_sum_apply(p, v0, v, n, degree) - reduce_sum_apply(
                    p, v0, v, n - 1, degree
                )
                want = evaluate(p, v0 + n * v)
                assert np.max(np.abs(gap - want)) < 1e-9


class TestAgainstFractionFormulas:
    """The integer-numerator route against the plain ``Fraction`` formulas."""

    @staticmethod
    def reference_apply(coeffs, n):
        """sum_j Fraction(c_j) * S_j(n) per coordinate, rounded once."""
        sums = [reduce_sum_closed_form(j)(n) for j in range(len(coeffs))]
        return np.array([float(sum(Fraction(c) * s for c, s in zip(row, sums)))
                         for row in coeffs.T.tolist()])

    @staticmethod
    def reference_polynomials(coeffs):
        """Each closed form S_j scaled by Fraction(c_j), added one after another."""
        polys = []
        for row in coeffs.T.tolist():
            acc = []
            for j, c in enumerate(row):
                term = [Fraction(c) * s for s in reduce_sum_closed_form(j).coeffs]
                acc = [a + b for a, b in zip_longest(acc, term, fillvalue=0)]
            polys.append(RationalPoly(acc))
        return polys

    @staticmethod
    def rays():
        mix = Affine([[0.5, -0.75], [0.25, 0.5], [-1.0, 0.125]], [0.1, -0.2, 0.3])
        for name in ("exp", "sin", "cos", "tanh"):
            fn = get_primitive(name)
            yield Sum((Elementwise(fn), Affine([[0.75]], [-0.25]))), [0.3], [0.4]
            yield Compose(Elementwise(fn, 3), mix), [0.2, -0.1], [0.3, 0.25]
        yield Sum((Elementwise(integer_power(3)), Affine([[2.0]], [-1.0]))), [-1.0], [2.0]
        # c_0 = sin(-0.0) = -0.0, even coefficients +0.0, the last row all zero
        yield Elementwise(get_primitive("sin"), 3), [-0.0, 0.0, -0.0], [0.5, -0.25, 0.0]

    @pytest.mark.parametrize("order", [0, 1, 12, 24])
    def test_bit_for_bit(self, order):
        signed_zeros = set()
        for p, v0, u in self.rays():
            coeffs = _ray_coefficients(p, v0, u, order)
            signed_zeros.update(np.signbit(coeffs[coeffs == 0]).tolist())
            assert reduce_sum_polynomials(p, v0, u, order) == self.reference_polynomials(coeffs)
            for n in [*range(9), 10**6]:
                got = reduce_sum_apply(p, v0, u, n, order)
                assert got.tobytes() == self.reference_apply(coeffs, n).tobytes()
        assert signed_zeros == {False, True}

    @pytest.mark.parametrize("order", [0, 1, 12, 24])
    def test_velocity_bit_for_bit(self, order):
        # k = order + 2 and order + 5 are above every polynomial's degree
        ks = sorted({0, 1, 2, 3, order + 2, order + 5})
        for p, v0, u in self.rays():
            polys = self.reference_polynomials(_ray_coefficients(p, v0, u, order))
            for n in (0, 3, 10**6, 1e6, 2.5, -1.75, Fraction(1, 3), Fraction(-7, 3)):
                for k in ks:
                    got = reduction_velocity(p, v0, u, n, k, order)
                    want = np.array([float(q.derivative(k)(Fraction(n))) for q in polys])
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 12, 24])
    def test_apply_off_the_integers_bit_for_bit(self, order):
        for p, v0, u in self.rays():
            coeffs = _ray_coefficients(p, v0, u, order)
            for n in (2.5, 1e6, 10**6 + 0.5, Fraction(1, 3), Fraction(7, 2)):
                got = reduce_sum_apply(p, v0, u, n, order)
                assert got.tobytes() == self.reference_apply(coeffs, n).tobytes()
            for n in (-1.75, Fraction(-1, 3)):
                with pytest.raises(ValueError, match="^n must be >= 0$"):
                    reduce_sum_apply(p, v0, u, n, order)

    def test_overflow_at_huge_n(self):
        p = monomial(2)  # sum_{h=0..n} h^2 = n^3/3 + n^2/2 + n/6
        for run in (lambda: reduce_sum_apply(p, [0.0], [1.0], 1e300, 2),
                    lambda: reduction_velocity(p, [0.0], [1.0], 1e300, 1, 2)):
            with pytest.raises(OverflowError,
                               match="^integer division result too large for a float$"):
                run()
        assert reduction_velocity(p, [0.0], [1.0], 1e300, 2, 2)[0] == 2e300
        assert reduction_velocity(p, [0.0], [1.0], 1e300, 3, 2)[0] == 2.0


def test_apply_and_velocity_do_not_build_polynomials(monkeypatch):
    def refuse(coeffs):
        raise AssertionError("RationalPoly built")

    monkeypatch.setattr(reducesum_module, "RationalPoly", refuse)
    p = monomial(2)
    assert reduce_sum_apply(p, [0.0], [1.0], 3, 3)[0] == 14.0
    assert reduction_velocity(p, [0.0], [1.0], 3, 1, 3)[0] == float(Fraction(73, 6))
    with pytest.raises(AssertionError, match="RationalPoly built"):
        reduce_sum_polynomials(p, [0.0], [1.0], 3)


class TestShiftSemigroup:
    def test_consecutive_shifts_compose_additively(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            p, degree = _random_polynomial_program(rng)
            v0 = rng.uniform(-0.5, 0.5, size=p.dim_in)
            v = rng.uniform(-0.5, 0.5, size=p.dim_in)
            a, b = 1.5, 2.25
            direct = ShiftOp(v0, v, a + b).apply(p, degree)
            first = ShiftOp(v0, v, a)
            then = ShiftOp(np.asarray(v0) + a * np.asarray(v), v, b)
            stepped = then.apply(p, degree)
            assert np.max(np.abs(direct - stepped)) < 1e-10
            assert np.max(np.abs(first.apply(p, degree) - evaluate(p, np.asarray(v0) + a * np.asarray(v)))) < 1e-10

    def test_shift_reproduces_translation(self):
        p = monomial(3)
        assert ShiftOp([1.0], [1.0], 2.0).apply(p, 3)[0] == pytest.approx(27.0, abs=1e-10)


class TestReductionVelocity:
    def test_first_derivative_of_square_sum(self):
        """The square, and pow(m) up to m = 22 on integer rays at orders up to 24: the
        derivatives in n of the polynomial through the brute-force integer sums."""
        got = reduction_velocity(monomial(2), [0.0], [1.0], 3, 1, 3)
        assert got[0] == pytest.approx(9 + 3 + 1 / 6, abs=1e-12)
        for p, v0, u, lines in integer_power_rays():
            m = int(p.outer.fn.name[3:])
            polys = [power_sum_poly(a, b, m) for a, b in lines]
            for order in (m, 24):
                for n, k in ((3, 0), (2, 1), (5, 2), (1, m + 1)):
                    want = [float(sum(c * math.perm(j, k) * Fraction(n) ** (j - k)
                                      for j, c in enumerate(q) if j >= k)) for q in polys]
                    if k == 0:
                        assert want == [float(power_sum(a, b, m, n)) for a, b in lines]
                    assert reduction_velocity(p, v0, u, n, k, order).tolist() == want

    def test_above_degree_vanishes(self):
        got = reduction_velocity(monomial(2), [0.0], [1.0], 3, 7, 3)
        assert got[0] == 0.0

    def test_order_zero_is_the_sum_itself(self):
        p = monomial(3)
        a = reduction_velocity(p, [0.5], [1.0], 4, 0, 3)
        b = reduce_sum_apply(p, [0.5], [1.0], 4, 3)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_central_differences_in_n(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            p, degree = _random_polynomial_program(rng)
            v0 = rng.uniform(-0.5, 0.5, size=p.dim_in)
            v = rng.uniform(-0.5, 0.5, size=p.dim_in)
            n = 3
            got = reduction_velocity(p, v0, v, n, 1, degree)
            step = 1e-4
            polys = reduce_sum_polynomials(p, v0, v, degree)
            fd = np.array(
                [float(q(Fraction(n + step)) - q(Fraction(n - step))) / (2 * step) for q in polys]
            )
            assert np.max(np.abs(got - fd)) < 1e-6

    def test_matches_bernoulli_weighted_derivative_series(self):
        # independent route: velocity of the 0..n-1 sum is the Bernoulli-weighted
        # series of ray derivatives at n; the 0..n sum adds its endpoint term
        p = monomial(2)
        v0, v, n = [0.0], [1.0], 3

        def q_deriv(order, t):
            return math.perm(2, order) * t ** (2 - order) if order <= 2 else 0.0

        k = 1
        tail = sum(
            float(bernoulli(i)) * q_deriv(k - 1 + i, n) / math.factorial(i)
            for i in range(0, 4)
        )
        want = tail + q_deriv(k, n)
        got = reduction_velocity(p, v0, v, n, k, 2)[0]
        assert got == pytest.approx(want, abs=1e-12)


def _random_polynomial_program(rng):
    """Program whose restriction to any ray is polynomial, with its degree."""
    kind = rng.choice(["layer", "affine", "sum", "product", "compose"])
    dim = int(rng.integers(1, 3))
    if kind == "affine":
        return (
            Affine(rng.uniform(-1, 1, size=(dim, dim)), rng.uniform(-1, 1, size=dim)),
            1,
        )
    if kind == "layer":
        order = int(rng.integers(1, 4))
        return ContractionLayer(random_multitensor(rng, dim, dim, order)), order
    if kind == "sum":
        a, da = _random_polynomial_program(rng)
        b = ContractionLayer(random_multitensor(rng, a.dim_out, a.dim_in, 2))
        return Sum((a, b)), max(da, 2)
    if kind == "product":
        a = ContractionLayer(random_multitensor(rng, dim, dim, 2))
        b = ContractionLayer(random_multitensor(rng, dim, dim, 1))
        return Product((a, b)), 3
    outer = ContractionLayer(random_multitensor(rng, 1, dim, 2))
    inner = ContractionLayer(random_multitensor(rng, dim, dim, 2))
    return Compose(outer, inner), 4
