"""Built-in oracle checks behind the ``selftest`` subcommand.

Each check recomputes an expected result by an independent route (literal
loops, finite differences, term-by-term recurrences, integer polynomial
arithmetic) and compares.  Prints one PASS/FAIL line per check; exits
nonzero when anything fails.
"""

from __future__ import annotations

import math

import numpy as np

from .iterators import find_fixed_point, fractional_iterate, iterating_velocity, schroeder
from .multitensor import MultiTensor, Shape, from_json, to_json
from .operators import (
    compose_towers,
    forward_chain,
    order_reduce,
    reverse_chain,
    series_eval,
    taylor_series,
)
from .program import (
    SIN,
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    Identity,
    derivative_tower,
    evaluate,
    integer_power,
)
from .reducesum import bernoulli, brute_force_partial_sum, reduce_sum_apply, reduce_sum_closed_form


def _check_compose_polynomials():
    # f(y) = 1 - 2y + 3y^2 + y^3 and g(x) = 2x - x^2 + x^3: component m of the
    # composed tower is m! times the t^m coefficient of f(g(x0 + t)), in ints
    f_coeffs, g_coeffs, order = [1, -2, 3, 1], [0, 2, -1, 1], 6

    def layer(coeffs):
        comps = [np.full((1,) * (j + 1), float(c)) for j, c in enumerate(coeffs)]
        return ContractionLayer(MultiTensor(Shape(1, 1, len(coeffs) - 1), comps))

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    fg, power = [0] * 10, [1]  # f(g(x)) has degree 9
    for c in f_coeffs:
        for i, p in enumerate(power):
            fg[i] += c * p
        power = times(power, g_coeffs)
    f, g = layer(f_coeffs), layer(g_coeffs)
    for x0 in (0, 1, -2, 3):
        g_x0 = sum(c * x0**j for j, c in enumerate(g_coeffs))
        got = compose_towers(derivative_tower(f, [g_x0], order), derivative_tower(g, [x0], order))
        for m in range(order + 1):
            shifted = sum(c * math.comb(k, m) * x0 ** (k - m) for k, c in enumerate(fg[m:], m))
            want = math.factorial(m) * shifted
            entry = got.component(m).ravel()[0]
            assert entry == want, f"component {m} at x0={x0}: {entry}, expected {want}"


def _check_bernoulli():
    # recurrence sum_{j<m} C(m,j) B_j = 0 for m >= 2
    for m in range(2, 16):
        acc = sum(math.comb(m, j) * bernoulli(j) for j in range(m))
        assert acc == 0, f"Bernoulli recurrence fails at m={m}: {acc}"


def _check_reduce_sum():
    x = Identity(1)
    for m in range(5):
        p = Compose(Elementwise(integer_power(m)), x)
        for n in range(8):
            closed = float(reduce_sum_closed_form(m)(n))
            brute = brute_force_partial_sum(p, [0.0], [1.0], n)[0]
            assert closed == brute, f"closed form m={m}, n={n}: {closed} vs {brute}"
            applied = reduce_sum_apply(p, [0.0], [1.0], n, order=max(m, 1))[0]
            assert abs(applied - brute) < 1e-9


def _check_towers_vs_finite_differences():
    p = Compose(Elementwise(SIN, dim=2), Affine([[0.7, -0.3], [0.2, 0.5]], [0.1, -0.2]))
    v = np.array([0.3, -0.4])
    t = derivative_tower(p, v, 2)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (evaluate(p, v + e) - evaluate(p, v - e)) / (2 * h)
        assert np.max(np.abs(t.component(1)[:, i] - fd)) < 1e-6


def _check_compose_modes():
    stages = [
        Affine([[0.5], [0.2]], [0.1, -0.3]),
        Elementwise(SIN, dim=2),
        Affine([[0.3, -0.7]], [0.2]),
    ]
    fwd = forward_chain(stages, [0.4], 2)
    rev = reverse_chain(stages, [0.4], 2)
    for a, b in zip(fwd.tower.components, rev.tower.components):
        assert np.max(np.abs(a - b)) < 1e-10
    direct = derivative_tower(Compose(Compose(stages[2], stages[1]), stages[0]), [0.4], 2)
    for a, b in zip(fwd.tower.components, direct.tower.components):
        assert np.max(np.abs(a - b)) < 1e-10


def _check_composer_second_derivative():
    f = Elementwise(SIN)
    g = Compose(Elementwise(integer_power(2)), Identity(1))
    for x in (0.0, 0.5, 1.2):
        inner = derivative_tower(g, [x], 2)
        outer = derivative_tower(f, inner.value, 2)
        got = compose_towers(outer, inner).component(2)[0, 0, 0]
        want = math.cos(x * x) * 2 + -math.sin(x * x) * (2 * x) ** 2
        assert abs(got - want) < 1e-12


def _check_order_reduce():
    # two inputs and two outputs whose Jacobian is not symmetric, so output
    # i * 2 + a of the reduced tower is told apart from output a * 2 + i
    p = Compose(Elementwise(integer_power(3), 2), Affine([[1.0, 2.0], [3.0, -1.0]], [0.5, -0.25]))
    t = derivative_tower(p, [2.0, 1.0], 3)
    reduced = order_reduce(t)
    for j in range(3):
        want = t.component(j + 1).reshape((4,) + (2,) * j)
        np.testing.assert_array_equal(reduced.component(j), want)


def _check_taylor():
    p = Elementwise(SIN)
    series = taylor_series(p, [0.7], 3)
    for h in (0.1, 0.01):
        approx = series_eval(series, h, [1.0])[0]
        truth = math.sin(0.7 + h)
        assert abs(approx - truth) < abs(math.sin(0.7)) * h**4  # next-term scale


def _check_iteration():
    half = Affine([[0.5]], [0.0])
    data = schroeder(half, find_fixed_point(half, 1.0), 8)
    assert abs(fractional_iterate(data, 0.5, 0.2) - 0.2 / math.sqrt(2)) < 1e-12
    assert abs(iterating_velocity(data, 0.2) - math.log(0.5) * 0.2) < 1e-12
    # p(v) = v/2 + v^2/4, fixed point 0, multiplier 1/2
    p = ContractionLayer(MultiTensor(Shape(1, 1, 2), [[0.0], [0.5], [0.25]]))
    d2 = schroeder(p, find_fixed_point(p, 0.3), 10)
    v = 0.05
    twice = fractional_iterate(d2, 0.5, fractional_iterate(d2, 0.5, v))
    assert abs(twice - evaluate(p, [v])[0]) < 1e-8


def _check_json_round_trip():
    w = MultiTensor(Shape(2, 2, 2), [
        np.array([0.1, -0.25]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.arange(8, dtype=float).reshape(2, 2, 2) / 7.0,
    ])
    back = from_json(to_json(w))
    for a, b in zip(w.components, back.components):
        assert np.array_equal(a, b)


CHECKS = [
    ("tower composition vs exact polynomial composition", _check_compose_polynomials),
    ("Bernoulli numbers vs binomial recurrence", _check_bernoulli),
    ("reduce-sum closed forms vs literal loops", _check_reduce_sum),
    ("derivative towers vs central differences", _check_towers_vs_finite_differences),
    ("forward/reverse chain agreement", _check_compose_modes),
    ("composition second-derivative formula", _check_composer_second_derivative),
    ("order reduction component shift", _check_order_reduce),
    ("taylor series truncation error scale", _check_taylor),
    ("fractional iteration closed forms", _check_iteration),
    ("multi-tensor JSON round trip", _check_json_round_trip),
]


def run_selftest() -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            # the CLI ignores numpy's float errors; no check may pass through one
            with np.errstate(over="raise", invalid="raise"):
                check()
        except (AssertionError, FloatingPointError) as exc:
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    if failures:
        print(f"{failures} of {len(CHECKS)} checks failed")
        return 2
    print(f"all {len(CHECKS)} checks passed")
    return 0
