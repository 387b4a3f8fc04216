"""Jets: univariate Taylor series pushed through the DAG, against towers and exact sums."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tensorjet.program as program_module
from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    DomainEvalError,
    Elementwise,
    ExtractedDerivative,
    Identity,
    MultiTensor,
    Product,
    Shape,
    Sum,
    brute_force_partial_sum,
    derivative_tower,
    evaluate,
    get_primitive,
    integer_power,
    reduce_sum_apply,
    reduce_sum_polynomials,
    reduction_velocity,
)
from tensorjet import multitensor
from tensorjet.multitensor import ShapeMismatchError, _mul
from tensorjet.operators import forward_chain, reverse_chain
from tensorjet.program import Primitive, _sin_seq, jet

from _gen import (
    random_bilinear_product,
    random_chain,
    random_multitensor,
    random_program,
    rel_gap,
)


def ray_series(v, u, order):
    """Input series of the ray t -> v + t*u, truncated at t^order."""
    series = np.zeros((len(v), order + 1))
    series[:, 0] = v
    if order >= 1:
        series[:, 1] = u
    return series


def tower_along(tower, u):
    """<tower_j, u^(x)j> for every j, by contracting one slot at a time."""
    rows = []
    for comp in tower.components:
        for _ in range(comp.ndim - 1):
            comp = np.tensordot(comp, u, axes=([-1], [0]))
        rows.append(comp)
    return rows


def test_jet_matches_tower_along_the_ray():
    rng = np.random.default_rng(70)
    programs = [
        random_program(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                       int(rng.integers(0, 4)))
        for _ in range(60)
    ]
    programs.append(ExtractedDerivative(random_program(rng, 2, 2, 2), 1))
    programs.append(ExtractedDerivative(
        Compose(Elementwise(get_primitive("sin"), 2), Affine([[0.5, -0.3], [0.2, 0.9]],
                                                            [0.1, -0.2])), 2))
    bilinear_rng = np.random.default_rng(71)  # random_program makes no bilinear Product
    programs += [random_bilinear_product(bilinear_rng, int(bilinear_rng.integers(1, 4)))
                 for _ in range(10)]
    for p in programs:
        v = rng.uniform(-0.5, 0.5, size=p.dim_in)
        u = rng.uniform(-0.5, 0.5, size=p.dim_in)
        order = 4
        coeffs = jet(p, ray_series(v, u, order))
        assert coeffs.shape == (p.dim_out, order + 1)
        for j, want in enumerate(tower_along(derivative_tower(p, v, order).tower, u)):
            assert rel_gap(math.factorial(j) * coeffs[:, j], want) < 1e-12


@pytest.mark.parametrize("dim", [1, 3, 9])
def test_deeper_jet_leaves_lower_coefficients_bitwise(dim):
    # dim 9 also covers sums over more than eight indices, which numpy would
    # add pairwise along a lone coefficient column
    rng = np.random.default_rng(71 + dim)
    programs = [random_program(rng, dim, dim, 3) for _ in range(12)]
    programs.append(ExtractedDerivative(random_program(rng, min(dim, 2), 1, 2), 1))
    bilinear_rng = np.random.default_rng(171 + dim)
    programs += [random_bilinear_product(bilinear_rng, dim) for _ in range(4)]
    for p in programs:
        series = rng.uniform(-0.5, 0.5, size=(p.dim_in, 7))  # a general input curve
        for order in range(6):
            low = jet(p, series[:, :order + 1])
            high = jet(p, series[:, :order + 2])[:, :order + 1]
            assert np.array_equal(high, low)
            assert np.array_equal(np.signbit(high), np.signbit(low))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_integer_power_rays_sum_exactly(m):
    rng = np.random.default_rng(72 + m)
    power = integer_power(m)
    for _ in range(8):
        a, b = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
        matrix = rng.integers(-2, 3, size=(2, 2)).astype(float)
        cases = [
            (Sum([Elementwise(power), Affine([[a]], [b])]), 1),
            (Compose(Elementwise(power), Affine([[a]], [b])), 1),
            (Compose(Elementwise(power, 2), Affine(matrix, [b, a])), 2),
        ]
        for p, dim in cases:
            v0 = rng.integers(-2, 3, size=dim).astype(float)
            u = rng.choice([-1.0, 1.0, 2.0], size=dim)
            n = int(rng.integers(3, 8))
            want = brute_force_partial_sum(p, v0, u, n)
            assert np.array_equal(reduce_sum_apply(p, v0, u, n, 12), want)
            polys = reduce_sum_polynomials(p, v0, u, 12)
            assert [poly(n) for poly in polys] == [Fraction(x) for x in want]


@pytest.mark.parametrize("m", [12, 18, 22, 24])
def test_integer_rays_of_degree_up_to_24_sum_exactly(m):
    # pow(r)'s derivatives r!/(r-j)! are exact floats up to r = 22, so degree 24
    # comes from products too; every sum stays below 3 * 3^24 < 2^53
    rng = np.random.default_rng(90 + m)
    for _ in range(6):
        line = Affine([[float(rng.choice([-1.0, 1.0]))]], [0.0])
        cases = [
            (Product([Compose(Elementwise(integer_power(m // 2)), Identity(1)),
                      Compose(Elementwise(integer_power(m - m // 2)), line)]), 1),
            (Product([line] * m), 1),
        ]
        if m <= 22:
            cases += [
                (Compose(Elementwise(integer_power(m)), line), 1),
                (Compose(Elementwise(integer_power(m), 2), Affine([[1.0, 0.0], [1.0, -1.0]],
                                                                  [0.0, 1.0])), 2),
            ]
        for p, dim in cases:
            v0 = rng.integers(-1, 2, size=dim).astype(float)
            u = rng.choice([-1.0, 1.0], size=dim)
            n = int(rng.integers(1, 3))
            want = brute_force_partial_sum(p, v0, u, n)
            assert np.array_equal(reduce_sum_apply(p, v0, u, n, 24), want)
            polys = reduce_sum_polynomials(p, v0, u, 24)
            assert [poly(n) for poly in polys] == [Fraction(x) for x in want]


@pytest.mark.parametrize("order", [3, 4])
def test_non_symmetric_integer_layer_rays_sum_exactly(order):
    rng = np.random.default_rng(93 + order)
    for _ in range(20):
        comps = [rng.integers(-3, 4, size=(2,) + (2,) * j).astype(float)
                 for j in range(order + 1)]
        p = ContractionLayer(MultiTensor(Shape(2, 2, order), comps))
        v0 = rng.integers(-2, 3, size=2).astype(float)
        u = rng.integers(-2, 3, size=2).astype(float)
        n = int(rng.integers(2, 6))
        want = brute_force_partial_sum(p, v0, u, n)
        for degree in (order, 12):
            assert np.array_equal(reduce_sum_apply(p, v0, u, n, degree), want)


def test_polynomial_programs_take_jets_of_any_order():
    # no factorial enters these jets, so K above 170 (171! overflows a float) runs
    rng = np.random.default_rng(94)
    programs = [
        Identity(2),
        Affine(rng.uniform(-1, 1, size=(2, 2)), rng.uniform(-1, 1, size=2)),
        ContractionLayer(random_multitensor(rng, 2, 2, 3)),
        Product((Identity(2), ContractionLayer(random_multitensor(rng, 2, 2, 2)))),
        Product((Identity(2), Affine(rng.uniform(-1, 1, size=(2, 2)), [0.5, -0.5])),
                bilinear=rng.uniform(-1, 1, size=(3, 2, 2))),
    ]
    for p in programs:
        series = ray_series(rng.uniform(-0.5, 0.5, size=2), rng.uniform(-0.5, 0.5, size=2), 200)
        high = jet(p, series)
        assert high.shape == (p.dim_out, 201)
        assert np.array_equal(high[:, :25], jet(p, series[:, :25]))


def test_orders_above_170_that_divide_by_factorials_are_domain_errors():
    # truncated Horner and series-scaled products divide by r!, and 171! overflows a float
    sin_affine = Compose(Elementwise(get_primitive("sin")), Affine([[0.5]], [0.1]))
    limit = "order 171 is above 170, the largest whose factorial is a float"
    # dense towers stop at order 63, and an extracted derivative of order k at
    # 63 - k, so these are jets
    cases = [
        (lambda: jet(sin_affine, ray_series([0.1], [0.2], 171)),
         f"/compose.outer: elem(sin): {limit}"),
        (lambda: reduce_sum_apply(sin_affine, [0.1], [0.2], 3, 171),
         f"/compose.outer: elem(sin): {limit}"),
        (lambda: reduction_velocity(Elementwise(get_primitive("sin")), [0.1], [0.2], 3, 1, 171),
         f"/: elem(sin): {limit}"),
    ]
    for run, message in cases:
        with pytest.raises(DomainEvalError) as err:
            run()
        assert str(err.value) == message
    # order 170 still runs, and its low coefficients are the order-24 jet's
    high = jet(sin_affine, ray_series([0.1], [0.2], 170))
    assert np.array_equal(high[:, :25], jet(sin_affine, ray_series([0.1], [0.2], 24)))


def test_dense_towers_stop_at_order_63_before_any_walk(monkeypatch):
    # component j has j + 1 axes and numpy allows 64; jets have no such limit
    sin = Elementwise(get_primitive("sin"))
    assert derivative_tower(sin, [0.1], 63).tower.components[63].ndim == 64

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(program_module, "_walk", no_walk)
    for order in (64, 171):
        with pytest.raises(ValueError) as err:
            derivative_tower(sin, [0.1], order)
        assert type(err.value) is ValueError
        assert str(err.value) == (
            f"order {order} is above 63, the largest of a dense tower "
            "(component j has j + 1 axes, and numpy arrays have at most 64)")
    monkeypatch.undo()
    assert jet(sin, ray_series([0.1], [0.2], 170)).shape == (1, 171)


def test_extracted_derivative_stops_at_order_63_minus_k_before_its_inner():
    # it asks for its inner's dense tower at order K + k, and component j of a
    # dense tower has j + 1 axes; a jet of it asks for that tower too
    calls = []

    def counted_sin(j, x):
        calls.append(j)
        return _sin_seq(j, x)

    inner = Compose(Elementwise(Primitive("counted_sin", counted_sin)), Affine([[0.5]], [0.1]))
    for k, limit in ((1, 62), (2, 61)):
        deriv = ExtractedDerivative(inner, k)
        assert jet(deriv, ray_series([0.1], [0.2], limit)).shape == (1, limit + 1)
        assert derivative_tower(deriv, [0.1], limit).order == limit
        calls.clear()
        runs = [(order, "/", lambda order=order: jet(deriv, ray_series([0.1], [0.2], order)))
                for order in (limit + 1, 170)]
        runs += [
            (limit + 1, "/", lambda: derivative_tower(deriv, [0.1], limit + 1)),
            (limit + 1, "/sum[1]", lambda: jet(Sum([Identity(1), deriv]),
                                                ray_series([0.1], [0.2], limit + 1))),
        ]
        for order, path, run in runs:
            with pytest.raises(ValueError) as err:
                run()
            assert type(err.value) is ValueError
            assert str(err.value) == (
                f"{path}: deriv: order {order} is above {limit}, the largest for a "
                f"derivative of order {k} (it needs its inner's dense tower to order "
                f"{order + k}, component j has j + 1 axes, and numpy arrays have at most 64)")
        assert calls == []


def test_domain_error_message_matches_the_tower_path():
    log = Elementwise(get_primitive("log"))
    shift = Affine([[1.0]], [-2.0])
    reciprocal = Compose(Elementwise(get_primitive("reciprocal")), Affine([[1.0]], [0.0]))
    programs = [
        Compose(log, shift),
        Sum([Identity(1), Product([Identity(1), Compose(log, shift)])]),
        ExtractedDerivative(Compose(log, shift), 1),
        reciprocal,
    ]
    for p, v in zip(programs, ([0.5], [0.5], [0.5], [1e-200])):
        with pytest.raises(DomainEvalError) as tower_error:
            derivative_tower(p, v, 3)
        for run in (lambda: jet(p, ray_series(v, [1.0], 3)),
                    lambda: reduce_sum_apply(p, v, [1.0], 2, 3)):
            with pytest.raises(DomainEvalError) as jet_error:
                run()
            assert str(jet_error.value) == str(tower_error.value)


def test_deep_chain_jet_matches_its_tower():
    p = Affine([[0.9]], [0.2])
    for i in range(3000):
        p = Compose(Elementwise(get_primitive("sin" if i % 2 else "tanh")), p)
    coeffs = jet(p, ray_series([0.35], [1.0], 3))
    assert coeffs[0, 0] == pytest.approx(evaluate(p, [0.35]).item(), rel=1e-12, abs=0.0)
    tower = derivative_tower(p, [0.35], 3).tower
    for j, comp in enumerate(tower.components):
        assert math.factorial(j) * coeffs[0, j] == pytest.approx(comp.item(), rel=1e-12, abs=0.0)


def test_layer_jet_peak_allocation_stays_small():
    # a jet through the layer's width-C(8+24, 24) tower would take about 670 MB;
    # the slot-by-slot contraction holds (d_out, d, K+1) terms at order 2
    rng = np.random.default_rng(73)
    p = ContractionLayer(random_multitensor(rng, 8, 8, 2))
    series = rng.uniform(-0.5, 0.5, size=(8, 25))
    jet(p, series)  # the cached index tables are built here, outside the trace
    tracemalloc.start()
    try:
        jet(p, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _cos_leaf():
    return Compose(Elementwise(get_primitive("cos")), Affine([[0.03]], [0.01]))


def test_shared_nest_matches_tree_and_computes_each_node_once(monkeypatch):
    dag = _cos_leaf()
    for _ in range(12):
        dag = Product([dag, dag])

    def tree(depth):
        return _cos_leaf() if depth == 0 else Product([tree(depth - 1), tree(depth - 1)])

    series = ray_series([0.4], [0.7], 3)
    assert np.array_equal(jet(dag, series), jet(tree(12), series))
    calls = []
    mul = program_module._mul

    def counting(*args, **kwargs):
        calls.append(1)
        return mul(*args, **kwargs)

    monkeypatch.setattr(program_module, "_mul", counting)
    for order in (1, 2, 3):
        calls.clear()
        jet(dag, series[:, :order + 1])
        assert len(calls) == 12  # one per Product; cos's Horner steps call _times alone


def test_wrong_shape_input_is_a_shape_mismatch():
    p = Compose(Elementwise(get_primitive("sin"), 2), Affine(np.eye(2), [0.0, 0.0]))
    good = [0.1, 0.2]
    for v0, u in (([0.1], good), (good, [1.0]), (0.1, good), (good, [[1.0, 2.0]])):
        for run in (lambda: reduce_sum_apply(p, v0, u, 3, 4),
                    lambda: reduce_sum_polynomials(p, v0, u, 4),
                    lambda: reduction_velocity(p, v0, u, 3, 1, 4)):
            with pytest.raises(ShapeMismatchError):
                run()
    for series in (np.zeros((1, 3)), np.zeros((2, 0)), np.zeros(2), np.zeros((2, 3, 1))):
        with pytest.raises(ShapeMismatchError):
            jet(p, series)


# --- column 0 is the value rule's --------------------------------------------


def _value_rule_programs(rng, d):
    """A random program, a random bilinear product and an extracted derivative, all of dim_in d."""
    return (random_program(rng, d, int(rng.integers(1, 4)), 3),
            random_bilinear_product(rng, d),
            ExtractedDerivative(random_program(rng, d, int(rng.integers(1, 3)), 2),
                                int(rng.integers(1, 3))))


def test_jet_and_forward_chain_values_are_evaluate_bit_for_bit():
    # layers, affines and bilinear products included: every jet rule takes
    # column 0 from its node's value rule, at every K
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for K in range(5):
            for _ in range(20):
                for p in _value_rule_programs(rng, d):
                    x = rng.uniform(-0.8, 0.8, size=(d, K + 1))
                    want = evaluate(p, x[:, 0]).tobytes()
                    assert jet(p, x)[:, 0].tobytes() == want
                    assert forward_chain([p], x[:, 0], K).value.tobytes() == want


def test_forward_chain_value_is_reverse_chain_value_bit_for_bit():
    rng = np.random.default_rng(4)
    for K in range(5):
        for _ in range(12):
            stages = random_chain(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)),
                                  int(rng.integers(1, 4)))
            v = rng.uniform(-0.8, 0.8, size=stages[0].dim_in)
            forward = forward_chain(stages, v, K).value
            assert forward.tobytes() == reverse_chain(stages, v, K).value.tobytes()


def _one_column_programs():
    rng = np.random.default_rng(5)
    layer = ContractionLayer(random_multitensor(rng, 2, 2, 3))
    run = Affine([[0.6, -0.3], [0.2, 0.5]], [0.1, -0.2])
    for f in ("sin", "tanh", "cos"):
        run = Compose(Elementwise(get_primitive(f), 2), run)
    return {
        "layer": layer,
        "bilinear product": random_bilinear_product(rng, 2),
        "extracted derivative": ExtractedDerivative(Compose(layer, run), 2),
        "run": run,
    }


@pytest.mark.parametrize("name", ["layer", "bilinear product", "extracted derivative", "run"])
def test_order_zero_walks_one_column(name):
    # an order-0 jet or chain is the one-column walk: the value rule's bits,
    # and column 0 of every deeper walk
    p = _one_column_programs()[name]
    x = np.random.default_rng(6).uniform(-0.5, 0.5, size=(2, 5))
    want = evaluate(p, x[:, 0])
    got = jet(p, x[:, :1])
    assert got.shape == (p.dim_out, 1) and got[:, 0].tobytes() == want.tobytes()
    for K in range(1, 5):
        assert jet(p, x[:, :K + 1])[:, 0].tobytes() == want.tobytes()
    chain = forward_chain([p], x[:, 0], 0)
    assert chain.order == 0 and chain.value.tobytes() == want.tobytes()


def test_order_zero_product_is_the_first_entry_of_every_deeper_one(monkeypatch):
    # from an empty cache of pair tables, as in a fresh process: the table
    # has no order-0 part, so an order-0 product must not need one
    monkeypatch.setattr(multitensor, "_PAIR_TABLES", {})
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        a = rng.uniform(-1.0, 1.0, size=(3, math.comb(n + 4, 4)))
        b = rng.uniform(-1.0, 1.0, size=(3, math.comb(n + 4, 4)))
        a[0, 0], b[0, 0] = -1.0, 0.0  # a -0 product is +0, as at every order
        low = _mul(a[:, :1], b[:, :1], n, 0)
        assert low.shape == (3, 1) and not np.signbit(low[0, 0])
        for K in range(1, 5):
            width = math.comb(n + K, K)
            assert low.tobytes() == _mul(a[:, :width], b[:, :width], n, K)[:, :1].tobytes()


def test_values_do_not_depend_on_the_input_layout():
    # numpy's product of a row and a strided vector can round otherwise than
    # with a contiguous one, so every value rule is handed a contiguous point
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(17, 80))
        row = Affine(rng.uniform(-1.0, 1.0, size=(1, n)), [0.5])
        wide = Affine(rng.uniform(-1.0, 1.0, size=(n, 2)), rng.uniform(-1.0, 1.0, size=n))
        for p in (row, Compose(row, wide)):
            x = rng.uniform(-1.0, 1.0, size=(p.dim_in, 3))
            want = evaluate(p, x[:, 0].copy()).tobytes()
            assert evaluate(p, x[:, 0]).tobytes() == want
            assert jet(p, x)[:, 0].tobytes() == want
            assert forward_chain([p], x[:, 0], 2).value.tobytes() == want
            assert derivative_tower(p, x[:, 0], 1).value.tobytes() == want
