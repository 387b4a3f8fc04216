import math
import sys

import mpmath
import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    Constant,
    ContractionLayer,
    DerivativeTower,
    DomainEvalError,
    Elementwise,
    ExtractedDerivative,
    Identity,
    MultiTensor,
    Product,
    Program,
    ProgramSignature,
    Shape,
    Sum,
    compose_towers,
    derivative_tower,
    evaluate,
    get_primitive,
    integer_power,
    jet,
    primitive_library,
    reverse_chain,
    structurally_equal,
    tensor_network,
    truncate,
)
from tensorjet import multitensor
from tensorjet.multitensor import ShapeMismatchError, _pack, _unpack
from tensorjet.multitensor import algebra_product, symmetrize

from _gen import (
    fd_hessian,
    fd_jacobian,
    random_bilinear_product,
    random_multitensor,
    random_program,
    rel_gap,
)


def scalar_layer(*coeffs):
    return ContractionLayer(
        MultiTensor(Shape(1, 1, len(coeffs) - 1), [[c] for c in coeffs])
    )


class TestEvaluate:
    def test_identity(self):
        assert evaluate(Identity(2), [1.0, 2.0]).tolist() == [1.0, 2.0]

    def test_exp_at_zero(self):
        assert evaluate(Elementwise(get_primitive("exp")), [0.0])[0] == 1.0

    def test_polynomial_layer(self):
        assert evaluate(scalar_layer(1.0, 2.0), [3.0])[0] == 7.0

    def test_constant_ignores_input(self):
        p = Constant((4.0, 5.0), input_dim=3)
        assert evaluate(p, [9.0, 9.0, 9.0]).tolist() == [4.0, 5.0]

    def test_input_dim_checked(self):
        with pytest.raises(ShapeMismatchError):
            evaluate(Identity(2), [1.0])

    def test_log_domain_error_carries_node_path(self):
        p = Compose(Elementwise(get_primitive("log")), Affine([[1.0]], [-2.0]))
        with pytest.raises(DomainEvalError) as err:
            evaluate(p, [0.0])
        assert "elem(log)" in str(err.value)
        assert "compose.outer" in str(err.value)


class TestDerivativeTower:
    def test_square_via_product(self):
        p = Product((Identity(1), Identity(1)))
        t = derivative_tower(p, [3.0], 2)
        assert [c.ravel()[0] for c in t.tower.components] == [9.0, 6.0, 2.0]

    def test_affine_has_vanishing_curvature(self):
        A = np.array([[1.0, -2.0], [0.5, 0.25]])
        b = np.array([3.0, -1.0])
        v = np.array([0.7, 0.1])
        t = derivative_tower(Affine(A, b), v, 2)
        assert np.allclose(t.value, A @ v + b, atol=1e-15)
        assert np.array_equal(t.component(1), A)
        assert np.all(t.component(2) == 0.0)

    def test_sine_cycle_at_origin(self):
        t = derivative_tower(Elementwise(get_primitive("sin")), [0.0], 3)
        assert [c.ravel()[0] for c in t.tower.components] == [0.0, 1.0, 0.0, -1.0]

    def test_value_component_equals_evaluate(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_program(rng, 2, 2, 3)
            v = rng.uniform(-0.8, 0.8, size=2)
            t = derivative_tower(p, v, 2)
            assert np.max(np.abs(t.value - evaluate(p, v))) < 1e-14

    def test_value_is_evaluate_bit_for_bit(self):
        # layers and bilinear products included: a tower's value is the node's value rule
        rng = np.random.default_rng(13)
        for d in (1, 2, 3):
            for k in range(4):
                for _ in range(6):
                    for p in (random_program(rng, d, int(rng.integers(1, 4)), 3),
                              random_bilinear_product(rng, d)):
                        v = rng.uniform(-0.8, 0.8, size=d)
                        want = evaluate(p, v)
                        got = derivative_tower(p, v, k).value
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_repr_leaves_a_packed_tower_packed(self):
        # the text comes from the packed shape: a dense order-8 tower in 16
        # inputs would hold 2 * 16**8 floats in component 8 alone
        packed = DerivativeTower._from_packed(np.zeros(3), np.zeros((2, math.comb(7, 4))), 4)
        assert repr(packed) == (f"DerivativeTower(at={packed.at!r}, "
                                "tower=MultiTensor(dim_out=2, dim_in=3, order=4))")
        assert packed._dense is None
        dense = derivative_tower(Affine([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.0] * 3),
                                 [0.1, 0.2], 2)
        assert repr(DerivativeTower._from_packed(dense.at, dense._packed(), 2)) == repr(dense)

    def test_towers_are_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            p = random_program(rng, d, d, 3)
            v = rng.uniform(-0.8, 0.8, size=d)
            t = derivative_tower(p, v, 3)
            assert t.tower.is_symmetric(1e-9)

    def test_deeper_request_never_disturbs_lower_orders(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            p = random_program(rng, d, d, 3)
            v = rng.uniform(-0.8, 0.8, size=d)
            for k in range(4):
                shallow = derivative_tower(p, v, k).tower
                deep = truncate(derivative_tower(p, v, k + 1).tower, k)
                for a, b in zip(shallow.components, deep.components):
                    assert np.array_equal(a, b)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = random_program(rng, d_in, d_out, 3)
            v = rng.uniform(-0.8, 0.8, size=d_in)
            t = derivative_tower(p, v, 1)
            assert rel_gap(t.component(1), fd_jacobian(p, v)) < 1e-6

    def test_curvature_matches_central_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            p = random_program(rng, d, d, 3)
            v = rng.uniform(-0.8, 0.8, size=d)
            t = derivative_tower(p, v, 2)
            assert rel_gap(t.component(2), fd_hessian(p, v)) < 1e-4

    def test_product_rule_via_algebra_product(self):
        def _to_series_scaling(t):
            return MultiTensor(t.shape, [c / math.factorial(j) for j, c in enumerate(t.components)])

        def _from_series_scaling(t):
            return MultiTensor(t.shape, [c * math.factorial(j) for j, c in enumerate(t.components)])

        rng = np.random.default_rng(15)
        for _ in range(10):
            a = random_program(rng, 2, 2, 2)
            b = random_program(rng, 2, 2, 2)
            v = rng.uniform(-0.8, 0.8, size=2)
            k = 3
            got = derivative_tower(Product((a, b)), v, k).tower
            sa = _to_series_scaling(derivative_tower(a, v, k).tower)
            sb = _to_series_scaling(derivative_tower(b, v, k).tower)
            want = _from_series_scaling(
                symmetrize(algebra_product(sa, sb, max_order=k))
            )
            for x, y in zip(got.components, want.components):
                assert np.max(np.abs(x - y)) < 1e-12


def _bits(tower):
    return [(c.shape, c.tobytes()) for c in tower.components]


@pytest.fixture
def conversions(monkeypatch):
    """Calls of ``_pack`` and ``_unpack``, counted in every ``tensorjet`` module that binds them."""
    counts = dict.fromkeys(("_pack", "_unpack"), 0)
    modules = [m for n, m in list(sys.modules.items())
               if (n == "tensorjet" or n.startswith("tensorjet.")) and m is not None]
    for name in counts:
        orig = getattr(multitensor, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counting)
    return counts


class TestTowerForms:
    """A tower is dense-built or packed-built; each form is converted at most once."""

    def test_dense_built_tower_keeps_its_components(self):
        rng = np.random.default_rng(71)
        tower = random_multitensor(rng, 2, 3, 2)
        point = [0.1, -0.2, 0.3]
        for t in (DerivativeTower(point, tower), DerivativeTower(at=point, tower=tower)):
            assert t.tower is tower and t.order == 2
            assert t.value is tower.value
            assert all(t.component(j) is tower.component(j) for j in range(3))
            assert t.at.tolist() == point and not t.at.flags.writeable
        source = np.array(point)
        t = DerivativeTower(source, tower)
        source[0] = 9.0
        assert t.at[0] == 0.1

    def test_packed_built_tower_unpacks_once(self, conversions):
        rng = np.random.default_rng(72)
        d, k = 2, 3
        packed = _pack(symmetrize(random_multitensor(rng, 3, d, k)).components, d)
        t = DerivativeTower._from_packed(np.array([0.2, 0.4]), packed, k)
        assert t.order == k and t.at.tolist() == [0.2, 0.4] and not t.at.flags.writeable
        assert conversions["_unpack"] == 0
        first = t.tower
        assert t.tower is first and conversions["_unpack"] == 1
        assert _bits(first) == _bits(_unpack(packed, d, k))
        assert t.value is first.value and t.component(2) is first.component(2)
        assert t._packed() is packed and conversions["_pack"] == 0

    def test_attributes_are_read_only(self):
        tower = MultiTensor(Shape(1, 1, 1), [[0.5], [[2.0]]])
        for t in (DerivativeTower([0.0], tower),
                  DerivativeTower._from_packed([0.0], np.array([[0.5, 2.0]]), 1)):
            for name, value in (("at", np.ones(1)), ("tower", tower), ("order", 2)):
                with pytest.raises(AttributeError):
                    setattr(t, name, value)

    def test_point_must_fit_the_tower(self):
        tower = random_multitensor(np.random.default_rng(73), 2, 2, 1)
        for at in ([0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1):
            with pytest.raises(ShapeMismatchError) as err:
                DerivativeTower(at, tower)
            assert str(np.shape(at)) in str(err.value) and "(2,)" in str(err.value)

    def test_compose_towers_gives_the_same_bits_for_either_form(self):
        rng = np.random.default_rng(74)
        for d in (1, 2, 3):
            for k in range(5):
                for _ in range(4):
                    mid = int(rng.integers(1, 4))
                    g = random_program(rng, d, mid, 2)
                    f = random_program(rng, mid, int(rng.integers(1, 4)), 2)
                    v = rng.uniform(-0.6, 0.6, size=d)
                    forms = []
                    for t in (derivative_tower(f, evaluate(g, v), k), derivative_tower(g, v, k)):
                        packed = _pack(t.tower.components, t.at.size)
                        forms.append((DerivativeTower(t.at, t.tower),
                                      DerivativeTower._from_packed(t.at, packed, k)))
                    (fd, fp), (gd, gp) = forms
                    want = _bits(compose_towers(fd, gd).tower)
                    for outer, inner in ((fp, gp), (fd, gp), (fp, gd)):
                        assert _bits(compose_towers(outer, inner).tower) == want

    def test_compose_towers_errors_keep_their_text(self):
        one = MultiTensor(Shape(1, 1, 2), [[1.0], [[0.0]], [[[0.0]]]])
        zero = MultiTensor(Shape(1, 1, 2), [[0.0], [[1.0]], [[[0.0]]]])
        outer = DerivativeTower([1.0], one)
        inner = DerivativeTower([0.0], zero)
        for f, g in ((outer, inner),
                     (DerivativeTower._from_packed([1.0], _pack(one.components, 1), 2),
                      DerivativeTower._from_packed([0.0], _pack(zero.components, 1), 2))):
            with pytest.raises(ValueError) as err:
                compose_towers(f, g)
            assert str(err.value) == (
                "base point mismatch: outer tower expanded at [1.], inner evaluates to [0.]")
        shallow = DerivativeTower([0.0], truncate(zero, 1))
        with pytest.raises(ValueError) as err:
            compose_towers(shallow, inner)
        assert str(err.value) == "tower orders differ: outer 1, inner 2"


class TestPackedDenseBoundary:
    """The walk converts between packed and dense towers only where a rule needs dense."""

    def test_tensor_network_packs_once_per_layer_and_unpacks_once(self, conversions):
        rng = np.random.default_rng(75)
        tanh = get_primitive("tanh")
        for d in (2, 3, 4):
            net = tensor_network([(random_multitensor(rng, d, d, 2), tanh) for _ in range(3)])
            for k in (2, 3, 4):
                conversions.update(_pack=0, _unpack=0)
                derivative_tower(net, rng.uniform(-0.5, 0.5, size=d), k).tower
                assert conversions == {"_pack": 3, "_unpack": 1}

    def test_reverse_chain_unpacks_once(self, conversions):
        sin, tanh = get_primitive("sin"), get_primitive("tanh")
        stages = [Compose(Elementwise(sin, 2), Affine([[0.7, -0.2], [0.3, 0.5]], [0.1, -0.1])),
                  Affine([[0.4, 0.1], [-0.2, 0.6], [0.3, 0.3]], [0.0, 0.2, -0.1]),
                  Elementwise(tanh, 3),
                  Compose(Elementwise(sin, 1), Affine([[0.5, -0.4, 0.2]], [0.1]))]
        for length in (3, 4):
            for k in (1, 3):
                conversions.update(_pack=0, _unpack=0)
                reverse_chain(stages[:length], [0.3, 0.1], k).tower
                assert conversions == {"_pack": 0, "_unpack": 1}

    def test_product_and_extracted_derivative_convert_at_their_boundary(self, conversions):
        sin = get_primitive("sin")
        inner = Compose(Elementwise(sin, 2), Affine([[0.7, -0.2], [0.3, 0.5]], [0.1, -0.1]))
        for p, want in ((Product((inner, Affine([[0.2, 0.1], [0.5, -0.3]], [0.0, 0.1]))),
                         {"_pack": 1, "_unpack": 3}),
                        (ExtractedDerivative(inner, 1), {"_pack": 1, "_unpack": 2})):
            conversions.update(_pack=0, _unpack=0)
            derivative_tower(p, [0.3, 0.1], 3).tower
            assert conversions == want


class TestBilinearProduct:
    """``Product((a, b), bilinear=B)``: out_i = sum_rs B[i, r, s] a_r b_s."""

    def test_value_is_the_map_of_the_children_values(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            p = random_bilinear_product(rng, int(rng.integers(1, 4)))
            v = rng.uniform(-0.8, 0.8, size=p.dim_in)
            a, b = (evaluate(child, v) for child in p.children)
            want = np.einsum("irs,r,s->i", p.bilinear, a, b)
            assert rel_gap(evaluate(p, v), want) < 1e-14

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = random_bilinear_product(rng, int(rng.integers(1, 4)))
            v = rng.uniform(-0.8, 0.8, size=p.dim_in)
            assert rel_gap(derivative_tower(p, v, 1).component(1), fd_jacobian(p, v)) < 1e-6


class TestPrimitives:
    def test_library_contents(self):
        lib = primitive_library()
        for name in ("exp", "log", "sin", "cos", "tanh", "reciprocal", "identity"):
            assert name in lib

    def test_exp_derivatives_are_exp(self):
        exp = get_primitive("exp")
        for j in range(8):
            assert exp.deriv_seq(j, 0.3) == math.exp(0.3)

    def test_sin_matches_quarter_turn_phase_shift(self):
        sin = get_primitive("sin")
        for j in range(9):
            for x in (-1.0, 0.0, 0.4, 2.0):
                assert sin.deriv_seq(j, x) == pytest.approx(
                    math.sin(x + j * math.pi / 2), abs=1e-12
                )

    def test_integer_power_falling_factorial(self):
        p5 = integer_power(5)
        x = 1.5
        for j in range(9):
            want = (
                math.factorial(5) / math.factorial(5 - j) * x ** (5 - j)
                if j <= 5
                else 0.0
            )
            assert p5.deriv_seq(j, x) == pytest.approx(want, rel=1e-15)

    def test_pow_names_resolve(self):
        assert get_primitive("pow3").deriv_seq(0, 2.0) == 8.0
        with pytest.raises(KeyError):
            get_primitive("powhouse")

    def test_log_and_reciprocal_closed_forms(self):
        log = get_primitive("log")
        rec = get_primitive("reciprocal")
        x = 0.8
        for j in range(1, 7):
            assert log.deriv_seq(j, x) == pytest.approx(
                (-1.0) ** (j - 1) * math.factorial(j - 1) / x**j, rel=1e-15
            )
            assert rec.deriv_seq(j, x) == pytest.approx(
                (-1.0) ** j * math.factorial(j) / x ** (j + 1), rel=1e-15
            )

    @pytest.mark.parametrize("name", ["tanh", "sin", "exp", "log", "reciprocal"])
    def test_high_order_derivatives_match_mpmath(self, name):
        prim = get_primitive(name)
        fn = {"tanh": mpmath.tanh, "sin": mpmath.sin, "exp": mpmath.exp,
              "log": mpmath.log, "reciprocal": lambda t: 1 / t}[name]
        for x in (0.35, 1.2):
            for j in range(7):
                want = float(mpmath.diff(fn, x, j))
                assert prim.deriv_seq(j, x) == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestTensorNetwork:
    def test_single_linear_layer_is_plain_matrix_map(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = MultiTensor(Shape(2, 2, 1), [np.zeros(2), A])
        net = tensor_network([(w, None)])
        v = np.array([0.3, -0.6])
        assert np.allclose(evaluate(net, v), A @ v, atol=1e-15)

    def test_two_layer_tanh_towers_are_finite_and_match_fd(self):
        rng = np.random.default_rng(16)
        w0 = random_multitensor(rng, 2, 2, 1)
        w1 = random_multitensor(rng, 1, 2, 1)
        tanh = get_primitive("tanh")
        net = tensor_network([(w0, tanh), (w1, tanh)])
        v = rng.uniform(-0.5, 0.5, size=2)
        t = derivative_tower(net, v, 2)
        assert all(np.all(np.isfinite(c)) for c in t.tower.components)
        assert t.tower.is_symmetric(1e-9)
        assert rel_gap(t.component(1), fd_jacobian(net, v)) < 1e-6
        assert rel_gap(t.component(2), fd_hessian(net, v)) < 1e-4

    def test_quadratic_layer_matches_hand_expansion(self):
        # layer value: w0 + w1 v + w2 (v,v) with scalar dims
        net = tensor_network([(MultiTensor(Shape(1, 1, 2), [[0.5], [2.0], [3.0]]), None)])
        for x in (-1.0, 0.0, 0.7):
            assert evaluate(net, [x])[0] == pytest.approx(
                0.5 + 2.0 * x + 3.0 * x * x, abs=1e-14
            )

    def test_deep_linear_stack_matches_direct_matrix_code(self):
        rng = np.random.default_rng(17)
        tanh = get_primitive("tanh")
        dims = [3, 2, 3, 1]
        layers = []
        mats = []
        for d_in, d_out in zip(dims, dims[1:]):
            b = rng.uniform(-0.5, 0.5, size=d_out)
            A = rng.uniform(-0.8, 0.8, size=(d_out, d_in))
            layers.append((MultiTensor(Shape(d_out, d_in, 1), [b, A]), tanh))
            mats.append((A, b))
        net = tensor_network(layers)
        v = rng.uniform(-1, 1, size=3)
        x = v.copy()
        for A, b in mats:
            x = np.tanh(A @ x + b)
        assert np.max(np.abs(evaluate(net, v) - x)) < 1e-12

    def test_layer_dim_mismatch_rejected(self):
        rng = np.random.default_rng(18)
        w0 = random_multitensor(rng, 2, 2, 1)
        w1 = random_multitensor(rng, 1, 3, 1)  # expects 3 inputs, gets 2
        with pytest.raises(ShapeMismatchError):
            tensor_network([(w0, None), (w1, None)])


class TestNodeValidation:
    def test_sum_signature_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Sum((Identity(1), Identity(2)))

    def test_compose_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Compose(Identity(2), Affine([[1.0], [1.0], [1.0]], [0.0, 0.0, 0.0]))

    def test_product_needs_two_children(self):
        with pytest.raises(ValueError):
            Product((Identity(1),))

    def test_derivative_order_stops_at_63_before_its_output_dimension(self):
        # dim_out * dim_in**k would be 2**(10**12) here: the check comes first
        inner = Affine([[1.0, 1.0]], [0.0])
        for k in (64, 10**12):
            with pytest.raises(ValueError) as err:
                ExtractedDerivative(inner, k)
            assert str(err.value) == (
                f"derivative order {k} is above 63, the largest of a dense tower "
                "(its value needs its inner's dense tower to that order)")
        assert inner.uses == 0
        assert ExtractedDerivative(inner, 63).dim_out == 2**63


def _cos_leaf():
    return Compose(Elementwise(get_primitive("cos")), Affine([[0.03]], [0.01]))


def _shared_nest(depth):
    q = _cos_leaf()
    for _ in range(depth):
        q = Product([q, q])
    return q


def _unshared_nest(depth):
    if depth == 0:
        return _cos_leaf()
    return Product([_unshared_nest(depth - 1), _unshared_nest(depth - 1)])


def _node_at(root, path):
    """The node an error path such as ``/compose.outer/prod[1]`` names."""
    node = root
    for step in path.strip("/").split("/") if path != "/" else []:
        if step in ("compose.inner", "deriv.inner"):
            node = node.inner
        elif step == "compose.outer":
            node = node.outer
        else:
            kind, index = step.rstrip("]").split("[")
            assert kind == {Sum: "sum", Product: "prod"}[type(node)]
            node = node.children[int(index)]
    return node


def _assert_towers_identical(a, b, v, orders=range(4)):
    assert np.array_equal(evaluate(a, v), evaluate(b, v))
    for k in orders:
        ta, tb = derivative_tower(a, v, k).tower, derivative_tower(b, v, k).tower
        assert all(np.array_equal(x, y) for x, y in zip(ta.components, tb.components))


class TestDagWalk:
    def test_shared_nest_matches_tree_and_computes_each_node_once(self, monkeypatch):
        import tensorjet.program as program_module

        dag, tree = _shared_nest(12), _unshared_nest(12)
        _assert_towers_identical(dag, tree, np.array([0.4]))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return algebra_product(*args, **kwargs)

        monkeypatch.setattr(program_module, "algebra_product", counting)
        for k in range(4):
            calls.clear()
            derivative_tower(dag, [0.4], k)
            assert len(calls) == 12

    def test_deep_chain_matches_scalar_taylor_loop(self):
        rng = np.random.default_rng(21)
        names = rng.choice(["sin", "tanh"], size=2000)
        p = Affine([[0.9]], [0.2])
        for name in names:
            p = Compose(Elementwise(get_primitive(str(name))), p)
        x0 = 0.35
        # Taylor coefficients of the chain along x0 + t, pushed stage by stage
        c = [0.9 * x0 + 0.2, 0.9, 0.0, 0.0]
        for name in names:
            if name == "sin":
                f = [math.sin(c[0]), math.cos(c[0]), -math.sin(c[0]), -math.cos(c[0])]
            else:
                t = math.tanh(c[0])
                s = 1.0 - t * t
                f = [t, s, -2.0 * t * s, s * (6.0 * t * t - 2.0)]
            c = [
                f[0],
                f[1] * c[1],
                f[1] * c[2] + f[2] / 2.0 * c[1] ** 2,
                f[1] * c[3] + f[2] * c[1] * c[2] + f[3] / 6.0 * c[1] ** 3,
            ]
        want = [math.factorial(n) * cn for n, cn in enumerate(c)]
        got = [comp.item() for comp in derivative_tower(p, [x0], 3).tower.components]
        assert evaluate(p, [x0]).item() == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_same_node_at_several_points_matches_distinct_copies(self):
        def build(elem):
            return Sum([
                Compose(elem(), Affine([[0.7]], [0.2])),
                Compose(Sum([elem(), elem()]), Affine([[-1.3]], [0.4])),
                elem(),
                Product([elem(), elem()]),
            ])

        sin = get_primitive("sin")
        shared = Elementwise(sin)
        _assert_towers_identical(
            build(lambda: shared), build(lambda: Elementwise(sin)), np.array([0.3])
        )

    def test_shared_domain_error_names_a_path_to_the_node(self):
        log = Elementwise(get_primitive("log"))
        shift = Affine([[1.0]], [-2.0])
        p = Sum([Compose(Product([log, log]), shift), Compose(log, shift), log])
        for run in (lambda: evaluate(p, [1.0]),
                    *(lambda k=k: derivative_tower(p, [1.0], k) for k in range(3))):
            with pytest.raises(DomainEvalError) as err:
                run()
            path, rest = str(err.value).split(": ", 1)
            assert rest.startswith("elem(log)")
            assert _node_at(p, path) is log

    def test_nodes_count_their_parent_edges(self):
        q = _cos_leaf()
        root = Product([q, q])
        assert q.uses == 2
        assert q.outer.uses == 1 and q.inner.uses == 1
        assert root.uses == 0

    def test_failed_construction_counts_nothing(self):
        one, two = Affine([[1.0]], [0.0]), Affine([[1.0, 2.0]], [0.0])
        builds = [
            lambda: Sum([one, two]),
            lambda: Compose(one, Identity(2)),
            lambda: Product([one, one], bilinear=np.zeros((1, 2, 2))),
            lambda: ExtractedDerivative(one, 0),
        ]
        for build in builds:
            with pytest.raises(ValueError):
                build()
            assert one.uses == 0 and two.uses == 0

    def test_subprogram_in_two_programs_matches_fresh_copies(self):
        def sub():
            return Compose(Elementwise(get_primitive("log")), Affine([[0.5]], [0.2]))

        def first(s):
            return Compose(Elementwise(get_primitive("sin")), s)

        def second(s):
            return Sum([
                Product([s, Affine([[1.0]], [0.3])]),
                Compose(Elementwise(get_primitive("tanh")), Affine([[2.0]], [0.1])),
            ])

        shared = sub()
        programs = [(build(shared), build) for build in (first, second)]
        assert shared.uses == 2
        for p, build in programs:
            fresh = build(sub())
            _assert_towers_identical(p, fresh, np.array([0.7]), orders=(3,))
            series = np.array([[0.7, 1.0, -0.4, 0.25]])
            assert np.array_equal(jet(p, series), jet(fresh, series))
            with pytest.raises(DomainEvalError) as err:
                evaluate(p, [-1.0])
            with pytest.raises(DomainEvalError) as fresh_err:
                evaluate(fresh, [-1.0])
            assert str(err.value) == str(fresh_err.value)
            assert _node_at(p, str(err.value).split(": ", 1)[0]) is shared.outer

    def test_signature_is_computed_once(self):
        sin = Elementwise(get_primitive("sin"))
        nodes = [
            Identity(2), Constant((1.0,)), Affine([[1.0]], [0.0]), scalar_layer(1.0, 2.0),
            sin, Sum((sin, sin)), Product((sin, sin)), Compose(sin, sin),
            ExtractedDerivative(sin, 2),
        ]
        for p in nodes:
            assert p.signature is p.signature
        assert ExtractedDerivative(Identity(2), 2).signature == ProgramSignature(2, 8)


def _sin_tanh_chain(depth):
    p = Affine([[0.9]], [0.2])
    for i in range(depth):
        p = Compose(Elementwise(get_primitive("sin" if i % 2 else "tanh")), p)
    return p


class TestNodes:
    def test_deep_chain_repr_hash_and_equality_do_not_walk_it(self):
        a, b = _sin_tanh_chain(3000), _sin_tanh_chain(3000)
        assert repr(a) == "Compose(1->1)"
        assert hash(a) == hash(a) and len({a, b}) == 2
        assert a == a and a != b
        assert structurally_equal(a, b)

    def test_every_node_exposes_its_children(self):
        sin = Elementwise(get_primitive("sin"))
        aff = Affine([[2.0]], [0.5])
        cases = [
            (Identity(2), ()), (Constant((1.0,)), ()), (aff, ()),
            (scalar_layer(1.0, 2.0), ()), (sin, ()), (Sum((sin, aff)), (sin, aff)),
            (Product([aff, sin, aff]), (aff, sin, aff)), (Compose(sin, aff), (sin, aff)),
            (ExtractedDerivative(sin, 2), (sin,)),
        ]
        for node, children in cases:
            assert type(node.children) is tuple and len(node.children) == len(children)
            assert all(got is want for got, want in zip(node.children, children))

    def test_invalid_signature_raises_at_construction(self):
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            Identity(0)
        with pytest.raises(ValueError, match="dimensions must be >= 1"):
            Constant(())

    def test_node_type_without_rules_is_a_type_error(self):
        class Halve(Program):
            __slots__ = ()

            def __init__(self):
                super().__init__(1, 1)

        for run in (lambda p: evaluate(p, [1.0]), lambda p: derivative_tower(p, [1.0], 2)):
            with pytest.raises(TypeError, match="unknown program node Halve"):
                run(Compose(Halve(), Identity(1)))
