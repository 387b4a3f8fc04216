import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorjet.multitensor import (
    MultiTensor,
    Shape,
    ShapeMismatchError,
    add,
    algebra_product,
    contract_once,
    eval_polynomial,
    from_json,
    scale,
    symmetrize,
    to_json,
    truncate,
    zero,
)
from tensorjet.multitensor import _symmetrize_component

from _gen import random_multitensor


def mt(dim_out, dim_in, comps):
    return MultiTensor(Shape(dim_out, dim_in, len(comps) - 1), comps)


class TestConstruction:
    def test_zero_scalar(self):
        w = zero(Shape(1, 1, 2))
        assert [c.tolist() for c in w.components] == [[0.0], [[0.0]], [[[0.0]]]]

    def test_zero_vector(self):
        w = zero(Shape(2, 3, 0))
        assert w.components[0].tolist() == [0.0, 0.0]

    def test_zero_is_additive_identity(self):
        rng = np.random.default_rng(0)
        w = random_multitensor(rng, 2, 3, 2)
        out = add(zero(w.shape), w)
        for a, b in zip(out.components, w.components):
            assert np.array_equal(a, b)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Shape(0, 1, 1)
        with pytest.raises(ValueError):
            Shape(1, 1, -1)

    def test_component_count_checked(self):
        with pytest.raises(ShapeMismatchError):
            MultiTensor(Shape(1, 1, 2), [[1.0], [2.0]])

    def test_components_are_read_only(self):
        w = mt(1, 1, [[1.0], [2.0]])
        with pytest.raises(ValueError):
            w.components[0][0] = 5.0

    def test_construction_copies_input(self):
        buf = np.array([1.0, 2.0])
        w = MultiTensor(Shape(2, 1, 0), [buf])
        buf[0] = 99.0
        assert w.value[0] == 1.0

    def test_component_out_of_range(self):
        w = mt(1, 1, [[1.0]])
        with pytest.raises(IndexError):
            w.component(1)


class TestLinearOps:
    def test_add_componentwise(self):
        out = add(mt(1, 1, [[1.0], [2.0]]), mt(1, 1, [[3.0], [4.0]]))
        assert [c.ravel().tolist() for c in out.components] == [[4.0], [6.0]]

    def test_scale_by_zero_annihilates(self):
        out = scale(mt(1, 1, [[1.0], [2.0]]), 0.0)
        assert all(np.all(c == 0.0) for c in out.components)

    def test_add_shape_mismatch_names_both_shapes(self):
        a = mt(1, 1, [[1.0]])
        b = mt(2, 1, [[1.0, 2.0]])
        with pytest.raises(ShapeMismatchError) as err:
            add(a, b)
        assert "dim_out=1" in str(err.value) and "dim_out=2" in str(err.value)

    def test_scale_distributes_over_add(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_multitensor(rng, 2, 2, 3)
            b = random_multitensor(rng, 2, 2, 3)
            c = rng.uniform(-2, 2)
            left = scale(add(a, b), c)
            right = add(scale(a, c), scale(b, c))
            for x, y in zip(left.components, right.components):
                assert np.max(np.abs(x - y)) < 1e-12


class TestContraction:
    def test_single_slot_covector(self):
        # value u = (1, 0) against covector (1, 2): contraction inserts <f, v> u
        w = mt(2, 2, [[0.0, 0.0], [[1.0, 2.0], [0.0, 0.0]]])
        out = contract_once(w, [3.0, 1.0])
        assert out.order == 0
        assert out.value.tolist() == [5.0, 0.0]

    def test_order_zero_passes_through(self):
        w = mt(2, 2, [[1.0, -1.0]])
        out = contract_once(w, [9.0, 9.0])
        assert out is w

    def test_identity_matrix_gives_matrix_vector_product(self):
        w = mt(2, 2, [[0.0, 0.0], np.eye(2)])
        out = contract_once(w, [4.0, -7.0])
        assert out.value.tolist() == [4.0, -7.0]

    def test_dimension_mismatch(self):
        w = mt(1, 2, [[0.0], [[1.0, 2.0]]])
        with pytest.raises(ShapeMismatchError):
            contract_once(w, [1.0])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dims = rng.integers(1, 5, size=2)
            order = int(rng.integers(0, 5))
            a = random_multitensor(rng, int(dims[0]), int(dims[1]), order)
            b = random_multitensor(rng, int(dims[0]), int(dims[1]), order)
            v = rng.uniform(-1, 1, size=int(dims[1]))
            left = contract_once(add(a, b), v)
            right = add(contract_once(a, v), contract_once(b, v))
            for x, y in zip(left.components, right.components):
                assert np.max(np.abs(x - y)) < 1e-12


class TestPolynomialEvaluation:
    def test_scalar_quadratic(self):
        w = mt(1, 1, [[1.0], [2.0], [3.0]])
        assert eval_polynomial(w, [2.0])[0] == pytest.approx(17.0, abs=1e-15)

    def test_zero_argument_returns_constant_term(self):
        rng = np.random.default_rng(3)
        w = random_multitensor(rng, 3, 2, 3)
        assert np.array_equal(eval_polynomial(w, [0.0, 0.0]), w.value)

    def test_pure_linear_part_is_matrix_product(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = mt(2, 2, [np.zeros(2), A])
        v = np.array([0.5, -1.5])
        assert np.allclose(eval_polynomial(w, v), A @ v, atol=1e-15)

    def test_matches_repeated_single_contractions(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = random_multitensor(rng, 2, 3, 4)
            v = rng.uniform(-1, 1, size=3)
            folded = w
            for _ in range(w.order):
                folded = contract_once(folded, v)
            assert np.max(np.abs(eval_polynomial(w, v) - folded.value)) < 1e-12


class TestAlgebraProduct:
    def test_scalars(self):
        out = algebra_product(mt(1, 1, [[2.0]]), mt(1, 1, [[3.0]]))
        assert out.order == 0 and out.value[0] == 6.0

    def test_order_one_times_order_zero(self):
        a = mt(2, 2, [np.zeros(2), [[1.0, 2.0], [0.0, 0.0]]])  # u (x) f, u=(1,0)
        b = mt(2, 2, [[5.0, 7.0]])
        out = algebra_product(a, b)
        assert out.order == 1
        assert np.array_equal(out.component(1), [[5.0, 10.0], [0.0, 0.0]])
        assert np.all(out.value == 0.0)

    def test_product_with_zero(self):
        rng = np.random.default_rng(5)
        a = random_multitensor(rng, 2, 2, 2)
        out = algebra_product(a, zero(Shape(2, 2, 1)))
        assert all(np.all(c == 0.0) for c in out.components)

    def test_associative_for_componentwise_products(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_multitensor(rng, 2, 2, 1)
            b = random_multitensor(rng, 2, 2, 1)
            c = random_multitensor(rng, 2, 2, 1)
            left = algebra_product(algebra_product(a, b), c)
            right = algebra_product(a, algebra_product(b, c))
            for x, y in zip(left.components, right.components):
                assert np.max(np.abs(x - y)) < 1e-12

    def test_truncation_flag(self):
        a = mt(1, 1, [[1.0], [1.0]])
        full = algebra_product(a, a)
        cut = algebra_product(a, a, max_order=1)
        assert full.order == 2
        assert cut.order == 1

    def test_explicit_bilinear_map(self):
        # B(x, y) = (x_1 y_2,) as a 1x2x2 tensor
        B = np.zeros((1, 2, 2))
        B[0, 0, 1] = 1.0
        a = mt(2, 1, [[2.0, 3.0]])
        b = mt(2, 1, [[5.0, 7.0]])
        out = algebra_product(a, b, bilinear=B)
        assert out.value.tolist() == [14.0]

    def test_input_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            algebra_product(mt(1, 1, [[1.0]]), mt(1, 2, [[1.0]]))


class TestSymmetrize:
    def test_fixed_point(self):
        rng = np.random.default_rng(7)
        w = symmetrize(random_multitensor(rng, 2, 3, 3))
        again = symmetrize(w)
        for a, b in zip(w.components, again.components):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_two_slot_average(self):
        comp2 = np.zeros((1, 2, 2))
        comp2[0, 0, 1] = 2.0
        w = mt(1, 2, [np.zeros(1), np.zeros((1, 2)), comp2])
        out = symmetrize(w)
        assert out.component(2)[0, 0, 1] == 1.0
        assert out.component(2)[0, 1, 0] == 1.0

    def test_projection_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = random_multitensor(rng, 2, 2, 4)
            once = symmetrize(w)
            twice = symmetrize(once)
            for a, b in zip(once.components, twice.components):
                assert np.array_equal(a, b)

    def test_is_symmetric_flags_asymmetry(self):
        comp2 = np.zeros((1, 2, 2))
        comp2[0, 0, 1] = 1.0
        w = mt(1, 2, [np.zeros(1), np.zeros((1, 2)), comp2])
        assert not w.is_symmetric(1e-9)
        assert symmetrize(w).is_symmetric(1e-15)

    def test_truncate_to_value(self):
        w = mt(1, 1, [[1.0], [2.0], [3.0]])
        out = truncate(w, 0)
        assert out.order == 0 and out.value[0] == 1.0


def _permutation_average(comp):
    """Reference: explicit average over all j! slot permutations."""
    j = comp.ndim - 1
    acc = np.zeros_like(comp)
    for perm in permutations(range(1, j + 1)):
        acc += np.transpose(comp, (0,) + perm)
    return acc / math.factorial(j)


def _random_components(seed):
    rng = np.random.default_rng(seed)
    for dim_out in (1, 2, 3):
        for dim_in in (1, 2, 3, 4):
            for j in (2, 3, 4, 5):
                yield rng.standard_normal((dim_out,) + (dim_in,) * j)


class TestOrbitSumKernel:
    def test_matches_permutation_average(self):
        for comp in _random_components(11):
            out = _symmetrize_component(comp)
            scale = float(np.max(np.abs(comp)))
            np.testing.assert_allclose(
                out, _permutation_average(comp), rtol=1e-14, atol=1e-14 * scale
            )

    def test_every_slot_transposition_is_bitwise_equal(self):
        for comp in _random_components(12):
            out = _symmetrize_component(comp)
            j = comp.ndim - 1
            for a in range(1, j + 1):
                for b in range(a + 1, j + 1):
                    axes = list(range(j + 1))
                    axes[a], axes[b] = axes[b], axes[a]
                    assert np.transpose(out, axes).tobytes() == out.tobytes()

    def test_second_pass_is_a_bitwise_copy(self):
        for comp in _random_components(13):
            once = _symmetrize_component(comp)
            twice = _symmetrize_component(once)
            assert twice.tobytes() == once.tobytes()
            assert twice is not once and not np.shares_memory(twice, once)

    def test_symmetric_input_is_returned_unchanged(self):
        for comp in _random_components(14):
            sym = _permutation_average(comp)
            sym = _symmetrize_component(sym)  # pin rounding: exactly symmetric now
            assert _symmetrize_component(sym).tobytes() == sym.tobytes()
        diag = np.zeros((2, 3, 3, 3))
        for i in range(3):
            diag[:, i, i, i] = [1.5, -2.0]
        assert _symmetrize_component(diag).tobytes() == diag.tobytes()

    def test_signed_zeros_and_huge_magnitudes(self):
        rng = np.random.default_rng(15)
        comp = rng.choice([-1e300, 1e300, -0.0, 0.0], size=(2, 3, 3, 3, 3))
        out = _symmetrize_component(comp)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, np.transpose(out, (0, 2, 1, 4, 3)))
        assert np.array_equal(out, np.transpose(out, (0, 4, 3, 2, 1)))
        assert np.array_equal(_symmetrize_component(out), out)
        zeros = np.full((1, 2, 2, 2), -0.0)
        assert np.array_equal(_symmetrize_component(zeros), zeros)


class TestJson:
    def test_round_trip_bit_exact(self):
        w = mt(2, 2, [
            [0.1, -0.0],
            [[1e-300, 2.0], [math.pi, -1.0 / 3.0]],
        ])
        back = from_json(to_json(w))
        for a, b in zip(w.components, back.components):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_layout_matches_flat_index_formula(self):
        comp1 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        w = mt(2, 3, [np.zeros(2), comp1])
        obj = json.loads(to_json(w))
        # entry (i; a) at offset i*3 + a
        assert obj["components"][1] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_component_count_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            from_json('{"dim_out":1,"dim_in":1,"order":1,"components":[[1.0]]}')

    @pytest.mark.parametrize("field, value, message", [
        ("dim_in", "2.5", "dim_in must be an integer, got 2.5"),
        ("dim_in", "1.0", "dim_in must be an integer, got 1.0"),
        ("dim_out", "true", "dim_out must be an integer, got True"),
        ("order", "true", "order must be an integer, got True"),
        ("dim_in", "NaN", "non-finite entry"),
        ("dim_in", "Infinity", "non-finite entry"),
    ])
    def test_dims_and_order_must_be_json_integers(self, field, value, message):
        obj = {"dim_out": "1", "dim_in": "1", "order": "0", "components": "[[1.0]]"}
        obj[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in obj.items()) + "}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_json(text)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def multitensors(draw):
    dim_out = draw(st.integers(1, 4))
    dim_in = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    shape = Shape(dim_out, dim_in, order)
    comps = [
        draw(arrays(np.float64, shape.component_shape(j), elements=finite_floats))
        for j in range(order + 1)
    ]
    return MultiTensor(shape, comps)


class TestGeneratedProperties:
    @settings(deadline=None)
    @given(multitensors())
    def test_json_round_trip(self, w):
        back = from_json(to_json(w))
        assert back.shape == w.shape
        for a, b in zip(w.components, back.components):
            assert np.array_equal(a, b)

    @settings(deadline=None)
    @given(multitensors(), st.floats(-100, 100))
    def test_scale_is_linear_in_every_component(self, w, c):
        out = scale(w, c)
        for a, b in zip(out.components, w.components):
            assert np.array_equal(a, c * b)

    @settings(deadline=None)
    @given(multitensors())
    def test_symmetrize_idempotent(self, w):
        once = symmetrize(w)
        assert once.is_symmetric(1e-9)
        twice = symmetrize(once)
        for a, b in zip(once.components, twice.components):
            assert np.array_equal(a, b)
