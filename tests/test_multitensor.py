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
from tensorjet.multitensor import (
    _contract_last,
    _horner_steps,
    _mul,
    _orbit_index,
    _pack,
    _pair_product,
    _pair_table,
    _symmetrize_component,
    _times,
)

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

    def test_strided_and_contiguous_points_give_the_same_bytes(self):
        # numpy's dot can take another kernel for a strided operand, and round otherwise
        rng = np.random.default_rng(1)
        for _ in range(60):
            d = int(rng.integers(17, 80))
            w = random_multitensor(rng, 1, d, 2)
            v = rng.standard_normal((d, 3))[:, 0]
            assert eval_polynomial(w, v).tobytes() == eval_polynomial(w, v.copy()).tobytes()
            for a, b in zip(contract_once(w, v).components,
                            contract_once(w, v.copy()).components):
                assert a.tobytes() == b.tobytes()


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


# --- the kernels keep the bits of the formulations they replaced ---------------
#
# Test-local copies of the old forms: ``np.tensordot`` for one contraction,
# fancy-index gathers (``h[..., ib]``, ``x[:, ia]``), a ``bincount`` per output
# row, and ``np.einsum`` for the componentwise pair product.

_SPECIALS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.7e308, -1.7e308,
                      5e-324, -2.2e-308, 1e-300])


def _with_specials(rng, shape, share=0.2):
    """Normal entries, a ``share`` of them replaced by signed zeros, NaN, inf and extremes."""
    out = rng.standard_normal(shape)
    hit = rng.random(shape) < share
    out[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return out


def _kernel_cases(seed):
    """``(d_out, d_in, j, component)`` for d_in 1-6, j 0-5, d_out 1-4."""
    rng = np.random.default_rng(seed)
    for d_in in range(1, 7):
        for j in range(6):
            for d_out in range(1, 5):
                if d_in**j * d_out > 8000:
                    continue  # keeps the run short; d_in 6 still reaches j 4
                yield d_out, d_in, j, _with_specials(rng, (d_out,) + (d_in,) * j)


def _old_contract(term, v):
    return np.tensordot(term, v, axes=([-1], [0]))


def _old_symmetrize_component(comp):
    j = comp.ndim - 1
    if j < 2:
        return comp.copy()
    rep, orbit, sizes, _ = _orbit_index(comp.shape[1], j)
    flat = comp.reshape(comp.shape[0], -1)
    if np.array_equal(flat, flat[:, rep]):
        return comp.copy()
    means = np.empty((flat.shape[0], sizes.size))
    for i, row in enumerate(flat):
        means[i] = np.bincount(orbit, weights=row, minlength=sizes.size)
    means /= sizes
    return means[:, orbit].reshape(comp.shape)


def _old_times(s, h, ib, heads):
    terms = h[..., ib]
    terms *= s
    return np.add.reduceat(terms, heads, axis=-1)


def _old_mul(a, b, dim_in, order):
    ia, ib, _, heads, cuts = _pair_table(dim_in, order, order)
    pairs, targets = cuts[order]
    s = a[..., ia[:pairs]]
    out = a[..., :1] * b
    out[..., 1:] += _old_times(s, b, ib[:pairs], heads[:targets])
    out += 0.0
    return out


def _old_pack(components, dim_in):
    d_out = components[0].shape[0]
    return np.concatenate(
        [c.reshape(d_out, -1)[:, _orbit_index(dim_in, j)[3]] for j, c in enumerate(components)],
        axis=1,
    )


def _old_componentwise_product(a, b, max_order):
    order = min(max_order, a.order + b.order)
    comps = [np.zeros(a.shape.component_shape(n)) for n in range(order + 1)]
    d = a.dim_out
    for p in range(a.order + 1):
        for q in range(b.order + 1):
            if p + q <= order:
                ap, bq = a.components[p], b.components[q]
                flat = np.einsum("ix,iy->ixy", ap.reshape(d, -1), bq.reshape(d, -1))
                comps[p + q] += flat.reshape(ap.shape + bq.shape[1:])
    return comps


def _same_bits(new, old):
    return new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and overflow are meant
class TestKernelBits:
    def test_contraction_is_tensordots_bits(self):
        rng = np.random.default_rng(40)
        for d_out, d_in, j, comp in _kernel_cases(41):
            if j == 0:
                continue
            for v in (rng.standard_normal(d_in), _with_specials(rng, d_in, 0.5)):
                assert _same_bits(_contract_last(comp, v), _old_contract(comp, v))
                if d_out > 1:  # a strided view, as a row range of a larger array
                    view = comp[1::2]
                    assert _same_bits(_contract_last(view, v), _old_contract(view, v))

    def test_polynomial_and_contract_once_keep_their_bits(self):
        rng = np.random.default_rng(42)
        for d_in in range(1, 7):
            for order in range(4):
                for d_out in range(1, 5):
                    comps = [_with_specials(rng, (d_out,) + (d_in,) * j, 0.05)
                             for j in range(order + 1)]
                    w = MultiTensor(Shape(d_out, d_in, order), comps)
                    v = rng.standard_normal(d_in)
                    old = comps[0].copy()
                    for j in range(1, order + 1):
                        term = comps[j]
                        for _ in range(j):
                            term = _old_contract(term, v)
                        old += term
                    assert _same_bits(eval_polynomial(w, v), old)
                    once = contract_once(w, v)
                    for j in range(1, order + 1):
                        want = _old_contract(comps[j], v) + (comps[0] if j == 1 else 0)
                        assert _same_bits(once.components[j - 1], want)

    def test_symmetrize_component_is_the_per_row_loop(self):
        for d_out, d_in, j, comp in _kernel_cases(43):
            assert _same_bits(_symmetrize_component(comp), _old_symmetrize_component(comp))
            if d_out > 1:
                view = comp[::-1]  # negative row stride
                assert _same_bits(_symmetrize_component(view), _old_symmetrize_component(view))

    def test_times_is_the_fancy_gather(self):
        rng = np.random.default_rng(44)
        for d_in in range(1, 7):
            for order in range(1, 6 if d_in < 5 else 4):
                ia, weight, steps = _horner_steps(d_in, order, order)
                for d_out in (1, 3):
                    g = _with_specials(rng, (d_out, ia.max() + 1), 0.05)
                    s = g[:, ia] * weight
                    for ib, heads in steps:
                        h = _with_specials(rng, (d_out, 5, ib.max() + 3), 0.05)
                        for view in (h, h[:, 1:4], h[:, ::2, 1:]):  # as _substitute passes h
                            rows = g[rng.integers(0, d_out, view.shape[1])][:, ia[:ib.size]]
                            assert _same_bits(_times(rows, view, ib, heads),
                                              _old_times(rows, view, ib, heads))
                        flat = h[:, 0]
                        assert _same_bits(_times(s[:, :ib.size], flat, ib, heads),
                                          _old_times(s[:, :ib.size], flat, ib, heads))

    def test_mul_and_its_gathers_are_the_fancy_gathers(self):
        rng = np.random.default_rng(45)
        for d_in in range(1, 7):
            for order in range(1, 6 if d_in < 5 else 4):
                width = math.comb(d_in + order, order)
                for d_out in (1, 2, 4):
                    a = _with_specials(rng, (d_out, width), 0.05)
                    b = _with_specials(rng, (d_out, 3, width), 0.05)
                    assert _same_bits(_mul(a[:, None], b, d_in, order),
                                      _old_mul(a[:, None], b, d_in, order))
                    assert _same_bits(_mul(a, b[:, 1], d_in, order),
                                      _old_mul(a, b[:, 1], d_in, order))
                    # the x[:, ia] gathers of _substitute and _horner_coeffs
                    ia, weight, _ = _horner_steps(d_in, order, order)
                    s = a.take(ia, axis=1)
                    assert _same_bits(s, a[:, ia])
                    s *= weight
                    assert _same_bits(s, a[:, ia] * weight)

    def test_pack_is_the_fancy_gather(self):
        rng = np.random.default_rng(46)
        for d_in in range(1, 7):
            for order in range(6 if d_in < 5 else 4):
                for d_out in range(1, 5):
                    comps = [_with_specials(rng, (d_out,) + (d_in,) * j, 0.2)
                             for j in range(order + 1)]
                    assert _same_bits(_pack(comps, d_in), _old_pack(comps, d_in))

    def test_componentwise_product_is_einsums_bits(self):
        rng = np.random.default_rng(47)
        for d_in in range(1, 7):
            for order_a, order_b in ((0, 3), (1, 1), (2, 2), (3, 1)):
                for d_out in range(1, 5):
                    a, b = (MultiTensor(Shape(d_out, d_in, k), [
                        _with_specials(rng, (d_out,) + (d_in,) * j, 0.2) for j in range(k + 1)])
                        for k in (order_a, order_b))
                    for max_order in (2, 4):
                        new = algebra_product(a, b, max_order=max_order)
                        old = _old_componentwise_product(a, b, max_order)
                        assert len(new.components) == len(old)
                        for x, y in zip(new.components, old):
                            assert _same_bits(x, y)

    def test_pair_product_differs_from_einsum_only_by_its_plus_zero(self):
        # einsum writes 0 + a*b, so a -0 product is +0 there; algebra_product
        # adds every pair into zeros, which is the same +0.
        rng = np.random.default_rng(48)
        for d_out, d_in, j, comp in _kernel_cases(49):
            other = _with_specials(rng, (d_out,) + (d_in,) * min(j, 2), 0.3)
            old = np.einsum("ix,iy->ixy", comp.reshape(d_out, -1), other.reshape(d_out, -1))
            new = _pair_product(comp, other, None)
            assert _same_bits(new + 0.0, old.reshape(new.shape))

    def test_results_are_fresh_read_only_arrays(self):
        rng = np.random.default_rng(50)
        for d_in in (1, 2, 3):
            for order in (0, 1, 3):
                w = random_multitensor(rng, 2, d_in, order)
                sym = symmetrize(w)
                prod = algebra_product(w, sym, max_order=order + 1)
                for out, sources in ((sym, w.components), (prod, w.components + sym.components)):
                    for comp in out.components:
                        assert not comp.flags.writeable
                        assert not any(np.shares_memory(comp, x) for x in sources)
                again = symmetrize(sym)  # exactly symmetric input: a bitwise copy
                for x, y in zip(again.components, sym.components):
                    assert _same_bits(x, y) and not np.shares_memory(x, y)
