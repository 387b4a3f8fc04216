"""Packed towers: one entry per multi-index inside the walk, dense at the boundary."""

import gc
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorjet import (
    Affine,
    Compose,
    DomainEvalError,
    Elementwise,
    ExtractedDerivative,
    compose_towers,
    derivative_tower,
    get_primitive,
    integer_power,
    primitive_library,
    truncate,
)
from tensorjet import multitensor
from tensorjet.multitensor import (
    _column_factorials,
    _monomials,
    _orbit_index,
    _pack,
    _pair_table,
    _unpack,
)
from tensorjet.program import (
    _apply_prim,
    _horner_coeffs,
    _prim_derivatives,
    _tanh_poly,
    _tanh_rows,
    _tanh_seq,
    _tanh_table,
)

from _gen import random_multitensor, random_program


def _bits(t):
    return [c.tobytes() for c in t.components]


@st.composite
def programs(draw):
    """A random ``tests/_gen.py`` program: packed rules and dense-boundary rules mixed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, mid = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = random_program(rng, d, mid, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        p = Compose(Elementwise(get_primitive(draw(st.sampled_from(["sin", "tanh"]))), mid), p)
    if draw(st.booleans()):
        p = ExtractedDerivative(p, 1)
    return p, rng.uniform(-0.6, 0.6, size=d), draw(st.integers(0, 4))


@given(programs())
def test_deeper_tower_truncates_to_the_shallower_bit_for_bit(case):
    p, v, k = case
    low = derivative_tower(p, v, k).tower
    high = derivative_tower(p, v, k + 1).tower
    assert _bits(truncate(high, k)) == _bits(low)


@pytest.mark.parametrize("n", [2, 3])
def test_integer_power_of_integer_affine_is_exact(n):
    """(A v + b)_i^n at integer data: every derivative is an exact integer."""
    rng = np.random.default_rng(60 + n)
    d, k = 3, n + 2
    a = rng.integers(-3, 4, size=(d, d))
    b = rng.integers(-3, 4, size=d)
    v = rng.integers(-2, 3, size=d)
    p = Compose(Elementwise(integer_power(n), d), Affine(a.astype(float), b.astype(float)))
    tower = derivative_tower(p, v.astype(float), k).tower
    y = [int(x) for x in a @ v + b]
    for j, comp in enumerate(tower.components):
        want = np.zeros(comp.shape)
        for i in range(d):
            for slots in itertools.product(range(d), repeat=j):
                entry = math.perm(n, j) * y[i] ** (n - j) if j <= n else 0
                for s in slots:
                    entry *= int(a[i, s])
                want[(i,) + slots] = entry
        assert np.array_equal(comp, want)


def test_tables_hold_no_python_object_per_pair():
    """Every table for d <= 6 and order <= 8 is integer numpy data."""
    multitensor._PAIR_TABLES.clear()
    for cached in (multitensor._binomials, multitensor._degree_starts):
        cached.cache_clear()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        pairs = 0
        for d in range(1, 7):
            for k in range(1, 9):
                for degree in range(1, k + 1):
                    pairs += multitensor._build_pair_table(d, k, degree)[0].size
                    _pair_table(d, k, degree)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    tables = len(multitensor._PAIR_TABLES)  # one per d and degree bound
    assert pairs > 10**6 and tables == 6 * 8
    assert grown < 100 * tables  # about 85 per table with the caches behind it; none per pair
    ia, ib, weight, heads, cuts = _pair_table(6, 8, 8)
    for arr in (ia, ib, heads):
        assert arr.dtype.kind == "i" and not arr.flags.writeable
    assert weight.dtype == np.float64 and not weight.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_order_is_the_orbit_order_and_round_trips(d):
    k = 5
    exps = _monomials(d, k)
    assert len(exps) == math.comb(d + k, k)
    start = 0
    for j in range(k + 1):
        heads = _orbit_index(d, j)[3]
        slots = np.unravel_index(heads, (d,) * j) if j else ()
        want = np.stack([sum(s == i for s in slots) + np.zeros(heads.size, int)
                         for i in range(d)], axis=1)
        assert np.array_equal(exps[start:start + heads.size], want)
        start += heads.size
    rng = np.random.default_rng(61)
    tower = multitensor.symmetrize(random_multitensor(rng, 2, d, k))
    packed = _pack(tower.components, d)
    assert packed.shape == (2, math.comb(d + k, k))
    assert _bits(_unpack(packed, d, k)) == _bits(tower)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_monomials_grown_from_a_shallower_table_equal_one_built_at_once(d, monkeypatch):
    monkeypatch.setattr(multitensor, "_MONOMIALS", {})
    at_once = _monomials(d, 7).copy()
    monkeypatch.setattr(multitensor, "_MONOMIALS", {})
    for k in (0, 2, 1, 5, 7, 3):
        exps = _monomials(d, k)
        assert np.array_equal(exps, at_once[:math.comb(d + k, k)])
    assert not exps.flags.writeable


def _orbit_index_by_sorting(dim_in, j):
    """The orbit index by sorting every slot tuple and ``np.unique``: a reference."""
    dims = (dim_in,) * j
    slots = np.indices(dims).reshape(j, dim_in**j)
    slots.sort(axis=0)
    rep = np.ravel_multi_index(tuple(slots), dims) if j else np.zeros(1, dtype=np.intp)
    heads, orbit, sizes = np.unique(rep, return_inverse=True, return_counts=True)
    return rep, orbit, sizes, heads


@pytest.mark.parametrize("d", range(1, 9))
def test_orbit_index_by_successor_gathers_equals_sorting(d):
    # every j with d**j <= 10**6; for d = 1, j to 12.  The uncached build keeps
    # the large indices out of the cache.
    j = 0
    while d**j <= 10**6 and (d > 1 or j <= 12):
        got, want = _orbit_index.__wrapped__(d, j), _orbit_index_by_sorting(d, j)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), (d, j)
        j += 1


def test_orbit_index_peak_allocation_is_a_few_index_arrays():
    # an uncached build; the sort-and-unique one peaked at 13.1 index arrays of 6**7 int64
    tracemalloc.start()
    try:
        _orbit_index.__wrapped__(6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 6**7 * 8


POINTS = [0.0, -0.0, 0.5, -1.3, 3.0, 1e-200, -1e-300, 1e300, -1e300, 710.0, 1e-320,
          math.inf, -math.inf, math.nan]


def _per_order(prim, v, k, path):
    """One ``deriv_seq`` call per entry and order, order by order."""
    return np.array([[_apply_prim(prim, r, x, path) for x in v] for r in range(k + 1)])


def _outcome(run):
    try:
        with np.errstate(all="ignore"):
            return run().tobytes()
    except DomainEvalError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(primitive_library()) + ["pow0", "pow2", "pow5"])
def test_primitive_derivatives_keep_every_bit_and_error(name):
    prim = get_primitive(name)
    vectors = [[x] for x in POINTS] + [POINTS, POINTS[::-1], [0.5, 1e300, 0.0, -1.0]]
    for v in vectors:
        v = np.array(v)
        for k in range(25):
            got = _outcome(lambda: _prim_derivatives(prim, v, k, "/x"))
            assert got == _outcome(lambda: _per_order(prim, v, k, "/x")), (v, k)


def _tanh_by_integer_horner(j, x):
    """T_j(tanh x) by Horner over ``_tanh_poly``'s integer coefficients, in Python floats."""
    t = math.tanh(x)
    acc = 0.0
    for c in reversed(_tanh_poly(j)):
        acc = acc * t + c
    return acc


def test_tanh_derivatives_match_an_integer_coefficient_horner():
    """An oracle apart from the float coefficient table that tanh's kernels read."""
    prim = get_primitive("tanh")
    for k in range(25):
        want = np.array([[_tanh_by_integer_horner(j, x) for x in POINTS] for j in range(k + 1)])
        assert _prim_derivatives(prim, np.array(POINTS), k, "/x").tobytes() == want.tobytes()
        for i, x in enumerate(POINTS):
            assert np.float64(prim.deriv_seq(k, x)).tobytes() == want[k, i].tobytes()
    # from order 164 a coefficient is above the largest float, as an error
    with pytest.raises(OverflowError) as want:
        _tanh_by_integer_horner(164, 0.3)
    with pytest.raises(DomainEvalError) as got:
        _prim_derivatives(prim, np.array([0.3]), 164, "/x")
    assert str(got.value) == f"/x: elem(tanh) failed at 0.3: {want.value}"


def _tanh_by_full_horner(j, x):
    """T_j(tanh x) by Horner over every float coefficient, zeros included."""
    t = math.tanh(x)
    acc = 0.0
    for c in reversed(_tanh_poly(j)):
        acc = acc * t + float(c)
    return acc


def test_tanh_kernel_skips_zero_coefficients_bit_for_bit():
    """T_j has powers of t of one parity only; skipping the others keeps every bit."""
    grid = [s * x for x in (0.0, 5e-324, 1e-300, 0.5, 20.0, 400.0) for s in (1.0, -1.0)]
    table = _tanh_table(24)
    for x in grid:
        want = [_tanh_by_full_horner(j, x) for j in range(25)]
        assert np.array(_tanh_rows(table, x)).tobytes() == np.array(want).tobytes(), x
        assert np.array([_tanh_seq(j, x) for j in range(25)]).tobytes() == np.array(want).tobytes()


def test_unpacked_components_are_fresh_read_only_and_equal_to_a_copying_build():
    """``_unpack`` keeps the arrays it gathers instead of copying them again."""
    rng = np.random.default_rng(62)
    for d, k in ((1, 4), (2, 3), (3, 5)):
        packed = _pack(multitensor.symmetrize(random_multitensor(rng, 2, d, k)).components, d)
        tower = _unpack(packed, d, k)
        copied = multitensor.MultiTensor(tower.shape, [c.copy() for c in tower.components])
        assert _bits(tower) == _bits(copied)
        for comp in tower.components:
            assert not comp.flags.writeable and comp.flags.c_contiguous
            assert not np.shares_memory(comp, packed)
        with pytest.raises(ValueError):
            tower.components[k][(0,) * (k + 1)] = 1.0


def test_derivative_and_composed_towers_are_read_only():
    rng = np.random.default_rng(63)
    p = random_program(rng, 2, 2, 3)
    v = rng.uniform(-0.5, 0.5, 2)
    inner = derivative_tower(p, v, 3)
    outer = derivative_tower(Compose(Elementwise(get_primitive("sin"), 2), p), inner.value, 3)
    for tower in (inner.tower, compose_towers(outer, inner).tower):
        assert all(not c.flags.writeable for c in tower.components)


def _horner_on_the_whole_table(coeffs, inner, dim_in, degree, series=False):
    """Truncated Horner slicing the deepest pair table at every step.

    It is the arithmetic every inner degree ran before the closed form, so it
    is the reference for the closed form's bits.  Each product is h times s,
    in that order, which decides the NaN that a product of two NaNs returns.
    """
    k = coeffs.shape[0] - 1
    h = coeffs[k][:, None]
    ia, ib, weight, heads, cuts = _pair_table(dim_in, k, degree)
    s = inner[:, ia[:cuts[k][0]]]
    if not series:
        s = s * weight[:cuts[k][0]]
    for r in range(k - 1, -1, -1):
        pairs, targets = cuts[k - r]
        sums = np.add.reduceat(h[:, ib[:pairs]] * s[:, :pairs], heads[:targets], axis=1)
        sums += 0.0
        h = np.concatenate((coeffs[r][:, None], sums), axis=1)
    return h


def test_horner_with_cached_step_slices_keeps_every_bit():
    rng = np.random.default_rng(64)
    for case in range(40):
        d, k = 1 + case % 4, 1 + case % 6
        degree = 1 + case % k
        inner = _pack(multitensor.symmetrize(random_multitensor(rng, d, d, k)).components, d)
        fvals = rng.uniform(-2.0, 2.0, size=(k + 1, d))
        coeffs = fvals / np.array([math.factorial(r) for r in range(k + 1)], dtype=float)[:, None]
        want = _horner_on_the_whole_table(coeffs, inner, d, degree)
        got = _horner_coeffs(fvals / _column_factorials(1, k)[:, None], inner, d, degree)
        assert got.tobytes() == want.tobytes()


# --- an elementwise stage over a linear inner -------------------------------------
#
# In one variable the kernel takes the closed form; in more it runs Horner of
# degree 1.  Either way it has the bits of the Horner reference above.


def _multi_indices(d, k):
    """Exponents of each multi-index of degree <= k in packed order, from itertools alone."""
    for j in range(k + 1):
        for slots in itertools.combinations_with_replacement(range(d), j):
            yield tuple(slots.count(i) for i in range(d))


def _exact_linear(coeffs, s, series):
    """f(g0 + s.x) packed, in Fractions: coeffs[|a|] * s^a times |a|!/a! (series) or |a|!."""
    k, d = coeffs.shape[0] - 1, s.shape[1]
    rows = []
    for c, si in zip(coeffs.T.tolist(), s.tolist()):
        row = []
        for a in _multi_indices(d, k):
            r = sum(a)
            entry = Fraction(c[r]) * math.factorial(r)
            if series:
                entry /= math.prod(map(math.factorial, a))
            for x, e in zip(si, a):
                entry *= Fraction(x) ** e
            row.append(entry)
        rows.append(row)
    return rows


def _linear_case(rng, d, k):
    """Coefficients and a full inner tower (its entries above degree 1 are not read),
    with zero and -0 components in the linear part and -0 coefficients."""
    coeffs = rng.uniform(-2.0, 2.0, size=(k + 1, 2))
    coeffs[rng.random(coeffs.shape) < 0.15] = -0.0
    inner = rng.uniform(-2.0, 2.0, size=(2, math.comb(d + k, k)))
    if k:
        linear = inner[:, 1:d + 1]
        linear[rng.random(linear.shape) < 0.3] = 0.0
        linear[rng.random(linear.shape) < 0.3] = -0.0
    return coeffs, inner


LINEAR_CASES = [(d, k) for d in range(1, 5) for k in range(9)] + [(1, k) for k in range(9, 25)]


@pytest.mark.parametrize("series", [False, True])
def test_linear_inner_is_within_its_bound_and_deeper_orders_keep_its_bits(series):
    """Entry a is built from coeffs[|a|] in |a| steps, each a product by s_i (times a
    weight in tower scaling) and a sum of at most d terms of one sign, so it is within
    (d + 1)|a| + 1 units of 2^-53 of the exact entry; in one variable that is the
    closed form.  It has the reference's bits, so its error is never larger, and a
    deeper order leaves every lower entry's bits."""
    rng = np.random.default_rng(65)
    for d, k in LINEAR_CASES:
        coeffs, inner = _linear_case(rng, d, k + 1)
        deep = _horner_coeffs(coeffs, inner, d, 1, series)
        size = math.comb(d + k, k)
        low = _horner_coeffs(coeffs[:k + 1], inner[:, :size], d, 1, series)
        assert low.tobytes() == np.ascontiguousarray(deep[:, :size]).tobytes(), (d, k)
        want = _horner_on_the_whole_table(coeffs[:k + 1], inner[:, :size], d, 1, series)
        assert low.tobytes() == want.tobytes(), (d, k)
        exact = _exact_linear(coeffs[:k + 1], inner[:, 1:d + 1], series)
        degrees = [sum(a) for a in _multi_indices(d, k)]
        assert low[:, 0].tobytes() == coeffs[0].tobytes()
        for row, exact_row in zip(low.tolist(), exact):
            for x, e, r in zip(row[1:], exact_row[1:], degrees[1:]):
                assert abs(Fraction(x) - e) <= ((d + 1) * r + 1) * 2.0**-53 * abs(e), (d, k, r)
                assert x != 0.0 or math.copysign(1.0, x) == 1.0  # no -0 past the value


def test_linear_inner_marks_non_finite_the_entries_horner_marks():
    """inf and NaN coefficients and linear parts: the reference's entries, non-finite
    ones included, and the value column is the coefficients' own."""
    rng = np.random.default_rng(66)
    specials = [math.inf, -math.inf, math.nan]
    marked = 0
    for case in range(320):
        d, k, series = 1 + case % 4, 1 + case % 7, case % 3 == 0
        coeffs, inner = _linear_case(rng, d, k)
        for _ in range(1 + case % 2):
            if rng.random() < 0.5:
                coeffs[rng.integers(k + 1), rng.integers(2)] = rng.choice(specials)
            else:
                inner[rng.integers(2), 1 + rng.integers(d)] = rng.choice(specials)
        with np.errstate(all="ignore"):
            got = _horner_coeffs(coeffs, inner, d, 1, series)
            want = _horner_on_the_whole_table(coeffs, inner, d, 1, series)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert got[:, 0].tobytes() == coeffs[0].tobytes()
        assert got.tobytes() == want.tobytes()
        marked += np.count_nonzero(~np.isfinite(got))
    assert marked > 1000


def test_closed_form_forms_no_power_above_an_entrys_degree():
    """s^16 overflows at s = 1e20, but a polynomial of degree 2 never needs it."""
    coeffs = np.zeros((17, 3))
    coeffs[:3] = np.random.default_rng(67).uniform(-2.0, 2.0, size=(3, 3))
    inner = np.full((3, 17), 1e20)
    for series in (False, True):
        with np.errstate(all="raise"):
            got = _horner_coeffs(coeffs, inner, 1, 1, series)
        assert np.isfinite(got).all() and not got[:, 3:].any()


def test_tower_of_an_elementwise_stage_over_an_affine_base_is_the_kernel():
    rng = np.random.default_rng(68)
    for d in range(1, 5):
        for k in range(6):
            a, b, v = rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            base = np.zeros((d, math.comb(d + k, k)))
            base[:, 0] = a @ v + b
            if k:
                base[:, 1:d + 1] = a
            for name in ("sin", "tanh", "exp"):
                p = Compose(Elementwise(get_primitive(name), d), Affine(a, b))
                fvals = _prim_derivatives(p.outer.fn, base[:, 0], k, "")
                coeffs = fvals / _column_factorials(1, k)[:, None]
                want = _unpack(_horner_coeffs(coeffs, base, d, 1), d, k)
                assert _bits(derivative_tower(p, v, k).tower) == _bits(want)
