"""Packed towers: one entry per multi-index inside the walk, dense at the boundary."""

import gc
import itertools
import math
import sys

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
    derivative_tower,
    get_primitive,
    integer_power,
    primitive_library,
    truncate,
)
from tensorjet import multitensor
from tensorjet.multitensor import _monomials, _orbit_index, _pack, _pair_table, _unpack
from tensorjet.program import _apply_prim, _prim_derivatives

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
