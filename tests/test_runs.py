"""Runs of elementwise stages: ``Compose(Elementwise, ...)`` nested over one base.

The walk composes a run's stage series as a whole, so these tests check what
that must keep: accuracy against exact arithmetic, results that do not
depend on which nodes are shared, one evaluation of each stage derivative,
lower orders that a deeper tower leaves alone, and the error contract.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    DomainEvalError,
    Elementwise,
    Identity,
    Product,
    Sum,
    derivative_tower,
    evaluate,
    get_primitive,
    jet,
    primitive_library,
)
from tensorjet.multitensor import _column_factorials, _monomials, _pack
from tensorjet.program import Primitive, _apply_prim, _horner_coeffs, _prim_derivatives, _sin_seq

U = 2.0**-53  # unit roundoff of float64


def _chain(base, names, d):
    p = base
    for name in names:
        p = Compose(Elementwise(get_primitive(name), d), p)
    return p


def _packed(p, v, k):
    return _pack(derivative_tower(p, v, k).tower.components, p.dim_in)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- accuracy against exact arithmetic ------------------------------------------

def _random_stages(rng, x, m):
    """m primitive names, each chosen so the values stay in its domain and in [-2, 2]."""
    names = []
    for _ in range(m):
        ok = ["sin", "tanh"]
        if x.max() < 0.7:
            ok.append("exp")
        if x.min() > 0.3:
            ok.append("log")
        if np.abs(x).min() > 0.5:
            ok.append("reciprocal")
        name = str(rng.choice(ok))
        names.append(name)
        x = _prim_derivatives(get_primitive(name), x, 0, "")[0]
    return names


def _stagewise(base_packed, names, d_in, k, degree):
    """The one-stage Horner kernel applied stage by stage, and each stage's float derivatives."""
    packed, fvals = base_packed, []
    for name in names:
        fvals.append(_prim_derivatives(get_primitive(name), packed[:, 0], k, ""))
        packed = _horner_coeffs(fvals[-1] / _column_factorials(1, k)[:, None], packed, d_in, degree)
        degree = k
    return packed, fvals


def _series_mul(a, b, k):
    out = [Fraction(0)] * (k + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(k + 1 - i):
                out[i + j] += x * b[j]
    return out


def _poly_mul(a, b, k):
    out = {}
    for ea, x in a.items():
        for eb, y in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if sum(e) <= k:
                out[e] = out.get(e, 0) + x * y
    return out


def _exact_run(base_packed, fvals, d_in, k, absolute):
    """Packed entries of the run in exact arithmetic, from the same float inputs.

    Each stage's series f^(r)(x)/r! is composed into the last in exact
    rationals, and the composite is applied to the base's Taylor polynomial.
    With ``absolute`` every input is replaced by its absolute value.
    """
    mag = abs if absolute else (lambda x: x)
    exps = [tuple(int(e) for e in row) for row in _monomials(d_in, k)]
    alpha_fact = [math.prod(map(math.factorial, e)) for e in exps]
    out = []
    for i in range(base_packed.shape[0]):
        comp = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 1)  # s -> s
        for f in fvals:
            c = [mag(Fraction(f[r, i])) / math.factorial(r) for r in range(k + 1)]
            shift = [Fraction(0)] + comp[1:k + 1]
            new, power = [c[0]] + [Fraction(0)] * k, [Fraction(1)] + [Fraction(0)] * k
            for r in range(1, k + 1):
                power = _series_mul(power, shift, k)
                new = [x + c[r] * y for x, y in zip(new, power)]
            comp = new
        s = {e: mag(Fraction(base_packed[i, j])) / alpha_fact[j]
             for j, e in enumerate(exps) if sum(e) >= 1 and base_packed[i, j] != 0.0}
        total, power = {exps[0]: comp[0]}, {exps[0]: Fraction(1)}
        for r in range(1, k + 1):
            power = _poly_mul(power, s, k)
            for e, x in power.items():
                total[e] = total.get(e, 0) + comp[r] * x
        out.append([total.get(e, Fraction(0)) * alpha_fact[j] for j, e in enumerate(exps)])
    return out


def _run_cases():
    """(d, K, length) for d 1-3 and K 0-6, lengths 2-64; a quadratic base on odd cases."""
    lengths = (2, 64, 3, 16, 5, 33, 8)
    for case in range(21):
        yield 1 + case % 3, case % 7, lengths[(case // 3) % 7], case % 2 == 1


def test_runs_are_within_a_float64_bound_of_an_exact_oracle():
    """Each entry within gamma_n * A of the exact run fed the same float inputs.

    A is the exact run on the absolute values of the inputs (the base tower
    and each stage's derivatives).  For sums and products, gamma_n = n u /
    (1 - n u) bounds the error relative to A, n the most roundings on any
    path (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    Stage by stage, each of the m stages divides by r! (1), scales the
    inner tower by its integer weights (1), and runs K Horner steps, each a
    product and a sum over at most C(K + d, d) pairs: n = m (K C(K + d, d) + 2).
    The balanced tree makes fewer roundings on every path, so the one bound
    holds for both, and both must meet it.
    """
    rng = np.random.default_rng(2016)
    for d, k, m, quadratic in _run_cases():
        base = Affine(rng.uniform(-0.6, 0.6, size=(d, d)), rng.uniform(-0.5, 0.5, size=d))
        if quadratic:
            base = Product([base, Affine(rng.uniform(-1, 1, size=(d, d)),
                                         rng.uniform(0.5, 1.5, size=d))])
        v = rng.uniform(-0.5, 0.5, size=d)
        base_packed = _packed(base, v, k)
        names = _random_stages(rng, base_packed[:, 0], m)
        degree = k if quadratic else min(1, k)  # the walk's degree bound for each base
        stagewise, fvals = _stagewise(base_packed, names, d, k, degree)
        tree = _packed(_chain(base, names, d), v, k)
        exact = _exact_run(base_packed, fvals, d, k, absolute=False)
        scale = _exact_run(base_packed, fvals, d, k, absolute=True)
        n = m * (k * math.comb(k + d, d) + 2)
        gamma = Fraction(n) * Fraction(U) / (1 - Fraction(n) * Fraction(U))
        for got in (tree, stagewise):
            assert _same_bits(got[:, 0], stagewise[:, 0])
            for i in range(d):
                for j in range(got.shape[1]):
                    err = abs(Fraction(got[i, j]) - exact[i][j])
                    assert err <= gamma * scale[i][j], (d, k, m, i, j)


# --- sharing and work ---------------------------------------------------------------

def _sin_tanh(m, offset=0):
    return ["sin" if (i + offset) % 2 else "tanh" for i in range(m)]


def test_shared_middle_stage_gives_the_fresh_copys_bits():
    """A run through a link shared with a second program, against copies sharing nothing."""
    def middle():
        return _chain(Affine([[0.9, -0.3], [0.2, 0.7]], [0.1, -0.2]), _sin_tanh(9), 2)

    def programs(mid):
        run = Sum([_chain(mid(), _sin_tanh(12, 1), 2),
                   Compose(Elementwise(get_primitive("exp"), 2), mid())])
        return run, Product([mid(), Affine([[1.0, 0.5], [0.0, 2.0]], [0.3, 0.0])])

    node = middle()
    shared, fresh = programs(lambda: node), programs(middle)
    assert node.uses == 3
    v = np.array([0.4, -0.3])
    series = np.array([[0.4, 1.0, -0.5, 0.25], [-0.3, 0.5, 0.2, -0.1]])
    for p, q in zip(shared, fresh):
        for k in range(5):
            assert _same_bits(_packed(p, v, k), _packed(q, v, k))
        assert _same_bits(jet(p, series), jet(q, series))
        assert _same_bits(evaluate(p, v), evaluate(q, v))


def test_each_stage_derivative_is_evaluated_once():
    """Sum of every prefix of a 64-stage chain: each link is shared, each order asked once."""
    calls = []

    def counted_sin(j, x):
        calls.append((j, x))
        return _sin_seq(j, x)

    counting = Primitive("counted_sin", counted_sin)

    def prefixes():
        p, out = Affine([[0.8]], [0.1]), []
        for _ in range(64):
            p = Compose(Elementwise(counting), p)
            out.append(p)
        return out

    k = 3
    tower = _packed(Sum(prefixes()), [0.3], k)
    assert len(calls) == 64 * (k + 1)
    assert sorted(j for j, _ in calls) == sorted(list(range(k + 1)) * 64)
    fresh = [_packed(p, [0.3], k) for p in prefixes()]
    total = fresh[0]
    for t in fresh[1:]:
        total = total + t
    assert _same_bits(tower, total)

    calls.clear()
    value = evaluate(Sum(prefixes()), [0.3])
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 64
    assert all(j == 0 for j, _ in calls)
    fresh = [evaluate(p, [0.3]) for p in prefixes()]
    total = fresh[0]
    for x in fresh[1:]:
        total = total + x
    assert _same_bits(value, total)


def test_deeper_order_keeps_lower_orders_of_a_200_stage_run():
    p = _chain(Affine([[0.7, 0.4], [-0.3, 0.6]], [0.05, -0.1]), _sin_tanh(200), 2)
    v = np.array([0.3, -0.2])
    low = _packed(p, v, 0)
    for k in range(1, 10):
        high = _packed(p, v, k)
        assert _same_bits(high[:, :low.shape[1]], low), k
        low = high


# --- values ------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300, math.inf, -math.inf, math.nan,
           0.5, -1.3, 3.0, 710.0]


def _wobble(j, x):
    if abs(x) > 1e100:
        raise DomainEvalError("wobble out of range")
    if j == 0:
        return math.sin(x) / 2 + x
    return _sin_seq(j, x) / 2 + (j == 1)


def _value_prims():
    return [get_primitive(name) for name in sorted(primitive_library())] + [
        get_primitive("pow3"), Primitive("wobble", _wobble)]


def _reference(node, v, path=""):
    """Value of ``node`` with every link of a run evaluated as its own stage, from the base up.

    A lone elementwise node is one stage over the input, named by ``path``.
    """
    if type(node) is Elementwise:
        x = np.asarray(v, dtype=np.float64)
        return np.array([_apply_prim(node.fn, 0, xi, path) for xi in x], dtype=np.float64)
    fns = []
    while type(node) is Compose and type(node.outer) is Elementwise:
        fns.append(node.outer.fn)
        node = node.inner
    x = np.asarray(v, dtype=np.float64) if type(node) is Identity else evaluate(node, v)
    for depth in range(len(fns) - 1, -1, -1):
        at = path + "/compose.inner" * depth + "/compose.outer"
        x = np.array([_apply_prim(fns[depth], 0, xi, at) for xi in x], dtype=np.float64)
    return x


def _value_outcome(run):
    try:
        with np.errstate(all="ignore"):
            return run().tobytes()
    except DomainEvalError as exc:
        return str(exc)


def test_run_values_match_the_stage_by_stage_reference():
    """Random runs over every primitive, with links shared at random places, at
    points that hold signed zeros, subnormals, huge values, infinities and NaN:
    the value pass keeps each stage's bits and each error's text and path.  So
    does a lone elementwise node, as the root and as a sum's child, which
    takes the same pass."""
    rng = np.random.default_rng(17)
    prims = _value_prims()
    seen = set()
    for case in range(400):
        d = 1 + case % 3
        base = Identity(d) if case % 2 else Affine(rng.uniform(-1, 1, (d, d)),
                                                   rng.uniform(-0.5, 0.5, d))
        p, extra = base, []
        for _ in range(int(rng.integers(1, 13))):
            p = Compose(Elementwise(prims[int(rng.integers(len(prims)))], d), p)
            if rng.random() < 0.25:  # a second parent makes this link shared
                extra.append(Compose(Elementwise(prims[int(rng.integers(len(prims)))], d), p))
        v = rng.choice(SPECIAL, size=d) if case % 2 else rng.uniform(-2, 2, d)
        got = _value_outcome(lambda: evaluate(p, v))
        assert got == _value_outcome(lambda: _reference(p, v)), (case, v)
        seen.add(type(got))
        if extra:  # the same shared links, reached first through the run of p
            both = Sum([p, extra[-1]])
            got = _value_outcome(lambda: evaluate(both, v))
            want = _value_outcome(lambda: _reference(p, v, "/sum[0]")
                                  + _reference(extra[-1], v, "/sum[1]"))
            assert got == want, (case, v)
        lone = Elementwise(prims[case % len(prims)], d)
        got = _value_outcome(lambda: evaluate(lone, v))
        assert got == _value_outcome(lambda: _reference(lone, v)), (case, v)
        got = _value_outcome(lambda: evaluate(Sum([p, lone]), v))
        want = _value_outcome(lambda: _reference(p, v, "/sum[0]") + _reference(lone, v, "/sum[1]"))
        assert got == want, (case, v)
    assert seen == {bytes, str}


# --- the error contract ------------------------------------------------------------

def _depth_path(depth):
    return "/compose.inner" * depth + "/compose.outer"


def test_log_at_depth_37_of_60_names_that_stage():
    """sin and tanh keep the sign, so the log 37 links below the root sees a negative value;
    the log 20 links below the root would fail too, but the deeper one fails first."""
    names = ["log" if i in (22, 39) else "tanh" if i % 2 else "sin" for i in range(60)]
    base = Affine([[1.0]], [-0.8])
    p = _chain(base, names, 1)
    x = float(evaluate(_chain(base, names[:22], 1), [0.3])[0])
    message = f"{_depth_path(37)}: elem(log): log of non-positive input {x!r}"
    runs = [lambda: evaluate(p, [0.3]), lambda: jet(p, np.array([[0.3, 1.0, 0.5]]))]
    runs += [lambda k=k: derivative_tower(p, [0.3], k) for k in (0, 1, 3)]
    for run in runs:
        with pytest.raises(DomainEvalError) as err:
            run()
        assert str(err.value) == message


def test_order_171_on_a_run():
    p = _chain(Affine([[0.5]], [0.1]), _sin_tanh(12), 1)
    with pytest.raises(ValueError) as err:
        derivative_tower(p, [0.2], 171)
    assert type(err.value) is ValueError
    assert str(err.value) == ("order 171 is above 63, the largest of a dense tower "
                              "(component j has j + 1 axes, and numpy arrays have at most 64)")
    series = np.zeros((1, 172))
    series[0, :2] = [0.2, 1.0]
    with pytest.raises(DomainEvalError) as err:
        jet(p, series)
    assert str(err.value) == (f"{_depth_path(11)}: elem(tanh): order 171 is above 170, "
                              "the largest whose factorial is a float")


def test_custom_primitive_that_raises_mid_run():
    """A stage whose second derivative fails: towers of order >= 2 name it, lower ones run."""
    def fragile(j, x):
        if j >= 2:
            raise ArithmeticError("no second derivative")
        return _sin_seq(j, x)

    names = _sin_tanh(30)
    base = Affine([[0.6]], [0.2])
    below = _chain(base, names[:12], 1)
    p = _chain(Compose(Elementwise(Primitive("fragile", fragile)), below), names[12:], 1)
    x = float(evaluate(below, [0.4])[0])
    message = f"{_depth_path(18)}: elem(fragile) failed at {x!r}: no second derivative"
    for k in (2, 3, 6):
        with pytest.raises(DomainEvalError) as err:
            derivative_tower(p, [0.4], k)
        assert str(err.value) == message
    assert derivative_tower(p, [0.4], 1).value[0] == evaluate(p, [0.4])[0]
