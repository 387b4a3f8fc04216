"""Towers against an independent jet: <tower_j, u^(x)j> = j! [t^j] p(v + t u).

The right-hand side is a truncated Taylor series pushed through the program
by the recurrences below.  They read node attributes only and use numpy and
``math``, no tensorjet kernel, so the two sides share no arithmetic.
"""

import itertools
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    ExtractedDerivative,
    Product,
    derivative_tower,
    forward_chain,
    get_primitive,
    reverse_chain,
)

from _gen import max_component_gap, random_multitensor, random_program

ORDER = 4


def _mul(a, b):
    """Truncated product of series along the last axis (leading axes broadcast)."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for t in range(out.shape[-1]):
        for s in range(t + 1):
            out[..., t] += a[..., s] * b[..., t - s]
    return out


def _primitive(name, x):
    """Series of ``name`` applied to each row of ``x`` (Griewank & Walther, ch. 13)."""
    if name.startswith("pow"):
        y = np.zeros_like(x)
        y[:, 0] = 1.0
        for _ in range(int(name[3:])):
            y = _mul(y, x)
        return y
    dx = x * np.arange(x.shape[1])  # t^j coefficient times j: the series of t x'(t)
    y, z = np.zeros_like(x), np.zeros_like(x)  # z is the series of y' / x'
    a = x[:, 0]
    y[:, 0], z[:, 0] = {
        "exp": (np.exp(a), np.exp(a)),
        "sin": (np.sin(a), np.cos(a)),
        "cos": (np.cos(a), -np.sin(a)),
        "tanh": (np.tanh(a), 1.0 - np.tanh(a) ** 2),
    }[name]
    cofactor = np.zeros_like(x)  # series of z' / x' for sin and cos
    cofactor[:, 0] = -y[:, 0]
    for k in range(1, x.shape[1]):
        y[:, k] = sum(dx[:, j] * z[:, k - j] for j in range(1, k + 1)) / k
        if name == "exp":
            z[:, k] = y[:, k]
        elif name == "tanh":
            z[:, k] = -sum(y[:, i] * y[:, k - i] for i in range(k + 1))
        else:
            z[:, k] = sum(dx[:, j] * cofactor[:, k - j] for j in range(1, k + 1)) / k
            cofactor[:, k] = -y[:, k]
    return y


def _jet(p, x):
    """Series of ``p`` along the input series ``x`` (rows: coordinates)."""
    kind = type(p).__name__
    if kind == "Identity":
        return x.copy()
    if kind == "Constant":
        out = np.zeros((p.dim_out, x.shape[1]))
        out[:, 0] = p.value
        return out
    if kind == "Affine":
        out = p.matrix @ x
        out[:, 0] += p.offset
        return out
    if kind == "ContractionLayer":
        return _layer(p.weights.components, x)
    if kind == "ExtractedDerivative":  # of a polynomial layer only
        return _layer(_layer_derivative(p.inner.weights.components, p.k), x)
    if kind == "Elementwise":
        return _primitive(p.fn.name, x)
    if kind == "Compose":
        return _jet(p.outer, _jet(p.inner, x))
    jets = [_jet(child, x) for child in p.children]
    if kind == "Sum":
        return sum(jets)
    if p.bilinear is None:  # Product
        out = jets[0]
        for j in jets[1:]:
            out = _mul(out, j)
        return out
    a, b = jets
    return (p.bilinear[..., None] * _mul(a[None, :, None], b[None, None, :])).sum(axis=(1, 2))


def _layer(components, x):
    """Series of the polynomial map sum_j w_j . x^(x)j."""
    out = 0
    for j, w in enumerate(components):
        term = np.zeros(w.shape + (x.shape[1],))
        term[..., 0] = w
        for _ in range(j):  # contract the last tensor slot with x
            term = sum(_mul(term[..., i, :], x[i]) for i in range(x.shape[0]))
        out = out + term
    return out


def _layer_derivative(components, k):
    """Weights of x -> D^k W(x), flattened as ``ExtractedDerivative`` flattens it.

    Slots s_1..s_k of w_j taking the directions a_1..a_k, for each ordered
    choice of k distinct slots, move next to the output index.
    """
    out = []
    for j, w in enumerate(components[k:], start=k):
        total = sum(np.moveaxis(w, slots, range(1, k + 1))
                    for slots in itertools.permutations(range(1, j + 1), k))
        out.append(total.reshape((-1,) + w.shape[k + 1:]))
    return out


@st.composite
def cases(draw):
    """A random ``tests/_gen.py`` program, often under a low-degree outer stage."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, mid = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = random_program(rng, d, mid, draw(st.integers(0, 3)))
    outer = draw(st.sampled_from(["none", "affine", "quadratic", "pow3", "exp", "sin"]))
    if outer == "affine":
        p = Compose(Affine(rng.uniform(-0.8, 0.8, (mid, mid)), rng.uniform(-0.5, 0.5, mid)), p)
    elif outer == "quadratic":
        p = Compose(ContractionLayer(random_multitensor(rng, mid, mid, 2)), p)
    elif outer != "none":
        p = Compose(Elementwise(get_primitive(outer), mid), p)
    return p, rng.uniform(-0.6, 0.6, size=d), rng.uniform(-1.0, 1.0, size=d)


@given(cases())
def test_tower_contracted_along_a_ray_matches_the_jet(case):
    p, v, u = case
    tower = derivative_tower(p, v, ORDER).tower
    series = np.zeros((len(v), ORDER + 1))
    series[:, 0], series[:, 1] = v, u
    want = _jet(p, series)
    for j, comp in enumerate(tower.components):
        got = comp
        for _ in range(j):
            got = got @ u
        scale = max(1.0, float(np.max(np.abs(want[:, j]))) * math.factorial(j))
        assert np.max(np.abs(got - math.factorial(j) * want[:, j])) <= 1e-12 * scale


@st.composite
def chains(draw):
    """A pipeline of ``tests/_gen.py`` programs, bilinear products, layers with
    non-symmetric weights and extracted derivatives, first stage first.

    Extracted derivatives of a layer have a series in the jet above; those of
    any other program are checked against ``reverse_chain`` alone.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    v, u = rng.uniform(-0.6, 0.6, size=d), rng.uniform(-1.0, 1.0, size=d)
    stages, dim = [], d
    for kind in draw(st.lists(st.sampled_from(["program", "bilinear", "layer", "deriv",
                                               "deriv_program"]), min_size=1, max_size=4)):
        out = int(rng.integers(1, 4))
        if kind.startswith("deriv") and dim > 3:  # its dense tower has dim_in**(K + k) entries
            kind = "layer"
        if kind == "program":
            stage = random_program(rng, dim, out, int(rng.integers(0, 3)))
        elif kind == "bilinear":
            a = random_program(rng, dim, int(rng.integers(1, 4)), 1)
            b = random_program(rng, dim, int(rng.integers(1, 4)), 1)
            stage = Product((a, b), bilinear=rng.uniform(-1, 1, (out, a.dim_out, b.dim_out)))
        elif kind == "layer":
            stage = ContractionLayer(random_multitensor(rng, out, dim, int(rng.integers(2, 4))))
        elif kind == "deriv":
            k = int(rng.integers(1, 3)) if dim < 3 else 1
            stage = ExtractedDerivative(ContractionLayer(random_multitensor(rng, 1, dim, 3)), k)
        else:
            stage = ExtractedDerivative(random_program(rng, dim, 1, 1), 1)
        stages.append(stage)
        dim = stage.dim_out
    return stages, v, u, draw(st.integers(0, 3))


def _exactly_symmetric(comp):
    slots = range(1, comp.ndim)
    return all(np.array_equal(comp, comp.transpose((0,) + perm))
               for perm in itertools.permutations(slots))


@given(chains())
def test_forward_chain_series_matches_reverse_chain_and_the_jet(case):
    stages, v, u, order = case
    fwd = forward_chain(stages, v, order).tower
    rev = reverse_chain(stages, v, order).tower
    scale = max(1.0, max(float(np.max(np.abs(c))) for c in rev.components))
    assert max_component_gap(fwd, rev) <= 1e-10 * scale
    assert all(_exactly_symmetric(c) for c in fwd.components)
    deeper = forward_chain(stages, v, order + 1).tower
    assert all(np.array_equal(a, b) for a, b in zip(fwd.components, deeper.components))
    if any(type(s) is ExtractedDerivative and type(s.inner) is not ContractionLayer
           for s in stages):
        return
    series = np.zeros((len(v), order + 1))
    series[:, 0] = v
    if order:
        series[:, 1] = u
    for stage in stages:
        series = _jet(stage, series)
    for j, comp in enumerate(fwd.components):
        got = comp
        for _ in range(j):
            got = got @ u
        scale = max(1.0, float(np.max(np.abs(series[:, j]))) * math.factorial(j))
        assert np.max(np.abs(got - math.factorial(j) * series[:, j])) <= 1e-12 * scale
