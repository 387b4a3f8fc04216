"""Shared test helpers: seeded random programs and finite-difference oracles."""

from __future__ import annotations

import numpy as np

from tensorjet import (
    Affine,
    Compose,
    Constant,
    ContractionLayer,
    Elementwise,
    Identity,
    MultiTensor,
    Product,
    Shape,
    Sum,
    evaluate,
    get_primitive,
)

SAFE_PRIMS = ("sin", "cos", "tanh")


def random_multitensor(rng, dim_out, dim_in, order, magnitude=0.6) -> MultiTensor:
    comps = [
        magnitude * rng.uniform(-1.0, 1.0, size=(dim_out,) + (dim_in,) * j) / (j + 1)
        for j in range(order + 1)
    ]
    return MultiTensor(Shape(dim_out, dim_in, order), comps)


def random_leaf(rng, dim_in, dim_out):
    roll = rng.random()
    if roll < 0.45:
        return Affine(
            rng.uniform(-0.8, 0.8, size=(dim_out, dim_in)),
            rng.uniform(-0.5, 0.5, size=dim_out),
        )
    if roll < 0.8:
        return ContractionLayer(
            random_multitensor(rng, dim_out, dim_in, int(rng.integers(1, 3)))
        )
    if dim_in == dim_out and roll < 0.9:
        return Identity(dim_in)
    return Constant(tuple(rng.uniform(-0.5, 0.5, size=dim_out)), input_dim=dim_in)


def random_program(rng, dim_in, dim_out, depth):
    """Random DAG of depth <= ``depth`` with tame magnitudes (FD-friendly)."""
    if depth <= 0:
        return random_leaf(rng, dim_in, dim_out)
    kind = rng.choice(["leaf", "sum", "product", "compose", "elem"])
    if kind == "leaf":
        return random_leaf(rng, dim_in, dim_out)
    if kind == "sum":
        return Sum(
            (
                random_program(rng, dim_in, dim_out, depth - 1),
                random_program(rng, dim_in, dim_out, depth - 1),
            )
        )
    if kind == "product":
        return Product(
            (
                random_program(rng, dim_in, dim_out, depth - 1),
                random_program(rng, dim_in, dim_out, depth - 1),
            )
        )
    if kind == "compose":
        mid = int(rng.integers(1, 4))
        return Compose(
            random_program(rng, mid, dim_out, depth - 1),
            random_program(rng, dim_in, mid, depth - 1),
        )
    prim = get_primitive(str(rng.choice(SAFE_PRIMS)))
    return Compose(
        Elementwise(prim, dim=dim_out), random_program(rng, dim_in, dim_out, depth - 1)
    )


def random_bilinear_product(rng, dim_in, depth=2):
    """Two random children combined by a random explicit bilinear map."""
    a = random_program(rng, dim_in, int(rng.integers(1, 4)), depth)
    b = random_program(rng, dim_in, int(rng.integers(1, 4)), depth)
    bilinear = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), a.dim_out, b.dim_out))
    return Product((a, b), bilinear=bilinear)


def random_chain(rng, length, dim_in, dim_out, depth=1):
    """Composable pipeline of ``length`` random stages; first stage runs first."""
    dims = [dim_in] + [int(rng.integers(1, 4)) for _ in range(length - 1)] + [dim_out]
    return [
        random_program(rng, dims[i], dims[i + 1], depth) for i in range(length)
    ]


def fd_jacobian(program, v, h=1e-5) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    cols = []
    for i in range(len(v)):
        e = np.zeros_like(v)
        e[i] = h
        cols.append((evaluate(program, v + e) - evaluate(program, v - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(program, v, h=1e-3) -> np.ndarray:
    """Second derivatives by the 4-point central stencil; shape (out, in, in)."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    out = np.empty((program.dim_out, n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros_like(v)
            ej = np.zeros_like(v)
            ei[i] = h
            ej[j] = h
            out[:, i, j] = (
                evaluate(program, v + ei + ej)
                - evaluate(program, v + ei - ej)
                - evaluate(program, v - ei + ej)
                + evaluate(program, v - ei - ej)
            ) / (4 * h * h)
    return out


def rel_gap(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def max_component_gap(a: MultiTensor, b: MultiTensor) -> float:
    return max(
        float(np.max(np.abs(x - y))) for x, y in zip(a.components, b.components)
    )


def loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])
