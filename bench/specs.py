"""Program specs: the benchmark's own description of a program.

A spec is a nested tuple.  The same spec is built into a ``tensorjet``
program for the in-process workloads, rendered as s-expression text for the
CLI, and pushed through the jet oracle, so the oracle never reads a
``tensorjet`` object.  Shared sub-specs (the same tuple object used twice)
build to shared program nodes.

    ("affine", A, b)           ("layer", [w_0, w_1, w_2])   dense weights
    ("elem", name, d)          ("sum", [children])   ("prod", [children])
    ("compose", outer, inner)  ("deriv", inner, k)
    ("net", [(weights, activation name or None), ...])   tensor_network
"""

from __future__ import annotations

import json

import numpy as np


def normal_matrix(rng, rows: int, cols: int, scale: float) -> np.ndarray:
    return np.array([[rng.gauss(0.0, scale) for _ in range(cols)] for _ in range(rows)])


def normal_vector(rng, n: int, scale: float) -> np.ndarray:
    return np.array([rng.gauss(0.0, scale) for _ in range(n)])


def affine(rng, d_out: int, d_in: int, scale: float, offset: float = 0.3):
    return ("affine", normal_matrix(rng, d_out, d_in, scale), normal_vector(rng, d_out, offset))


def quadratic_weights(rng, d_out: int, d_in: int) -> list[np.ndarray]:
    return [
        normal_vector(rng, d_out, 0.2),
        normal_matrix(rng, d_out, d_in, 0.6 / d_in**0.5),
        np.array([normal_matrix(rng, d_in, d_in, 0.3 / d_in) for _ in range(d_out)]),
    ]


def build(spec, tj, memo=None):
    """The ``tensorjet`` program for a spec; ``tj`` is the imported package."""
    if memo is None:
        memo = {}
    key = id(spec)
    if key not in memo:
        memo[key] = (_build(spec, tj, memo), spec)
    return memo[key][0]


def _multitensor(tj, weights):
    d_out = weights[0].shape[0]
    d_in = weights[1].shape[1]
    return tj.MultiTensor(tj.Shape(d_out, d_in, len(weights) - 1), weights)


def _build(spec, tj, memo):
    kind = spec[0]
    if kind == "affine":
        return tj.Affine(spec[1], spec[2])
    if kind == "layer":
        return tj.ContractionLayer(_multitensor(tj, spec[1]))
    if kind == "elem":
        return tj.Elementwise(tj.get_primitive(spec[1]), dim=spec[2])
    if kind == "sum":
        return tj.Sum(tuple(build(c, tj, memo) for c in spec[1]))
    if kind == "prod":
        return tj.Product([build(c, tj, memo) for c in spec[1]])
    if kind == "compose":
        return tj.Compose(build(spec[1], tj, memo), build(spec[2], tj, memo))
    if kind == "deriv":
        return tj.differentiable_derivative(build(spec[1], tj, memo), spec[2])
    if kind == "net":
        return tj.tensor_network(
            [(_multitensor(tj, w), None if act is None else tj.get_primitive(act))
             for w, act in spec[1]]
        )
    raise TypeError(f"unknown spec node {kind!r}")


def _vec(v) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


def _layer(weights) -> str:
    obj = {
        "dim_out": int(weights[0].shape[0]),
        "dim_in": int(weights[1].shape[1]),
        "order": len(weights) - 1,
        "components": [[float(x) for x in w.ravel()] for w in weights],
    }
    return "(layer " + json.dumps(obj) + ")"


def sexpr(spec) -> str:
    """s-expression text of a spec, in the grammar of ``tensorjet.sexpr``."""
    kind = spec[0]
    if kind == "affine":
        return f"(affine [{','.join(_vec(row) for row in spec[1])}] {_vec(spec[2])})"
    if kind == "layer":
        return _layer(spec[1])
    if kind == "elem":
        return f"(elem {spec[1]})"
    if kind in ("sum", "prod"):
        return f"({kind} " + " ".join(sexpr(c) for c in spec[1]) + ")"
    if kind == "compose":
        return f"(compose {sexpr(spec[1])} {sexpr(spec[2])})"
    if kind == "deriv":
        return f"(deriv {sexpr(spec[1])} {spec[2]})"
    raise TypeError(f"cannot render spec node {kind!r}")


def describe(obj) -> bytes:
    """Canonical bytes of a spec or op parameter, for the op-sequence digest."""
    if isinstance(obj, np.ndarray):
        return b"a" + repr(obj.shape).encode() + obj.astype(np.float64).tobytes()
    if isinstance(obj, (list, tuple)):
        return b"(" + b",".join(describe(x) for x in obj) + b")"
    return repr(obj).encode()
