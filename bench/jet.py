"""Independent oracle: truncated-polynomial (jet) arithmetic over program specs.

Shares no code with ``tensorjet``.  A jet is a numpy array whose last two
axes hold the coefficients of a truncated bivariate polynomial in ``t``
(degree <= K) and ``s`` (degree <= S, with S = 0 or 1); leading axes index
vector coordinates.  Pushing the ray ``v + t*u`` through a program spec gives
the coefficients ``[t^j] p(v + t*u)``, and the univariate-Taylor identity of
Griewank, Utke & Walther (Math. Comp. 69, 2000) states

    <tower_j, u^(x)j> = j! * [t^j] p(v + t*u).

The ``s`` variable carries one first-order derivative, which is what the
Jacobian-valued ``deriv`` node needs.
"""

from __future__ import annotations

import math

import numpy as np


def const_jet(values, K: int, S: int = 0) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(values.shape + (K + 1, S + 1))
    out[..., 0, 0] = values
    return out


def ray_jet(v, u, K: int) -> np.ndarray:
    """Jet vector of t -> v + t*u."""
    out = const_jet(v, K)
    if K >= 1:
        out[:, 1, 0] = np.asarray(u, dtype=np.float64)
    return out


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Truncated product of (broadcast) jets."""
    K1, S1 = x.shape[-2:]
    shape = np.broadcast_shapes(x.shape, y.shape)
    out = np.zeros(shape)
    for i in range(K1):
        for a in range(S1):
            xi = x[..., i, a, None, None]
            if not np.any(xi):
                continue
            out[..., i:, a:] += xi * y[..., : K1 - i, : S1 - a]
    return out


def _taylor_coeffs(name: str, x0: float, M: int) -> list[float]:
    """c_m = f^(m)(x0) / m! for m = 0..M, from each function's own closed form."""
    if name == "exp":
        e = math.exp(x0)
        return [e / math.factorial(m) for m in range(M + 1)]
    if name in ("sin", "cos"):
        cyc = [math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)]
        shift = 0 if name == "sin" else 1
        return [cyc[(m + shift) % 4] / math.factorial(m) for m in range(M + 1)]
    if name == "tanh":
        # y' = 1 - y^2, solved coefficient by coefficient
        y = [math.tanh(x0)]
        for n in range(M):
            conv = sum(y[i] * y[n - i] for i in range(n + 1))
            y.append(((1.0 if n == 0 else 0.0) - conv) / (n + 1))
        return y
    if name.startswith("pow"):
        n = int(name[3:])
        return [math.comb(n, m) * x0 ** (n - m) if m <= n else 0.0 for m in range(M + 1)]
    raise KeyError(name)


def apply_fn(name: str, x: np.ndarray) -> np.ndarray:
    """f applied coordinatewise to a jet vector: sum_m c_m (x - x0)^m, Horner form."""
    K1, S1 = x.shape[-2:]
    M = (K1 - 1) + (S1 - 1)
    delta = x.copy()
    delta[..., 0, 0] = 0.0
    coeffs = np.array([_taylor_coeffs(name, float(x0), M) for x0 in x[..., 0, 0].ravel()])
    coeffs = coeffs.reshape(x.shape[:-2] + (M + 1,))
    acc = const_jet(coeffs[..., M], K1 - 1, S1 - 1)
    for m in range(M - 1, -1, -1):
        acc = mul(acc, delta)
        acc[..., 0, 0] += coeffs[..., m]
    return acc


def contract_poly(components, x: np.ndarray) -> np.ndarray:
    """sum_j w_j . x^(x)j for dense weights w_j of shape (d_out,) + (d_in,)*j."""
    K1, S1 = x.shape[-2:]
    total = None
    for w in components:
        term = const_jet(w, K1 - 1, S1 - 1)
        for _ in range(w.ndim - 1):
            # eat the last slot: term[..., a, :, :] * x[a], summed over a
            term = mul(term, x).sum(axis=-3)
        total = term if total is None else total + term
    return total


def evaluate_jet(spec, x: np.ndarray, memo=None) -> np.ndarray:
    """Push the jet vector ``x`` through a program spec (see ``specs``)."""
    if memo is None:
        memo = {}
    key = (id(spec), id(x))
    if key in memo:
        return memo[key][0]
    out = _eval_node(spec, x, memo)
    memo[key] = (out, x)  # keep x alive so its id stays unique
    return out


def _eval_node(spec, x, memo):
    kind = spec[0]
    K1, S1 = x.shape[-2:]
    if kind == "affine":
        _, A, b = spec
        out = np.tensordot(A, x, axes=([1], [0]))
        out[..., 0, 0] += b
        return out
    if kind == "layer":
        return contract_poly(spec[1], x)
    if kind == "elem":
        return apply_fn(spec[1], x)
    if kind == "sum":
        out = evaluate_jet(spec[1][0], x, memo)
        for child in spec[1][1:]:
            out = out + evaluate_jet(child, x, memo)
        return out
    if kind == "prod":
        out = evaluate_jet(spec[1][0], x, memo)
        for child in spec[1][1:]:
            out = mul(out, evaluate_jet(child, x, memo))
        return out
    if kind == "compose":
        return evaluate_jet(spec[1], evaluate_jet(spec[2], x, memo), memo)
    if kind == "net":
        out = x
        for weights, act in spec[1]:
            out = contract_poly(weights, out)
            if act is not None:
                out = apply_fn(act, out)
        return out
    if kind == "deriv":
        if spec[2] != 1 or S1 != 1:
            raise NotImplementedError("the oracle handles one first-order deriv node")
        d_in = x.shape[0]
        cols = []
        for a in range(d_in):
            xs = np.zeros(x.shape[:-1] + (2,))
            xs[..., 0] = x[..., 0]
            xs[a, 0, 1] = 1.0
            cols.append(evaluate_jet(spec[1], xs, memo)[..., 1])  # s^1 part
        jac = np.stack(cols, axis=1)  # (d_out, d_in, K+1)
        return jac.reshape(-1, K1)[..., None]
    raise TypeError(f"unknown spec node {kind!r}")


def ray_coefficients(spec, v, u, K: int) -> np.ndarray:
    """Rows c_j = [t^j] p(v + t*u), shape (K+1, d_out)."""
    return evaluate_jet(spec, ray_jet(v, u, K))[..., 0].T.copy()


def value(spec, v) -> np.ndarray:
    """Plain evaluation p(v) through the same interpreter (K = 0)."""
    return evaluate_jet(spec, const_jet(v, 0))[:, 0, 0].copy()
