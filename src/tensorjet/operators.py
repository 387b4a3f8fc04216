"""Operator layer: Taylor shift, tower composition, AD chaining, order reduction.

``taylor_series`` turns a program into its truncated tensor series at a
point: the derivative tower with component n scaled by 1/n!, so that
evaluating the series at step ``h`` and direction ``v`` approximates the
program at the shifted argument ``v0 + h*v``.

``compose_towers`` combines the derivative towers of two programs into the
tower of their composition by polynomial substitution in the truncated
polynomial ring, one packed entry per multi-index, so the result is exactly
symmetric.  The DAG walk calls it for a ``Compose`` node whose outer stage is
not elementwise, and ``reverse_chain`` folds it over a pipeline from the last
stage.  ``forward_chain`` builds no stage tower: it pushes one packed series
in dim_in variables, the pipeline's running truncated Taylor polynomial,
through the stages by the walk's jet rules and expands it once.  Both
directions produce the tower of the full composite.

``order_reduce`` reinterprets a tower one order down, turning the derivative
itself into a program value: the first tensor slot of each component is
fused into the output index, so component j+1 of the original becomes
component j of the derivative program's tower.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multitensor import (
    MultiTensor,
    Shape,
    _nest_plan,
    _pack,
    _substitute,
    _unpack,
    eval_polynomial,
    truncate,
)
from .multitensor import _symmetrize_component  # noqa: F401  a site of bench/spans.py REQUIRED_SITES
from .program import DerivativeTower, Program, _tower_input, _walk, derivative_tower

_BASE_TOL = 1e-9  # relative tolerance on the base point shared by composed towers


@dataclass(frozen=True)
class TensorSeries:
    """Truncated tensor series of a program at a base point.

    ``tower`` holds the coefficients: component n is the order-n derivative
    divided by n!, so the series in a formal step h reads
    sum_n h^n * component_n . v^(x)n.
    """

    base_point: np.ndarray
    tower: MultiTensor

    def __post_init__(self):
        bp = np.array(self.base_point, dtype=np.float64)
        bp.flags.writeable = False
        object.__setattr__(self, "base_point", bp)

    @property
    def order(self) -> int:
        return self.tower.order


def taylor_series(program: Program, v0, order: int) -> TensorSeries:
    """Expand a program around ``v0``: derivative tower rescaled to series coefficients."""
    t = derivative_tower(program, v0, order)
    comps = [c / math.factorial(j) for j, c in enumerate(t.tower.components)]
    return TensorSeries(base_point=t.at, tower=MultiTensor(t.tower.shape, comps))


def series_eval(series: TensorSeries, h: float, v) -> np.ndarray:
    """Evaluate the truncated series at step ``h`` and direction ``v``.

    Approximates the program at ``base_point + h*v``; exact when the program
    is a polynomial of degree <= the truncation order.
    """
    comps = [c * h**n for n, c in enumerate(series.tower.components)]
    return eval_polynomial(MultiTensor(series.tower.shape, comps), v)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All integer partitions of n as non-increasing tuples, descending lexicographic."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(_gen_partitions(n, n))


def _gen_partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_weight(partition: tuple[int, ...]) -> int:
    """Number of ways to split n ordered slots into blocks of these sizes.

    Equals n! / (prod over distinct part sizes l with multiplicity m of
    (l!)^m * m!); always an integer.
    """
    n = sum(partition)
    denom = 1
    for part, mult in Counter(partition).items():
        denom *= math.factorial(part) ** mult * math.factorial(mult)
    return math.factorial(n) // denom


def compose_towers(outer: DerivativeTower, inner: DerivativeTower) -> DerivativeTower:
    """Derivative tower of ``outer . inner`` from the two factors' towers.

    ``outer`` must have been expanded at the value of ``inner`` (to a relative
    ``_BASE_TOL``) and both towers must share the truncation order.  Both are
    read packed, one entry per slot orbit (every :func:`derivative_tower` is
    exactly symmetric), and substituted: the sum over multi-indices alpha of
    d^alpha outer / alpha! * delta^alpha, delta the inner tower less its value.
    """
    if outer.order != inner.order:
        raise ValueError(
            f"tower orders differ: outer {outer.order}, inner {inner.order}"
        )
    mid = inner.value
    scale_ref = max(1.0, float(np.abs(mid).max()))
    if outer.at.shape != mid.shape or np.abs(outer.at - mid).max() > _BASE_TOL * scale_ref:
        raise ValueError(
            "base point mismatch: outer tower expanded at "
            f"{outer.at}, inner evaluates to {mid}"
        )
    k, d_in = inner.order, inner.tower.dim_in
    packed = _substitute(_pack(outer.tower.components, outer.tower.dim_in),
                         _pack(inner.tower.components, d_in), d_in, k)
    return DerivativeTower(at=inner.at, tower=_unpack(packed, d_in, k))


def forward_chain(programs, v0, order: int) -> DerivativeTower:
    """Tower of the composite pipeline, accumulated first-to-last.

    ``programs[0]`` runs first.  One packed series in dim_in variables, the
    identity at ``v0`` in series scaling, is pushed through each stage by
    the jet rules of the DAG walk: the running series is the prefix's
    truncated Taylor polynomial.  Its coefficients are scaled by alpha! and
    unpacked to a dense tower once, at the end.
    """
    programs = list(programs)
    _check_chain(programs)
    v0 = _tower_input(programs[0], v0, order)
    d = v0.size
    n, k = (d, order) if order else (1, 1)  # order 0 walks two columns, as ``jet`` does
    series = np.zeros((d, math.comb(n + k, k)))
    series[:, 0] = v0
    if order:
        series[:, 1:d + 1] = np.eye(d)
    for stage in programs:
        series = _walk(stage, series, (n, k))
    width = math.comb(d + order, order)
    return DerivativeTower(at=v0, tower=_unpack(
        series[:, :width] * _nest_plan(d, order)[1], d, order))


def reverse_chain(programs, v0, order: int) -> DerivativeTower:
    """Tower of the composite pipeline, accumulated last-to-first.

    Runs one forward value pass to collect intermediate points, then folds
    suffix towers backwards.  Agrees with :func:`forward_chain`.
    """
    from .program import evaluate

    programs = list(programs)
    _check_chain(programs)
    points = [np.asarray(v0, dtype=np.float64)]
    for stage in programs[:-1]:
        points.append(evaluate(stage, points[-1]))
    acc = derivative_tower(programs[-1], points[-1], order)
    for stage, at in zip(reversed(programs[:-1]), reversed(points[:-1])):
        inner = derivative_tower(stage, at, order)
        acc = compose_towers(acc, inner)
    return acc


def _check_chain(programs):
    if not programs:
        raise ValueError("chain must contain at least one program")
    for left, right in zip(programs, programs[1:]):
        if left.dim_out != right.dim_in:
            raise ValueError(
                f"chain mismatch: stage yields dim {left.dim_out}, "
                f"next expects dim {right.dim_in}"
            )


def order_reduce(t: DerivativeTower) -> DerivativeTower:
    """Shift a tower one order down, viewing the derivative as the program.

    Component j of the result is component j+1 of the input with the first
    tensor slot fused into the output index (C-order flattening), so the
    result is the tower, one order shallower, of the program
    ``v -> derivative(v)`` with values in a ``dim_out*dim_in``-vector.
    """
    if t.order < 1:
        raise ValueError("cannot reduce an order-0 tower")
    d_out = t.tower.dim_out
    d_in = t.tower.dim_in
    comps = [
        t.tower.components[j + 1].reshape((d_out * d_in,) + (d_in,) * j)
        for j in range(t.order)
    ]
    tower = MultiTensor(Shape(d_out * d_in, d_in, t.order - 1), comps)
    return DerivativeTower(at=t.at, tower=tower)


def differentiable_derivative(program: Program, k: int) -> Program:
    """The k-th derivative of ``program`` as a differentiable program.

    The returned program evaluates to the order-k derivative tensor
    flattened to a vector; its own towers to order n are computed from
    towers of ``program`` at order n + k, reduced k times.
    """
    from .program import ExtractedDerivative

    return ExtractedDerivative(program, k)


def reduction_commutes(t_deep: DerivativeTower, t_shallow: DerivativeTower) -> bool:
    """Exact check that order reduction commutes with adding a derivative order.

    ``t_deep`` and ``t_shallow`` are towers of the same program at the same
    point with ``t_deep.order == t_shallow.order + 1``.  Reducing the deeper
    tower and truncating must equal reducing the shallower one, component by
    component, with no tolerance.
    """
    if t_deep.order != t_shallow.order + 1:
        raise ValueError("need towers at consecutive orders")
    left = truncate(order_reduce(t_deep).tower, t_shallow.order - 1)
    right = order_reduce(t_shallow).tower
    return all(
        np.array_equal(a, b) for a, b in zip(left.components, right.components)
    )
