"""Operator layer: Taylor shift, tower composition, AD chaining, order reduction.

``taylor_series`` turns a program into its truncated tensor series at a
point: the derivative tower with component n scaled by 1/n!, so that
evaluating the series at step ``h`` and direction ``v`` approximates the
program at the shifted argument ``v0 + h*v``.

``compose_towers`` combines the derivative towers of two programs into the
tower of their composition, summing one contraction term per integer
partition (the higher-order chain rule).  A factor of finite degree, such as
an affine map or a polynomial layer, has exactly zero components above that
degree, so only the partitions that read none of them are evaluated: no more
parts than the outer degree and no part above the inner degree.  Each
skipped term is zero, so on finite towers the sum keeps the bits of the full
partition loop.  ``forward_chain``/``reverse_chain``
fold that combination over a pipeline of programs from either end; both
directions produce the tower of the full composite.

These operators work on dense towers given by the caller.  Inside the DAG
walk towers are packed (see :mod:`tensorjet.program`), and an elementwise
stage is composed by truncated Horner there; the partition loop serves
``compose_towers`` alone, which the walk calls for a ``Compose`` node whose
outer stage is not elementwise.

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
    eval_polynomial,
    truncate,
)
from .multitensor import _symmetrize_component
from .program import DerivativeTower, Program, derivative_tower

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
    ``_BASE_TOL``) and both towers must share the truncation order.  Component
    n of the result sums, over the integer partitions of n, the derivative of
    ``outer`` of order "number of parts" contracted against one ``inner``
    derivative per part, weighted by the partition's slot count; the result
    is symmetrized order by order.  Only the partitions whose factors can be
    nonzero are evaluated (see :func:`_chain_rule`), so an affine or
    polynomial factor costs no contraction with its zero components.
    """
    if outer.order != inner.order:
        raise ValueError(
            f"tower orders differ: outer {outer.order}, inner {inner.order}"
        )
    mid = inner.value
    scale_ref = max(1.0, float(np.max(np.abs(mid))))
    if outer.at.shape != mid.shape or np.max(np.abs(outer.at - mid)) > _BASE_TOL * scale_ref:
        raise ValueError(
            "base point mismatch: outer tower expanded at "
            f"{outer.at}, inner evaluates to {mid}"
        )
    f = outer.tower.components
    g = inner.tower.components

    def term(lam):
        t = f[len(lam)]
        for part in lam:
            t = np.tensordot(t, g[part], axes=([1], [0]))
        return t

    tower = _chain_rule(f[0], inner.tower, term, _degree(f), _degree(g))
    return DerivativeTower(at=inner.at, tower=tower)


def _degree(components) -> int:
    """Index of the last component with a nonzero (or NaN) entry; 0 if none.

    Scans down from the top, so a tower whose last component is nonzero
    costs one ``any``.  Every component above the degree is exactly zero.
    """
    for j in range(len(components) - 1, 0, -1):
        if components[j].any():
            return j
    return 0


@lru_cache(maxsize=None)
def _live_terms(n: int, outer_degree: int, inner_degree: int):
    """``(partition, weight)`` of the partitions of n whose factors can be nonzero.

    A partition with more parts than ``outer_degree`` reads a zero outer
    derivative, and one with a part larger than ``inner_degree`` a zero inner
    component, so its term is zero.
    """
    return tuple(
        (lam, partition_weight(lam))
        for lam in partitions(n)
        if lam[0] <= inner_degree and len(lam) <= outer_degree
    )


def _chain_rule(
    value: np.ndarray, inner: MultiTensor, term, outer_degree: int, inner_degree: int
) -> MultiTensor:
    """Tower over ``inner``'s input and order: ``value``, then partition sums.

    Component n sums ``partition_weight(lam) * term(lam)`` over the integer
    partitions of n and is symmetrized.  With one slot (n = 1) or one input
    dimension there is only one ordering of the slots, so the sum is
    symmetric as it stands and is kept as it is.

    ``outer_degree`` and ``inner_degree`` are the factors' :func:`_degree`;
    the partitions they rule out (see :func:`_live_terms`) are not evaluated.
    The result is bitwise the full sum wherever that sum is finite: a skipped
    term is then all +0 or -0, and the accumulator, which starts at +0 and
    never becomes -0, is unchanged by adding either.
    """
    d_out, d_in, k = value.shape[0], inner.dim_in, inner.order
    comps = [value]
    for n in range(1, k + 1):
        acc = np.zeros((d_out,) + (d_in,) * n)
        for lam, weight in _live_terms(n, outer_degree, inner_degree):
            acc += term(lam) if weight == 1 else weight * term(lam)
        comps.append(acc if n < 2 or d_in == 1 else _symmetrize_component(acc))
    return MultiTensor(Shape(d_out, d_in, k), comps)


def forward_chain(programs, v0, order: int) -> DerivativeTower:
    """Tower of the composite pipeline, accumulated first-to-last.

    ``programs[0]`` runs first.  At every step the running tower of the
    prefix is pushed through the next stage.
    """
    programs = list(programs)
    _check_chain(programs)
    acc = derivative_tower(programs[0], v0, order)
    for stage in programs[1:]:
        outer = derivative_tower(stage, acc.value, order)
        acc = compose_towers(outer, acc)
    return acc


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
