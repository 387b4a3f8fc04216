"""Operator layer: Taylor shift, tower composition, AD chaining, order reduction.

``taylor_series`` turns a program into its truncated tensor series at a
point: the derivative tower with component n scaled by 1/n!, so that
evaluating the series at step ``h`` and direction ``v`` approximates the
program at the shifted argument ``v0 + h*v``.  It unpacks the walk's packed
tower once, in series scaling.

``compose_towers`` combines the derivative towers of two programs into the
tower of their composition by polynomial substitution in the truncated
polynomial ring, one packed entry per multi-index, so the result is exactly
symmetric.  It reads both towers packed and returns its result packed; a
``DerivativeTower`` builds either form once, when first asked.  The DAG walk
calls it on its own packed towers for a ``Compose`` node whose outer stage
is not elementwise, so that node converts nothing.  ``reverse_chain`` walks
each stage's packed tower once, first to last, at the value of the tower
before it (a tower's value is ``evaluate``'s, bit for bit), then folds them
from the last stage by the same substitution, with no dense tower in
between; ``compose_towers`` is its last junction, with the first stage's
tower, and the result is expanded to dense once.
``forward_chain`` builds no stage tower: it pushes one packed series in
dim_in variables, the pipeline's running truncated Taylor polynomial,
through the stages by the walk's jet rules and expands it once.  Both
directions produce the tower of the full composite.

``order_reduce`` reinterprets a tower one order down, turning the derivative
itself into a program value: the first tensor slot of each component is
fused into the output index, so component j+1 of the original becomes
component j of the derivative program's tower.  Like ``compose_towers`` it
reads the packed tower and returns its result packed: one gather through
``multitensor._successors``, with no dense component in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multitensor import (
    MultiTensor,
    _nest_plan,
    _substitute,
    _successors,
    _unpack,
    eval_polynomial,
)
from .multitensor import _symmetrize_component  # noqa: F401  a site of bench/spans.py REQUIRED_SITES
from .program import DerivativeTower, Program, _linear_series, _tower_input, _walk
from .program import derivative_tower  # noqa: F401  a site of bench/spans.py REQUIRED_SITES

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
    v0 = _tower_input(program, v0, order)
    return TensorSeries(base_point=v0, tower=_unpack(
        _walk(program, v0, order), program.dim_in, order, series=True))


def series_eval(series: TensorSeries, h: float, v) -> np.ndarray:
    """Evaluate the truncated series at step ``h`` and direction ``v``.

    Approximates the program at ``base_point + h*v``; exact when the program
    is a polynomial of degree <= the truncation order.
    """
    comps = [c * h**n for n, c in enumerate(series.tower.components)]
    return eval_polynomial(MultiTensor(series.tower.shape, comps), v)


def compose_towers(outer: DerivativeTower, inner: DerivativeTower) -> DerivativeTower:
    """Derivative tower of ``outer . inner`` from the two factors' towers.

    ``outer`` must have been expanded at the value of ``inner`` (to a relative
    ``_BASE_TOL``) and both towers must share the truncation order.  Both are
    read packed, one entry per slot orbit (every :func:`derivative_tower` is
    exactly symmetric; a tower built from dense components is packed once),
    and substituted: the sum over multi-indices alpha of d^alpha outer /
    alpha! * delta^alpha, delta the inner tower less its value.  The result's
    value is the outer tower's; it is held packed, and its dense form is
    built on the first read of ``tower``, ``value`` or ``component``.
    """
    if outer.order != inner.order:
        raise ValueError(
            f"tower orders differ: outer {outer.order}, inner {inner.order}"
        )
    k, g = inner.order, inner._packed()
    mid = g[:, 0]
    scale_ref = max(1.0, float(np.abs(mid).max()))
    if outer.at.shape != mid.shape or np.abs(outer.at - mid).max() > _BASE_TOL * scale_ref:
        raise ValueError(
            "base point mismatch: outer tower expanded at "
            f"{outer.at}, inner evaluates to {mid}"
        )
    return DerivativeTower._from_packed(
        inner.at, _substitute(outer._packed(), g, inner.at.size, k), k)


def forward_chain(programs, v0, order: int) -> DerivativeTower:
    """Tower of the composite pipeline, accumulated first-to-last.

    ``programs[0]`` runs first.  One packed series in dim_in variables, the
    identity at ``v0`` in series scaling, is pushed through each stage by
    the jet rules of the DAG walk: the running series is the prefix's
    truncated Taylor polynomial, and its column 0 the prefix's value, with
    the bits of :func:`reverse_chain`'s.  Its coefficients are scaled by
    alpha! and unpacked to a dense tower once, at the end.
    """
    programs = list(programs)
    _check_chain(programs)
    v0 = _tower_input(programs[0], v0, order)
    d = v0.size
    series = _linear_series(v0, np.eye(d), d, order)
    for stage in programs:
        series = _walk(stage, series, (d, order))
    return DerivativeTower(at=v0, tower=_unpack(series * _nest_plan(d, order)[1], d, order))


def reverse_chain(programs, v0, order: int) -> DerivativeTower:
    """Tower of the composite pipeline, accumulated last-to-first.

    Walks each stage's packed tower once, first to last, at the value of the
    tower before it, then folds the towers backwards, each substituted into
    the running suffix tower at the base point it was walked at.  The last
    junction, with the first stage's tower at ``v0``, is
    :func:`compose_towers` on the packed towers; its result is expanded to
    dense once, before it is returned.  Agrees with :func:`forward_chain`.
    """
    programs = list(programs)
    _check_chain(programs)
    v0 = _tower_input(programs[0], v0, order)
    towers = [_walk(programs[0], v0, order)]
    for stage in programs[1:]:
        towers.append(_walk(stage, towers[-1][:, 0].copy(), order))
    out = DerivativeTower._from_packed(v0, towers[0], order)
    if len(towers) > 1:
        acc = towers[-1]
        for stage, inner in zip(programs[-2:0:-1], towers[-2:0:-1]):
            acc = _substitute(acc, inner, stage.dim_in, order)
        out = compose_towers(DerivativeTower._from_packed(towers[0][:, 0], acc, order), out)
    out.tower  # the dense form is built here, as every entry point returns it
    return out


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
    ``v -> derivative(v)`` with values in a ``dim_out*dim_in``-vector.  It is
    one gather of the packed tower: entry beta of output ``i*dim_in + a`` is
    the input's entry beta + e_a of output i.  The result is held packed.
    """
    if t.order < 1:
        raise ValueError("cannot reduce an order-0 tower")
    d, packed = t.at.size, t._packed()
    out = packed.take(_successors(d, t.order - 1).T, axis=1)
    return DerivativeTower._from_packed(t.at, out.reshape(-1, out.shape[-1]), t.order - 1)


def differentiable_derivative(program: Program, k: int) -> Program:
    """The k-th derivative of ``program`` as a differentiable program.

    The returned program evaluates to the order-k derivative tensor
    flattened to a vector; its own towers to order n are computed from
    towers of ``program`` at order n + k, reduced k times.
    """
    from .program import ExtractedDerivative

    return ExtractedDerivative(program, k)

