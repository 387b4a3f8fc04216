"""Programs as expression DAGs over analytic primitives, and their derivative towers.

A ``Program`` is a DAG of node types (identity, constants, affine
maps, polynomial contraction layers, elementwise analytic functions, sums,
bilinear products, compositions, extracted derivatives) denoting a map
between real vector spaces.  ``evaluate`` runs it; ``derivative_tower``
returns the value *and* all derivative tensors up to a requested order at a
point, packed into one :class:`~tensorjet.multitensor.MultiTensor`.

Towers are propagated forward through the DAG: every node combines its
children's towers using only its own local derivative rule (closed forms for
affine/polynomial layers, per-order derivative sequences for elementwise
primitives, a Leibniz product expansion, truncated Horner for an elementwise
stage and polynomial substitution for any other), so requesting a higher
order never changes the lower-order components.  Inside the walk a tower is
packed: a symmetric tower stores each slot orbit once, as the derivative
d^alpha for each multi-index alpha of degree <= order (the truncated
polynomial ring; Neidinger, Math. Comp. 74, 2005), so every tower is exactly
symmetric by construction.  ``derivative_tower`` unpacks the root's tower to
dense components once, at the end; product, polynomial-layer and
extracted-derivative nodes, and compositions whose outer stage is not
elementwise, apply the dense operators of ``multitensor`` and ``operators``
and convert at their boundary.

A jet pushes a truncated Taylor series through the DAG instead (Griewank,
Utke & Walther, Math. Comp. 69, 2000; Bettencourt, Johnson & Duvenaud,
2019).  A jet in n variables is the same truncated polynomial ring in
t = (t_1..t_n): the packed tower of t -> x(t) in series scaling, one
``(dim, C(n+K, K))`` array of Taylor coefficients per node, so its products
have unit weights.  ``jet`` is the case n = 1: given the coefficients of an
input curve x(t) truncated at t^K, it returns those of p(x(t)); along the
ray x(t) = v + t*u, coefficient j is <tower_j, u^(x)j> / j!.
``operators.forward_chain`` pushes the identity series at a point, n =
dim_in, through a pipeline.  The nonlinear jet rules are the tower kernels
in n variables (truncated Horner, polynomial substitution and the product
``_mul``), and a layer contracts its own weights one slot at a time, with no
dense d^j tensors.  Those kernels never read an entry above the one they
produce, so a deeper jet leaves the lower coefficients bitwise unchanged.

So every node type has three local rules: its value, its derivative tower,
and its jet.  Where a rule only adds or passes results on (identity, sum,
composition) the value rule serves jets too.

Each node type is one slotted class whose constructor checks its arguments,
sets the node's ``signature`` and ``children`` and adds one to each child's
``uses``, its count of parent edges; nodes are immutable apart from that
count.  Nodes compare and hash by identity and ``repr`` shows type and
dimensions only, so none of these walk the DAG; ``structurally_equal``
compares two programs node by node.

All three entry points run one walk over the DAG with an explicit stack, so
there is no limit on its depth beyond memory.  A subprogram with more than
one parent is computed once per call for each point and order it is needed
at; when it fails, the error names the path by which the walk first reached
it.  Building programs on shared nodes from several threads at once may lose
an increment of ``uses``, which costs a recomputation, never a wrong result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import GeneratorType
from typing import Callable

import numpy as np

from .multitensor import (
    MultiTensor,
    ShapeMismatchError,
    _column_factorials,
    _component,
    _horner_steps,
    _mul,
    _pack,
    _pure_index,
    _substitute,
    _times,
    _unpack,
    algebra_product,
    eval_polynomial,
    symmetrize,
)


class DomainEvalError(ValueError):
    """A primitive was evaluated outside its domain; message carries the node path."""


@dataclass(frozen=True)
class ProgramSignature:
    dim_in: int
    dim_out: int

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")


@dataclass(frozen=True)
class Primitive:
    """Elementwise analytic scalar function with derivatives of every order.

    ``deriv_seq(j, x)`` returns the j-th derivative at x; order 0 is the
    function value.  It must be defined for all j >= 0.
    """

    name: str
    deriv_seq: Callable[[int, float], float] = field(compare=False)

    def __repr__(self):
        return f"Primitive({self.name})"


class Program:
    """Base class for DAG nodes.  Immutable apart from ``uses``; evaluation is pure.

    ``children`` are the nodes this one reads, in the order the walk, the
    printer and ``structurally_equal`` visit them.  ``signature`` is set at
    construction, so reading ``dim_in``/``dim_out`` never walks the subtree.
    ``uses`` counts the parent edges built on this node so far; a subclass
    constructor calls this one last, after its checks, so a node that fails
    to build counts nothing on its children.
    """

    __slots__ = ("signature", "children", "uses")

    def __init__(self, dim_in: int, dim_out: int, children: tuple = ()):
        self.signature = ProgramSignature(dim_in, dim_out)
        self.children = children
        self.uses = 0
        for child in children:
            child.uses += 1

    @property
    def dim_in(self) -> int:
        return self.signature.dim_in

    @property
    def dim_out(self) -> int:
        return self.signature.dim_out

    def __repr__(self):
        return f"{type(self).__name__}({self.dim_in}->{self.dim_out})"


class Identity(Program):
    __slots__ = ("dim",)

    def __init__(self, dim: int = 1):
        self.dim = dim
        super().__init__(dim, dim)


class Constant(Program):
    """v -> value, for inputs of dimension ``input_dim``."""

    __slots__ = ("value",)

    def __init__(self, value, input_dim: int = 1):
        self.value = tuple(float(x) for x in value)
        super().__init__(input_dim, len(self.value))


class Affine(Program):
    """v -> A v + b."""

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix, offset):
        matrix = np.array(matrix, dtype=np.float64)
        offset = np.array(offset, dtype=np.float64)
        if matrix.ndim != 2:
            raise ShapeMismatchError(f"affine matrix must be 2-d, got {matrix.shape}")
        if offset.shape != (matrix.shape[0],):
            raise ShapeMismatchError(
                f"affine offset shape {offset.shape} does not match matrix {matrix.shape}"
            )
        matrix.flags.writeable = False
        offset.flags.writeable = False
        self.matrix = matrix
        self.offset = offset
        super().__init__(matrix.shape[1], matrix.shape[0])


class ContractionLayer(Program):
    """Polynomial map given by a stored multi-tensor: v -> W(v)."""

    __slots__ = ("weights",)

    def __init__(self, weights: MultiTensor):
        self.weights = weights
        super().__init__(weights.dim_in, weights.dim_out)


class Elementwise(Program):
    __slots__ = ("fn", "dim")

    def __init__(self, fn: Primitive, dim: int = 1):
        self.fn = fn
        self.dim = dim
        super().__init__(dim, dim)


class Sum(Program):
    __slots__ = ()

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Sum needs at least two children")
        sig = children[0].signature
        for child in children[1:]:
            if child.signature != sig:
                raise ShapeMismatchError(
                    f"Sum children disagree: {sig} vs {child.signature}"
                )
        super().__init__(sig.dim_in, sig.dim_out, children)


class Product(Program):
    """Pointwise bilinear combination of children, componentwise by default."""

    __slots__ = ("bilinear",)

    def __init__(self, children, bilinear: np.ndarray | None = None):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Product needs at least two children")
        dim_in, dim_out = children[0].dim_in, children[0].dim_out
        if any(child.dim_in != dim_in for child in children):
            raise ShapeMismatchError("Product children must share the input dim")
        if bilinear is None:
            if any(child.dim_out != dim_out for child in children):
                raise ShapeMismatchError("componentwise Product needs equal output dims")
        else:
            bilinear = np.array(bilinear, dtype=np.float64)
            if len(children) != 2:
                raise ValueError("an explicit bilinear map combines exactly two children")
            if bilinear.ndim != 3 or bilinear.shape[1:] != (
                children[0].dim_out,
                children[1].dim_out,
            ):
                raise ShapeMismatchError(
                    f"bilinear map shape {bilinear.shape} does not fit children"
                )
            bilinear.flags.writeable = False
            dim_out = bilinear.shape[0]
        self.bilinear = bilinear
        super().__init__(dim_in, dim_out, children)


class Compose(Program):
    """outer . inner (inner runs first)."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Program, inner: Program):
        if inner.dim_out != outer.dim_in:
            raise ShapeMismatchError(
                f"cannot compose: inner yields dim {inner.dim_out}, "
                f"outer expects dim {outer.dim_in}"
            )
        self.outer = outer
        self.inner = inner
        super().__init__(inner.dim_in, outer.dim_out, (outer, inner))


class ExtractedDerivative(Program):
    """The k-th derivative of ``inner`` as a program in its own right.

    Evaluates to the order-k derivative tensor flattened to a vector of
    length ``dim_out * dim_in**k``; its own derivative towers are obtained
    by computing deeper towers of ``inner`` and reducing order k times.
    """

    __slots__ = ("inner", "k")

    def __init__(self, inner: Program, k: int):
        if k < 1:
            raise ValueError("derivative order k must be >= 1")
        self.inner = inner
        self.k = k
        super().__init__(inner.dim_in, inner.dim_out * inner.dim_in**k, (inner,))


@dataclass(frozen=True)
class DerivativeTower:
    """Value plus derivative tensors of a program at one point."""

    at: np.ndarray
    tower: MultiTensor

    def __post_init__(self):
        at = np.array(self.at, dtype=np.float64)
        at.flags.writeable = False
        object.__setattr__(self, "at", at)

    @property
    def order(self) -> int:
        return self.tower.order

    @property
    def value(self) -> np.ndarray:
        return self.tower.value

    def component(self, j: int) -> np.ndarray:
        return self.tower.component(j)


def evaluate(program: Program, v) -> np.ndarray:
    """Run the program on a vector."""
    return _walk(program, _input(program, v), None)


def derivative_tower(program: Program, v, order: int) -> DerivativeTower:
    """Value and all derivative tensors of orders 1..order at the point ``v``.

    ``order`` is at most 63, checked before the walk: component j is an array
    with j + 1 axes.  Jets have no such limit.
    """
    v = _tower_input(program, v, order)
    return DerivativeTower(at=v, tower=_unpack(_walk(program, v, order), program.dim_in, order))


# Component j of a dense tower has j + 1 axes, and numpy arrays have at most 64.
_MAX_DENSE_ORDER = 63


def _tower_input(program: Program, v, order: int) -> np.ndarray:
    """The point ``v`` as an array, once ``order`` is known to fit a dense tower."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > _MAX_DENSE_ORDER:
        raise ValueError(
            f"order {order} is above {_MAX_DENSE_ORDER}, the largest of a dense tower "
            "(component j has j + 1 axes, and numpy arrays have at most 64)"
        )
    return _input(program, v)


def _input(program: Program, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (program.dim_in,):
        raise ShapeMismatchError(
            f"input must have shape ({program.dim_in},), got {v.shape}"
        )
    return v


def jet(program: Program, series) -> np.ndarray:
    """Taylor coefficients of t -> program(x(t)) up to t^K.

    ``series`` has shape ``(dim_in, K+1)``; column j holds the t^j
    coefficients of the input curve x(t).  The result has shape
    ``(dim_out, K+1)`` with column j the t^j coefficients of the output.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] != program.dim_in or series.shape[1] < 1:
        raise ShapeMismatchError(
            f"input series must have shape ({program.dim_in}, K+1), got {series.shape}"
        )
    if series.shape[1] == 1:  # see the note on jets below
        return _walk(program, np.hstack([series, np.zeros_like(series)]), (1, 1))[:, :1]
    return _walk(program, series, (1, series.shape[1] - 1))


def tensor_network(layers) -> Program:
    """Chain of polynomial contraction layers with elementwise activations.

    ``layers`` is a sequence of ``(weights, activation)`` pairs; ``weights``
    is a MultiTensor, ``activation`` a Primitive or None for a pass-through.
    With all weights of order <= 1 this is a plain dense feedforward network.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("tensor_network needs at least one layer")
    program: Program | None = None
    for weights, activation in layers:
        stage: Program = ContractionLayer(weights)
        if program is not None:
            stage = Compose(stage, program)
        if activation is not None:
            stage = Compose(Elementwise(activation, dim=weights.dim_out), stage)
        program = stage
    return program


# --- primitive library ------------------------------------------------------

def _exp_seq(j, x):
    return math.exp(x)


def _log_seq(j, x):
    if x <= 0.0:
        raise DomainEvalError(f"log of non-positive input {x}")
    if j == 0:
        return math.log(x)
    return (-1.0) ** (j - 1) * math.factorial(j - 1) / x**j


def _sin_seq(j, x):
    # four-cycle sin, cos, -sin, -cos (exact phase shift by j*pi/2)
    r = j % 4
    if r == 0:
        return math.sin(x)
    if r == 1:
        return math.cos(x)
    if r == 2:
        return -math.sin(x)
    return -math.cos(x)


def _cos_seq(j, x):
    return _sin_seq(j + 1, x)


@lru_cache(maxsize=None)
def _tanh_poly(j: int) -> tuple[int, ...]:
    # Derivatives of tanh are integer polynomials in t = tanh(x):
    # T_0 = t, T_{j+1} = T_j'(t) * (1 - t^2).  Coefficients ascending in t.
    if j == 0:
        return (0, 1)
    prev = _tanh_poly(j - 1)
    dprev = tuple(m * c for m, c in enumerate(prev))[1:] or (0,)
    out = [0] * (len(dprev) + 2)
    for m, c in enumerate(dprev):
        out[m] += c
        out[m + 2] -= c
    return tuple(out)


def _tanh_seq(j, x):
    return _tanh_poly_at(j, math.tanh(x))


def _tanh_poly_at(j, t):
    acc = 0.0
    for c in reversed(_tanh_poly(j)):
        acc = acc * t + c
    return acc


def _recip_seq(j, x):
    if x == 0.0:
        raise DomainEvalError("reciprocal of zero")
    return (-1.0) ** j * math.factorial(j) / x ** (j + 1)


def _identity_seq(j, x):
    if j == 0:
        return x
    return 1.0 if j == 1 else 0.0


def _make_pow_seq(n: int):
    def seq(j, x):
        if j > n:
            return 0.0
        return math.perm(n, j) * x ** (n - j)

    return seq


EXP = Primitive("exp", _exp_seq)
LOG = Primitive("log", _log_seq)
SIN = Primitive("sin", _sin_seq)
COS = Primitive("cos", _cos_seq)
TANH = Primitive("tanh", _tanh_seq)
RECIPROCAL = Primitive("reciprocal", _recip_seq)
IDENTITY = Primitive("identity", _identity_seq)


@lru_cache(maxsize=None)
def integer_power(n: int) -> Primitive:
    """x -> x**n for integer n >= 0, with exact falling-factorial derivatives."""
    if n < 0:
        raise ValueError("integer_power needs n >= 0 (use reciprocal for 1/x)")
    return Primitive(f"pow{n}", _make_pow_seq(n))


def primitive_library() -> dict[str, Primitive]:
    """Named elementwise primitives usable in Elementwise nodes."""
    return {
        p.name: p
        for p in (EXP, LOG, SIN, COS, TANH, RECIPROCAL, IDENTITY)
    }


def get_primitive(name: str) -> Primitive:
    """Look up a primitive by name; ``pow<n>`` resolves to an integer power."""
    lib = primitive_library()
    if name in lib:
        return lib[name]
    if name.startswith("pow") and name[3:].isdigit():
        return integer_power(int(name[3:]))
    raise KeyError(f"unknown primitive {name!r}")


def _apply_prim(prim: Primitive, j: int, x: float, path: str) -> float:
    try:
        return float(prim.deriv_seq(j, float(x)))
    except DomainEvalError as exc:
        raise DomainEvalError(f"{path or '/'}: elem({prim.name}): {exc}") from None
    except (ArithmeticError, ValueError) as exc:
        raise DomainEvalError(
            f"{path or '/'}: elem({prim.name}) failed at {float(x)!r}: {exc}"
        ) from None


def _sin_orders(k, x):
    s, c = math.sin(x), math.cos(x)
    cycle = (s, c, -s, -c)
    return [cycle[j % 4] for j in range(k + 1)]


def _tanh_orders(k, x):
    t = math.tanh(x)
    return [_tanh_poly_at(j, t) for j in range(k + 1)]


# Derivatives of orders 0..k at x of the built-in sequences whose every
# order calls the same transcendental: one call per entry, the same bits as
# ``deriv_seq(j, x)`` for each j.  Other primitives are called per order.
_ALL_ORDERS = {
    _exp_seq: lambda k, x: [math.exp(x)] * (k + 1),
    _sin_seq: _sin_orders,
    _cos_seq: lambda k, x: _sin_orders(k + 1, x)[1:],
    _tanh_seq: _tanh_orders,
}


def _prim_derivatives(prim: Primitive, v: np.ndarray, k: int, path: str) -> np.ndarray:
    """``out[r, i]`` is the r-th derivative of ``prim`` at ``v[i]``, r = 0..k."""
    orders = _ALL_ORDERS.get(prim.deriv_seq)
    if orders is not None:
        try:
            return np.array([orders(k, float(x)) for x in v], dtype=np.float64).T
        except (ArithmeticError, ValueError):
            pass  # the loop below raises the error of the first failing call
    return np.array(
        [[_apply_prim(prim, r, x, path) for x in v] for r in range(k + 1)],
        dtype=np.float64,
    )


# Truncated Horner and series-scaled towers divide by float factorials r!,
# and 171! is above the largest float.
_MAX_FACTORIAL_ORDER = 170


def _check_factorial_order(k: int, path: str, node: str) -> None:
    if k > _MAX_FACTORIAL_ORDER:
        raise DomainEvalError(
            f"{path or '/'}: {node}: order {k} is above {_MAX_FACTORIAL_ORDER}, "
            "the largest whose factorial is a float"
        )


# --- the DAG walk -------------------------------------------------------------
#
# A request is ``(node, point, order, path)``: ``order`` None asks for the
# node's value at ``point``, an integer for its derivative tower to that
# order, and a pair ``(n, K)`` for its jet in n variables to degree K along
# the input series ``point``.  Every node type has one rule per kind of
# request.  A leaf rule returns its result; any other rule is a generator
# that yields its children's requests, is sent their results, and returns
# its own.  The driver keeps the open generators on a list, so the Python
# stack does not grow with the depth of the DAG.

def _walk(root: Program, point: np.ndarray, order):
    """Result of ``root`` at ``point``: its value, tower or jet, as ``order`` asks.

    Results of nodes with more than one parent edge (``uses`` > 1) are kept
    for the call, keyed by the identities of node and point and by the
    order, so each is computed once per point and order and reports, in
    errors, the path by which it was first reached.  An entry also holds the
    node and the point, so neither id can be reused while the walk runs.
    ``uses`` counts parents in every program built on the node, so a node in
    two programs is kept even where ``root`` reaches it once; that costs
    memory, never a different result.
    """
    memo = {}
    stack = [(_ask(root, point, order), None)]
    result = None
    while True:
        gen, entry = stack[-1]
        try:
            node, at, k, path = gen.send(result)
        except StopIteration as done:
            result = done.value
            stack.pop()
            if entry is not None:
                key, node, at = entry
                memo[key] = (result, node, at)
            if not stack:
                return result
            continue
        # Drop the child's result now that its parent has it: a stale
        # reference would keep a large tower alive for the rest of the walk.
        result = None
        entry = None
        if node.uses > 1:
            key = (id(node), id(at), k)
            hit = memo.get(key)
            if hit is not None:
                result = hit[0]
                continue
            entry = (key, node, at)
        rules = _RULES.get(type(node))
        if rules is None:
            raise TypeError(f"unknown program node {type(node).__name__}")
        result = rules[0 if k is None else 2 if type(k) is tuple else 1](node, at, k, path)
        if type(result) is GeneratorType:
            stack.append((result, entry))
            result = None
        elif entry is not None:
            memo[key] = (result, node, at)


def _ask(node, point, order):
    return (yield node, point, order, "")


# --- values -------------------------------------------------------------------
#
# The identity, sum and composition rules pass ``k`` on to their children,
# so they serve jet requests as well as value requests.

def _identity_value(p, v, k, path):
    return v.copy()


def _constant_value(p, v, k, path):
    return np.array(p.value)


def _affine_value(p, v, k, path):
    return p.matrix @ v + p.offset


def _layer_value(p, v, k, path):
    return eval_polynomial(p.weights, v)


def _elementwise_value(p, v, k, path):
    return np.array([_apply_prim(p.fn, 0, x, path) for x in v], dtype=np.float64)


def _sum_value(p, v, k, path):
    out = yield p.children[0], v, k, path + "/sum[0]"
    for i, child in enumerate(p.children[1:], start=1):
        out = out + (yield child, v, k, f"{path}/sum[{i}]")
    return out


def _product_value(p, v, k, path):
    vals = []
    for i, child in enumerate(p.children):
        vals.append((yield child, v, None, f"{path}/prod[{i}]"))
    if p.bilinear is None:
        out = vals[0]
        for val in vals[1:]:
            out = out * val
        return out
    return np.einsum("irs,r,s->i", p.bilinear, vals[0], vals[1])


def _compose_value(p, v, k, path):
    mid = yield p.inner, v, k, path + "/compose.inner"
    return (yield p.outer, mid, k, path + "/compose.outer")


def _extracted_value(p, v, k, path):
    tower = yield p.inner, v, p.k, path + "/deriv.inner"
    return _component(tower, p.dim_in, p.k).ravel()


# --- derivative towers ----------------------------------------------------------
#
# A tower rule returns the node's tower packed (see ``multitensor._pack``):
# one ``(dim_out, C(dim_in+k, k))`` array of derivatives, one per
# multi-index in graded order, so every tower is exactly symmetric by
# construction.  Identity, constant, affine, elementwise and sum nodes build
# or add packed arrays directly, and an elementwise stage over any inner node
# runs truncated Horner on the packed inner tower.  Product, polynomial-layer
# and extracted-derivative nodes, and compositions with any other outer node,
# apply their dense operators and convert at their boundary.

def _identity_tower(p, v, k, path):
    out = np.zeros((p.dim, math.comb(p.dim + k, k)))
    out[:, 0] = v
    if k >= 1:
        out[:, 1:p.dim + 1] = np.eye(p.dim)
    return out


def _constant_tower(p, v, k, path):
    out = np.zeros((p.dim_out, math.comb(p.dim_in + k, k)))
    out[:, 0] = p.value
    return out


def _affine_tower(p, v, k, path):
    out = np.zeros((p.dim_out, math.comb(p.dim_in + k, k)))
    out[:, 0] = p.matrix @ v + p.offset
    if k >= 1:
        out[:, 1:p.dim_in + 1] = p.matrix
    return out


def _layer_tower(p, v, k, path):
    # The polynomial map only sees the symmetric part of each stored tensor,
    # so derivatives follow the falling-factorial rule on symmetrized weights.
    w = p.weights
    sym = symmetrize(w)
    comps = [np.zeros((w.dim_out,) + (w.dim_in,) * j) for j in range(min(w.order, k) + 1)]
    for j in range(w.order + 1):
        term = sym.components[j]
        top = min(j, k)
        for _ in range(j - top):
            term = np.tensordot(term, v, axes=([-1], [0]))
        for r in range(top, -1, -1):
            # term == sym_j contracted with v in its last j - r slots
            comps[r] = comps[r] + math.perm(j, r) * term
            if r > 0:
                term = np.tensordot(term, v, axes=([-1], [0]))
    out = np.zeros((w.dim_out, math.comb(w.dim_in + k, k)))
    low = _pack(comps, w.dim_in)  # the components above the layer's order are zero
    out[:, :low.shape[1]] = low
    return out


def _elementwise_tower(p, v, k, path):
    # coordinate i depends on input i alone: f^(r)(v_i) at multi-index r*e_i
    d = p.dim
    out = np.zeros((d, math.comb(d + k, k)))
    out[np.arange(d), _pure_index(d, k)] = _prim_derivatives(p.fn, v, k, path)
    return out


def _sum_tower(p, v, k, path):
    out = yield p.children[0], v, k, path + "/sum[0]"
    for i, child in enumerate(p.children[1:], start=1):
        out = out + (yield child, v, k, f"{path}/sum[{i}]")
    return out


def _product_tower(p, v, k, path):
    _check_factorial_order(k, path, "prod")
    towers = []
    for i, child in enumerate(p.children):
        towers.append((yield child, v, k, f"{path}/prod[{i}]"))
    scaled = {}  # series scaling of each child; one reached twice is unpacked once
    for t in towers:
        if id(t) not in scaled:
            scaled[id(t)] = _unpack(t, p.dim_in, k, series=True)
    acc = scaled[id(towers[0])]
    for i, t in enumerate(towers[1:]):
        bilinear = p.bilinear if i == len(towers) - 2 else None
        acc = algebra_product(acc, scaled[id(t)], bilinear, max_order=k)
    return _pack(symmetrize(acc).components, p.dim_in, series=True)


def _compose_tower(p, v, k, path):
    inner = yield p.inner, v, k, path + "/compose.inner"
    mid = inner[:, 0].copy()
    if isinstance(p.outer, Elementwise):
        _check_factorial_order(k, path + "/compose.outer", f"elem({p.outer.fn.name})")
        fvals = _prim_derivatives(p.outer.fn, mid, k, path + "/compose.outer")
        return _horner(fvals, inner, p.dim_in, _tower_degree(p.inner, k))
    from .operators import compose_towers

    outer = yield p.outer, mid, k, path + "/compose.outer"
    return _pack(compose_towers(
        DerivativeTower(at=mid, tower=_unpack(outer, p.outer.dim_in, k)),
        DerivativeTower(at=v, tower=_unpack(inner, p.dim_in, k)),
    ).tower.components, p.dim_in)


def _horner(fvals: np.ndarray, inner: np.ndarray, dim_in: int, degree: int,
            series: bool = False) -> np.ndarray:
    """Packed tower of f(g) from ``fvals[r, i]`` = f^(r)(g_i(v)) and g's packed tower.

    Truncated Horner, f(g0 + s) = sum_r f^(r)(g0)/r! s^r with s = g - g0,
    g of ``degree`` at most: the step for r needs only degrees up to k - r, a
    prefix in graded order, and multiplies by s over the prefix of the pair
    table that reaches it, so a deeper tower leaves the lower entries as they are.
    With ``series`` g and the result are in series scaling (unit weights).
    """
    k = fvals.shape[0] - 1
    coeffs = fvals / _column_factorials(1, k)[:, None]
    h = np.zeros((fvals.shape[1], math.comb(dim_in + k, k)))
    h[:, 0] = coeffs[k if degree else 0]  # a constant g (degree 0) is all its value
    if degree:
        ia, weight, steps = _horner_steps(dim_in, k, degree)
        s = inner[:, ia] if series else inner[:, ia] * weight
        for r, (ib, heads) in zip(range(k - 1, -1, -1), steps):
            h[:, 1:heads.size + 1] = _times(s[:, :ib.size], h, ib, heads)  # reads h first
            h[:, 0] = coeffs[r]
    h[:, 1:] += 0.0  # a sum of -0 terms is +0, as in a sum that starts at +0
    return h


def _tower_degree(node: Program, k: int) -> int:
    """Degree bound of ``node``'s order-k tower from its type alone, at any point."""
    kind = type(node)
    if kind is Constant:
        return 0
    if kind is Affine or kind is Identity:
        return min(1, k)
    if kind is ContractionLayer:
        return min(node.weights.order, k)
    return k


def _extracted_tower(p, v, k, path):
    from .operators import order_reduce

    deep = yield p.inner, v, k + p.k, path + "/deriv.inner"
    deep = DerivativeTower(at=v, tower=_unpack(deep, p.dim_in, k + p.k))
    for _ in range(p.k):
        deep = order_reduce(deep)
    return _pack(deep.tower.components, p.dim_in)


# --- jets ------------------------------------------------------------------------
#
# A jet in n variables is the packed tower of t -> x(t), t in R^n, in series
# scaling: a ``(dim, C(n+K, K))`` array of the Taylor coefficients of each
# multi-index in t up to degree K, so products have unit weights
# (``series=True``) and no factorial enters the walk.  A request carries
# ``(n, K)``.  Nonlinear rules are the tower kernels in n variables:
# truncated Horner, polynomial substitution and the product
# ``multitensor._mul``.  ``jet`` is n = 1, a curve; ``operators.forward_chain``
# pushes the identity series at a point, n = dim_in, through each stage.
# Sums over a vector index run over a leading axis, which numpy adds in
# index order whatever K is; a BLAS product would not, nor would numpy with
# a single column (it sums that pairwise), so no caller walks one.

def _constant_jet(p, x, k, path):
    out = np.zeros((p.dim_out, x.shape[1]))
    out[:, 0] = p.value
    return out


def _affine_jet(p, x, k, path):
    out = (p.matrix[:, :, None] * x).sum(axis=1)
    out[:, 0] += p.offset
    return out


def _layer_jet(p, x, k, path):
    # sum_j w_j . x^(x)j from the raw weights, one slot at a time, so integer
    # weights stay exact (the layer's tower holds symmetrized orbit means)
    n, K = k
    out = np.zeros((p.dim_out, x.shape[1]))
    out[:, 0] = p.weights.components[0]
    for w in p.weights.components[1:]:
        term = (w[..., None] * x).sum(axis=-2)  # the last slot
        for _ in range(w.ndim - 2):  # the next slot, summed over its index
            term = _mul(x, term, n, K).sum(axis=-2)
        out += term
    return out


def _elementwise_jet(p, x, k, path):
    n, K = k
    _check_factorial_order(K, path, f"elem({p.fn.name})")
    return _horner(_prim_derivatives(p.fn, x[:, 0], K, path), x, n, K, series=True)


def _product_jet(p, x, k, path):
    jets = []
    for i, child in enumerate(p.children):
        jets.append((yield child, x, k, f"{path}/prod[{i}]"))
    n, K = k
    if p.bilinear is not None:  # sum_r a_r * (sum_s B_irs b_s)
        b = (p.bilinear[..., None] * jets[1]).sum(axis=2)
        return _mul(jets[0], b, n, K).sum(axis=1)
    out = jets[0]
    for other in jets[1:]:
        out = _mul(out, other, n, K)
    return out


def _extracted_jet(p, x, k, path):
    # the node's own tower at x0 is its Taylor polynomial in s = x - x0
    n, K = k
    return _substitute((yield p, x[:, 0].copy(), K, path), x, n, K, series=True)


# Each node type's value, tower and jet rule, keyed by its exact type.
_RULES = {
    Identity: (_identity_value, _identity_tower, _identity_value),
    Constant: (_constant_value, _constant_tower, _constant_jet),
    Affine: (_affine_value, _affine_tower, _affine_jet),
    ContractionLayer: (_layer_value, _layer_tower, _layer_jet),
    Elementwise: (_elementwise_value, _elementwise_tower, _elementwise_jet),
    Sum: (_sum_value, _sum_tower, _sum_value),
    Product: (_product_value, _product_tower, _product_jet),
    Compose: (_compose_value, _compose_tower, _compose_value),
    ExtractedDerivative: (_extracted_value, _extracted_tower, _extracted_jet),
}


# --- structural equality --------------------------------------------------------

def _same_arrays(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


# Whether two nodes of the same type have equal parameters; children apart.
_SAME_PARAMS = {
    Identity: lambda a, b: a.dim == b.dim,
    Constant: lambda a, b: a.value == b.value and a.dim_in == b.dim_in,
    Affine: lambda a, b: _same_arrays(a.matrix, b.matrix)
    and _same_arrays(a.offset, b.offset),
    ContractionLayer: lambda a, b: a.weights.shape == b.weights.shape
    and all(map(_same_arrays, a.weights.components, b.weights.components)),
    Elementwise: lambda a, b: a.fn.name == b.fn.name and a.dim == b.dim,
    Sum: lambda a, b: True,
    Product: lambda a, b: _same_arrays(a.bilinear, b.bilinear),
    Compose: lambda a, b: True,
    ExtractedDerivative: lambda a, b: a.k == b.k,
}


def structurally_equal(a: Program, b: Program) -> bool:
    """Node-by-node equality of two program DAGs (exact parameter match)."""
    pairs = [(a, b)]
    seen = set()
    while pairs:
        x, y = pairs.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        same = _SAME_PARAMS.get(type(x))
        if type(x) is not type(y) or same is None or not same(x, y):
            return False
        if len(x.children) != len(y.children):
            return False
        pairs.extend(zip(x.children, y.children))
    return True
