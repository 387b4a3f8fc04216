"""Programs as expression DAGs over analytic primitives, and their derivative towers.

A ``Program`` is an immutable DAG of node types (identity, constants, affine
maps, polynomial contraction layers, elementwise analytic functions, sums,
bilinear products, compositions, extracted derivatives) denoting a map
between real vector spaces.  ``evaluate`` runs it; ``derivative_tower``
returns the value *and* all derivative tensors up to a requested order at a
point, packed into one :class:`~tensorjet.multitensor.MultiTensor`.

Towers are propagated forward through the DAG: every node combines its
children's towers using only its own local derivative rule (closed forms for
affine/polynomial layers, per-order derivative sequences for elementwise
primitives, a Leibniz product expansion, and partition-sum composition), so
requesting a higher order never changes the lower-order components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .multitensor import (
    MultiTensor,
    Shape,
    ShapeMismatchError,
    algebra_product,
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
    """Base class for DAG nodes.  Immutable; evaluation is pure."""

    __slots__ = ()

    @property
    def signature(self) -> ProgramSignature:
        raise NotImplementedError

    @property
    def dim_in(self) -> int:
        return self.signature.dim_in

    @property
    def dim_out(self) -> int:
        return self.signature.dim_out


@dataclass(frozen=True)
class Identity(Program):
    dim: int = 1

    @property
    def signature(self):
        return ProgramSignature(self.dim, self.dim)


@dataclass(frozen=True)
class Constant(Program):
    value: tuple[float, ...]
    input_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(x) for x in self.value))

    @property
    def signature(self):
        return ProgramSignature(self.input_dim, len(self.value))


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

    @property
    def signature(self):
        return ProgramSignature(self.matrix.shape[1], self.matrix.shape[0])

    def __repr__(self):
        return f"Affine({self.matrix.shape[0]}x{self.matrix.shape[1]})"


@dataclass(frozen=True)
class ContractionLayer(Program):
    """Polynomial map given by a stored multi-tensor: v -> W(v)."""

    weights: MultiTensor

    @property
    def signature(self):
        return ProgramSignature(self.weights.dim_in, self.weights.dim_out)


@dataclass(frozen=True)
class Elementwise(Program):
    fn: Primitive
    dim: int = 1

    @property
    def signature(self):
        return ProgramSignature(self.dim, self.dim)


@dataclass(frozen=True)
class Sum(Program):
    children: tuple[Program, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Sum needs at least two children")
        sig = self.children[0].signature
        for child in self.children[1:]:
            if child.signature != sig:
                raise ShapeMismatchError(
                    f"Sum children disagree: {sig} vs {child.signature}"
                )

    @property
    def signature(self):
        return self.children[0].signature


class Product(Program):
    """Pointwise bilinear combination of children, componentwise by default."""

    __slots__ = ("children", "bilinear")

    def __init__(self, children, bilinear: np.ndarray | None = None):
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Product needs at least two children")
        dim_in = children[0].dim_in
        for child in children[1:]:
            if child.dim_in != dim_in:
                raise ShapeMismatchError("Product children must share the input dim")
        if bilinear is None:
            d = children[0].dim_out
            for child in children[1:]:
                if child.dim_out != d:
                    raise ShapeMismatchError(
                        "componentwise Product needs equal output dims"
                    )
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
        self.children = children
        self.bilinear = bilinear

    @property
    def signature(self):
        if self.bilinear is not None:
            return ProgramSignature(self.children[0].dim_in, self.bilinear.shape[0])
        return self.children[0].signature

    def __repr__(self):
        return f"Product(arity={len(self.children)})"


@dataclass(frozen=True)
class Compose(Program):
    """outer . inner (inner runs first)."""

    outer: Program
    inner: Program

    def __post_init__(self):
        if self.inner.dim_out != self.outer.dim_in:
            raise ShapeMismatchError(
                f"cannot compose: inner yields dim {self.inner.dim_out}, "
                f"outer expects dim {self.outer.dim_in}"
            )

    @property
    def signature(self):
        return ProgramSignature(self.inner.dim_in, self.outer.dim_out)


@dataclass(frozen=True)
class ExtractedDerivative(Program):
    """The k-th derivative of ``inner`` as a program in its own right.

    Evaluates to the order-k derivative tensor flattened to a vector of
    length ``dim_out * dim_in**k``; its own derivative towers are obtained
    by computing deeper towers of ``inner`` and reducing order k times.
    """

    inner: Program
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("derivative order k must be >= 1")

    @property
    def signature(self):
        sig = self.inner.signature
        return ProgramSignature(sig.dim_in, sig.dim_out * sig.dim_in**self.k)


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
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (program.dim_in,):
        raise ShapeMismatchError(
            f"input must have shape ({program.dim_in},), got {v.shape}"
        )
    return _eval(program, v, "")


def derivative_tower(program: Program, v, order: int) -> DerivativeTower:
    """Value and all derivative tensors of orders 1..order at the point ``v``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (program.dim_in,):
        raise ShapeMismatchError(
            f"input must have shape ({program.dim_in},), got {v.shape}"
        )
    tower = _tower(program, v, order, "")
    return DerivativeTower(at=v, tower=tower)


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
    t = math.tanh(x)
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


# --- evaluation -------------------------------------------------------------

def _eval(p: Program, v: np.ndarray, path: str) -> np.ndarray:
    if isinstance(p, Identity):
        return v.copy()
    if isinstance(p, Constant):
        return np.array(p.value)
    if isinstance(p, Affine):
        return p.matrix @ v + p.offset
    if isinstance(p, ContractionLayer):
        from .multitensor import eval_polynomial

        return eval_polynomial(p.weights, v)
    if isinstance(p, Elementwise):
        return np.array(
            [_apply_prim(p.fn, 0, x, path) for x in v], dtype=np.float64
        )
    if isinstance(p, Sum):
        out = _eval(p.children[0], v, path + "/sum[0]")
        for i, child in enumerate(p.children[1:], start=1):
            out = out + _eval(child, v, f"{path}/sum[{i}]")
        return out
    if isinstance(p, Product):
        vals = [
            _eval(child, v, f"{path}/prod[{i}]") for i, child in enumerate(p.children)
        ]
        if p.bilinear is None:
            out = vals[0]
            for val in vals[1:]:
                out = out * val
            return out
        return np.einsum("irs,r,s->i", p.bilinear, vals[0], vals[1])
    if isinstance(p, Compose):
        mid = _eval(p.inner, v, path + "/compose.inner")
        return _eval(p.outer, mid, path + "/compose.outer")
    if isinstance(p, ExtractedDerivative):
        tower = _tower(p.inner, v, p.k, path + "/deriv.inner")
        return tower.component(p.k).ravel().copy()
    raise TypeError(f"unknown program node {type(p).__name__}")


def structurally_equal(a: Program, b: Program) -> bool:
    """Node-by-node equality of two program DAGs (exact parameter match)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Identity):
        return a.dim == b.dim
    if isinstance(a, Constant):
        return a.value == b.value and a.input_dim == b.input_dim
    if isinstance(a, Affine):
        return np.array_equal(a.matrix, b.matrix) and np.array_equal(a.offset, b.offset)
    if isinstance(a, ContractionLayer):
        return a.weights.shape == b.weights.shape and all(
            np.array_equal(x, y)
            for x, y in zip(a.weights.components, b.weights.components)
        )
    if isinstance(a, Elementwise):
        return a.fn.name == b.fn.name and a.dim == b.dim
    if isinstance(a, (Sum, Product)):
        if isinstance(a, Product):
            both_none = a.bilinear is None and b.bilinear is None
            if not both_none and not (
                a.bilinear is not None
                and b.bilinear is not None
                and np.array_equal(a.bilinear, b.bilinear)
            ):
                return False
        return len(a.children) == len(b.children) and all(
            structurally_equal(x, y) for x, y in zip(a.children, b.children)
        )
    if isinstance(a, Compose):
        return structurally_equal(a.outer, b.outer) and structurally_equal(
            a.inner, b.inner
        )
    if isinstance(a, ExtractedDerivative):
        return a.k == b.k and structurally_equal(a.inner, b.inner)
    return False


def _apply_prim(prim: Primitive, j: int, x: float, path: str) -> float:
    try:
        return float(prim.deriv_seq(j, float(x)))
    except DomainEvalError as exc:
        raise DomainEvalError(f"{path or '/'}: elem({prim.name}): {exc}") from None
    except (OverflowError, ValueError) as exc:
        raise DomainEvalError(
            f"{path or '/'}: elem({prim.name}) failed at {x!r}: {exc}"
        ) from None


def _prim_derivatives(prim: Primitive, v: np.ndarray, k: int, path: str) -> np.ndarray:
    """``out[r, i]`` is the r-th derivative of ``prim`` at ``v[i]``, r = 0..k."""
    return np.array(
        [[_apply_prim(prim, r, x, path) for x in v] for r in range(k + 1)],
        dtype=np.float64,
    )


# --- derivative towers ------------------------------------------------------

def _tower(p: Program, v: np.ndarray, k: int, path: str) -> MultiTensor:
    d_in = p.dim_in
    if isinstance(p, Identity):
        comps = _zero_components(p.dim_out, d_in, k)
        comps[0] = v.copy()
        if k >= 1:
            comps[1] = np.eye(p.dim)
        return MultiTensor(Shape(p.dim_out, d_in, k), comps)

    if isinstance(p, Constant):
        comps = _zero_components(p.dim_out, d_in, k)
        comps[0] = np.array(p.value)
        return MultiTensor(Shape(p.dim_out, d_in, k), comps)

    if isinstance(p, Affine):
        comps = _zero_components(p.dim_out, d_in, k)
        comps[0] = p.matrix @ v + p.offset
        if k >= 1:
            comps[1] = p.matrix.copy()
        return MultiTensor(Shape(p.dim_out, d_in, k), comps)

    if isinstance(p, ContractionLayer):
        return _contraction_layer_tower(p.weights, v, k)

    if isinstance(p, Elementwise):
        d = p.dim
        fvals = _prim_derivatives(p.fn, v, k, path)
        comps = [np.zeros((d,) + (d,) * r) for r in range(k + 1)]
        for r in range(k + 1):
            comps[r][(np.arange(d),) * (r + 1)] = fvals[r]
        return MultiTensor(Shape(d, d, k), comps)

    if isinstance(p, Sum):
        out = _tower(p.children[0], v, k, path + "/sum[0]")
        for i, child in enumerate(p.children[1:], start=1):
            nxt = _tower(child, v, k, f"{path}/sum[{i}]")
            out = MultiTensor(
                out.shape, [a + b for a, b in zip(out.components, nxt.components)]
            )
        return out

    if isinstance(p, Product):
        towers = [
            _tower(child, v, k, f"{path}/prod[{i}]")
            for i, child in enumerate(p.children)
        ]
        acc = _to_series_scaling(towers[0])
        for i, t in enumerate(towers[1:]):
            bilinear = p.bilinear if i == len(towers) - 2 else None
            acc = algebra_product(acc, _to_series_scaling(t), bilinear, max_order=k)
        acc = symmetrize(acc)
        return _from_series_scaling(acc)

    if isinstance(p, Compose):
        from .operators import _compose_elementwise, compose_towers

        inner = DerivativeTower(at=v, tower=_tower(p.inner, v, k, path + "/compose.inner"))
        if isinstance(p.outer, Elementwise):
            # Diagonal chain rule: the dense outer tower is zero off its diagonal.
            fvals = _prim_derivatives(p.outer.fn, inner.value, k, path + "/compose.outer")
            return _compose_elementwise(fvals, inner).tower
        outer = DerivativeTower(
            at=inner.value,
            tower=_tower(p.outer, inner.value, k, path + "/compose.outer"),
        )
        return compose_towers(outer, inner).tower

    if isinstance(p, ExtractedDerivative):
        from .operators import order_reduce

        deep = DerivativeTower(
            at=v, tower=_tower(p.inner, v, k + p.k, path + "/deriv.inner")
        )
        for _ in range(p.k):
            deep = order_reduce(deep)
        return deep.tower

    raise TypeError(f"unknown program node {type(p).__name__}")


def _zero_components(d_out: int, d_in: int, k: int) -> list[np.ndarray]:
    return [np.zeros((d_out,) + (d_in,) * j) for j in range(k + 1)]


def _contraction_layer_tower(w: MultiTensor, v: np.ndarray, k: int) -> MultiTensor:
    # The polynomial map only sees the symmetric part of each stored tensor,
    # so derivatives follow the falling-factorial rule on symmetrized weights.
    sym = symmetrize(w)
    comps = _zero_components(w.dim_out, w.dim_in, k)
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
    return MultiTensor(Shape(w.dim_out, w.dim_in, k), comps)


def _to_series_scaling(t: MultiTensor) -> MultiTensor:
    return MultiTensor(
        t.shape, [c / math.factorial(j) for j, c in enumerate(t.components)]
    )


def _from_series_scaling(t: MultiTensor) -> MultiTensor:
    return MultiTensor(
        t.shape, [c * math.factorial(j) for j, c in enumerate(t.components)]
    )
