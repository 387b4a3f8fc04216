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
primitives, a Leibniz product expansion, truncated Horner for a run of
elementwise stages, in closed form over a linear base of one input, and
polynomial substitution for any other outer stage),
so requesting a higher order never changes the lower-order components.
Inside the walk a tower is packed: a symmetric tower stores each slot orbit
once, as the derivative d^alpha for each multi-index alpha of degree <=
order (the truncated polynomial ring; Neidinger, Math. Comp. 74, 2005), so
every tower is exactly symmetric by construction.  ``derivative_tower``
unpacks the root's tower to dense components once, at the end; product,
polynomial-layer and extracted-derivative nodes apply the dense operators of
``multitensor`` and ``operators`` and convert at their boundary.  A
``DerivativeTower`` holds either form and builds the other once, when first
asked, so a composition whose outer stage is not elementwise hands its
children's packed towers to ``operators.compose_towers`` and takes back the
packed result, converting nothing.

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
in n variables (truncated Horner, in closed form along a ray, polynomial
substitution and the product ``_mul``), and a layer contracts its own
weights one slot at a time, with no dense d^j tensors.  Those kernels never
read an entry above the one they produce, so a deeper jet leaves the lower
coefficients bitwise unchanged.  The elementwise rule also reads above
degree 1, to find a linear input, but the bits it gets either way are
those of truncated Horner wherever they are finite.

So every node type has three local rules: its value, its derivative tower,
and its jet.  Column 0 of every tower and jet is the value rule's
arithmetic, so it is what ``evaluate`` returns, bit for bit, and an order-0
tower or jet is a walk of that one column.  Where a rule only adds or passes
results on, the value rule serves the other requests too: identity's serves
jets, sum's towers and jets.  A composition passes jets on stage by stage.
The value of a run of elementwise stages, and the derivatives of its stages,
are one pass in floats from its base up; a lone elementwise node takes the
same pass, with one table of kernels for the built-in primitives.

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
from itertools import chain
from types import GeneratorType
from typing import Callable

import numpy as np

from .multitensor import (
    MultiTensor,
    ShapeMismatchError,
    _column_factorials,
    _component,
    _contract_last,
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
        _check_derivative_order(k)
        self.inner = inner
        self.k = k
        super().__init__(inner.dim_in, inner.dim_out * inner.dim_in**k, (inner,))


class DerivativeTower:
    """Value plus derivative tensors of a program at one point.

    ``at`` is a read-only copy of the point, of shape ``(tower.dim_in,)``, and
    ``tower`` the dense components.  The walk hands towers on in packed form
    (see ``multitensor._pack``) through ``_from_packed``; such a tower builds
    its dense form on the first read of ``tower``, ``value`` or
    ``component``, and a dense-built tower its packed form on the first call
    of ``_packed``, so each form is converted at most once.  Immutable.
    """

    __slots__ = ("_at", "_order", "_dense", "_entries")

    def __init__(self, at, tower: MultiTensor):
        at = np.array(at, dtype=np.float64)
        if at.shape != (tower.dim_in,):
            raise ShapeMismatchError(
                f"tower point has shape {at.shape}, its tower takes ({tower.dim_in},)"
            )
        at.flags.writeable = False
        self._at, self._order, self._dense, self._entries = at, tower.order, tower, None

    @classmethod
    def _from_packed(cls, at, packed: np.ndarray, order: int) -> DerivativeTower:
        """The tower at ``at`` whose packed entries to ``order`` are ``packed``."""
        self = cls.__new__(cls)
        self._at, self._order, self._dense, self._entries = np.array(at, float), order, None, packed
        self._at.flags.writeable = False
        return self

    @property
    def at(self) -> np.ndarray:
        return self._at

    @property
    def order(self) -> int:
        return self._order

    @property
    def tower(self) -> MultiTensor:
        if self._dense is None:
            self._dense = _unpack(self._entries, self._at.size, self._order)
        return self._dense

    def _packed(self) -> np.ndarray:
        """The packed entries: one per multi-index, ``(dim_out, C(dim_in+order, order))``."""
        if self._entries is None:
            self._entries = _pack(self._dense.components, self._at.size)
        return self._entries

    @property
    def value(self) -> np.ndarray:
        return self.tower.value

    def component(self, j: int) -> np.ndarray:
        return self.tower.component(j)

    def __repr__(self):
        # from either form: a dense build would cost dim_out * dim_in**order floats
        dim_out = len(self._entries) if self._dense is None else self._dense.dim_out
        return (f"DerivativeTower(at={self._at!r}, tower=MultiTensor(dim_out={dim_out}, "
                f"dim_in={self._at.size}, order={self._order}))")


def evaluate(program: Program, v) -> np.ndarray:
    """Run the program on a vector."""
    return _walk(program, _input(program, v), None)


def derivative_tower(program: Program, v, order: int) -> DerivativeTower:
    """Value and all derivative tensors of orders 1..order at the point ``v``.

    ``order`` is at most 63, checked before the walk: component j is an array
    with j + 1 axes.  Jets have no such limit, but an extracted derivative of
    order k needs its inner's dense tower at order K + k, so it stops at 63 - k.
    """
    v = _tower_input(program, v, order)
    return DerivativeTower(at=v, tower=_unpack(_walk(program, v, order), program.dim_in, order))


# Component j of a dense tower has j + 1 axes, and numpy arrays have at most 64.
_MAX_DENSE_ORDER = 63


def _check_derivative_order(k: int) -> None:
    """An order-k derivative's value is its inner's dense tower at order k: k <= 63."""
    if k > _MAX_DENSE_ORDER:
        raise ValueError(
            f"derivative order {k} is above {_MAX_DENSE_ORDER}, the largest of a dense tower "
            "(its value needs its inner's dense tower to that order)"
        )


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
    return np.ascontiguousarray(v)  # a BLAS product's bits can depend on the stride


def jet(program: Program, series) -> np.ndarray:
    """Taylor coefficients of t -> program(x(t)) up to t^K.

    ``series`` has shape ``(dim_in, K+1)``; column j holds the t^j
    coefficients of the input curve x(t).  The result has shape
    ``(dim_out, K+1)`` with column j the t^j coefficients of the output;
    column 0 is ``evaluate(program, series[:, 0])``, bit for bit.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] != program.dim_in or series.shape[1] < 1:
        raise ShapeMismatchError(
            f"input series must have shape ({program.dim_in}, K+1), got {series.shape}"
        )
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


@lru_cache(maxsize=None)
def _tanh_row(j: int) -> tuple[tuple[float, ...], bool]:
    # T_j holds only the powers of t of parity j + 1.  Those coefficients as
    # floats, highest first, and whether T_j is odd (no constant term).  Adding
    # float(c) rounds as adding the integer c does, and raises the same
    # OverflowError where c is above the largest float (from j = 164).
    return tuple(float(c) for c in reversed(_tanh_poly(j)[(j + 1) % 2::2])), j % 2 == 0


@lru_cache(maxsize=None)
def _tanh_table(k: int) -> tuple[tuple[tuple[float, ...], bool], ...]:
    return tuple(_tanh_row(j) for j in range(k + 1))


def _tanh_rows(rows, x):
    # Horner in t = tanh(x) over each row of float coefficients, in one call.
    # A step over a skipped zero coefficient is (acc * t) * t, which has the
    # bits of (acc * t + 0.0) * t wherever a nonzero coefficient is added next.
    # An odd T_j ends with the step to its zero constant term, which turns -0
    # into +0.
    t = math.tanh(x)
    out = []
    for row, odd in rows:
        acc = row[0]
        for c in row[1:]:
            acc = acc * t * t + c
        out.append(acc * t + 0.0 if odd else acc)
    return out


def _tanh_seq(j, x):
    return _tanh_rows((_tanh_row(j),), x)[0]


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
    return ([s, c, -s, -c] * (k // 4 + 1))[:k + 1]


# The built-in sequences whose every order calls the same transcendental, each
# as (order-0 function, all-orders function): ``value(x)`` has the bits of
# ``deriv_seq(0, x)`` and ``orders(k, x)`` those of ``deriv_seq(j, x)`` for
# j = 0..k, with one call per entry.  Other primitives are called per order.
_KERNELS = {
    _exp_seq: (math.exp, lambda k, x: [math.exp(x)] * (k + 1)),
    _sin_seq: (math.sin, _sin_orders),
    _cos_seq: (math.cos, lambda k, x: _sin_orders(k + 1, x)[1:]),
    # Horner's last step turns -0 into +0
    _tanh_seq: (lambda x: math.tanh(x) + 0.0, lambda k, x: _tanh_rows(_tanh_table(k), x)),
}


# --- the DAG walk -------------------------------------------------------------
#
# A request is ``(node, point, order, path)``: ``order`` None asks for the
# node's value at ``point``, an integer for its derivative tower to that
# order, and a pair ``(n, K)`` for its jet in n variables to degree K along
# the input series ``point``.  A negative order ``~k`` asks an elementwise
# ``Compose`` for its run to order k (see ``_compose_run``), so that a shared
# link of a run answers from the memo.  Every node type has one rule per kind
# of request.  A leaf rule returns its result; any other rule is a generator
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
        column = 0 if k is None else 2 if type(k) is tuple else 1 if k >= 0 else 3
        result = rules[column](node, at, k, path)
        if type(result) is GeneratorType:
            stack.append((result, entry))
            result = None
        elif entry is not None:
            memo[key] = (result, node, at)


def _ask(node, point, order):
    return (yield node, point, order, "")


# --- runs of elementwise stages -----------------------------------------------
#
# A run is a chain of links ``Compose(Elementwise, inner)`` down to its base,
# the first node below that is not a link.  The stages act on each coordinate
# as one univariate map, so a run's value and tower are each one local rule
# over its base.  ``_stage_pass`` runs the stages of a run, or of a lone
# elementwise node, over floats: their values, or their derivative rows.

def _in_run(node: Program) -> bool:
    """Whether ``node`` is an elementwise stage over an inner node: one link of a run."""
    return type(node) is Compose and isinstance(node.outer, Elementwise)


def _run_stages(p: Program) -> tuple[list, Program]:
    """The stage primitives of the run that ends at ``p``, top first, and the node below them.

    The run goes down the links from ``p`` and stops above the first node
    that is not a link, or that is a shared link (``uses`` > 1): that node
    answers its own request, through the walk's memo, and this run extends
    its result, so every stage is evaluated once per walk.
    """
    fns = []
    node = p
    while True:
        fns.append(node.outer.fn)
        node = node.inner
        if not _in_run(node) or node.uses > 1:
            return fns, node


_INNER = "/compose.inner"


def _stage_paths(path: str) -> Callable[[int], str]:
    """Path of the stage ``depth`` links below the run link at ``path``; built for errors."""
    return lambda depth: path + _INNER * depth + "/compose.outer"


def _stage_pass(fns: list, xs: list, k, stage_path: Callable[[int], str]) -> list:
    """The stages ``fns``, top first, run from the base up over the floats ``xs``.

    With ``k`` None each stage maps every coordinate to its value and the
    result is the top stage's values; otherwise ``out[j][i][r]`` is the r-th
    derivative of stage j = 0 the lowest at its input in coordinate i, r =
    0..k.  A built-in sequence runs its kernel; any other primitive, or a
    kernel call that fails, goes through ``_apply_prim`` order by order, so
    the first failing call raises its error with the path
    ``stage_path(depth)`` of the stage ``depth`` links below the top.
    """
    rows = []
    for depth in range(len(fns) - 1, -1, -1):
        fn = fns[depth]
        out = None
        kernel = _KERNELS.get(fn.deriv_seq)
        if kernel is not None:
            value, orders = kernel
            try:
                out = [value(x) for x in xs] if k is None else [orders(k, x) for x in xs]
            except (ArithmeticError, ValueError):
                pass
        if out is None:
            at = stage_path(depth)
            if k is None:
                out = [_apply_prim(fn, 0, x, at) for x in xs]
            else:
                out = list(zip(*[[_apply_prim(fn, r, x, at) for x in xs] for r in range(k + 1)]))
        if k is None:
            xs = out
        else:
            rows.append(out)
            xs = [f[0] for f in out]
    return xs if k is None else rows


def _prim_derivatives(prim: Primitive, v: np.ndarray, k: int, path: str) -> np.ndarray:
    """``out[r, i]`` is the r-th derivative of ``prim`` at ``v[i]``, r = 0..k."""
    return np.array(_stage_pass([prim], v.tolist(), k, lambda _: path)[0], dtype=np.float64).T


# --- values -------------------------------------------------------------------
#
# The identity and sum rules, and composition's stage-by-stage rule, pass
# ``k`` on to their children, so they serve jet requests as well as value
# requests, and the sum rule serves tower requests too.  A link of a run of
# elementwise stages (see ``_run_stages``) asks its base for a value once and
# applies every stage to it in one ``_stage_pass``, as a lone elementwise
# node applies its own.

def _identity_value(p, v, k, path):
    return v.copy()


def _constant_value(p, v, k, path):
    return np.array(p.value)


def _affine_value(p, v, k, path):
    return p.matrix @ v + p.offset


def _layer_value(p, v, k, path):
    return eval_polynomial(p.weights, v)


def _elementwise_value(p, v, k, path):
    return np.array(_stage_pass([p.fn], v.tolist(), None, lambda _: path), dtype=np.float64)


def _sum_value(p, v, k, path):
    out = yield p.children[0], v, k, path + "/sum[0]"
    for i, child in enumerate(p.children[1:], start=1):
        out = out + (yield child, v, k, f"{path}/sum[{i}]")
    return out


def _product_value(p, v, k, path):
    vals = []
    for i, child in enumerate(p.children):
        vals.append((yield child, v, None, f"{path}/prod[{i}]"))
    return _product_of(p, vals)


def _product_of(p, vals):
    """The product node's value from its children's values; its tower's value too."""
    if p.bilinear is None:
        out = vals[0]
        for val in vals[1:]:
            out = out * val
        return out
    return np.einsum("irs,r,s->i", p.bilinear, vals[0], vals[1])


def _compose_value(p, v, k, path):
    if _in_run(p):
        return _run_value(p, v, path)
    return _compose_stages(p, v, k, path)


def _compose_stages(p, v, k, path):
    # also the jet rule, so a run's jet is pushed through it stage by stage
    mid = yield p.inner, v, k, path + "/compose.inner"
    return (yield p.outer, mid, k, path + "/compose.outer")


def _run_value(p, v, path):
    """Value of the run that ends at ``p``: its stages over its base's value, in floats.

    The stages run from the base up, each over every coordinate, as the
    stage-by-stage walk runs them, in one ``_stage_pass``.
    """
    fns, base = _run_stages(p)
    xs = (yield base, v, None, path + _INNER * len(fns)).tolist()
    return np.array(_stage_pass(fns, xs, None, _stage_paths(path)), dtype=np.float64)


def _extracted_value(p, v, k, path):
    tower = yield p.inner, v, p.k, path + "/deriv.inner"
    return _component(tower, p.dim_in, p.k).ravel()


# --- derivative towers ----------------------------------------------------------
#
# A tower rule returns the node's tower packed (see ``multitensor._pack``):
# one ``(dim_out, C(dim_in+k, k))`` array of derivatives, one per
# multi-index in graded order, so every tower is exactly symmetric by
# construction.  Identity, constant and affine nodes build theirs with
# ``_linear_series``, elementwise and sum nodes directly.  A run of
# elementwise stages, each a ``Compose`` over the next, is one local rule over
# its base, the first node below it that is not such a stage: the stages act
# on each coordinate as one univariate function, so their truncated series
# compose in a balanced tree and one truncated Horner applies the composite to
# the base's packed tower, in closed form over an identity or affine base of
# one input.
# A composition with any other outer node substitutes the packed towers
# (``operators.compose_towers``).  Product, polynomial-layer and
# extracted-derivative nodes apply their dense operators and convert at their
# boundary.

def _linear_series(value, slope, n: int, k: int) -> np.ndarray:
    """Packed series in n variables to degree k of a linear map: ``value``, the
    degree-1 block ``slope`` and zeros above, alike in tower and series scaling."""
    out = np.zeros((len(value), math.comb(n + k, k)))
    out[:, 0] = value
    if k:
        out[:, 1:n + 1] = slope
    return out


def _identity_tower(p, v, k, path):
    return _linear_series(v, np.eye(p.dim), p.dim, k)


def _constant_tower(p, v, k, path):
    return _linear_series(p.value, 0.0, p.dim_in, k)


def _affine_tower(p, v, k, path):
    return _linear_series(_affine_value(p, v, k, path), p.matrix, p.dim_in, k)


def _layer_tower(p, v, k, path):
    # The value is the layer's value rule.  The polynomial map only sees the
    # symmetric part of each stored tensor, so derivatives 1..k follow the
    # falling-factorial rule on symmetrized weights.
    w = p.weights
    out = np.zeros((w.dim_out, math.comb(w.dim_in + k, k)))
    out[:, 0] = eval_polynomial(w, v)
    sym = symmetrize(w)
    comps = [np.zeros((w.dim_out,) + (w.dim_in,) * j) for j in range(min(w.order, k) + 1)]
    for j in range(1, w.order + 1):
        term = sym.components[j]
        top = min(j, k)
        for _ in range(j - top):
            term = _contract_last(term, v)
        for r in range(top, 0, -1):
            # term == sym_j contracted with v in its last j - r slots
            comps[r] = comps[r] + math.perm(j, r) * term
            if r > 1:
                term = _contract_last(term, v)
    low = _pack(comps, w.dim_in)  # the components above the layer's order are zero
    out[:, 1:low.shape[1]] = low[:, 1:]
    return out


def _elementwise_tower(p, v, k, path):
    # coordinate i depends on input i alone: f^(r)(v_i) at multi-index r*e_i
    d = p.dim
    out = np.zeros((d, math.comb(d + k, k)))
    out[np.arange(d), _pure_index(d, k)] = _prim_derivatives(p.fn, v, k, path)
    return out


def _product_tower(p, v, k, path):
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
    out = _pack(symmetrize(acc).components, p.dim_in, series=True)
    out[:, 0] = _product_of(p, [t[:, 0].copy() for t in towers])
    return out


def _compose_tower(p, v, k, path):
    if _in_run(p):
        base, degree, coeffs = yield p, v, ~k, path  # the run that ends at p
        return _horner_coeffs(_compose_series(coeffs).T, base, p.dim_in, degree)
    inner = yield p.inner, v, k, path + "/compose.inner"
    mid = inner[:, 0].copy()
    from .operators import compose_towers

    outer = yield p.outer, mid, k, path + "/compose.outer"
    return compose_towers(DerivativeTower._from_packed(mid, outer, k),
                          DerivativeTower._from_packed(v, inner, k))._packed()


def _compose_run(p, v, k, path):
    """The run of elementwise stages that ends at ``p``, for a request of order ``~k``.

    Returns ``(base, degree, coeffs)``: the packed order-k tower of the run's
    base, the first node below it that is not a link, with its degree bound,
    and ``coeffs[j, i, r]`` = f_j^(r)(x_ij) / r!, stage j = 0 the lowest, at
    its input x_ij.  A shared link below ``p`` answers its own run (see
    ``_run_stages``), so the coefficients are those of a run that nothing
    shares.  Stages are evaluated from the base up, so an error names the
    deepest failing stage.
    """
    k = ~k
    fns, node = _run_stages(p)
    below = path + _INNER * len(fns)
    if _in_run(node):
        base, degree, low = yield node, v, ~k, below
        xs = low[-1, :, 0].tolist()
    else:
        base = yield node, v, k, below
        degree, low, xs = _tower_degree(node, k), None, base[:, 0].tolist()
    rows = _stage_pass(fns, xs, k, _stage_paths(path))
    flat = chain.from_iterable(chain.from_iterable(rows))
    coeffs = np.fromiter(flat, np.float64, len(rows) * len(xs) * (k + 1))
    coeffs = coeffs.reshape(len(rows), len(xs), k + 1) / _column_factorials(1, k)
    return base, degree, coeffs if low is None else np.concatenate([low, coeffs])


def _compose_series(coeffs: np.ndarray) -> np.ndarray:
    """Taylor coefficients ``[i, r]`` of the composite of a run's stage series ``coeffs``.

    ``coeffs[j, i]`` is stage j's series in coordinate i, expanded at its
    input; composition is associative, so the stages pair up from the base
    (stage 0) in a balanced tree (Brent & Kung, J. ACM 25, 1978), each level
    one truncated Horner over all pairs and coordinates.  An odd last
    series waits for the next level.  The tree's shape depends on the number
    of stages alone, so a deeper series leaves the lower coefficients as
    they are.
    """
    _, d, width = coeffs.shape
    while coeffs.shape[0] > 1:
        pairs = coeffs.shape[0] // 2
        inner = coeffs[0:2 * pairs:2].reshape(pairs * d, width)
        outer = coeffs[1:2 * pairs:2].reshape(pairs * d, width)
        top = _horner_coeffs(outer.T, inner, 1, width - 1, series=True)
        coeffs = np.concatenate([top.reshape(pairs, d, width), coeffs[2 * pairs:]])
    return coeffs[0]


def _horner_coeffs(coeffs: np.ndarray, inner: np.ndarray, dim_in: int, degree: int,
                   series: bool = False) -> np.ndarray:
    """Packed tower of f(g) from ``coeffs[r, i]``, f_i's Taylor coefficients at g_i(v).

    Truncated Horner, f(g0 + s) = sum_r coeffs[r] s^r with s = g - g0, g of
    ``degree`` at most and its packed tower ``inner``: the step for r needs
    only degrees up to k - r, a prefix in graded order, and multiplies by s
    over the prefix of the pair table that reaches it, so a deeper tower
    leaves the lower entries as they are.  A linear g in one variable takes
    Horner's closed form, ``_linear_coeffs``.  With ``series`` g and the
    result are in series scaling (unit weights); with ``dim_in`` 1 and
    ``series`` it composes univariate series.
    """
    if degree == 1 and dim_in == 1 and len(coeffs) > 1:
        return _linear_coeffs(coeffs, inner, series)
    k = coeffs.shape[0] - 1
    h = np.zeros((coeffs.shape[1], math.comb(dim_in + k, k)))
    h[:, 0] = coeffs[k if degree else 0]  # a constant g (degree 0) is all its value
    if degree:
        ia, weight, steps = _horner_steps(dim_in, k, degree)
        s = inner.take(ia, axis=1) if series else inner.take(ia, axis=1) * weight
        for r, (ib, heads) in zip(range(k - 1, -1, -1), steps):
            h[:, 1:heads.size + 1] = _times(s[:, :ib.size], h, ib, heads)  # reads h first
            h[:, 0] = coeffs[r]
    h[:, 1:] += 0.0  # a sum of -0 terms is +0, as in a sum that starts at +0
    return h


def _linear_coeffs(coeffs: np.ndarray, inner: np.ndarray, series: bool) -> np.ndarray:
    """``_horner_coeffs`` for a linear g = g0 + s*t in one variable, in closed form.

    Entry j is coeffs[j] * s^j in series scaling and coeffs[j] * s^j * j! in
    tower scaling, formed as Horner forms it: coeffs[j] times s (times s * t
    at the t-th factor in tower scaling), j times, so it has Horner's bits.
    Row j of a table per coordinate holds coeffs[j], the j factors and then
    ones; one accumulate multiplies every row out, and entry j is its
    diagonal.  Each entry reads its own coefficient alone, so a deeper tower
    leaves the lower entries as they are.
    """
    k = coeffs.shape[0] - 1
    d_out = inner.shape[0]
    factors = inner[:, 1:2] if series else inner[:, 1:2] * np.arange(k + 1.0)
    h = np.empty((d_out, k + 1))
    rows = max(1, (1 << 15) // (k + 1) ** 2)  # bounds the temporaries
    for lo in range(0, d_out, rows):
        at = slice(lo, lo + rows)
        table = np.where(_lower(k), factors[at, None], 1.0)
        table[:, :, 0] = coeffs[:, at].T
        h[at] = np.multiply.accumulate(table, axis=2).reshape(len(table), -1)[:, ::k + 2]
    h[:, 1:] += 0.0  # a -0 entry is +0, as Horner's sums turn it
    return h


@lru_cache(maxsize=None)
def _lower(k: int) -> np.ndarray:
    """``[j, t]`` is whether t <= j, for 0 <= j, t <= k."""
    out = np.tri(k + 1, dtype=bool)
    out.flags.writeable = False
    return out


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

    if k + p.k > _MAX_DENSE_ORDER:
        raise ValueError(
            f"{path or '/'}: deriv: order {k} is above {_MAX_DENSE_ORDER - p.k}, the largest "
            f"for a derivative of order {p.k} (it needs its inner's dense tower to order "
            f"{k + p.k}, component j has j + 1 axes, and numpy arrays have at most 64)"
        )
    deep = yield p.inner, v, k + p.k, path + "/deriv.inner"
    deep = DerivativeTower._from_packed(v, deep, k + p.k)
    for _ in range(p.k):
        deep = order_reduce(deep)
    return deep._packed()


# --- jets ------------------------------------------------------------------------
#
# A jet in n variables is the packed tower of t -> x(t), t in R^n, in series
# scaling: a ``(dim, C(n+K, K))`` array of the Taylor coefficients of each
# multi-index in t up to degree K, so products have unit weights
# (``series=True``) and no factorial enters the walk.  A request carries
# ``(n, K)``.  Nonlinear rules are the tower kernels in n variables:
# truncated Horner, polynomial substitution and the product
# ``multitensor._mul``.  An elementwise stage over a ray, a curve with no
# entry above degree 1, takes Horner's closed form (``_linear_coeffs``).
# ``jet`` is n = 1, a curve; ``operators.forward_chain`` pushes the identity
# series at a point, n = dim_in, through each stage.  Column 0 of every
# rule is its node's value rule, on a contiguous copy of the input's column
# 0, as ``evaluate`` has it.  Sums over a vector index run over a leading
# axis, which numpy adds in index order for two columns or more, not for one
# (it sums that pairwise), so affine and layer rules sum every column and
# then replace column 0: a deeper jet keeps the bits of the lower columns.

def _constant_jet(p, x, k, path):
    return _linear_series(p.value, 0.0, *k)


def _affine_jet(p, x, k, path):
    out = (p.matrix[:, :, None] * x).sum(axis=1)
    out[:, 0] = _affine_value(p, x[:, 0].copy(), k, path)
    return out


def _layer_jet(p, x, k, path):
    # sum_j w_j . x^(x)j from the raw weights, one slot at a time, so integer
    # weights stay exact (the layer's tower takes its derivatives from
    # symmetrized orbit means)
    n, K = k
    out = np.zeros((p.dim_out, x.shape[1]))
    for w in p.weights.components[1:]:
        term = (w[..., None] * x).sum(axis=-2)  # the last slot
        for _ in range(w.ndim - 2):  # the next slot, summed over its index
            term = _mul(x, term, n, K).sum(axis=-2)
        out += term
    out[:, 0] = _layer_value(p, x[:, 0].copy(), k, path)
    return out


# An elementwise jet divides by float factorials r!, and 171! is above the
# largest float.  Towers stop at order 63 before the walk.
_MAX_FACTORIAL_ORDER = 170


def _elementwise_jet(p, x, k, path):
    n, K = k
    if K > _MAX_FACTORIAL_ORDER:
        raise DomainEvalError(
            f"{path or '/'}: elem({p.fn.name}): order {K} is above {_MAX_FACTORIAL_ORDER}, "
            "the largest whose factorial is a float"
        )
    # An input with no nonzero (or NaN) entry above degree 1 is linear: Horner
    # of degree 1 skips products with those zeros, and a ray (n = 1) takes the
    # closed form, whose bits are Horner's.  Either way the bits are those of
    # degree K wherever they are finite, so reading above degree 1 to choose
    # moves no finite coefficient of a deeper jet.
    degree = K if np.count_nonzero(x[:, n + 1:]) else min(K, 1)
    coeffs = _prim_derivatives(p.fn, x[:, 0], K, path) / _column_factorials(1, K)[:, None]
    return _horner_coeffs(coeffs, x, n, degree, series=True)


def _product_jet(p, x, k, path):
    jets = []
    for i, child in enumerate(p.children):
        jets.append((yield child, x, k, f"{path}/prod[{i}]"))
    n, K = k
    if p.bilinear is not None:  # sum_r a_r * (sum_s B_irs b_s)
        b = (p.bilinear[..., None] * jets[1]).sum(axis=2)
        out = _mul(jets[0], b, n, K).sum(axis=1)
    else:
        out = jets[0]
        for other in jets[1:]:
            out = _mul(out, other, n, K)
    out[:, 0] = _product_of(p, [j[:, 0].copy() for j in jets])
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
    Sum: (_sum_value, _sum_value, _sum_value),
    Product: (_product_value, _product_tower, _product_jet),
    Compose: (_compose_value, _compose_tower, _compose_stages, _compose_run),
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
