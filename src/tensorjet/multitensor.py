"""Dense multi-tensor values: a vector plus derivative-style tensors of orders 1..k.

A ``MultiTensor`` of shape ``(dim_out, dim_in, order)`` stores ``order + 1``
dense float64 arrays; component ``j`` has shape ``(dim_out,) + (dim_in,)*j``.
Component 0 is a plain vector, component 1 a matrix, component 2 a
three-way array, and so on.  Contracting component ``j`` with ``j`` copies
of a vector and summing the components evaluates the polynomial map

    W(v) = w_0 + w_1 . v + w_2 . (v (x) v) + ... + w_k . v^(x)k

which is how these values act on the underlying vector space.

Index convention: entry ``(i; a_1, ..., a_j)`` of component ``j`` lives at
flat offset ``i * dim_in**j + sum(a_m * dim_in**(j-m))`` -- i.e. plain
C-order numpy layout.  JSON serialization flattens in exactly this order.

Single contraction eats the *last* tensor slot.  An order-0 value cannot be
contracted; by convention it passes through unchanged, so order-0 components
represent constant (translation) terms.

A derivative tower is symmetric, so inside the DAG walk it is kept packed:
one entry per slot orbit (per multi-index), see ``_pack`` and ``_unpack``
below.  Its dense ``MultiTensor`` is built only at the boundary.

All values are immutable after construction (backing arrays are marked
read-only); every operation returns a fresh value, so instances are safe to
share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


@dataclass(frozen=True)
class Shape:
    """Extent of a multi-tensor: output dim, input dim, truncation order."""

    dim_out: int
    dim_in: int
    order: int

    def __post_init__(self):
        if self.dim_out < 1 or self.dim_in < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self}")

    def component_shape(self, j: int) -> tuple[int, ...]:
        return (self.dim_out,) + (self.dim_in,) * j


class MultiTensor:
    """Immutable stack of dense tensors of orders 0..k over a common index pair.

    ``components[j]`` is the order-``j`` tensor.  Entries are float64 and
    finite unless an operation documents otherwise.
    """

    __slots__ = ("shape", "components")

    def __init__(self, shape: Shape, components):
        if len(components) != shape.order + 1:
            raise ShapeMismatchError(
                f"expected {shape.order + 1} components, got {len(components)}"
            )
        frozen = []
        for j, comp in enumerate(components):
            arr = np.array(comp, dtype=np.float64, order="C")  # always a private copy
            want = shape.component_shape(j)
            if arr.shape != want:
                if arr.size == math.prod(want):
                    arr = arr.reshape(want)
                else:
                    raise ShapeMismatchError(
                        f"component {j}: expected shape {want}, got {arr.shape}"
                    )
            arr.flags.writeable = False
            frozen.append(arr)
        self.shape = shape
        self.components = tuple(frozen)

    @classmethod
    def _owning(cls, shape: Shape, components) -> MultiTensor:
        """A multi-tensor of fresh float64 arrays the engine built: frozen in place, not copied."""
        self = cls.__new__(cls)
        self.shape, self.components = shape, tuple(components)
        for comp in self.components:
            comp.flags.writeable = False
        return self

    @property
    def dim_out(self) -> int:
        return self.shape.dim_out

    @property
    def dim_in(self) -> int:
        return self.shape.dim_in

    @property
    def order(self) -> int:
        return self.shape.order

    def component(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.order:
            raise IndexError(f"component {j} of an order-{self.order} multi-tensor")
        return self.components[j]

    @property
    def value(self) -> np.ndarray:
        return self.components[0]

    def __repr__(self):
        return (
            f"MultiTensor(dim_out={self.dim_out}, dim_in={self.dim_in}, "
            f"order={self.order})"
        )

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """True if every component of order >= 2 is invariant under slot permutations.

        Deviation is measured against the symmetrized component, relative to
        ``max(1, |component|_inf)``.
        """
        for j in range(2, self.order + 1):
            comp = self.components[j]
            scale = max(1.0, float(np.max(np.abs(comp))))
            if np.max(np.abs(comp - _symmetrize_component(comp))) > tol * scale:
                return False
        return True


def zero(shape: Shape) -> MultiTensor:
    """The all-zero multi-tensor of the given shape."""
    return MultiTensor(shape, [np.zeros(shape.component_shape(j)) for j in range(shape.order + 1)])


def add(a: MultiTensor, b: MultiTensor) -> MultiTensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")
    return MultiTensor(a.shape, [x + y for x, y in zip(a.components, b.components)])


def scale(a: MultiTensor, c: float) -> MultiTensor:
    return MultiTensor(a.shape, [c * x for x in a.components])


def contract_once(w: MultiTensor, v) -> MultiTensor:
    """Contract the last tensor slot of every component with the vector ``v``.

    Each order-``j`` component (j >= 1) drops to order ``j - 1``; the old
    order-0 component, which cannot be contracted, is added into the new
    order-0 slot.  An order-0 input is returned unchanged (constant map).
    """
    v = _as_vector(v, w.dim_in, "contraction vector")
    if w.order == 0:
        return w
    new_shape = Shape(w.dim_out, w.dim_in, w.order - 1)
    comps = [_contract_last(w.components[j], v) for j in range(1, w.order + 1)]
    comps[0] = comps[0] + w.components[0]
    return MultiTensor(new_shape, comps)


def eval_polynomial(w: MultiTensor, v) -> np.ndarray:
    """Evaluate the polynomial map w_0 + w_1.v + ... + w_k.v^(x)k."""
    v = _as_vector(v, w.dim_in, "evaluation vector")
    out = w.components[0].copy()
    for j in range(1, w.order + 1):
        term = w.components[j]
        for _ in range(j):
            term = _contract_last(term, v)
        out += term
    return out


def algebra_product(
    a: MultiTensor,
    b: MultiTensor,
    bilinear: np.ndarray | None = None,
    max_order: int | None = None,
) -> MultiTensor:
    """Bilinear product concatenating tensor slots.

    On simple tensors ``(v (x) f_1..f_p) * (u (x) g_1..g_q)`` the result is
    ``B(v, u) (x) f_1..f_p (x) g_1..g_q``, extended bilinearly.  ``bilinear``
    is a ``(d, a.dim_out, b.dim_out)`` array encoding ``B``; ``None`` selects
    the componentwise product (requires equal output dims).  The result order
    is ``a.order + b.order``, truncated to ``max_order`` when given.
    """
    if a.dim_in != b.dim_in:
        raise ShapeMismatchError(
            f"algebra_product input dims differ: {a.dim_in} vs {b.dim_in}"
        )
    if bilinear is None:
        if a.dim_out != b.dim_out:
            raise ShapeMismatchError(
                "componentwise product needs equal output dims, got "
                f"{a.dim_out} and {b.dim_out}"
            )
        d_out = a.dim_out
    else:
        bilinear = np.asarray(bilinear, dtype=np.float64)
        if bilinear.ndim != 3 or bilinear.shape[1:] != (a.dim_out, b.dim_out):
            raise ShapeMismatchError(
                f"bilinear map must have shape (d, {a.dim_out}, {b.dim_out}), "
                f"got {bilinear.shape}"
            )
        d_out = bilinear.shape[0]

    full_order = a.order + b.order
    out_order = full_order if max_order is None else min(max_order, full_order)
    shape = Shape(d_out, a.dim_in, out_order)
    comps = [np.zeros(shape.component_shape(n)) for n in range(out_order + 1)]
    for p in range(a.order + 1):
        for q in range(b.order + 1):
            if p + q > out_order:
                continue
            comps[p + q] += _pair_product(a.components[p], b.components[q], bilinear)
    return MultiTensor._owning(shape, comps)


def symmetrize(w: MultiTensor) -> MultiTensor:
    """Symmetrize every component over permutations of its tensor slots.

    Each orbit of slot-permuted entries is replaced by its mean (orbit sums
    over sorted-index representatives), so every component of the result is
    exactly symmetric and symmetrizing it again is a bitwise no-op.  The
    result differs from the j!-permutation average by rounding only.
    """
    return MultiTensor._owning(w.shape, [_symmetrize_component(c) for c in w.components])


def truncate(w: MultiTensor, new_order: int) -> MultiTensor:
    """Drop components above ``new_order``."""
    if new_order < 0:
        raise ValueError("new_order must be >= 0")
    if new_order >= w.order:
        return w
    return MultiTensor(
        Shape(w.dim_out, w.dim_in, new_order), list(w.components[: new_order + 1])
    )


def to_json(w: MultiTensor) -> str:
    """Serialize to JSON with components flattened in C order; bit-exact round trip."""
    return json.dumps(
        {
            "dim_out": w.dim_out,
            "dim_in": w.dim_in,
            "order": w.order,
            "components": [c.ravel().tolist() for c in w.components],
        }
    )


def from_json(text: str) -> MultiTensor:
    """Inverse of ``to_json``; ValueError unless the dims and order are JSON integers."""
    return _from_json_object(json.loads(text))


def _from_json_object(obj) -> MultiTensor:
    """The multi-tensor of an already decoded ``to_json`` object."""
    shape = Shape(obj["dim_out"], obj["dim_in"], obj["order"])
    for name in ("dim_out", "dim_in", "order"):
        value = getattr(shape, name)
        if type(value) is not int:  # a JSON true is a bool, 1.0 a float
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("non-finite entry")
            raise ValueError(f"{name} must be an integer, got {value!r}")
    comps = obj["components"]
    if len(comps) != shape.order + 1:
        raise ShapeMismatchError(
            f"expected {shape.order + 1} components, got {len(comps)}"
        )
    return MultiTensor(
        shape,
        [np.asarray(comps[j], dtype=np.float64).reshape(shape.component_shape(j))
         for j in range(shape.order + 1)],
    )


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise ShapeMismatchError(f"{what} must have shape ({dim},), got {v.shape}")
    return v


def _contract_last(term: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``term`` with its last slot contracted with the vector ``v``.

    This is the one BLAS call ``np.tensordot(term, v, axes=([-1], [0]))``
    makes, a ``(N, d) @ (d, 1)`` product, without its argument handling;
    the shapes are kept because a ``(d,)`` vector may take another BLAS path
    and round otherwise.
    """
    d = v.shape[0]
    return np.dot(term.reshape(-1, d), v.reshape(d, 1)).reshape(term.shape[:-1])


def _symmetrize_component(comp: np.ndarray) -> np.ndarray:
    """Symmetrize one component over its tensor slots by orbit sums.

    The entries whose slot indices are permutations of one another form an
    orbit, represented by the sorted index tuple.  Each orbit's entries are
    summed (in C order, from +0.0) and divided by the orbit size, and every
    entry takes its orbit's mean, so the output is exactly symmetric.  It
    equals the average over all j! slot permutations up to rounding.  One
    ``bincount`` serves every output row: row i's orbit ids are offset by
    i times the orbit count, and ``bincount`` adds in input order, so each
    orbit still sums in C order.  An input that is already exactly symmetric
    comes back as a bitwise copy, so a second pass is a bitwise no-op.  The
    result is always a new array.
    """
    j = comp.ndim - 1
    if j < 2:
        return comp.copy()
    rep, orbit, sizes, _ = _orbit_index(comp.shape[1], j)
    flat = comp.reshape(comp.shape[0], -1)
    if np.array_equal(flat, flat.take(rep, axis=1)):
        return comp.copy()
    rows, n = flat.shape[0], sizes.size
    ids = orbit + np.arange(0, rows * n, n)[:, None]
    means = np.bincount(ids.ravel(), weights=flat.ravel(), minlength=rows * n).reshape(rows, n)
    means /= sizes
    return means.take(orbit, axis=1).reshape(comp.shape)


@lru_cache(maxsize=None)
def _orbit_index(dim_in: int, j: int) -> tuple[np.ndarray, ...]:
    """Slot-permutation orbits of the flat index space ``(dim_in,)*j``.

    Returns, per flat index, the flat index of its sorted representative
    and a dense orbit id, plus, per orbit, its size and the flat index of
    its representative.  Orbit ids follow the sorted slot tuples in
    lexicographic order.  Only integer index data is cached, never tensor
    values.
    """
    dims = (dim_in,) * j
    slots = np.indices(dims).reshape(j, dim_in**j)
    slots.sort(axis=0)
    rep = np.ravel_multi_index(tuple(slots), dims) if j else np.zeros(1, dtype=np.intp)
    heads, orbit, sizes = np.unique(rep, return_inverse=True, return_counts=True)
    for arr in (rep, orbit, sizes, heads):
        arr.flags.writeable = False
    return rep, orbit, sizes, heads


def _pair_product(ap: np.ndarray, bq: np.ndarray, bilinear: np.ndarray | None) -> np.ndarray:
    if bilinear is None:
        d = ap.shape[0]  # one product per entry; the caller adds it into zeros
        return (ap.reshape(d, -1, 1) * bq.reshape(d, 1, -1)).reshape(ap.shape + bq.shape[1:])
    t = np.tensordot(bilinear, ap, axes=([1], [0]))  # (d, b_out, p slots)
    return np.tensordot(t, bq, axes=([1], [0]))  # (d, p slots, q slots)


# --- packed towers ----------------------------------------------------------------
#
# An exactly symmetric tower of order K over d inputs is fixed by one entry
# per slot orbit: the derivative d^alpha for each multi-index alpha with
# |alpha| <= K.  Packed, it is one (dim_out, C(d+K, K)) array of those
# entries, degree by degree (graded order); within degree j the multi-indices
# follow the orbit ids of ``_orbit_index(d, j)``.  This is the truncated
# polynomial ring in d variables, i.e. the truncated symmetric tensor
# algebra, with each orbit stored once (Neidinger, Math. Comp. 74, 2005).
# The order of degrees up to K is a prefix of the order up to K + 1.
# Kernels gather with ``ndarray.take`` along one axis, a plain copy loop;
# fancy indexing (``x[:, ia]``, ``h[..., ib]``, above all on strided views)
# takes numpy's general advanced-index path for the same values.


def _pack(components, dim_in: int, series: bool = False) -> np.ndarray:
    """Packed entries of exactly symmetric components: a gather of orbit heads.

    ``components[j]`` has shape ``(dim_out,) + (dim_in,)*j``.  With
    ``series`` they are in series scaling (component j holds the derivatives
    divided by j!), and each packed entry is its entry times j!.
    """
    d_out = components[0].shape[0]
    packed = np.concatenate(
        [c.reshape(d_out, -1).take(_orbit_index(dim_in, j)[3], axis=1)
         for j, c in enumerate(components)],
        axis=1,
    )
    return packed * _column_factorials(dim_in, len(components) - 1) if series else packed


def _unpack(packed: np.ndarray, dim_in: int, order: int, series: bool = False) -> MultiTensor:
    """The dense tower of packed entries; ``series`` divides component j by j!."""
    if series:
        packed = packed / _column_factorials(dim_in, order)
    return MultiTensor._owning(Shape(packed.shape[0], dim_in, order),
                               [_component(packed, dim_in, j) for j in range(order + 1)])


def _component(packed: np.ndarray, dim_in: int, j: int) -> np.ndarray:
    """Dense component j of a packed tower, shape ``(dim_out,) + (dim_in,)*j``, C order."""
    block = packed[:, _degree_starts(dim_in, j)[j]:]
    return block.take(_orbit_index(dim_in, j)[1], axis=1).reshape((-1,) + (dim_in,) * j)


@lru_cache(maxsize=None)
def _column_factorials(dim_in: int, order: int) -> np.ndarray:
    """|alpha|! for each entry of a packed tower."""
    starts = _degree_starts(dim_in, order)
    out = np.repeat([float(math.factorial(j)) for j in range(order + 1)], np.diff(starts))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _degree_starts(dim_in: int, order: int) -> tuple[int, ...]:
    """Offset of each degree's block in a packed tower, and the total size last."""
    return tuple(math.comb(dim_in + j - 1, dim_in) for j in range(order + 2))


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """``[a, b]`` is C(a, b) for 0 <= a, b <= n (int64)."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, n + 1):
        table[a, 1:] = table[a - 1, 1:] + table[a - 1, :-1]
    table.flags.writeable = False
    return table


def _rank(exps: np.ndarray) -> np.ndarray:
    """Packed position of each multi-index, from its exponents on the last axis.

    Within degree j, sorted slot tuples in lexicographic order are the
    exponent vectors in descending lexicographic order, so the position
    counts the multi-indices of lower degree, C(j + d - 1, d), plus, for
    each variable i < d - 1, those of degree j that agree before i and
    exceed alpha_i there: C(r_i + d - i - 2, d - i - 1), r_i the degree
    left after variable i.
    """
    d = exps.shape[-1]
    deg = exps.sum(axis=-1)
    left = deg[..., None] - np.cumsum(exps, axis=-1)[..., :-1]
    i = np.arange(d - 1)
    table = _binomials(int(deg.max(initial=0)) + d)
    return table[deg + d - 1, d] + table[left + d - 2 - i, d - 1 - i].sum(axis=-1)


def _monomials(dim_in: int, order: int) -> np.ndarray:
    """Exponents of every multi-index of degree <= ``order``, in packed order."""
    blocks = [np.zeros((1, dim_in), dtype=np.int64)]
    for _ in range(order):
        grown = (blocks[-1][:, None, :] + np.eye(dim_in, dtype=np.int64)).reshape(-1, dim_in)
        _, first = np.unique(_rank(grown), return_index=True)
        blocks.append(grown[first])
    return np.concatenate(blocks)


@lru_cache(maxsize=None)
def _pure_index(dim_in: int, order: int) -> np.ndarray:
    """``[r, i]``: packed position of the multi-index r * e_i."""
    exps = np.arange(order + 1)[:, None, None] * np.eye(dim_in, dtype=np.int64)
    out = _rank(exps)
    out.flags.writeable = False
    return out


# (dim_in, degree, or None for no bound) -> the deepest pair table built
_PAIR_TABLES = {}


def _pair_table(dim_in: int, order: int, degree: int):
    """Leibniz table of a truncated product ``s * h``, s of degree 1 to ``degree``.

    Returns ``(ia, ib, weight, heads, cuts)`` over the pairs of packed
    positions (a, b) with 1 <= |a| <= ``degree`` >= 1 and |a + b| <= some
    order >= ``order``, sorted by their target c = a + b and then by a.
    Entry c of the product, for |c| >= 1, is the sum over its pairs of
    ``weight * s[a] * h[b]``, with weight prod_i C(c_i, a_i) (Leibniz), and
    its pairs start at ``heads[c - 1]``; every such c has a pair.  The pairs
    with |c| <= n are a prefix, the table of order n: ``cuts[n]`` counts them
    and their targets.  So one table, the deepest asked for, serves every
    order; only integer index data and integer weights are kept.
    """
    key = (dim_in, degree if degree < order else None)
    table = _PAIR_TABLES.get(key)
    if table is None or len(table[4]) <= order:
        table = _PAIR_TABLES[key] = _build_pair_table(dim_in, order, degree)
    return table


def _build_pair_table(dim_in: int, order: int, degree: int):
    exps = _monomials(dim_in, order)
    starts = _degree_starts(dim_in, order)
    binom = _binomials(order)
    blocks = []  # one per degree |a|: each b of degree <= order - |a|
    for p in range(1, min(degree, order) + 1):
        a = np.arange(starts[p], starts[p + 1]).repeat(starts[order - p + 1])
        b = np.tile(np.arange(starts[order - p + 1]), starts[p + 1] - starts[p])
        c = exps[a] + exps[b]
        blocks.append((a, b, _rank(c), binom[c, exps[a]].prod(axis=1)))
    ia, ib, ic, weight = (np.concatenate(column) for column in zip(*blocks))
    by_target = np.argsort(ic, kind="stable")
    ia, ib, ic = ia[by_target], ib[by_target], ic[by_target]
    weight = weight[by_target].astype(np.float64)
    heads = np.searchsorted(ic, np.arange(1, exps.shape[0]))
    for arr in (ia, ib, weight, heads):
        arr.flags.writeable = False
    cuts = tuple((int(np.searchsorted(ic, size)), size - 1) for size in starts[1:])
    return ia, ib, weight, heads, cuts


def _times(s: np.ndarray, h: np.ndarray, ib: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Truncated products s * h on the last axis: ``s`` holds ``weight * s[a]`` per pair."""
    terms = h.take(ib, axis=-1)
    terms *= s
    return np.add.reduceat(terms, heads, axis=-1)  # callers turn -0 sums into +0 at the end


def _mul(a: np.ndarray, b: np.ndarray, dim_in: int, order: int) -> np.ndarray:
    """Truncated product a * b of packed towers in series scaling, on the last axis.

    The entries are Taylor coefficients d^alpha / alpha!, so the products
    have unit weights; ``a`` broadcasts to ``b``.  Entry c is a_0 * b_c plus
    the sum over its pairs in the unbounded pair table, which are the same
    at every order, so a deeper product leaves the lower entries bitwise
    unchanged.
    """
    out = a[..., :1] * b
    if order:
        ia, ib, _, heads, cuts = _pair_table(dim_in, order, order)
        pairs, targets = cuts[order]
        out[..., 1:] += _times(a.take(ia[:pairs], axis=-1), b, ib[:pairs], heads[:targets])
    out += 0.0  # a sum of -0 terms is +0, as in a sum that starts at +0
    return out


@lru_cache(maxsize=None)
def _horner_steps(dim_in: int, k: int, degree: int):
    """``ia``, weights and, per step i (degree i times s up to degree i + 1), ``(ib, heads)``."""
    ia, ib, weight, heads, cuts = _pair_table(dim_in, k, degree)
    steps = tuple((ib[:cuts[i + 1][0]], heads[:cuts[i + 1][1]]) for i in range(k))
    return ia[:cuts[k][0]], weight[:cuts[k][0]], steps


def _substitute(f: np.ndarray, g: np.ndarray, dim_in: int, order: int,
                series: bool = False) -> np.ndarray:
    """Packed tower of f(g) from the packed towers of f at g0 and of g, to ``order``.

    f(g0 + delta) = sum c_alpha delta^alpha, c_alpha = d^alpha f / alpha!, in
    nested form: h_alpha = c_alpha + sum of delta_i * h_(alpha + e_i) over the
    children of alpha (i at least alpha's last variable), from f's degree down
    to h_0.  Degree j needs h up to degree ``order - j``; each product is a
    Horner step, so an elementwise f gets ``program._horner_coeffs``'s bits.
    With ``series`` g and the result are in series scaling (unit weights).
    """
    d_out, d = f.shape[0], g.shape[0]
    degree = _packed_degree(f, d, order)
    out = np.zeros((d_out, g.shape[1]))
    if degree:
        starts, sizes = _degree_starts(d, degree), _degree_starts(dim_in, order)
        plan, factorials = _nest_plan(d, degree)
        coeffs = f[:, :starts[-1]] / factorials
        ia, weight, steps = _horner_steps(dim_in, order, order)
        # delta = g - g0: no pair reads g0
        s = g.take(ia, axis=1) if series else g.take(ia, axis=1) * weight
        var, first = plan[-1]
        p = coeffs[:, starts[degree]:, None] * g[var, :sizes[order - degree + 2]]
        for j in range(degree - 1, -1, -1):
            h = np.add.reduceat(p, first, axis=1)
            h[:, :, 0] = coeffs[:, starts[j]:starts[j + 1]]  # not the products' value column
            if j:
                var, first = plan[j - 1]
                ib, heads = steps[order - j]
                p = np.zeros((d_out, var.size, heads.size + 1))
                rows = max(1, (1 << 15) // (d_out * ib.size))  # bounds the temporaries
                for lo in range(0, var.size, rows):
                    at = slice(lo, lo + rows)
                    p[:, at, 1:] = _times(s[var[at], :ib.size], h[:, at], ib, heads)
        out = h[:, 0] + 0.0  # a sum of -0 terms is +0, as in a sum that starts at +0
    out[:, 0] = f[:, 0]
    return out


def _packed_degree(packed: np.ndarray, dim_in: int, order: int) -> int:
    """The last degree whose block has a nonzero (or NaN) entry; 0 if none."""
    starts = _degree_starts(dim_in, order)
    return next((j for j in range(order, 0, -1) if packed[:, starts[j]:starts[j + 1]].any()), 0)


@lru_cache(maxsize=None)
def _nest_plan(dim: int, degree: int):
    """Per degree j = 1..degree, ``(var, first)``: each multi-index's last variable and
    where the (contiguous) children of each one of degree j - 1 start; and alpha!."""
    exps, starts = _monomials(dim, degree), _degree_starts(dim, degree)
    var = dim - 1 - (exps[:, ::-1] > 0).argmax(axis=1)
    parent = _rank(exps[1:] - np.eye(dim, dtype=np.int64)[var[1:]])  # parent[a - 1] of a >= 1
    plan = tuple((var[starts[j]:starts[j + 1]], np.searchsorted(
        parent[starts[j] - 1:starts[j + 1] - 1], np.arange(starts[j - 1], starts[j])))
        for j in range(1, degree + 1))
    return plan, np.array([math.prod(map(math.factorial, e)) for e in exps.tolist()], float)
