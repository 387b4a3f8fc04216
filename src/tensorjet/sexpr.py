"""S-expression syntax for programs: parse and print.

Grammar (see docs/grammar.ebnf for the full EBNF):

    expr    = "id"
            | "(" "id"      dim ")"
            | "(" "const"   vector [dim] ")"
            | "(" "affine"  matrix vector ")"
            | "(" "layer"   json-object ")"
            | "(" "elem"    name [dim] ")"
            | "(" "sum"     expr expr+ ")"
            | "(" "prod"    expr expr+ ")"
            | "(" "compose" expr expr ")"
            | "(" "deriv"   expr integer ")"
    vector  = "[" number ("," number)* "]"
    matrix  = "[" vector ("," vector)* "]"

``dim`` is a positive integer: the input dimension of an identity, constant
or elementwise node.  Where the text leaves it out, the parser infers it from
context (an adjacent affine/const/layer sibling) and defaults to 1; an
explicit one that its context contradicts is an error at its form.  The
printer always writes it, so printed text parses back to an equal program.
A ``deriv`` order is at most 63, the largest order of a dense tower.
The dimensions each expression fixes by itself are computed once, as it is
parsed.  The layer payload, the multi-tensor JSON object embedded verbatim,
is decoded there too.  Parse errors carry line/column and what was expected;
every number, in a payload too, must be finite.  Expressions nest at most
``MAX_NESTING`` deep.  A bilinear ``Product`` has no text form.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from . import multitensor
from .program import (
    Affine,
    Compose,
    Constant,
    ContractionLayer,
    Elementwise,
    ExtractedDerivative,
    Identity,
    Program,
    Product,
    Sum,
    _check_derivative_order,
    get_primitive,
)


# Deepest nesting of expressions that ``parse`` accepts.  Parsing and
# dimension inference recurse once per level, and this keeps them well inside
# Python's default recursion limit of 1000; deeper text is a parse error.
MAX_NESTING = 400

_SPACE = re.compile(r"\s*")  # \s is exactly str.isspace
_WORD = re.compile(r"[\w-]*")  # \w is exactly str.isalnum plus "_"
_JSON = json.JSONDecoder()


class SexprError(ValueError):
    """Syntax or consistency error in program text, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos=None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        head = self.text[:pos]
        line = head.count("\n") + 1
        column = pos - (head.rfind("\n") + 1) + 1
        return line, column

    def fail(self, message: str, pos=None):
        line, column = self.location(pos)
        raise SexprError(message, line, column)

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def found(self) -> str:
        ch = self.peek()
        return repr(ch) if ch else "end of input"

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.found()}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        if self.pos == start:
            self.fail(f"expected a symbol, found {self.found()}")
        return self.text[start:self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in "+-.eE"
        ):
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            value = float(token)
        except ValueError:
            self.fail(f"expected a number, found {repr(token) if token else self.found()}", start)
        if not math.isfinite(value):
            self.fail(f"expected a finite number, found {token!r}", start)
        return value

    def layer_payload(self) -> multitensor.MultiTensor:
        """Consume one JSON object and build its multi-tensor; the text is decoded once."""
        self.skip_ws()
        if self.peek() != "{":
            self.fail(f"expected '{{', found {self.found()}")
        start = self.pos
        try:
            obj, self.pos = _JSON.raw_decode(self.text, start)
            weights = multitensor._from_json_object(obj)
        except json.JSONDecodeError as exc:
            self.fail(f"bad JSON payload: {exc.msg}", start)
        except KeyError as exc:
            self.fail(f"bad layer payload: missing key {exc}", start)
        except (TypeError, ValueError, RecursionError) as exc:
            self.fail(f"bad layer payload: {exc}", start)
        if not all(np.isfinite(c).all() for c in weights.components):
            self.fail("bad layer payload: non-finite entry", start)
        return weights


# Raw AST: (head, dim_in, dim_out, start, *operands).  dim_in and dim_out are
# the dimensions the expression fixes without context, None where it fixes
# none (an explicit dim fixes an id's, a const's or an elem's dim_in); start
# is the offset of its "(" or "id", turned into a line and column only for an
# error.
#   ("id", ..) | ("const", .., vec) | ("affine", .., mat, vec)
#   | ("layer", .., MultiTensor) | ("elem", .., Primitive)
#   | ("sum", .., [raw..]) | ("prod", .., [raw..])
#   | ("compose", .., outer, inner) | ("deriv", .., inner, k)


def parse(text: str) -> Program:
    """Parse program text to a Program, inferring free dimensions from context."""
    cur = _Cursor(text)
    raw = _parse_expr(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("trailing input after program expression")
    return _resolve(cur, raw, None, None)


def print_program(p: Program) -> str:
    """Render a Program back to its s-expression text (ValueError for a bilinear Product)."""
    out = []
    todo = [p]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        form = _FORMS.get(type(item))
        if form is None:
            raise TypeError(f"cannot print node {type(item).__name__}")
        head, tail = form(item)
        out.append(head)
        todo.append(tail)
        for child in reversed(item.children):
            todo += [child, " "]
    return "".join(out)


def _product_form(p: Product):
    if p.bilinear is not None:
        raise ValueError("a bilinear Product has no s-expression form")
    return "(prod", ")"


# A node's text before and after its children, which are each preceded by a space.
_FORMS = {
    Identity: lambda p: (f"(id {p.dim}", ")"),
    Constant: lambda p: (f"(const {_fmt_vector(p.value)} {p.dim_in}", ")"),
    Affine: lambda p: (f"(affine {_fmt_matrix(p.matrix)} {_fmt_vector(p.offset)}", ")"),
    ContractionLayer: lambda p: (f"(layer {multitensor.to_json(p.weights)}", ")"),
    Elementwise: lambda p: (f"(elem {p.fn.name} {p.dim}", ")"),
    Sum: lambda p: ("(sum", ")"),
    Product: _product_form,
    Compose: lambda p: ("(compose", ")"),
    ExtractedDerivative: lambda p: ("(deriv", f" {p.k})"),
}


def _fmt_vector(v) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


def _fmt_matrix(m) -> str:
    return "[" + ",".join(_fmt_vector(row) for row in m) + "]"


def _parse_expr(cur: _Cursor, depth: int = 1):
    cur.skip_ws()
    if depth > MAX_NESTING:
        cur.fail(f"program nested deeper than {MAX_NESTING} levels")
    start = cur.pos
    if cur.peek() != "(":
        word = cur.word()
        if word == "id":
            return ("id", None, None, start)
        cur.fail(f"expected 'id' or '(', found {word!r}", start)
    cur.expect("(")
    head_pos = cur.pos
    head = cur.word()
    if head == "id":
        dim = _positive_integer(cur, "dimension")
        out = ("id", dim, dim, start)
    elif head == "const":
        vec = _parse_vector(cur)
        out = ("const", _optional_dim(cur), len(vec), start, vec)
    elif head == "affine":
        mat = _parse_list(cur, _parse_vector)
        vec = _parse_vector(cur)
        if any(len(row) != len(mat[0]) for row in mat):
            cur.fail("ragged affine matrix", head_pos)
        if len(vec) != len(mat):
            cur.fail(
                f"affine offset has {len(vec)} entries for a "
                f"{len(mat)}-row matrix",
                head_pos,
            )
        out = ("affine", len(mat[0]), len(mat), start, mat, vec)
    elif head == "layer":
        weights = cur.layer_payload()
        out = ("layer", weights.dim_in, weights.dim_out, start, weights)
    elif head == "elem":
        name_pos = cur.pos
        name = cur.word()
        try:
            prim = get_primitive(name)
        except KeyError:
            cur.fail(f"unknown primitive {name!r}", name_pos)
        dim = _optional_dim(cur)
        out = ("elem", dim, dim, start, prim)
    elif head in ("sum", "prod", "compose"):
        operands = []
        while True:
            cur.skip_ws()
            if cur.peek() == ")":
                break
            operands.append(_parse_expr(cur, depth + 1))
        if head == "compose":
            if len(operands) != 2:
                cur.fail(f"compose needs exactly two operands, got {len(operands)}", head_pos)
            outer, inner = operands
            out = ("compose", inner[1], outer[2], start, outer, inner)
        else:
            if len(operands) < 2:
                cur.fail(f"{head} needs at least two operands, got {len(operands)}", head_pos)
            dim_in = dim_out = None
            for child in operands:
                dim_in = child[1] or dim_in
                dim_out = child[2] or dim_out
            out = (head, dim_in, dim_out, start, operands)
    elif head == "deriv":
        inner = _parse_expr(cur, depth + 1)
        cur.skip_ws()
        k_pos = cur.pos
        k = _positive_integer(cur, "derivative order")
        try:
            _check_derivative_order(k)  # before the power below
        except ValueError as exc:
            cur.fail(str(exc), k_pos)
        dim_in, dim_out = inner[1], inner[2]
        dim_out = None if dim_in is None or dim_out is None else dim_out * dim_in**k
        out = ("deriv", dim_in, dim_out, start, inner, k)
    else:
        cur.fail(
            f"unknown form {head!r}; expected one of id, const, affine, layer, "
            "elem, sum, prod, compose, deriv",
            head_pos,
        )
    cur.expect(")")
    return out


def _parse_list(cur: _Cursor, item) -> list:
    """A "[" item ("," item)* "]" list, each item read by ``item(cur)``."""
    cur.expect("[")
    out = [item(cur)]
    cur.skip_ws()
    while cur.peek() == ",":
        cur.pos += 1
        out.append(item(cur))
        cur.skip_ws()
    cur.expect("]")
    return out


def _parse_vector(cur: _Cursor) -> list[float]:
    return _parse_list(cur, _Cursor.number)


def _positive_integer(cur: _Cursor, what: str) -> int:
    x = cur.number()
    if x != int(x) or x < 1:
        cur.fail(f"{what} must be a positive integer, got {x!r}")
    return int(x)


def _optional_dim(cur: _Cursor) -> int | None:
    """A form's trailing dimension, None where the form ends without one."""
    cur.skip_ws()
    return None if cur.peek() == ")" else _positive_integer(cur, "dimension")


def _own_dim(raw, in_hint: int | None, out_hint: int | None = None) -> int:
    """The dim of an id, const or elem: its explicit one, which each hint of its
    context must fit, else the first hint, else 1."""
    own = raw[1]
    if own is None:
        return in_hint or out_hint or 1
    for hint in (in_hint, out_hint):
        if hint and hint != own:
            raise multitensor.ShapeMismatchError(
                f"{raw[0]} has dim {own}, its context needs dim {hint}"
            )
    return own


def _resolve(cur: _Cursor, raw, in_hint: int | None, out_hint: int | None) -> Program:
    head = raw[0]
    try:
        if head == "id":
            dim = _own_dim(raw, in_hint, out_hint)
            if in_hint and out_hint and in_hint != out_hint:
                raise multitensor.ShapeMismatchError(
                    f"id cannot map dim {in_hint} to dim {out_hint}"
                )
            return Identity(dim)
        if head == "const":
            return Constant(raw[4], input_dim=_own_dim(raw, in_hint))
        if head == "affine":
            return Affine(raw[4], raw[5])
        if head == "layer":
            return ContractionLayer(raw[4])
        if head == "elem":
            return Elementwise(raw[4], dim=_own_dim(raw, in_hint, out_hint))
        if head in ("sum", "prod"):
            dim_in, dim_out = in_hint, out_hint
            for child in raw[4]:
                dim_in = dim_in or child[1]
                dim_out = dim_out or child[2]
            children = []
            for child in raw[4]:  # a loop, not a comprehension: one frame per level
                children.append(_resolve(cur, child, dim_in, dim_out))
            return Sum(children) if head == "sum" else Product(children)
        if head == "compose":
            outer_raw, inner_raw = raw[4], raw[5]
            inner = _resolve(cur, inner_raw, in_hint, inner_raw[2] or outer_raw[1])
            outer = _resolve(cur, outer_raw, inner.dim_out, out_hint)
            return Compose(outer, inner)
        if head == "deriv":
            return ExtractedDerivative(_resolve(cur, raw[4], in_hint, None), raw[5])
    except multitensor.ShapeMismatchError as exc:
        # a child's mismatch is already a SexprError, so this one is raw's own
        line, column = cur.location(raw[3])
        raise SexprError(f"dimension mismatch: {exc}", line, column) from None
    raise AssertionError(head)
