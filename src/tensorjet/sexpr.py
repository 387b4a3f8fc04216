"""S-expression syntax for programs: parse and print.

Grammar (see docs/grammar.ebnf for the full EBNF):

    expr    = "id"
            | "(" "const"   vector ")"
            | "(" "affine"  matrix vector ")"
            | "(" "layer"   json-object ")"
            | "(" "elem"    name ")"
            | "(" "sum"     expr expr+ ")"
            | "(" "prod"    expr expr+ ")"
            | "(" "compose" expr expr ")"
            | "(" "deriv"   expr integer ")"
    vector  = "[" number ("," number)* "]"
    matrix  = "[" vector ("," vector)* "]"

``id`` and ``(elem ...)`` have no intrinsic dimension; the parser infers it
from context (an adjacent affine/const/layer sibling) and defaults to 1.
Parse errors carry line/column and what was expected; the layer payload is
the multi-tensor JSON object, embedded verbatim.  Expressions nest at most
``MAX_NESTING`` deep.
"""

from __future__ import annotations

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
    get_primitive,
)


# Deepest nesting of expressions that ``parse`` accepts.  Parsing and
# dimension inference recurse once per level, and this keeps them well inside
# Python's default recursion limit of 1000; deeper text is a parse error.
MAX_NESTING = 400


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
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

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
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-"
        ):
            self.pos += 1
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
            return float(token)
        except ValueError:
            self.fail(f"expected a number, found {token!r}", start)

    def json_object(self) -> str:
        """Consume one balanced {...} blob (string-aware) and return it raw."""
        import json

        self.skip_ws()
        if self.peek() != "{":
            self.fail(f"expected '{{', found {self.found()}")
        start = self.pos
        depth = 0
        in_string = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if in_string:
                if ch == "\\":
                    self.pos += 1
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    blob = self.text[start:self.pos]
                    try:
                        json.loads(blob)
                    except json.JSONDecodeError as exc:
                        self.fail(f"bad JSON payload: {exc.msg}", start)
                    return blob
            self.pos += 1
        self.fail("unterminated JSON payload", start)


# Raw AST: ("id",) | ("const", vec) | ("affine", mat, vec) | ("layer", json)
#        | ("elem", name) | ("sum", [..]) | ("prod", [..])
#        | ("compose", a, b) | ("deriv", a, k)


def parse(text: str) -> Program:
    """Parse program text to a Program, inferring free dimensions from context."""
    cur = _Cursor(text)
    raw = _parse_expr(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("trailing input after program expression")
    try:
        return _resolve(raw, None, None)
    except multitensor.ShapeMismatchError as exc:
        raise SexprError(f"dimension mismatch: {exc}", 1, 1) from None


def print_program(p: Program) -> str:
    """Render a Program back to its s-expression text."""
    out = []
    todo = [p]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo.extend(reversed(_print_form(item)))
    return "".join(out)


def _print_form(p: Program) -> list:
    """A node's text pieces, with its children in place of their text."""
    if isinstance(p, Identity):
        return ["id"]
    if isinstance(p, Constant):
        return [f"(const {_fmt_vector(p.value)})"]
    if isinstance(p, Affine):
        return [f"(affine {_fmt_matrix(p.matrix)} {_fmt_vector(p.offset)})"]
    if isinstance(p, ContractionLayer):
        return [f"(layer {multitensor.to_json(p.weights)})"]
    if isinstance(p, Elementwise):
        return [f"(elem {p.fn.name})"]
    if isinstance(p, (Sum, Product)):
        parts = ["(sum" if isinstance(p, Sum) else "(prod"]
        for child in p.children:
            parts += [" ", child]
        return parts + [")"]
    if isinstance(p, Compose):
        return ["(compose ", p.outer, " ", p.inner, ")"]
    if isinstance(p, ExtractedDerivative):
        return ["(deriv ", p.inner, f" {p.k})"]
    raise TypeError(f"cannot print node {type(p).__name__}")


def _fmt_vector(v) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


def _fmt_matrix(m) -> str:
    return "[" + ",".join(_fmt_vector(row) for row in m) + "]"


def _parse_expr(cur: _Cursor, depth: int = 1):
    cur.skip_ws()
    if depth > MAX_NESTING:
        cur.fail(f"program nested deeper than {MAX_NESTING} levels")
    if cur.peek() != "(":
        word_pos = cur.pos
        word = cur.word()
        if word == "id":
            return ("id",)
        cur.fail(f"expected 'id' or '(', found {word!r}", word_pos)
    cur.expect("(")
    head_pos = cur.pos
    head = cur.word()
    if head == "const":
        vec = _parse_vector(cur)
        out = ("const", vec)
    elif head == "affine":
        mat = _parse_matrix(cur)
        vec = _parse_vector(cur)
        if any(len(row) != len(mat[0]) for row in mat):
            cur.fail("ragged affine matrix", head_pos)
        if len(vec) != len(mat):
            cur.fail(
                f"affine offset has {len(vec)} entries for a "
                f"{len(mat)}-row matrix",
                head_pos,
            )
        out = ("affine", mat, vec)
    elif head == "layer":
        blob = cur.json_object()
        out = ("layer", blob)
    elif head == "elem":
        name_pos = cur.pos
        name = cur.word()
        try:
            get_primitive(name)
        except KeyError:
            cur.fail(f"unknown primitive {name!r}", name_pos)
        out = ("elem", name)
    elif head in ("sum", "prod"):
        children = []
        while True:
            cur.skip_ws()
            if cur.peek() == ")":
                break
            children.append(_parse_expr(cur, depth + 1))
        if len(children) < 2:
            cur.fail(f"{head} needs at least two operands, got {len(children)}", head_pos)
        out = (head, children)
    elif head == "compose":
        operands = []
        while True:
            cur.skip_ws()
            if cur.peek() == ")":
                break
            operands.append(_parse_expr(cur, depth + 1))
        if len(operands) != 2:
            cur.fail(f"compose needs exactly two operands, got {len(operands)}", head_pos)
        out = ("compose", operands[0], operands[1])
    elif head == "deriv":
        inner = _parse_expr(cur, depth + 1)
        k = cur.number()
        if k != int(k) or k < 1:
            cur.fail(f"derivative order must be a positive integer, got {k!r}")
        out = ("deriv", inner, int(k))
    else:
        cur.fail(
            f"unknown form {head!r}; expected one of const, affine, layer, "
            "elem, sum, prod, compose, deriv",
            head_pos,
        )
    cur.expect(")")
    return out


def _parse_vector(cur: _Cursor) -> list[float]:
    cur.expect("[")
    out = [cur.number()]
    while True:
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            out.append(cur.number())
        else:
            break
    cur.expect("]")
    return out


def _parse_matrix(cur: _Cursor) -> list[list[float]]:
    cur.expect("[")
    rows = [_parse_vector(cur)]
    while True:
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
            rows.append(_parse_vector(cur))
        else:
            break
    cur.expect("]")
    return rows


def _signature_of(raw) -> tuple[int | None, int | None]:
    """(dim_in, dim_out) where known without context, else None entries."""
    head = raw[0]
    if head == "id":
        return (None, None)
    if head == "const":
        return (None, len(raw[1]))
    if head == "affine":
        return (len(raw[1][0]), len(raw[1]))
    if head == "layer":
        w = multitensor.from_json(raw[1])
        return (w.dim_in, w.dim_out)
    if head == "elem":
        return (None, None)
    if head in ("sum", "prod"):
        dim_in = dim_out = None
        for child in raw[1]:
            ci, co = _signature_of(child)
            dim_in = dim_in if ci is None else ci
            dim_out = dim_out if co is None else co
        return (dim_in, dim_out)
    if head == "compose":
        fo = _signature_of(raw[1])[1]
        gi = _signature_of(raw[2])[0]
        return (gi, fo)
    if head == "deriv":
        ci, co = _signature_of(raw[1])
        if ci is not None and co is not None:
            return (ci, co * ci ** raw[2])
        return (ci, None)
    raise AssertionError(head)


def _resolve(raw, in_hint: int | None, out_hint: int | None) -> Program:
    head = raw[0]
    if head == "id":
        dim = in_hint or out_hint or 1
        if in_hint and out_hint and in_hint != out_hint:
            raise multitensor.ShapeMismatchError(
                f"id cannot map dim {in_hint} to dim {out_hint}"
            )
        return Identity(dim)
    if head == "const":
        return Constant(tuple(raw[1]), input_dim=in_hint or 1)
    if head == "affine":
        return Affine(raw[1], raw[2])
    if head == "layer":
        return ContractionLayer(multitensor.from_json(raw[1]))
    if head == "elem":
        dim = in_hint or out_hint or 1
        return Elementwise(get_primitive(raw[1]), dim=dim)
    if head in ("sum", "prod"):
        dim_in, dim_out = in_hint, out_hint
        for child in raw[1]:
            ci, co = _signature_of(child)
            dim_in = dim_in or ci
            dim_out = dim_out or co
        children = []
        for child in raw[1]:  # a loop, not a comprehension: one frame per level
            children.append(_resolve(child, dim_in, dim_out))
        return Sum(children) if head == "sum" else Product(children)
    if head == "compose":
        outer_raw, inner_raw = raw[1], raw[2]
        mid = _signature_of(inner_raw)[1] or _signature_of(outer_raw)[0]
        inner = _resolve(inner_raw, in_hint, mid)
        outer = _resolve(outer_raw, inner.dim_out, out_hint)
        return Compose(outer, inner)
    if head == "deriv":
        return ExtractedDerivative(_resolve(raw[1], in_hint, None), raw[2])
    raise AssertionError(head)
