import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    MultiTensor,
    Product,
    Shape,
    evaluate,
    get_primitive,
    structurally_equal,
    to_json,
)
from tensorjet.sexpr import MAX_NESTING, SexprError, parse, print_program

from _gen import random_program


ROUND_TRIP_CASES = [
    "id",
    "(const [1.0,2.0])",
    "(affine [[1.0,2.0],[3.0,4.0]] [0.0,0.0])",
    "(elem sin)",
    "(elem pow3)",
    "(sum (affine [[1.0]] [0.0]) (affine [[2.0]] [1.0]))",
    "(prod (elem sin) (elem cos))",
    "(compose (elem sin) (affine [[2.0]] [0.0]))",
    "(deriv (elem sin) 2)",
    "(compose (elem exp) (compose (elem sin) id))",
    "(id 2)",
    "(compose (elem sin 2) (const [0.5,1.0] 3))",
    "(prod (elem cos 2) (affine [[1.0,0.0],[0.0,1.0]] [0.0,1.0]))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_parse_print_parse_is_stable(self, text):
        first = parse(text)
        printed = print_program(first)
        second = parse(printed)
        assert structurally_equal(first, second)
        assert print_program(second) == printed

    @pytest.mark.parametrize("form", ["(compose (elem tanh) ", "(prod (elem cos) ", "(sum id "])
    def test_round_trip_at_the_nesting_limit(self, form):
        text = form * (MAX_NESTING - 1) + "id" + ")" * (MAX_NESTING - 1)
        first = parse(text)
        printed = print_program(first)
        assert structurally_equal(first, parse(printed))
        assert evaluate(first, [0.25]).shape == (1,)

    def test_2000_deep_chain_compares_and_prints(self):
        def chain(leaf):
            p = leaf
            for i in range(2000):
                p = Compose(Elementwise(get_primitive("sin" if i % 2 else "tanh")), p)
            return p

        a = chain(Affine([[2.0]], [0.5]))
        assert structurally_equal(a, chain(Affine([[2.0]], [0.5])))
        assert not structurally_equal(a, chain(Affine([[2.0]], [0.25])))
        text = print_program(a)
        assert text.count("(compose ") == 2000
        with pytest.raises(SexprError, match="nested deeper"):
            parse(text)

    def test_layer_round_trip(self):
        w = MultiTensor(Shape(2, 2, 2), [
            [0.1, -0.2],
            [[1.0, 0.5], [0.25, 2.0]],
            np.arange(8, dtype=float).reshape(2, 2, 2) / 3.0,
        ])
        text = f"(layer {to_json(w)})"
        p = parse(text)
        assert isinstance(p, ContractionLayer)
        again = parse(print_program(p))
        assert structurally_equal(p, again)

    def test_layer_payload_is_decoded_once(self, monkeypatch):
        decoded = []

        def counting(self, text, idx=0):
            decoded.append(idx)
            return raw_decode(self, text, idx)

        raw_decode = json.JSONDecoder.raw_decode  # json.loads and decode call it too
        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
        w = MultiTensor(Shape(1, 1, 1), [[0.5], [[2.0]]])
        p = parse("(compose (elem sin) " * 50 + f"(layer {to_json(w)})" + ")" * 50)
        assert len(decoded) == 1
        assert evaluate(p, [0.0]).shape == (1,)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
    def test_printed_random_programs_parse_back_equal(self, seed, dim_in, dim_out, depth):
        """Printed text keeps every dimension, also those that no sibling fixes."""
        p = random_program(np.random.default_rng(seed), dim_in, dim_out, depth)
        printed = print_program(p)
        again = parse(printed)
        assert structurally_equal(p, again)
        assert print_program(again) == printed

    def test_bilinear_product_cannot_be_printed(self):
        a, b = Affine([[1.0]], [0.0]), Affine([[2.0]], [1.0])
        with pytest.raises(ValueError, match="bilinear"):
            print_program(Product([a, b], bilinear=np.ones((2, 1, 1))))


class TestDimensionInference:
    def test_sine_of_identity_is_scalar(self):
        p = parse("(compose (elem sin) id)")
        assert p.dim_in == 1 and p.dim_out == 1
        assert evaluate(p, [0.0])[0] == 0.0

    def test_affine_literal_dims(self):
        p = parse("(affine [[1,2],[3,4]] [0,0])")
        assert isinstance(p, Affine)
        assert p.dim_in == 2 and p.dim_out == 2

    def test_elem_picks_up_dim_from_composed_affine(self):
        p = parse("(compose (elem sin) (affine [[2.0]] [0.0]))")
        assert isinstance(p, Compose)
        assert isinstance(p.outer, Elementwise) and p.outer.dim == 1

    def test_elem_widens_to_matrix_output(self):
        p = parse("(compose (elem tanh) (affine [[1.0,0.0],[0.0,1.0]] [0.0,0.0]))")
        assert p.outer.dim == 2
        assert p.dim_in == 2 and p.dim_out == 2

    def test_sum_sibling_fixes_dimension(self):
        p = parse("(sum (elem sin) (affine [[1.0,0.0],[0.0,1.0]] [0.5,0.5]))")
        assert p.dim_in == 2 and p.dim_out == 2

    def test_identity_under_inner_composition(self):
        p = parse("(compose (affine [[1.0,1.0]] [0.0]) id)")
        assert p.dim_in == 2 and p.dim_out == 1

    @pytest.mark.parametrize("text, dim_in, dim_out", [
        ("(id 3)", 3, 3),
        ("(elem sin 2)", 2, 2),
        ("(const [1.0] 4)", 4, 1),
        ("(sum (id 2) id)", 2, 2),
        ("(prod (elem sin 2) (elem cos))", 2, 2),
        ("(compose (elem tanh) (const [1.0,2.0] 3.0))", 3, 2),
    ])
    def test_explicit_dimension_is_used_and_spreads_to_siblings(self, text, dim_in, dim_out):
        p = parse(text)
        assert (p.dim_in, p.dim_out) == (dim_in, dim_out)

    @pytest.mark.parametrize("text, column, message", [
        ("(compose (elem sin 2) (affine [[1.0]] [0.0]))", 10, "elem has dim 2, its context needs dim 1"),
        ("(sum (affine [[1.0,2.0]] [0.0]) (id 3))", 33, "id has dim 3, its context needs dim 2"),
        ("(compose (elem exp) (sum (affine [[1.0]] [0.0]) (const [1.0] 2)))", 49,
         "const has dim 2, its context needs dim 1"),
    ], ids=["elem", "id", "const"])
    def test_explicit_dimension_against_its_context_is_an_error_at_its_form(
            self, text, column, message):
        with pytest.raises(SexprError, match=f"dimension mismatch: {message}") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text, column, message", [
        ("(id)", 4, "expected a number, found ')'"),
        ("(id 0)", 6, "dimension must be a positive integer, got 0.0"),
        ("(elem sin 1.5)", 14, "dimension must be a positive integer, got 1.5"),
        ("(const [1.0] -2)", 16, "dimension must be a positive integer, got -2.0"),
        ("(elem sin 2 2)", 13, "expected ')', found '2'"),
    ])
    def test_bad_dimension_is_an_error_at_it(self, text, column, message):
        with pytest.raises(SexprError) as err:
            parse(text)
        assert str(err.value) == f"1:{column}: {message}"


class TestErrors:
    def test_compose_arity(self):
        with pytest.raises(SexprError, match="compose needs exactly two"):
            parse("(compose (elem sin))")

    def test_sum_arity(self):
        with pytest.raises(SexprError, match="at least two"):
            parse("(sum (elem sin))")

    def test_unknown_primitive(self):
        with pytest.raises(SexprError, match="unknown primitive 'sinh'"):
            parse("(elem sinh)")

    def test_unknown_form(self):
        with pytest.raises(SexprError, match="unknown form"):
            parse("(integrate id)")

    def test_dimension_mismatch_inside_compose(self):
        with pytest.raises(SexprError, match="dimension mismatch"):
            parse("(compose (affine [[1.0,2.0]] [0.0]) (affine [[1.0],[2.0],[3.0]] [0,0,0]))")

    def test_ragged_matrix(self):
        with pytest.raises(SexprError, match="ragged"):
            parse("(affine [[1.0,2.0],[3.0]] [0.0,0.0])")

    def test_offset_length_mismatch(self):
        with pytest.raises(SexprError, match="offset"):
            parse("(affine [[1.0,2.0]] [0.0,0.0])")

    def test_trailing_garbage(self):
        with pytest.raises(SexprError, match="trailing"):
            parse("id id")

    def test_error_carries_position(self):
        with pytest.raises(SexprError) as err:
            parse("(compose (elem sin)\n  (elem nosuch))")
        assert err.value.line == 2
        assert err.value.column > 1

    def test_bad_number(self):
        with pytest.raises(SexprError, match="number"):
            parse("(const [1.0,oops])")

    def test_bad_deriv_order(self):
        with pytest.raises(SexprError, match="positive integer"):
            parse("(deriv id 0)")

    @pytest.mark.parametrize("k", ["64", "1e12"])
    def test_deriv_order_above_63_is_an_error_at_the_order(self, k):
        # checked before the form's output dimension 1 * 2**k is computed
        with pytest.raises(SexprError) as err:
            parse(f"(deriv (affine [[1,1]] [0])\n {k})")
        assert (err.value.line, err.value.column) == (2, 2)
        assert str(err.value).endswith(
            f"derivative order {int(float(k))} is above 63, the largest of a dense tower "
            "(its value needs its inner's dense tower to that order)")

    def test_deriv_order_63_parses(self):
        assert parse("(deriv id 63)").k == 63
        assert parse("(deriv (affine [[1,1]] [0]) 63)").dim_out == 2**63

    def test_nesting_limit(self):
        text = "(compose (elem sin)\n " * MAX_NESTING + "id" + ")" * MAX_NESTING
        with pytest.raises(SexprError, match=f"nested deeper than {MAX_NESTING}") as err:
            parse(text)
        # the sin of the innermost compose, on its line after " (compose "
        assert (err.value.line, err.value.column) == (MAX_NESTING, 11)

    @pytest.mark.parametrize("payload, message", [
        ('{"dim_out": 1}', "missing key 'dim_in'"),
        ('{"dim_out": "a", "dim_in": 1, "order": 0, "components": [[1.0]]}', "not supported"),
        ('{"dim_out": 1, "dim_in": 1, "order": 0, "components": [["x"]]}', "convert"),
        ('{"dim_out": 1, "dim_in": 1, "order": 1, "components": [[1.0]]}', "expected 2 comp"),
        ('{"dim_out": 1, "dim_in": 1, "order": 0, "components": [[1.0, 2.0]]}', "reshape"),
        ('{"dim_out": 1, "dim_in": 1, "order": 0, "components": [[NaN]]}', "non-finite"),
        ('{"dim_out": 1, "dim_in": 1, "order": 0, "components": [[-Infinity]]}', "non-finite"),
        ('{"dim_out": 1, "dim_in": NaN, "order": 0, "components": [[1.0]]}', "non-finite"),
        ('{"dim_out": 1, "dim_in": 1, "order": 0, "components": [[1e999]]}', "non-finite"),
        ('{"dim_out": 1, "x": ' + "[" * 100000 + "]" * 100000 + "}", "recursion"),
        ('{"dim_out": 1, "dim_in": 1,}', "property name"),
    ], ids=["missing-key", "str-dim", "str-entry", "component-count", "entry-count", "nan",
            "infinity", "nan-dim", "overflow", "deep-nesting", "bad-json"])
    def test_malformed_layer_payload_is_an_error_at_the_payload(self, payload, message):
        with pytest.raises(SexprError, match=f"bad (layer|JSON) payload: .*{message}") as err:
            parse(f"(compose (elem sin)\n  (layer {payload}))")
        assert (err.value.line, err.value.column) == (2, 10)

    @pytest.mark.parametrize("name, value, payload", [
        ("dim_in", "2.5", '{"dim_out": 1, "dim_in": 2.5, "order": 0, "components": [[1.0]]}'),
        ("dim_in", "1.0", '{"dim_out": 1, "dim_in": 1.0, "order": 0, "components": [[1.0]]}'),
        ("order", "True", '{"dim_out": 1, "dim_in": 1, "order": true, "components": [[1.0], [2.0]]}'),
    ], ids=["dim_in-2.5", "dim_in-1.0", "order-true"])
    def test_non_integer_payload_dims_are_an_error_at_the_payload(self, name, value, payload):
        with pytest.raises(SexprError, match=f"{name} must be an integer, got {value}") as err:
            parse(f"(compose (elem sin)\n  (layer {payload}))")
        assert (err.value.line, err.value.column) == (2, 10)

    def test_payload_string_may_hold_braces(self):
        p = parse('(layer {"note": "}{\\"}", "dim_out": 1, "dim_in": 1, "order": 1,'
                  ' "components": [[0.5], [2.0]]}) ')
        assert p.weights.components[1].tolist() == [[2.0]]

    @pytest.mark.parametrize("text, line, column", [
        ("(compose (elem sin)\n  (sum (affine [[1.0]] [0.0]) (affine [[1.0,2.0]] [0.0])))", 2, 3),
        ("(compose (elem sin)\n  (prod (affine [[1.0]] [0.0]) (affine [[1.0,2.0]] [0.0])))", 2, 3),
        ("(compose (affine [[1.0,2.0]] [0.0])\n (compose id (affine [[1.0],[2.0],[3.0]] [0,0,0])))",
         2, 11),
        ("(sum id\n\n   (compose (affine [[1.0,2.0]] [0.0]) (affine [[1.0]] [0.0])))", 3, 4),
    ], ids=["sum", "prod", "id", "compose"])
    def test_dimension_mismatch_is_an_error_at_the_node(self, text, line, column):
        with pytest.raises(SexprError, match="dimension mismatch") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, column", [
        ("(const [1e999])", 9),
        ("(affine [[1e400]] [0.0])", 11),
        ("(affine [[1.0]] [-1e309])", 18),
        ("(deriv id 1e999)", 11),
    ])
    def test_non_finite_number_is_an_error_at_the_number(self, text, column):
        with pytest.raises(SexprError, match="expected a finite number") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_unterminated_json(self):
        with pytest.raises(SexprError, match="JSON"):
            parse('(layer {"dim_out": 1)')
