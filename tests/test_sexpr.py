import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    ContractionLayer,
    Elementwise,
    MultiTensor,
    Shape,
    evaluate,
    get_primitive,
    structurally_equal,
    to_json,
)
from tensorjet.sexpr import MAX_NESTING, SexprError, parse, print_program


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

    def test_nesting_limit(self):
        text = "(compose (elem sin)\n " * MAX_NESTING + "id" + ")" * MAX_NESTING
        with pytest.raises(SexprError, match=f"nested deeper than {MAX_NESTING}") as err:
            parse(text)
        # the sin of the innermost compose, on its line after " (compose "
        assert (err.value.line, err.value.column) == (MAX_NESTING, 11)

    def test_unterminated_json(self):
        with pytest.raises(SexprError, match="JSON"):
            parse('(layer {"dim_out": 1)')
