"""JSON round trips and the LaTeX/text printers."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diffops.basis import almost_commuting
from diffops.cli import _render_flow
from diffops.formats import (
    ONE_LINE,
    canonical_json_bytes,
    json_text,
    operator_from_json,
    operator_latex,
    operator_to_json,
    parse_coeff,
    poly_from_json,
    poly_latex,
    poly_to_json,
    render_operator,
    render_poly,
    result_from_json,
    result_to_json,
)
from diffops.hierarchy import gd_equations
from diffops.operators import DiffOperator
from diffops.polynomials import DiffPolynomial, c, c_id, u, u_id, y
from helpers import random_operator, random_poly


class TestJson:
    def test_poly_round_trip_random(self):
        rng = random.Random(502)
        for _ in range(20):
            p = random_poly(rng, indices=(2, 3, 4))
            assert poly_from_json(poly_to_json(p)) == p

    def test_round_trip_is_identity_on_canonical_files(self):
        rng = random.Random(503)
        p = random_poly(rng) + c(4, 2) * y(3, 1) * u(2)
        once = poly_to_json(p)
        twice = poly_to_json(poly_from_json(once))
        assert canonical_json_bytes(once) == canonical_json_bytes(twice)

    def test_term_encoding_shape(self):
        data = poly_to_json(Fraction(2, 3) * u(2, 1) + c(4, 1))
        assert data[0]["coeff"] == "2/3"
        assert data[0]["monomial"] == [["u", 2, 1, 1]]
        assert data[1]["monomial"] == [["c", [4, 1], 0, 1]]

    def test_operator_round_trip(self):
        rng = random.Random(504)
        for _ in range(10):
            op = random_operator(rng)
            data = operator_to_json(op)
            assert data["order"] == op.order
            assert operator_from_json(data) == op

    def test_zero_operator(self):
        data = operator_to_json(DiffOperator.zero())
        assert data == {"order": None, "coefficients": []}
        assert not operator_from_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"order": 7, "coefficients": [[{"coeff": "1", "monomial": []}]]},
            {"order": True, "coefficients": [[], [{"coeff": "1", "monomial": []}]]},
            {"order": 1.0, "coefficients": [[], [{"coeff": "1", "monomial": []}]]},
            {"order": None, "coefficients": [[{"coeff": "1", "monomial": []}]]},
            {"order": 0, "coefficients": []},
            {"order": 1, "coefficients": [[{"coeff": "1", "monomial": []}], []]},
        ],
        ids=["order-too-high", "bool-order", "float-order", "none-order", "order-of-zero", "zero-top"],
    )
    def test_operator_order_must_match_coefficients(self, data):
        with pytest.raises(ValueError, match="non-canonical operator"):
            operator_from_json(data)

    def test_result_round_trip(self):
        result = almost_commuting(3, 4)
        data = result_to_json(result)
        back = result_from_json(data)
        assert back.n == 3 and back.m == 4
        assert back.P == result.P
        assert back.H == result.H

    def test_result_bytes_deterministic(self):
        first = canonical_json_bytes(result_to_json(almost_commuting(3, 4)))
        second = canonical_json_bytes(result_to_json(almost_commuting(3, 4)))
        assert first == second


PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["results"]


class TestCoefficientParsing:
    @pytest.mark.parametrize("n, m", [(7, 13), (3, 20)])
    def test_large_results_round_trip_byte_identically(self, n, m):
        data = result_to_json(almost_commuting(n, m))
        once = canonical_json_bytes(data)
        assert hashlib.sha256(once).hexdigest() == PINNED[f"{n},{m}"]["sha256"]
        assert canonical_json_bytes(result_to_json(result_from_json(data))) == once

    @pytest.mark.parametrize(
        "text, value",
        [("-3/117649", Fraction(-3, 117649)), ("5", Fraction(5)), ("-1", Fraction(-1)), ("2/3", Fraction(2, 3))],
    )
    def test_canonical_text_parses_exactly(self, text, value):
        assert parse_coeff(text) == (value.numerator, value.denominator)
        mono = ((u_id(2, 1), 1),)
        p = poly_from_json([{"coeff": text, "monomial": [["u", 2, 1, 1]]}])
        assert dict(p.items()) == {mono: value}
        assert poly_to_json(p)[0]["coeff"] == text

    @pytest.mark.parametrize(
        "text", ["1/0", "1.5", "abc", "2/4", "0", "-0", "07", "3/1", "1/-2", " 1", "", 1]
    )
    def test_non_canonical_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            parse_coeff(text)
        with pytest.raises(ValueError):
            poly_from_json([{"coeff": text, "monomial": [["u", 2, 0, 1]]}])


class TestJsonWriter:
    """The one writer equals the stdlib's encoding of the reference dict
    tree byte for byte: indent=2 for the json renders, and one line with
    sorted keys for the cache payload."""

    EDGE_POLYS = [
        DiffPolynomial.zero(),
        DiffPolynomial.constant(Fraction(-7, 3)),
        DiffPolynomial.constant(5) + u(2),
        c(4, 2) * y(3, 1) * u(2) - Fraction(1, 2) * c(11, 10) ** 3,
        u(2, 12) ** 11 * u(13, 10) + Fraction(-117649, 10) * y(10, 3) ** 10,
    ]

    def polys(self):
        rng = random.Random(505)
        return [random_poly(rng, indices=(2, 3, 4)) for _ in range(20)] + self.EDGE_POLYS

    def test_poly(self):
        for p in self.polys():
            assert render_poly(p, "json") == json.dumps(poly_to_json(p), indent=2)
            assert json_text(p, ONE_LINE) == json.dumps(poly_to_json(p))

    # (4, 8) is in the range: n | m, so every H is the empty list
    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 6) for m in range(1, 10)] + [(7, 13)])
    def test_payload_one_line(self, n, m):
        result = almost_commuting(n, m)
        same = json_text(result, ONE_LINE) == json.dumps(result_to_json(result), sort_keys=True)
        assert same  # a bool: a failing (7, 13) would make pytest diff 1.4 MB of text

    def test_operator(self):
        rng = random.Random(506)
        ops = [random_operator(rng, max_order=5, indices=(2, 3, 4)) for _ in range(10)]
        ops += [
            DiffOperator.zero(),
            DiffOperator.one(),
            DiffOperator.from_dict({3: u(2), 1: c(4, 1) * u(3, 10) ** 12}),
        ]
        assert not all(op.coefficient_at(1) for op in ops[:10])
        for op in ops:
            assert render_operator(op, "json") == json.dumps(operator_to_json(op), indent=2)

    @pytest.mark.parametrize("stationary", [False, True])
    def test_flow(self, stationary):
        equations = gd_equations(4, 5, with_constants=True)
        assert any(c_id(5, 1) in dict(mono) for eq in equations for mono, _ in eq.rhs.items())
        for eq in equations:
            reference = {
                "variable_index": eq.variable_index,
                "lhs": None if stationary else eq.lhs_label,
                "rhs": poly_to_json(eq.rhs),
                "stationary": stationary,
            }
            assert _render_flow(eq, "json", stationary) == json.dumps(reference, indent=2)


class TestLatex:
    def test_simple_fraction(self):
        assert poly_latex(Fraction(2, 3) * u(2)) == "\\frac{2}{3}u_2"

    def test_derivative_marks(self):
        assert poly_latex(u(2, 1)) == "u_2'"
        assert poly_latex(u(2, 3)) == "u_2'''"
        assert poly_latex(u(2, 4)) == "u_2^{(4)}"

    def test_signs_and_powers(self):
        p = u(2) ** 2 - Fraction(4, 3) * u(3, 1)
        assert poly_latex(p) == "u_2^2 - \\frac{4}{3}u_3'"

    def test_constant_symbol(self):
        assert poly_latex(c(5, 2)) == "c_{5,2}"

    def test_operator_layout(self):
        p2 = almost_commuting(3, 2).P
        assert operator_latex(p2) == "\\partial^{2} + \\frac{2}{3}u_2"
        minus = DiffOperator.from_dict({2: 1, 0: -u(2)})
        assert operator_latex(minus) == "\\partial^{2} - u_2"

    def test_multiterm_coefficient_wrapped(self):
        op = DiffOperator.from_dict({1: u(2, 1) + u(3), 0: u(2)})
        assert operator_latex(op) == "\\left(u_2' + u_3\\right)\\partial + u_2"

    def test_zero(self):
        assert poly_latex(DiffPolynomial.zero()) == "0"

    def test_power_of_derived_factor(self):
        assert poly_latex(u(2, 1) ** 2) == "\\left(u_2'\\right)^2"
        assert poly_latex(u(2, 1) ** 2 * u(3) + 3) == "\\left(u_2'\\right)^2 u_3 + 3"

    def test_monomial_one(self):
        assert poly_latex(DiffPolynomial.one()) == "1"


class TestFactorMemo:
    def test_each_variable_at_several_exponents(self):
        # u_2 and u_2' each appear with exponents 1 and 2, so a factor memo
        # keyed by the variable alone repeats one exponent for both
        p = u(2) ** 2 * u(2, 1) + 3 * u(2) * u(2, 1) ** 2 - c(4, 1) * u(3, 2) - Fraction(1, 2)
        assert str(p) == "3*u2*u2'^2 + u2^2*u2' - u3''*c[4,1] - 1/2"
        assert poly_latex(p) == (
            "3u_2 \\left(u_2'\\right)^2 + u_2^2 u_2' - u_3'' c_{4,1} - \\frac{1}{2}"
        )


class TestRenderDispatch:
    def test_poly_formats(self):
        p = Fraction(1, 2) * u(2)
        assert render_poly(p, "text") == "1/2*u2"
        assert render_poly(p, "latex") == "\\frac{1}{2}u_2"
        assert json.loads(render_poly(p, "json"))[0]["coeff"] == "1/2"

    def test_unknown_format_rejected(self):
        try:
            render_operator(DiffOperator.one(), "xml")
        except ValueError as exc:
            assert "xml" in str(exc)
        else:
            raise AssertionError("expected ValueError")
