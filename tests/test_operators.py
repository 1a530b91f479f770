"""The operator ring R[d]: composition, commutators, order, normal form."""

import random
from fractions import Fraction

import pytest

from diffops.basis import bracket_system, generic_L
from diffops.operators import DiffOperator, commutator, leibniz_product
from diffops.polynomials import (
    C_FAMILY,
    U_FAMILY,
    Y_FAMILY,
    DiffPolynomial,
    NotHomogeneousError,
    VarId,
    c,
    u,
    u_id,
    y,
)
from diffops.pseudo import nth_root
from helpers import D, random_homogeneous, random_normal_form, random_operator, random_poly



def op(coeffs: dict) -> DiffOperator:
    return DiffOperator.from_dict(coeffs)


def L3() -> DiffOperator:
    return op({3: 1, 1: u(2), 0: u(3)})


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: DiffOperator.from_dict({-1: u(2)}),
            "negative power in differential operator",
            id="from-dict-negative-power",
        ),
        pytest.param(lambda: u(1), "invalid u-variable", id="u1"),
        pytest.param(lambda: y(2, -1), "invalid y-variable", id="y-negative-order"),
        pytest.param(
            lambda: u(2).derive(-1), "derivative count must be non-negative", id="derive-negative"
        ),
        pytest.param(
            lambda: u(2) ** -1, "exponent must be a non-negative integer", id="negative-power"
        ),
        pytest.param(lambda: bracket_system(1, 3), "bracket systems need", id="bracket-n1"),
        pytest.param(lambda: bracket_system(2, 0), "bracket systems need", id="bracket-m0"),
        pytest.param(
            lambda: DiffPolynomial({((u_id(2), -1),): 1}), "negative exponent", id="negative-exponent"
        ),
        pytest.param(
            lambda: DiffOperator.from_dict({1.5: u(2)}), "not an int: 1.5", id="from-dict-float-power"
        ),
        pytest.param(
            lambda: DiffOperator.from_dict({True: u(2)}), "not an int: True", id="from-dict-bool-power"
        ),
        # the slot table refuses what u_id, y_id and the JSON parser refuse
        pytest.param(
            lambda: DiffPolynomial({((VarId(U_FAMILY, 2, -1), 1),): 1}),
            r"invalid variable VarId\(family=0, index=2, order=-1\)",
            id="var-negative-order",
        ),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(Y_FAMILY, 1, 0)), "invalid variable", id="var-y1"
        ),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(U_FAMILY, 2.5, 0)),
            "invalid variable",
            id="var-float-index",
        ),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(U_FAMILY, 3, 0.5)),
            "invalid variable",
            id="var-float-order",
        ),
        # the int rank of a variable needs index and order below 2^32
        pytest.param(lambda: u(2**32), "invalid variable", id="var-huge-index"),
        pytest.param(lambda: y(2, 2**32), "invalid variable", id="var-huge-order"),
        pytest.param(lambda: c(3.5, 1), "invalid variable", id="c-float-index"),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(C_FAMILY, (3, 1, 2), 0)),
            "invalid variable",
            id="c-triple-index",
        ),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(C_FAMILY, (3, 1), 1)),
            "invalid variable",
            id="c-derivative",
        ),
        pytest.param(
            lambda: DiffPolynomial.variable(VarId(3, 2, 0)), "invalid variable", id="unknown-family"
        ),
    ],
)
def test_input_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestMultiplication:
    def test_commutation_rule(self):
        # d * u2 = u2 d + u2'
        assert D() * op({0: u(2)}) == op({1: u(2), 0: u(2, 1)})

    def test_binomial_expansion(self):
        # d^2 * u2 = u2 d^2 + 2 u2' d + u2''
        assert D(2) * op({0: u(2)}) == op({2: u(2), 1: 2 * u(2, 1), 0: u(2, 2)})

    def test_powers_of_d(self):
        assert D() * D() == D(2)
        assert D(3) * D(4) == D(7)

    def test_associativity_and_distributivity(self):
        rng = random.Random(11)
        for _ in range(12):
            a = random_operator(rng)
            b = random_operator(rng)
            e = random_operator(rng)
            assert (a * b) * e == a * (b * e)
            assert a * (b + e) == a * b + a * e
            assert (a + b) * e == a * e + b * e

    def test_order_and_leading_coefficient_laws(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_operator(rng)
            b = random_operator(rng)
            assert (a * b).order == a.order + b.order
            assert (a * b).coefficient_at(a.order + b.order) == (
                a.coefficient_at(a.order) * b.coefficient_at(b.order)
            )

    def test_operator_power(self):
        l = L3()
        assert l ** 2 == l * l
        assert l ** 0 == DiffOperator.one()


class TestCommutator:
    def test_bracket_with_d(self):
        # [L3, d] = -u2' d - u3'
        assert commutator(L3(), D()) == op({1: -u(2, 1), 0: -u(3, 1)})

    def test_self_commutator_vanishes(self):
        a = L3()
        assert not commutator(a, a)

    def test_constant_coefficient_powers_commute(self):
        assert not commutator(D(4), D(6))

    def test_antisymmetry(self):
        rng = random.Random(17)
        a = random_operator(rng)
        b = random_operator(rng)
        assert commutator(a, b) == -commutator(b, a)

    def test_bilinearity(self):
        rng = random.Random(19)
        for _ in range(8):
            l = random_operator(rng)
            b1 = random_operator(rng)
            b2 = random_operator(rng)
            # the scalar acts as the constant operator
            s = DiffOperator.from_coeffs([Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            assert commutator(l, s * b1 + b2) == s * commutator(l, b1) + commutator(l, b2)

    def test_general_order_bound(self):
        rng = random.Random(29)
        for _ in range(20):
            a = random_operator(rng, max_order=5)
            b = random_operator(rng, max_order=5)
            bracket = commutator(a, b)
            if bracket:
                assert bracket.order <= a.order + b.order - 1

    def test_normal_form_order_bound(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = rng.randint(2, 6)
            a = random_normal_form(rng, n)
            b = random_normal_form(rng, m)
            bracket = commutator(a, b)
            if bracket:
                assert bracket.order <= n + m - 3


class TestQueries:
    def test_order(self):
        assert L3().order == 3
        assert DiffOperator.zero().order == float("-inf")

    def test_normal_form_predicate(self):
        assert L3().is_normal_form()
        assert not op({2: 1, 1: u(2), 0: 1}).is_normal_form()  # nonzero subleading
        assert not op({2: u(2)}).is_normal_form()  # not monic
        assert DiffOperator.one().is_normal_form()

    def test_coefficient_beyond_range_is_zero(self):
        assert not L3().coefficient_at(9)
        assert not DiffOperator.zero().coefficient_at(0)

    def test_monomials_total(self):
        assert L3().monomials_total() == 3


class TestCoefficientMap:
    def test_maps_ascend_without_zero_coefficients(self):
        zero = DiffPolynomial.zero()
        gapped = DiffOperator.from_coeffs([u(2), 0, zero, u(3), 0])
        built = {
            "from_dict descending": op({5: u(2), 3: 1, 1: zero, 0: u(3)}),
            "from_coeffs with gaps": gapped,
            "product": L3() * op({2: u(2), 0: y(2)}),
            "sum cancelling the top": (D(2) + op({0: u(2)})) - D(2),
            "times the constant 0": DiffOperator.from_coeffs([0]) * L3(),
            "evaluate": op({2: 1, 1: y(2) - u(2), 0: y(3)}).evaluate({2: u(2), 3: u(3)}),
            "root power": nth_root(generic_L(3), 4).power(4, 1).positive_part(),
        }
        for how, operator in built.items():
            powers = list(operator._coeffs)
            assert powers == sorted(powers), how
            assert all(operator._coeffs.values()), how
        assert built["sum cancelling the top"].order == 0
        assert built["evaluate"].coefficients() == (u(3), zero, DiffPolynomial.one())
        assert gapped.coefficients() == (u(2), zero, zero, u(3))
        assert DiffOperator.zero().coefficients() == ()


class TestApply:
    def test_pure_derivative(self):
        assert D(2).apply(u(2)) == u(2, 2)

    def test_multiplication_operator(self):
        assert op({0: u(2)}).apply(u(2, 1)) == u(2) * u(2, 1)

    def test_schroedinger_like(self):
        f = u(2)
        assert op({2: 1, 0: u(2)}).apply(f) == u(2, 2) + u(2) ** 2
        assert f._derivs is None  # the product derives a copy of f

    def test_composition_consistency(self):
        rng = random.Random(41)
        a = random_operator(rng)
        b = random_operator(rng)
        f = u(2) * u(3, 1)
        assert (a * b).apply(f) == a.apply(b.apply(f))


class TestWeightGrading:
    def test_homogeneous_product(self):
        rng = random.Random(43)
        for _ in range(15):
            r = rng.randint(2, 5)
            s = rng.randint(2, 5)
            a = random_normal_form(rng, r)
            b = random_normal_form(rng, s)
            assert a.weight() == r
            assert b.weight() == s
            assert (a * b).weight() == r + s
            bracket = commutator(a, b)
            if bracket:
                assert bracket.weight() == r + s

    def test_coefficient_weight_convention(self):
        # homogeneous of weight r: the d^i coefficient has weight r - i
        a = op({2: 1, 0: u(2)})
        assert a.weight() == 2
        mixed = op({1: u(2), 0: u(2)})
        with pytest.raises(NotHomogeneousError):
            mixed.weight()

    def test_zero_operator_weight(self):
        assert DiffOperator.zero().weight() is None


class TestEvaluate:
    def test_coefficientwise_substitution(self):
        a = op({2: 1, 1: y(2), 0: y(3) + u(2)})
        out = a.evaluate({2: u(2), 3: u(3) ** 2})
        assert out == op({2: 1, 1: u(2), 0: u(3) ** 2 + u(2)})


def _fresh(terms: dict) -> dict:
    """Equal coefficients as new polynomials, with no derivatives kept."""
    return {p: DiffPolynomial(dict(c.items())) for p, c in terms.items()}


def _leibniz_factors(seed: int) -> tuple:
    # negative powers on both sides, a constant among the right coefficients
    rng = random.Random(seed)
    a = {p: random_poly(rng, max_weight=5) for p in (2, 0, -1, -3)}
    b = {p: random_poly(rng, max_weight=5) for p in (1, -1, -2)}
    b[0] = DiffPolynomial.constant(Fraction(-5, 3))
    return {p: c for p, c in a.items() if c}, {p: c for p, c in b.items() if c}


class TestLeibnizProduct:
    @pytest.mark.parametrize("keep_low", [3, 0, -2, -6])
    def test_grouped_product_is_sum_of_term_products(self, keep_low):
        a, b = _leibniz_factors(601)
        got = leibniz_product(a, b, keep_low)
        want: dict = {}
        for i, ai in a.items():
            for j, bj in _fresh(b).items():
                for p, c in leibniz_product({i: ai}, {j: bj}, keep_low).items():
                    want[p] = want.get(p, DiffPolynomial.zero()) + c
        for p in set(got) | set(want):
            assert p >= keep_low
            assert got.get(p, DiffPolynomial.zero()) == want.get(p, DiffPolynomial.zero())

    @pytest.mark.parametrize("order", [(-1, -7), (-7, -1)])
    def test_kept_derivatives_give_fresh_results(self, order):
        # the right factor keeps its derivative chain between products; a
        # shallow product after a deep one, or the reverse, must not differ
        # from a product with an equal factor that has no chain yet
        a, b = _leibniz_factors(602)
        for keep_low in order:
            assert leibniz_product(a, b, keep_low) == leibniz_product(a, _fresh(b), keep_low)
