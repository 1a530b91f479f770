"""Canonical decomposition F = d(A) + B, antiderivatives and the Euler
operator that witnesses total derivatives."""

import random
from fractions import Fraction

import pytest

from diffops import integration
from diffops.basis import bracket_system, solve_triangular
from diffops.integration import (
    NotTotalDerivativeError,
    antiderivative,
    decompose,
    euler,
)
from diffops.polynomials import MAX_EXPONENT, DiffPolynomial, u, u_id, y
from helpers import check_total_derivative, random_homogeneous, random_poly

HALF = Fraction(1, 2)


class TestDecompose:
    def test_perfect_derivative(self):
        dec = decompose(u(2, 1) * u(2))
        assert dec.antiderivative == HALF * u(2) ** 2
        assert not dec.obstruction

    def test_second_derivative_times_base(self):
        dec = decompose(u(2, 2) * u(2))
        assert dec.antiderivative == u(2, 1) * u(2)
        assert dec.obstruction == -(u(2, 1) ** 2)

    def test_nonlinear_leader_is_pure_obstruction(self):
        f = u(2, 1) ** 2
        dec = decompose(f)
        assert not dec.antiderivative
        assert dec.obstruction == f

    def test_underived_monomials_flow_to_obstruction(self):
        f = 2 * u(2) * u(3)
        dec = decompose(f)
        assert not dec.antiderivative
        assert dec.obstruction == f

    def test_zero_input(self):
        dec = decompose(DiffPolynomial.zero())
        assert not dec.antiderivative and not dec.obstruction

    def test_rejects_y_variables(self):
        with pytest.raises(ValueError):
            decompose(y(2, 1))

    def test_invariant_reconstruction_random(self):
        rng = random.Random(53)
        for _ in range(60):
            f = random_poly(rng, indices=(2, 3, 4), max_weight=8)
            dec = decompose(f)
            assert dec.antiderivative.derive() + dec.obstruction == f

    def test_obstruction_is_canonical_random(self):
        rng = random.Random(59)
        for _ in range(40):
            f = random_poly(rng, indices=(2, 3), max_weight=8)
            dec = decompose(f)
            # each obstruction monomial is irreducible: it is its own obstruction
            for mono, _ in dec.obstruction.items():
                monomial = DiffPolynomial({mono: 1})
                assert decompose(monomial).obstruction == monomial

    def test_deterministic(self):
        rng = random.Random(61)
        f = random_poly(rng, indices=(2, 3, 4), max_weight=9)
        first = decompose(f)
        second = decompose(f)
        assert first.antiderivative == second.antiderivative
        assert first.obstruction == second.obstruction


    def test_each_monomial_is_bucketed_once(self, monkeypatch):
        # a round re-buckets only the monomials it adds: one leader per
        # distinct monomial that ever enters the work, over all rounds
        steps = []
        solve_triangular(bracket_system(3, 14), lambda index, rest, q: steps.append(rest))
        f = steps[-1]  # the integrand of the last solve step
        entered = set(f._nums)
        leaders = []
        derived = []
        original_leader, original_derive = integration._reducible_slot, integration._derive_raw

        def leader(mono):
            leaders.append(mono)
            return original_leader(mono)

        def derive(terms):
            derived.append(original_derive(terms))
            entered.update(derived[-1])
            return derived[-1]

        monkeypatch.setattr(integration, "_reducible_slot", leader)
        monkeypatch.setattr(integration, "_derive_raw", derive)
        dec = decompose(f)
        assert not dec.obstruction
        assert dec.antiderivative.derive() == f
        assert len(derived) > 5  # many rounds ran
        assert 0 < len(leaders) <= len(entered)

    @pytest.mark.parametrize("exp", [MAX_EXPONENT, 255])
    def test_leader_exponent_overflow(self, exp):
        # u_2' u_2^e = d(u_2^(e+1) / (e+1)): the antiderivative's exponent
        # passes the field, so it is either exact or OverflowError
        try:
            dec = decompose(u(2, 1) * u(2) ** exp)
        except OverflowError:
            return
        assert dict(dec.antiderivative.items()) == {((u_id(2), exp + 1),): Fraction(1, exp + 1)}
        assert not dec.obstruction


class TestAntiderivative:
    def test_simple_combination(self):
        assert antiderivative(2 * u(2) * u(2, 1) + u(3, 2)) == u(2) ** 2 + u(3, 1)

    def test_scaled_variable(self):
        assert antiderivative(2 * u(2, 1)) == 2 * u(2)

    def test_obstruction_carried_in_error(self):
        f = u(2, 1) ** 2
        with pytest.raises(NotTotalDerivativeError) as info:
            antiderivative(f)
        assert info.value.obstruction == f

    def test_round_trip_random(self):
        rng = random.Random(67)
        for _ in range(80):
            f = random_poly(rng, indices=(2, 3), max_weight=8)
            assert antiderivative(f.derive()) == f

    def test_homogeneous_antiderivative_is_homogeneous(self):
        rng = random.Random(71)
        for _ in range(20):
            w = rng.randint(3, 8)
            f = random_homogeneous(rng, w, indices=(2, 3), nonzero=True)
            df = f.derive()
            a = antiderivative(df)
            assert a == f
            assert a.weight() == w


class TestEuler:
    def test_known_values(self):
        assert euler(u(2) * u(2, 2), 2) == 2 * u(2, 2)
        assert euler(u(2, 1) ** 2, 2) == -2 * u(2, 2)
        assert euler(u(2) * u(3) ** 2, 3) == 2 * u(2) * u(3)
        assert not euler(u(2) * u(3), 4)
        assert not euler(DiffPolynomial.zero(), 2)

    def test_kills_total_derivatives(self):
        rng = random.Random(83)
        for _ in range(40):
            df = random_poly(rng, indices=(2, 3, 4), max_weight=7).derive()
            for l in (2, 3, 4):
                assert not euler(df, l)

    def test_rejects_y_variables(self):
        with pytest.raises(ValueError):
            euler(y(2, 1), 2)

    def test_derivatives_pass_three_part_check(self):
        rng = random.Random(73)
        for _ in range(25):
            w = rng.randint(3, 7)
            df = random_homogeneous(rng, w, indices=(2, 3), nonzero=True).derive()
            check_total_derivative(df, (2, 3))

    def test_graded_antiderivatives_are_unique(self):
        # d is injective on polynomials without a constant term, so d(A) = F
        # with () not in A pins A down
        rng = random.Random(79)
        for _ in range(15):
            w = rng.randint(4, 8)
            f = random_homogeneous(rng, w, indices=(2, 3, 4), nonzero=True)
            assert check_total_derivative(f.derive(), (2, 3, 4)) == f

    def test_inhomogeneous_total_derivative(self):
        assert check_total_derivative(u(2, 1) + u(2, 2), (2,)) == u(2) + u(2, 1)

    def test_underived_product_is_rejected_by_both(self):
        f = u(2) * u(3) + u(3) * u(2)
        with pytest.raises(NotTotalDerivativeError):
            antiderivative(f)
        assert euler(f, 2) == 2 * u(3)

    def test_nonlinear_leader_rejected(self):
        f = u(2, 1) ** 2
        with pytest.raises(NotTotalDerivativeError):
            antiderivative(f)
        assert euler(f, 2)

    def test_verdict_agrees_with_decompose(self):
        # zero obstruction exactly when every Euler operator vanishes; the
        # inputs have no constant term (random_poly starts at weight 2)
        rng = random.Random(89)
        verdicts = []
        for _ in range(150):
            f = random_poly(rng, indices=(2, 3, 4), max_weight=7)
            if rng.random() < 0.5:
                f = f.derive()
            exact = not decompose(f).obstruction
            assert exact == (not any(euler(f, l) for l in (2, 3, 4))), f
            verdicts.append(exact)
        assert 20 < sum(verdicts) < 130
