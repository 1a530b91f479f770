"""Bracket systems, triangular solving, and the almost-commuting basis."""

import random
import sys

import pytest

import golden
from diffops import basis, polynomials
from diffops.basis import (
    NotTriangularError,
    almost_commuting,
    bracket_system,
    generic_L,
    generic_P,
    solve_triangular,
)
from diffops.integration import NotTotalDerivativeError, euler
from diffops.operators import DiffOperator, commutator
from diffops.polynomials import Y_FAMILY, u, y
from diffops.pseudo import TruncatedPDO, nth_root
from helpers import D, check_total_derivative, with_equation



class TestGenericOperators:
    def test_generic_L_small_orders(self):
        assert generic_L(3) == golden.op({3: 1, 1: u(2), 0: u(3)})
        assert generic_L(2) == golden.op({2: 1, 0: u(2)})
        assert generic_L(5) == golden.op(
            {5: 1, 3: u(2), 2: u(3), 1: u(4), 0: u(5)}
        )

    def test_generic_L_is_homogeneous_normal_form(self):
        for n in (2, 3, 4, 7):
            L = generic_L(n)
            assert L.is_normal_form()
            assert L.weight() == n

    def test_generic_P(self):
        assert generic_P(2) == golden.op({2: 1, 0: y(2)})
        assert generic_P(1) == D()
        assert generic_P(4) == golden.op({4: 1, 2: y(2), 1: y(3), 0: y(4)})
        assert generic_P(6).weight() == 6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generic_L(1)
        with pytest.raises(ValueError):
            generic_P(0)


class TestBracketSystem:
    def test_system_3_2(self):
        system = bracket_system(3, 2)
        assert list(system.equations) == [golden.BRACKET_3_2[2]]
        for power, expected in golden.BRACKET_3_2.items():
            assert system.full_bracket.coefficient_at(power) == expected

    def test_system_3_4(self):
        system = bracket_system(3, 4)
        assert system.equations[0] == golden.BRACKET_3_4[4]
        assert system.equations[1] == golden.BRACKET_3_4[3]
        for power, expected in golden.BRACKET_3_4.items():
            assert system.full_bracket.coefficient_at(power) == expected

    def test_system_3_5(self):
        system = bracket_system(3, 5)
        for power, expected in golden.BRACKET_3_5.items():
            assert system.full_bracket.coefficient_at(power) == expected

    def test_equation_count_and_source(self):
        rng = random.Random(83)
        pairs = [(rng.randint(2, 5), rng.randint(2, 7)) for _ in range(6)]
        for n, m in [(n, 1) for n in range(2, 6)] + pairs:
            system = bracket_system(n, m)
            assert len(system.equations) == m - 1
            direct = commutator(generic_L(n), generic_P(m))
            assert system.full_bracket == direct
            for k, equation in enumerate(system.equations):
                assert equation == direct.coefficient_at(n + m - 3 - k)

    def test_bracket_order_bound(self):
        for n, m in ((2, 5), (3, 4), (4, 3), (5, 6)):
            system = bracket_system(n, m)
            assert system.full_bracket.order <= n + m - 3

    def test_equations_homogeneous(self):
        system = bracket_system(4, 6)
        for k, equation in enumerate(system.equations):
            assert equation.weight() == k + 3

    def test_first_equation_law_sample(self):
        for n in (2, 4, 6):
            for m in (2, 5, 9):
                system = bracket_system(n, m)
                assert system.equations[0] == n * y(2, 1) - m * u(2, 1)


class TestBracketRecursive:
    def test_bracket_with_d(self):
        assert commutator(generic_L(3), D()) == golden.op(
            {1: -u(2, 1), 0: -u(3, 1)}
        )

    def test_bracket_with_d_general_shape(self):
        # [L, d] = -(u_n' + u_{n-1}' d + ... + u_2' d^{n-2})
        for n in (2, 5):
            expected = golden.op({n - l: -u(l, 1) for l in range(2, n + 1)})
            bracket = commutator(generic_L(n), D())
            assert bracket == expected
            assert bracket.weight() == n + 1

    def test_leading_term_of_y_bracket(self):
        for n in (2, 3, 5):
            L = generic_L(n)
            for l in (1, 3):
                bracket = commutator(L, DiffOperator.from_coeffs([y(l + 1)]))
                assert bracket.order == n - 1
                assert bracket.coefficient_at(n - 1) == n * y(l + 1, 1)
                assert bracket.weight() == n + l + 1


class TestSolveTriangular:
    def test_solution_3_2(self):
        solution, H = solve_triangular(bracket_system(3, 2))
        assert solution == golden.SOLUTION_3_2
        assert H == golden.H_2

    def test_solution_3_4(self):
        solution, H = solve_triangular(bracket_system(3, 4))
        assert solution == golden.SOLUTION_3_4
        assert H == golden.H_4

    def test_solution_3_5(self):
        solution, _ = solve_triangular(bracket_system(3, 5))
        assert solution == golden.SOLUTION_3_5

    def test_solution_weights(self):
        for n, m in ((2, 6), (4, 5), (5, 7)):
            solution, _ = solve_triangular(bracket_system(n, m))
            for index, value in solution.items():
                assert value.weight() == index

    def test_solution_satisfies_every_equation(self):
        for n, m in ((2, 5), (3, 4), (4, 6), (5, 5), (3, 8), (6, 8)):
            system = bracket_system(n, m)
            solution, _ = solve_triangular(system)
            for equation in system.equations:
                assert not equation.evaluate(solution)
            # the same band d^(n-1)..d^(n+m-3), substituted as one stream
            assert system.full_bracket.evaluate(solution).order <= n - 2, (n, m)

    def test_step_integrands_agree_across_methods(self):
        # every intermediate integrand is a total derivative by the reduction
        # and by the Euler operator
        seen = []

        def check(index, integrand, value):
            seen.append(index)
            check_total_derivative(integrand, (2, 3))

        solve_triangular(bracket_system(3, 4), on_step=check)
        assert seen == [2, 3, 4]

    def test_h_matches_the_per_call_substitution(self):
        # the solve's H against a separate stream of the same substitution:
        # the negated low band d^0..d^(n-2), substituted by
        # DiffOperator.evaluate after the solve; n | m included, where every
        # H vanishes.  The independent check of H is TestHierarchyOracle.
        for n in range(2, 8):
            for m in sorted({1, 2, 3, n, n + 1, 2 * n - 1, 2 * n}):
                system = bracket_system(n, m)
                solution, H = solve_triangular(system)
                band = DiffOperator.from_dict(
                    {i: system.full_bracket.coefficient_at(i) for i in range(n - 1)}
                )
                expected = -band.evaluate(solution)
                assert H == tuple(expected.coefficient_at(i) for i in range(n - 1)), (n, m)

    def test_stray_y_is_not_triangular(self):
        system = with_equation(bracket_system(3, 5), 3, y(4))
        with pytest.raises(NotTriangularError) as info:
            solve_triangular(system)
        message = str(info.value)
        assert "equation for y_3 is not triangular (n=3, m=5): it holds y_4" in message
        assert "not a total derivative" not in message

    def test_integrand_that_is_no_total_derivative_fails_loudly(self):
        system = with_equation(bracket_system(3, 5), 3, u(2) ** 2)
        with pytest.raises(NotTotalDerivativeError) as info:
            solve_triangular(system)
        assert "failed integrating the equation for y_3 (n=3, m=5)" in str(info.value)
        assert info.value.obstruction == u(2) ** 2


class TestAlmostCommuting:
    def test_m_1(self):
        result = almost_commuting(3, 1)
        assert result.P == D()
        assert result.H == (u(3, 1), u(2, 1))
        for n in range(2, 6):
            result = almost_commuting(n, 1)
            bracket = commutator(generic_L(n), D())
            assert result.P == D()
            assert result.H == tuple(-bracket.coefficient_at(i) for i in range(n - 1))

    def test_m_2(self):
        result = almost_commuting(3, 2)
        assert result.P == golden.P2
        assert result.H == golden.H_2

    def test_m_4(self):
        result = almost_commuting(3, 4)
        assert result.P == golden.P4
        assert result.H == golden.H_4

    def test_defining_property(self):
        # [P_m, L] = sum H_i d^i with order <= n - 2
        for n, m in ((2, 3), (3, 4), (4, 5), (5, 9)):
            result = almost_commuting(n, m)
            bracket = commutator(result.P, generic_L(n))
            assert bracket.order <= n - 2
            for i in range(n - 1):
                assert bracket.coefficient_at(i) == result.H[i]

    def test_normal_form_and_weight(self):
        for n, m in ((2, 5), (3, 7), (5, 6)):
            result = almost_commuting(n, m)
            assert result.P.is_normal_form()
            assert result.P.order == m
            assert result.P.weight() == m

    def test_divisibility(self):
        for n, m in ((2, 2), (2, 4), (3, 3), (3, 6), (4, 4)):
            result = almost_commuting(n, m)
            assert result.P == generic_L(n) ** (m // n)
            assert not any(result.H)

    def test_vanishing_h_holds_no_grown_dict(self):
        # n | m: every H cancels to zero, and an accumulator emptied by
        # cancellation keeps its grown table, so the zero H must not be it
        empty = sys.getsizeof({})
        for n, m in ((2, 4), (3, 6), (4, 8), (5, 10), (3, 12)):
            for i, h in enumerate(almost_commuting(n, m).H):
                assert not h
                assert sys.getsizeof(h._nums) == empty, (n, m, i)

    def test_top_h_is_a_total_derivative(self):
        # H_(m,n-2) = n (res Q^m)', so every Euler operator kills it; the
        # lower H_(m,i) need not be total derivatives
        for n in range(2, 6):
            for m in range(1, 10):
                top = almost_commuting(n, m).H[n - 2]
                for l in range(2, n + 1):
                    assert not euler(top, l), (n, m, l)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            almost_commuting(1, 3)
        with pytest.raises(ValueError):
            almost_commuting(3, 0)


class TestBasis:
    def test_matches_single_calls(self):
        # one call per m, in either order, gives the same results
        basis = [almost_commuting(3, m) for m in range(1, 6)]
        assert len(basis) == 5
        for m, result in reversed(list(enumerate(basis, start=1))):
            single = almost_commuting(3, m)
            assert result.P == single.P
            assert result.H == single.H

    def test_golden_sequence(self):
        basis = [almost_commuting(3, m) for m in range(1, 6)]
        for m, result in enumerate(basis, start=1):
            assert result.P == golden.GOLDEN_P[m]

    def test_n_2_basis(self):
        basis = [almost_commuting(2, m) for m in range(1, 3)]
        assert basis[1].P == generic_L(2)

    def test_orders_ascend(self):
        basis = [almost_commuting(4, m) for m in range(1, 7)]
        assert [r.P.order for r in basis] == list(range(1, 7))


class TestSubstitution:
    def test_each_derivative_is_taken_once(self, monkeypatch):
        # one stream serves the whole solve: one _derive_raw call per
        # (l, k >= 2) up to the highest order of y_l in any integrand or
        # low-band coefficient, since each q_l' is seeded with rest / -n
        # (m - 1 steps fewer); the bracket is built first, since its
        # products derive through the same function
        calls = []
        original = polynomials._derive_raw

        def counting(terms):
            calls.append(len(terms))
            return original(terms)

        for (n, m), want in (((7, 13), 72), ((3, 20), 38)):
            system = bracket_system(n, m)
            integrands = [
                equation - n * y(index, 1)
                for index, equation in enumerate(system.equations, 2)
            ]
            band = [system.full_bracket.coefficient_at(i) for i in range(n - 1)]
            highest: dict = {}
            for coeff in integrands + band:
                for mono, _ in coeff.items():
                    for vid, _ in mono:
                        if vid.family == Y_FAMILY:
                            highest[vid.index] = max(highest.get(vid.index, 0), vid.order)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(polynomials, "_derive_raw", counting)
                solve_triangular(system)
            assert len(calls) == sum(highest.values()) - (m - 1) == want

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(2, 6) for m in range(2, 10)] + [(3, 20), (7, 13)]
    )
    def test_seed_is_the_derivative(self, monkeypatch, n, m):
        # each step seeds q_l's chain with q_l' = rest / -n: it must be the
        # derivative the chain would have taken
        seeds = []
        original = polynomials._derivatives

        def recording(poly, top, first=None):
            if first is not None:
                seeds.append((poly, first))
            return original(poly, top, first)

        monkeypatch.setattr(basis, "_derivatives", recording)
        solution, _ = solve_triangular(bracket_system(n, m))
        assert [q for q, _ in seeds] == list(solution.values())
        for q, first in seeds:
            assert first == polynomials._derive_raw(q._nums), (n, m)

    def test_no_derivative_chain_outlives_the_call(self):
        # (4, 8): n | m, so every H is zero
        for n, m in [(3, 20), (7, 13), (4, 8)] + [
            (n, m) for n in range(2, 8) for m in range(1, 13)
        ]:
            result = almost_commuting(n, m)
            for coeff in result.P.coefficients() + result.H:
                assert coeff._derivs is None, (n, m)

    def test_no_seed_outlives_a_failed_call(self, monkeypatch):
        # a seeded q keeps no chain when the solve stops on an error, nor
        # when no later polynomial reads its y
        solved = []

        def step(index, rest, q):
            solved.append(q)
            if index == 5:
                raise RuntimeError("stop")

        # both tracebacks are kept until the end: they keep the solve's frame,
        # and with it the stream, alive
        with pytest.raises(RuntimeError) as stopped:
            solve_triangular(bracket_system(3, 7), step)
        original = basis.antiderivative

        def antiderivative(rest):
            if len(solved) == 8:  # y_6, after q_2..q_5 of (4, 7) are seeded
                raise basis.NotTotalDerivativeError()
            return original(rest)

        monkeypatch.setattr(basis, "antiderivative", antiderivative)
        with pytest.raises(basis.NotTotalDerivativeError) as failed:
            solve_triangular(bracket_system(4, 7), lambda index, rest, q: solved.append(q))
        monkeypatch.undo()
        # the low band of [L, P~_4] holds no y_5, so no polynomial after the
        # step that solves y_5 reads it
        system = bracket_system(3, 5)
        low = basis.BracketSystem(3, 5, commutator(generic_L(3), generic_P(4)), system.equations)
        solution, _ = solve_triangular(low)
        solved.extend(solution.values())
        assert len(solved) == 12
        assert all(q._derivs is None for q in solved)
        del stopped, failed

    def test_operator_matches_coefficient_wise(self):
        system = bracket_system(5, 7)
        solution, _ = solve_triangular(system)
        full = system.full_bracket
        expected = [c.evaluate(solution) for c in full.coefficients()]
        assert full.evaluate(solution) == DiffOperator.from_coeffs(expected)


class TestHierarchyOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bracket_with_negative_part(self, n):
        # [P_m, L] = [L, (Q^m)_-]; only d^-1..d^-n of Q^m reach d^0..d^n
        L = generic_L(n)
        root = nth_root(L, 8 + n)
        as_pdo = TruncatedPDO.from_operator(L)
        for m, q_power in enumerate(root.powers(9, n), 1):
            minus = TruncatedPDO(
                {p: q_power.coefficient_at(p) for p in range(-n, 0)}, top=-1, low=-n
            )
            bracket = (
                as_pdo.mul_keep_low(minus, 0).positive_part()
                - minus.mul_keep_low(as_pdo, 0).positive_part()
            )
            H = almost_commuting(n, m).H
            for i in range(n - 1):
                assert bracket.coefficient_at(i) == H[i], (n, m, i)
            for power in (n - 1, n):
                assert not bracket.coefficient_at(power), (n, m, power)
