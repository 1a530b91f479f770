"""Flow equations, stationary constraints and the KdV recursion operator."""

import random
from fractions import Fraction as Q

import pytest

import golden
from diffops.basis import almost_commuting
from diffops.hierarchy import gd_equations, kdv_recursion_operator, kdv_sequence
from diffops.integration import NotTotalDerivativeError, antiderivative
from diffops.polynomials import DiffPolynomial, c, u
from helpers import flip_u_sign


class TestFlowEquations:
    def test_level_2_with_constants(self):
        equations = gd_equations(3, 2, with_constants=True)
        assert [eq.variable_index for eq in equations] == [2, 3]
        h1 = golden.H_1
        h2 = golden.H_2
        assert equations[0].rhs == h2[1] + c(2, 1) * h1[1]
        assert equations[1].rhs == h2[0] + c(2, 1) * h1[0]
        assert equations[0].lhs_label == "u_{2,t}"

    def test_level_2_pure_flow(self):
        # the u_2 flow carries the weight-4 polynomial, the u_3 flow weight 5
        equations = gd_equations(3, 2, with_constants=False)
        assert equations[0].rhs == -u(2, 2) + 2 * u(3, 1)
        assert equations[1].rhs == u(3, 2) - Q(2, 3) * u(2, 3) - Q(2, 3) * u(2) * u(2, 1)

    def test_level_3_flows_vanish(self):
        equations = gd_equations(3, 3, with_constants=False)
        assert not any(eq.rhs for eq in equations)

    def test_constant_slice_recovers_pure_flow(self):
        with_c = gd_equations(3, 4, with_constants=True)
        pure = gd_equations(3, 4, with_constants=False)
        for full, bare in zip(with_c, pure):
            # evaluating is unnecessary: dropping every c-monomial must match
            sliced_terms = {
                mono: coeff
                for mono, coeff in full.rhs.items()
                if all(vid[0] != 2 for vid, _ in mono)
            }
            assert DiffPolynomial(dict(sliced_terms)) == bare.rhs

    def test_matches_hierarchy_polynomials_exactly(self):
        result = almost_commuting(5, 4)
        equations = gd_equations(5, 4, with_constants=False)
        for eq in equations:
            assert eq.rhs == result.H[5 - eq.variable_index]

    def test_homogeneity_of_pure_flows(self):
        for n, m in ((2, 3), (3, 4), (4, 5)):
            for eq in gd_equations(n, m, with_constants=False):
                if eq.rhs:
                    assert eq.rhs.weight() == m + eq.variable_index

    def test_equation_count(self):
        assert len(gd_equations(5, 9, with_constants=False)) == 4

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            gd_equations(3, 1)

    @pytest.mark.parametrize("with_constants, levels", [(False, [5]), (True, [1, 2, 3, 4, 5])])
    def test_computes_only_the_levels_it_reads(self, with_constants, levels):
        class RecordingCache:
            def __init__(self):
                self.gets, self.puts = [], []

            def get(self, n, m):
                self.gets.append((n, m))
                return None

            def put(self, n, m, result):
                self.puts.append((n, m))

        cache = RecordingCache()
        gd_equations(4, 5, with_constants, cache=cache)
        assert cache.gets == cache.puts == [(4, m) for m in levels]


class TestStationary:
    def test_divisible_level_is_trivial(self):
        assert not any(eq.rhs for eq in gd_equations(3, 3, with_constants=False))

    def test_kdv_level_3(self):
        polys = [eq.rhs for eq in gd_equations(2, 3, with_constants=False)]
        assert polys == [golden.H_3_0_N2]

    def test_level_2_polynomials(self):
        polys = [eq.rhs for eq in gd_equations(3, 2, with_constants=False)]
        assert polys == [
            -u(2, 2) + 2 * u(3, 1),
            u(3, 2) - Q(2, 3) * u(2, 3) - Q(2, 3) * u(2) * u(2, 1),
        ]

    def test_with_constants_keeps_formal_parameters(self):
        polys = [eq.rhs for eq in gd_equations(2, 3, with_constants=True)]
        assert len(polys) == 1
        assert polys[0] == golden.H_3_0_N2 + c(3, 1) * u(2, 1)


class TestKdvSequence:
    def test_seed(self):
        assert kdv_sequence(0) == [u(2, 1)]

    def test_first_iteration(self):
        assert kdv_sequence(1)[1] == golden.KDV_1

    def test_second_iteration(self):
        assert kdv_sequence(2)[2] == golden.KDV_2

    def test_total_derivatives_and_weights(self):
        sequence = kdv_sequence(4)
        for k, flow in enumerate(sequence):
            assert flow.weight() == 2 * k + 3
            antiderivative(flow)  # must not raise

    def test_operator_pieces(self):
        op = kdv_recursion_operator()
        assert op.local_part.coefficient_at(2) == DiffPolynomial.constant(Q(-1, 4))
        assert op.local_part.coefficient_at(0) == u(2)
        assert op.nonlocal_cofactor == Q(1, 2) * u(2, 1)

    def test_application_fails_loudly_off_hierarchy(self):
        op = kdv_recursion_operator()
        with pytest.raises(NotTotalDerivativeError):
            op.apply(u(2) ** 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            kdv_sequence(-1)


class TestKdvAgainstHierarchy:
    """The recursion-operator flows against the bracket-generated flows.

    The two generators use opposite sign conventions for the order-2
    operator; the flows coincide only after flipping the sign of u_2 and
    an alternating overall sign, so direct per-level proportionality
    holds for the seed level alone.
    """

    def test_seed_level_proportional(self):
        h = almost_commuting(2, 1).H[0]
        assert kdv_sequence(0)[0] == h

    def test_sign_flip_identity(self):
        sequence = kdv_sequence(3)
        for j in (1, 2, 3):
            h = almost_commuting(2, 2 * j + 1).H[0]
            expected = flip_u_sign(h) if j % 2 == 1 else -flip_u_sign(h)
            assert sequence[j] == expected

    def test_direct_proportionality_fails_beyond_seed(self):
        kdv1 = kdv_sequence(1)[1]
        h30 = almost_commuting(2, 3).H[0]
        h30_terms = dict(h30.items())
        ratios = {str(coeff / h30_terms[mono]) for mono, coeff in kdv1.items()}
        assert len(ratios) > 1  # no single scalar relates the two
