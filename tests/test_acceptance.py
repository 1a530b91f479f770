"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import time
import warnings
from fractions import Fraction as Q

import pytest

import golden
from diffops.basis import (
    almost_commuting,
    bracket_system,
    generic_L,
    solve_triangular,
)
from diffops.hierarchy import kdv_sequence
from diffops.integration import antiderivative, decompose
from diffops.operators import DiffOperator, commutator
from diffops.polynomials import u, y
from diffops.pseudo import nth_root
from helpers import check_total_derivative, flip_u_sign, random_normal_form, random_poly


def report(number: int, message: str) -> None:
    print(f"\n[criterion {number}] PASS: {message}")


def test_criterion_1_golden_basis_n3():
    t0 = time.perf_counter()
    basis = [almost_commuting(3, m) for m in range(1, 6)]
    elapsed = time.perf_counter() - t0
    for m, result in enumerate(basis, start=1):
        assert result.P == golden.GOLDEN_P[m], f"P_{m} mismatch"
        for i in (0, 1):
            assert result.H[i] == golden.GOLDEN_H[m][i], f"H_{m},{i} mismatch"
    assert elapsed < 1.0, f"golden reproduction took {elapsed:.2f}s"
    report(1, f"P_1..P_5 and H_(1..5),(0,1) reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_bracket_equations():
    for m, expected in ((2, golden.BRACKET_3_2), (4, golden.BRACKET_3_4), (5, golden.BRACKET_3_5)):
        system = bracket_system(3, m)
        for power, poly in expected.items():
            assert system.full_bracket.coefficient_at(power) == poly, (m, power)
    # The d^0 coefficient for m = 2 must carry u2*y2', not a flat u2*y2
    # (which would break weight-5 homogeneity): the flat variant is the
    # documented expected mismatch.
    flat_variant = y(2, 3) + u(2) * y(2) - u(3, 2)
    computed = bracket_system(3, 2).full_bracket.coefficient_at(0)
    assert computed != flat_variant
    assert computed == y(2, 3) + u(2) * y(2, 1) - u(3, 2)
    checked = 0
    for n in range(2, 8):
        for m in range(2, 14):
            system = bracket_system(n, m)
            assert system.equations[0] == n * y(2, 1) - m * u(2, 1), (n, m)
            checked += 1
    report(2, f"bracket displays for n=3 and the leading law on {checked} (n,m) pairs")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    equalities = 0
    for n in (2, 3, 4, 5):
        basis = [almost_commuting(n, m) for m in range(1, 10)]
        root = nth_root(generic_L(n), 8)
        for m, q_power in enumerate(root.powers(9), 1):
            assert q_power.positive_part() == basis[m - 1].P, (n, m)
            equalities += 1
    elapsed = time.perf_counter() - t0
    assert equalities == 36
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    report(3, f"P_m = (Q^m)_+ for all 36 cases (n in 2..5, m in 1..9) in {elapsed:.2f}s")


def test_criterion_4_divisibility():
    cases = []
    for n in range(2, 6):
        for m in (n, 2 * n):
            if m <= 10:
                cases.append((n, m))
    for n, m in cases:
        result = almost_commuting(n, m)
        assert result.P == generic_L(n) ** (m // n), (n, m)
        assert not any(result.H), (n, m)
    report(4, f"P_m = L^(m/n) with vanishing H on {cases}")


def test_criterion_5_homogeneity():
    for n in (2, 3, 5, 7):
        for m in range(2, 11):
            system = bracket_system(n, m)
            solution, _ = solve_triangular(system)
            for index, value in solution.items():
                assert value.weight() == index, (n, m, index)
            result = almost_commuting(n, m)
            assert result.P.weight() == m, (n, m)
            for i, h in enumerate(result.H):
                if h:
                    assert h.weight() == n + m - i, (n, m, i)
    report(5, "weights: P_m = m, H_(m,i) = n+m-i, q_i = i for n in {2,3,5,7}, m <= 10")


def test_criterion_6_scale_reproduction():
    t0 = time.perf_counter()
    result = almost_commuting(7, 13)
    elapsed = time.perf_counter() - t0
    assert result.P.monomials_total() == 830
    counts = [len(h) for h in result.H]
    degrees = [max(sum(exp for _, exp in mono) for mono, _ in h.items()) for h in result.H]
    assert len(result.H) == 6
    assert degrees == [7] * 6
    assert min(counts) == 744
    assert max(counts) == 5279
    assert elapsed <= 300.0, f"(7,13) took {elapsed:.1f}s, beyond the hard budget"
    if elapsed > 120.0:
        warnings.warn(f"(7,13) took {elapsed:.1f}s, above the 120s target")
    report(
        6,
        f"(7,13): 830 monomials in P_13, H degrees 7, counts {min(counts)}..{max(counts)}, {elapsed:.2f}s",
    )


def test_criterion_7_integration_properties():
    rng = random.Random(20240)
    for _ in range(500):
        f = random_poly(rng, indices=(2, 3), max_weight=8)
        assert antiderivative(f.derive()) == f
        g = random_poly(rng, indices=(2, 3, 4), max_weight=7)
        dec = decompose(g)
        assert dec.antiderivative.derive() + dec.obstruction == g
    checked = [0]

    def cross_check(index, integrand, value):
        # n is the order of the loop below, whose solve calls this
        check_total_derivative(integrand, range(2, n + 1))
        checked[0] += 1

    for n in range(2, 6):
        for m in range(2, 10):
            solve_triangular(bracket_system(n, m), on_step=cross_check)
    report(
        7,
        f"500 round trips, 500 decompositions, {checked[0]} solver integrands with d(A) = F and E(F) = 0",
    )


def test_criterion_8_structural_properties():
    rng = random.Random(20248)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        bracket = commutator(random_normal_form(rng, n), random_normal_form(rng, m))
        if bracket:
            assert bracket.order <= n + m - 3
    for n in (2, 3, 5, 7):
        L = generic_L(n)
        root = nth_root(L, 10)
        tail = 10 - (n - 1)
        power = root.power(n, tail_depth=tail)
        for p in range(-tail, n + 1):
            assert power.coefficient_at(p) == L.coefficient_at(p), (n, p)
    q3 = nth_root(generic_L(3), 2)
    assert q3.coefficient_at(1) == u(2) ** 0
    assert not q3.coefficient_at(0)
    assert q3.coefficient_at(-1) == Q(1, 3) * u(2)
    assert q3.coefficient_at(-2) == Q(1, 3) * (u(3) - u(2, 1))
    report(8, "commutator bounds on 200 pairs, Q^n = L at depth 10, cube-root expansion")


def test_criterion_9_kdv_seed_and_integrability():
    sequence = kdv_sequence(6)
    assert sequence[1] == Q(-1, 4) * u(2, 3) + Q(3, 2) * u(2) * u(2, 1)
    for k, flow in enumerate(sequence):
        antiderivative(flow)  # total derivative: must not raise
        assert flow.weight() == 2 * k + 3
    report(9, "kdv_1 exact; kdv_0..kdv_6 are total derivatives (integrability)")


def test_criterion_9_kdv_proportionality():
    """kdv_j is one scalar times the bracket flow of R's own operator.

    The recursion operator R = -1/4 d^2 + u_2 + 1/2 u_2' d^{-1}, seeded
    with u_2', generates the KdV flows of d^2 - u_2; the bracket flows
    H_(2j+1,0) = [P_(2j+1), L] belong to L = d^2 + u_2.  So the reference
    at level j is H_(2j+1,0)|u_2->-u_2.  Each level must have the same
    monomial support as kdv_j and a single coefficient ratio, which is
    (-1)^(j+1).
    """
    sequence = kdv_sequence(6)
    scalars = []
    supports = []
    for j in range(0, 7):
        h = flip_u_sign(almost_commuting(2, 2 * j + 1).H[0])
        h_terms = dict(h.items())
        kdv_support = {mono for mono, _ in sequence[j].items()}
        h_support = set(h_terms)
        assert kdv_support == h_support, (
            f"level {j}: only in kdv_j {kdv_support - h_support}, "
            f"only in H {h_support - kdv_support}"
        )
        ratios = {coeff / h_terms[mono] for mono, coeff in sequence[j].items()}
        assert ratios == {Q((-1) ** (j + 1))}, (j, sorted(ratios))
        scalars.append(str(ratios.pop()))
        supports.append(len(kdv_support))
    print(f"\n[criterion 9] scalars kdv_j / H_(2j+1,0)|u2->-u2, j = 0..6: {scalars}")
    print(f"[criterion 9] monomials per level: {supports}")
    report(9, "kdv_j = (-1)^(j+1) H_(2j+1,0)|u2->-u2 with equal support for j = 0..6")
