"""Truncated pseudo-differential calculus: roots, powers, positive parts."""

import random
import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from diffops import polynomials
from diffops.operators import DiffOperator
from diffops.polynomials import DiffPolynomial, NotHomogeneousError, u
from diffops.pseudo import (
    InsufficientDepthError,
    TruncatedPDO,
    nth_root,
)
from helpers import D, reference_nth_root

ONE = DiffPolynomial.one()
THIRD = Fraction(1, 3)


def L(n: int) -> DiffOperator:
    coeffs = {n: ONE}
    for l in range(2, n + 1):
        coeffs[n - l] = u(l)
    return DiffOperator.from_dict(coeffs)


def d_inverse(low: int) -> TruncatedPDO:
    """d^{-1}, its zero tail stated down to d^low."""
    return TruncatedPDO({-1: ONE}, top=-1, low=low)


def as_pdo(op: DiffOperator, low: int) -> TruncatedPDO:
    """A differential operator, its zero tail stated down to d^low."""
    return TruncatedPDO(dict(enumerate(op.coefficients())), top=op.order, low=low)


class TestCommutationExpansion:
    def test_d_inverse_against_multiplication(self):
        # d^{-1} u2 = u2 d^{-1} - u2' d^{-2} + u2'' d^{-3} - ...
        result = d_inverse(-3).mul_keep_low(as_pdo(DiffOperator.from_coeffs([u(2)]), -2), -3)
        assert result.coefficient_at(-1) == u(2)
        assert result.coefficient_at(-2) == -u(2, 1)
        assert result.coefficient_at(-3) == u(2, 2)
        assert result.low == -3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_negative_powers_against_multiplication(self, k):
        # d^{-k} r = sum_s (-1)^s C(k+s-1, s) r^{(s)} d^{-k-s}, with the
        # binomial from math.comb rather than the product's recurrence
        r = u(2) * u(3, 1) + Fraction(1, 2) * u(3)
        d_k = TruncatedPDO({-k: ONE}, top=-k, low=-k - 4)
        result = d_k.mul_keep_low(as_pdo(DiffOperator.from_coeffs([r]), -4), -k - 4)
        for s in range(5):
            expected = (-1) ** s * comb(k + s - 1, s) * r.derive(s)
            assert result.coefficient_at(-k - s) == expected

    def test_d_inverse_is_two_sided_inverse(self):
        lhs = as_pdo(D(), -1).mul_keep_low(d_inverse(-3), -2)
        rhs = d_inverse(-3).mul_keep_low(as_pdo(D(), -1), -2)
        one = as_pdo(DiffOperator.one(), -2)
        assert lhs.positive_part() == DiffOperator.one()
        assert rhs.positive_part() == DiffOperator.one()
        for power in range(-2, 1):
            assert lhs.coefficient_at(power) == one.coefficient_at(power)
            assert rhs.coefficient_at(power) == one.coefficient_at(power)

    def test_differential_operator_products_match_ring(self):
        a = L(3)
        b = DiffOperator.from_dict({2: 1, 0: u(2)})
        via_pdo = as_pdo(a, -2).mul_keep_low(as_pdo(b, -3), 0)
        direct = a * b
        assert via_pdo.positive_part() == direct


class TestNthRoot:
    def test_cubic_root_expansion(self):
        # Q = d + 1/3 u2 d^{-1} + 1/3 (u3 - u2') d^{-2} + ...
        q = nth_root(L(3), 2)
        assert q.coefficient_at(1) == ONE
        assert not q.coefficient_at(0)
        assert q.coefficient_at(-1) == THIRD * u(2)
        assert q.coefficient_at(-2) == THIRD * (u(3) - u(2, 1))

    def test_square_root_first_coefficient(self):
        # matching (d + q d^{-1} + ...)^2 = d^2 + u2 gives 2q = u2
        q = nth_root(L(2), 1)
        assert q.coefficient_at(-1) == Fraction(1, 2) * u(2)

    def test_root_of_pure_power_is_d(self):
        for n in (2, 3, 5):
            q = nth_root(D(n), 4)
            assert q.coefficient_at(1) == ONE
            for power in range(-4, 1):
                assert not q.coefficient_at(power)

    def test_cube_reproduces_operator(self):
        q = nth_root(L(3), 4)
        cube = q.power(3, tail_depth=2)
        for power in range(-2, 4):
            assert cube.coefficient_at(power) == L(3).coefficient_at(power), power

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_root_identity_retained_coefficients(self, n):
        depth = 6
        q = nth_root(L(n), depth)
        tail = depth - (n - 1)
        power = q.power(n, tail_depth=tail)
        for p in range(-tail, n + 1):
            assert power.coefficient_at(p) == L(n).coefficient_at(p), p

    def test_root_coefficients_homogeneous(self):
        q = nth_root(L(5), 6)
        for j in range(1, 7):
            coeff = q.coefficient_at(-j)
            if coeff:
                assert coeff.weight() == j + 1
        assert q.weight() == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_root_matches_whole_power_recursion(self, n):
        for depth in range(9):
            assert nth_root(L(n), depth) == reference_nth_root(L(n), depth), depth

    def test_root_forms_no_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("nth_root multiplied whole operators")

        monkeypatch.setattr(TruncatedPDO, "mul_keep_low", refuse)
        assert nth_root(L(4), 6).depth == 6

    def test_rejects_non_normal_form(self):
        with pytest.raises(ValueError):
            nth_root(DiffOperator.from_dict({2: 1, 1: u(2)}), 2)
        with pytest.raises(ValueError):
            nth_root(D(), 2)


    def test_root_and_powers_derive_each_dict_once(self, monkeypatch):
        # every right factor keeps its chain b, b', b'', ...: the root's
        # coefficients are derived once across all nth_root steps and all
        # products Q^m, which reuse the root's chains
        derived = []
        original = polynomials._derive_raw

        def counting(terms):
            derived.append(frozenset(terms.items()))
            return original(terms)

        monkeypatch.setattr(polynomials, "_derive_raw", counting)
        for n in (3, 7):
            derived.clear()
            root = nth_root(L(n), 13)
            for _ in root.powers(14):
                pass
            assert derived, n
            assert len(set(derived)) == len(derived), n


class TestWeight:
    def test_mixed_weights_raise(self):
        # weight 1 at d^1, weight 3 - 1 = 2 at d^{-1}
        mixed = TruncatedPDO({1: ONE, -1: u(3)}, top=1, low=-1)
        with pytest.raises(NotHomogeneousError):
            mixed.weight()


class TestPower:
    def test_positive_part_of_square(self):
        q = nth_root(L(3), 3)
        p2 = q.power(2).positive_part()
        assert p2 == DiffOperator.from_dict({2: 1, 0: Fraction(2, 3) * u(2)})

    def test_positive_part_of_fourth_power(self):
        q = nth_root(L(3), 5)
        p4 = q.power(4).positive_part()
        expected = DiffOperator.from_dict(
            {
                4: 1,
                2: Fraction(4, 3) * u(2),
                1: Fraction(2, 3) * u(2, 1) + Fraction(4, 3) * u(3),
                0: Fraction(2, 9) * u(2, 2)
                + Fraction(2, 3) * u(3, 1)
                + Fraction(2, 9) * u(2) ** 2,
            }
        )
        assert p4 == expected

    def test_nth_power_restores_operator(self):
        q = nth_root(L(4), 5)
        assert q.power(4).positive_part() == L(4)

    def test_homogeneity_of_powers(self):
        q = nth_root(L(3), 6)
        for m in (2, 4, 5):
            pm = q.power(m)
            assert pm.weight() == m

    def test_depth_bookkeeping_rejects_shallow_roots(self):
        q = nth_root(L(3), 2)
        with pytest.raises(InsufficientDepthError):
            q.power(5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_powers_match_power(self, n):
        # (e, t) = (n, 1 - n) and (n, 3 - n) are nth_root's first and third
        # steps: a negative tail depth
        for e, t in [(1, 0), (3, 0), (4, 2), (6, 1), (n, 1 - n), (n, 3 - n)]:
            root = nth_root(L(n), max(0, t + e - 1))
            powers = list(root.powers(e, t))
            assert len(powers) == e
            for j, pj in enumerate(powers, 1):
                # == compares the coefficients, top and low
                assert pj == root.power(j, t + e - j), (e, t, j)

    def test_powers_stop_at_first_shallow_product(self):
        root = nth_root(L(3), 2)
        powers = root.powers(5)
        assert next(powers) is root
        with pytest.raises(InsufficientDepthError, match=r"left factor retained to d\^-2"):
            next(powers)
        with pytest.raises(ValueError, match="exponent must be positive"):
            next(root.powers(0))

    def test_depth_stability(self):
        # the positive part must not depend on extra tail depth
        for m in (4, 5, 7):
            shallow = nth_root(L(3), m - 1).power(m).positive_part()
            deep = nth_root(L(3), m + 2).power(m).positive_part()
            assert shallow == deep


class TestReusedSums:
    # a right factor keeps the sums of d^i times itself that its products
    # formed; at any later cut they must give what an equal factor with no
    # sums kept gives

    @pytest.mark.parametrize(
        "cuts",
        [(-4, -2, 0, 2), (2, 0, -2, -4), (-3, -3, 1, 1, -4, -4)],
        ids=["rising", "falling", "repeated"],
    )
    def test_products_match_a_fresh_factor(self, cuts):
        root = nth_root(L(3), 8)
        lefts = [root, nth_root(L(3), 8).power(2, 5), as_pdo(L(3), -8)]
        for k in cuts:
            for left in lefts:
                assert left.mul_keep_low(root, k) == left.mul_keep_low(nth_root(L(3), 8), k), (k, left)

    @pytest.mark.parametrize("n", [3, 7])
    def test_powers_and_product_loop_match_a_fresh_factor(self, n):
        max_m = 9
        root = nth_root(L(n), max_m - 1)
        for e, t in [(max_m, 0), (max_m - 2, 2), (max_m - 2, 2), (4, 0), (max_m, 0)]:
            assert list(root.powers(e, t)) == list(nth_root(L(n), max_m - 1).powers(e, t)), (e, t)
        # the verify pipeline's loop: Q^m = Q^(m-1) Q, cut at -(max_m - m)
        fresh = nth_root(L(n), max_m - 1)
        q = q_fresh = root
        for m in range(2, max_m + 1):
            q = q.mul_keep_low(root, -(max_m - m))
            q_fresh = q_fresh.mul_keep_low(fresh, -(max_m - m))
            assert q == q_fresh, m
            fresh = nth_root(L(n), max_m - 1)

    def test_reused_factor_still_refuses_a_deep_cut(self):
        root = nth_root(L(3), 3)
        op = as_pdo(L(3), -6)
        op.mul_keep_low(root, 2)
        op.mul_keep_low(root, 0)
        with pytest.raises(InsufficientDepthError, match=r"right factor retained to d\^-3"):
            op.mul_keep_low(root, -1)

    def test_kept_sums_change_neither_equality_nor_repr(self):
        used, unused = nth_root(L(3), 4), nth_root(L(3), 4)
        text = repr(used)
        used.power(4, 1)
        assert used._sums
        assert used == unused
        assert repr(used) == text == repr(unused)

    def test_threads_sharing_one_root(self):
        # more threads than cores multiply by one root, each at its own
        # cuts in its own order; every product must equal the serial one
        max_m = 9
        root = nth_root(L(3), max_m - 1)
        lefts = list(nth_root(L(3), max_m - 1).powers(max_m - 1))
        jobs = [(j, k) for j in range(1, max_m) for k in range(j + 2 - max_m, j + 2)]
        serial = {(j, k): lefts[j - 1].mul_keep_low(nth_root(L(3), max_m - 1), k) for j, k in jobs}
        results: list = []
        errors: list = []

        def work(seed):
            order = jobs * 3
            random.Random(seed).shuffle(order)
            try:
                results.extend(((j, k), lefts[j - 1].mul_keep_low(root, k)) for j, k in order)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 4 * 3 * len(jobs)
        for job, product in results:
            assert product == serial[job], job


class TestDepthRule:
    # a b is known on powers >= max(a.low + b.top, a.top + b.low); each
    # retained coefficient must agree with the product of a deeper root

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_root_times_root(self, n, depth):
        root, deeper = nth_root(L(n), depth), nth_root(L(n), depth + 3)
        for k in range(-depth - 3, 3):
            if k < 1 - depth:
                message = rf"left factor retained to d\^{-depth}:"
                with pytest.raises(InsufficientDepthError, match=message):
                    root.mul_keep_low(root, k)
                continue
            product = root.mul_keep_low(root, k)
            expected = deeper.mul_keep_low(deeper, k)
            for p in range(k, 3):
                assert product.coefficient_at(p) == expected.coefficient_at(p), (k, p)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_operator_times_root(self, n, depth):
        op = TruncatedPDO.from_operator(L(n))
        root, deeper = nth_root(L(n), depth), nth_root(L(n), depth + 3)
        for k in range(-depth - 3, n + 2):
            if k < 1:
                message = r"left factor retained to d\^0:"
            elif k < n - depth:
                message = rf"right factor retained to d\^{-depth}:"
            else:
                product = op.mul_keep_low(root, k)
                expected = op.mul_keep_low(deeper, k)
                for p in range(k, n + 2):
                    assert product.coefficient_at(p) == expected.coefficient_at(p), (k, p)
                continue
            with pytest.raises(InsufficientDepthError, match=message):
                op.mul_keep_low(root, k)


class TestPositivePart:
    def test_of_root_is_d(self):
        assert nth_root(L(3), 2).positive_part() == D()

    def test_of_negative_tail_is_zero(self):
        tail = TruncatedPDO({-1: u(2)}, top=-1, low=-1)
        assert not tail.positive_part()

    def test_zero_operator_is_exact(self):
        # known on [0, 0] and zero there; from_operator has no order to use
        zero = TruncatedPDO({}, top=0, low=0)
        assert not zero.positive_part()
        with pytest.raises(ValueError, match="low power exceeds top power"):
            TruncatedPDO.from_operator(DiffOperator.zero())

    def test_depth_round_trip(self):
        q = nth_root(L(2), 3)
        assert (q.top, q.low, q.depth) == (1, -3, 3)
        exact = TruncatedPDO.from_operator(L(2))
        assert (exact.top, exact.low, exact.depth) == (2, 0, 0)


class TestLoudFailures:
    def test_insufficient_depth_error_message(self):
        q = nth_root(L(3), 1)
        with pytest.raises(InsufficientDepthError):
            q.mul_keep_low(q, -3)

    def test_coefficient_below_truncation(self):
        with pytest.raises(InsufficientDepthError, match=r"d\^-3 was discarded"):
            nth_root(L(3), 2).coefficient_at(-3)

    def test_shallow_right_factor(self):
        with pytest.raises(InsufficientDepthError, match=r"right factor retained to d\^-1"):
            as_pdo(L(3), -4).mul_keep_low(nth_root(L(3), 1), -3)

    def test_positive_part_not_retained(self):
        truncated = TruncatedPDO({2: u(2)}, top=2, low=1)
        with pytest.raises(InsufficientDepthError, match="positive part not fully retained"):
            truncated.positive_part()

    def test_low_above_top(self):
        with pytest.raises(ValueError, match="low power exceeds top power"):
            TruncatedPDO({}, top=0, low=1)

    def test_coefficient_outside_range(self):
        with pytest.raises(ValueError, match="coefficient outside the retained range"):
            TruncatedPDO({2: ONE}, top=1, low=-1)

    def test_zeroth_power(self):
        with pytest.raises(ValueError, match="exponent must be positive"):
            nth_root(L(3), 2).power(0)

    def test_negative_root_depth(self):
        with pytest.raises(ValueError, match="depth must be non-negative"):
            nth_root(L(3), -1)


class TestEquality:
    def test_roots_built_alike_are_equal(self):
        assert nth_root(L(3), 3) == nth_root(L(3), 3)

    def test_range_counts(self):
        pdo = TruncatedPDO({1: ONE}, top=1, low=-1)
        assert pdo == TruncatedPDO({1: ONE}, top=1, low=-1)
        assert pdo != TruncatedPDO({1: ONE}, top=1, low=-2)
        assert pdo != TruncatedPDO({1: ONE}, top=2, low=-1)


class TestRendering:
    def test_exact(self):
        pdo = TruncatedPDO({-1: ONE, 1: u(2)}, top=1, low=-1)
        assert str(pdo) == "u2*D + D^-1 + O(D^-2)"

    def test_truncated_tail(self):
        root = nth_root(L(3), 2)
        assert str(root) == "D + 1/3*u2*D^-1 + (-1/3*u2' + 1/3*u3)*D^-2 + O(D^-3)"
        assert repr(root) == f"TruncatedPDO({root})"

    def test_zero_has_no_tail(self):
        assert str(TruncatedPDO({}, top=0, low=-2)) == "0"
