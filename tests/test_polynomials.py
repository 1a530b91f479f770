"""Differential polynomial ring: arithmetic, derivation, grading, evaluation."""

import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from diffops import polynomials
from diffops.formats import poly_from_json
from diffops.operators import DiffOperator
from diffops.polynomials import (
    C_FAMILY,
    MAX_EXPONENT,
    Y_FAMILY,
    DiffPolynomial,
    IncompleteSolutionError,
    NotHomogeneousError,
    VarId,
    c,
    c_id,
    substitute,
    u,
    u_id,
    y,
)
from helpers import mono_sort_key, rand_rational, random_homogeneous, random_poly

HALF = Fraction(1, 2)


class TestArithmetic:
    def test_additive_inverse(self):
        assert not (u(2) + (-1) * u(2))

    def test_square(self):
        assert u(2) * u(2) == u(2) ** 2

    def test_symmetric_average(self):
        left = HALF * (u(2, 1) + u(3)) + HALF * (u(2, 1) - u(3))
        assert left == u(2, 1)

    def test_scalar_and_constant_mixing(self):
        p = 3 * u(2) - u(2) - u(2) - u(2)
        assert not p
        assert (u(2) + 1) - 1 == u(2)

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(25):
            p = random_poly(rng)
            q = random_poly(rng)
            r = random_poly(rng)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + DiffPolynomial.zero() == p
            assert not (p - p)

    def test_pow_matches_repeated_product(self):
        rng = random.Random(7)
        p = random_poly(rng)
        assert p ** 3 == p * p * p
        assert p ** 0 == DiffPolynomial.one()


class TestDerivation:
    def test_single_variable(self):
        assert u(2).derive() == u(2, 1)

    def test_leibniz_example(self):
        assert (u(2) * u(3)).derive() == u(2, 1) * u(3) + u(2) * u(3, 1)

    def test_constants_killed(self):
        assert not c(2, 1).derive()
        assert (c(4, 2) * u(2)).derive() == c(4, 2) * u(2, 1)

    def test_iterated(self):
        assert u(2).derive(3) == u(2, 3)
        assert u(2).derive(0) == u(2)

    def test_leibniz_random(self):
        rng = random.Random(23)
        for _ in range(25):
            p = random_poly(rng)
            q = random_poly(rng)
            assert (p * q).derive() == p.derive() * q + p * q.derive()


class TestWeight:
    def test_variable_weights(self):
        assert u(2, 2).weight() == 4
        assert (u(2) * u(3, 1)).weight() == 6

    def test_mixed_raises(self):
        with pytest.raises(NotHomogeneousError):
            (u(2) + u(3)).weight()

    def test_zero_weight_is_any(self):
        assert DiffPolynomial.zero().weight() is None

    def test_constants_weight_transparent(self):
        assert (c(5, 2) * u(2)).weight() == 2
        assert c(5, 2).weight() == 0

    def test_grading_random(self):
        rng = random.Random(31)
        for _ in range(25):
            r = rng.randint(2, 6)
            s = rng.randint(2, 6)
            p = random_homogeneous(rng, r, nonzero=True)
            q = random_homogeneous(rng, s, nonzero=True)
            assert (p * q).weight() == r + s
            assert p.derive().weight() == r + 1


class TestEvaluate:
    def test_bracket_equation_solution(self):
        equation = 3 * y(2, 1) - 2 * u(2, 1)
        assert not equation.evaluate({2: Fraction(2, 3) * u(2)})

    def test_derivatives_of_assignment(self):
        assert y(2, 2).evaluate({2: u(3)}) == u(3, 2)
        # chains that end early: a derivative of a constant or of zero
        three = DiffPolynomial.constant(3)
        assert y(2, 2).evaluate({2: three}) == 0
        assert (u(2) * y(2, 1)).evaluate({2: three}) == 0
        assert y(3, 1).evaluate({3: DiffPolynomial.zero()}) == 0

    def test_identity_on_u(self):
        assert u(2).evaluate({}) == u(2)
        assert (u(2) * c(3, 1)).evaluate({2: u(2) ** 2}) == u(2) * c(3, 1)

    def test_incomplete_solution(self):
        with pytest.raises(IncompleteSolutionError):
            (y(2) + y(5)).evaluate({2: u(2)})
        # only a derivative of the missing y_5 occurs, alone or in an operator
        with pytest.raises(IncompleteSolutionError) as info:
            (u(2) * y(5, 3)).evaluate({2: u(2)})
        assert info.value.index == 5
        assert "y_5" in str(info.value)
        op = DiffOperator.from_dict({2: y(2, 1), 0: y(5, 3)})
        with pytest.raises(IncompleteSolutionError) as info:
            op.evaluate({2: u(2)})
        assert info.value.index == 5

    def test_is_differential_homomorphism(self):
        rng = random.Random(47)
        for _ in range(15):
            p = random_poly(rng) + random_homogeneous(rng, 4) * y(2) + y(3, 1) * random_homogeneous(rng, 3)
            z = {2: random_poly(rng, max_weight=4), 3: random_poly(rng, max_weight=4)}
            assert p.derive().evaluate(z) == p.evaluate(z).derive()

    @pytest.mark.parametrize(
        "bad", [y(2) * y(3), y(2) ** 2, y(2, 1) * y(2)], ids=["two-ys", "square", "y-and-derivative"]
    )
    def test_nonlinear_monomial_is_refused(self, bad):
        # every route refuses it before reading an assignment, also when a
        # linear polynomial comes first, so no chain is grown
        z = {2: u(2) * u(3) + u(4, 1), 3: u(3, 1)}
        for substitution in (
            lambda: (u(2) + bad).evaluate(z),
            lambda: DiffOperator.from_dict({0: y(2, 3), 1: bad}).evaluate(z),
            lambda: list(substitute([y(2, 3) + y(3, 2), bad], z)),
        ):
            with pytest.raises(ValueError, match="linear in the y.s; it cannot take"):
                substitution()
            assert all(q._derivs is None for q in z.values())

    def test_assignments_keep_no_derivative_chain(self):
        # the stream cuts the chains it grew on its assignments to what later
        # polynomials use, and drops them after the last polynomial, after an
        # IncompleteSolutionError, and when the consumer stops early
        q = u(2) * u(3) + u(4, 1)
        assert (y(2, 3) + u(2) * y(2)).evaluate({2: q}) == q.derive(3) + u(2) * q
        assert q._derivs is None
        with pytest.raises(IncompleteSolutionError):
            (y(2, 3) + y(5)).evaluate({2: q})
        assert q._derivs is None
        stream = substitute([y(2, 3), y(2, 1)], {2: q})
        assert next(stream) == q.derive(3)
        assert q._derivs == [q._nums, q.derive()._nums]
        stream.close()
        assert q._derivs is None

    def test_waiting_stream_holds_no_cut_derivative(self):
        # while the stream waits at its yield, no local of its frame may hold
        # a derivative of q_2 that the chain no longer keeps; the first
        # polynomial has no y, so its loop runs over no term
        q = u(2) * u(3) + u(4, 1)
        cut = [q.derive(k)._nums for k in (1, 2, 3)]
        stream = substitute([u(2), u(3) * y(2, 3), u(2) * y(2)], {2: q})
        assert next(stream) == u(2)
        assert next(stream) == u(3) * q.derive(3)
        assert q._derivs == [q._nums]
        for name, value in stream.gi_frame.f_locals.items():
            assert not (isinstance(value, dict) and value in cut), name
        stream.close()


class TestCanonicalForm:
    def test_no_zero_coefficients_stored(self):
        p = u(2) - u(2) + u(3)
        assert len(p) == 1

    def test_repr_stability(self):
        p = Fraction(2, 3) * u(2) + u(3, 1) ** 2 - c(3, 1) * u(2, 4)
        assert str(p) == str(p + DiffPolynomial.zero())

    def test_constructor_normalizes_strings(self):
        vid = u_id(2, 1)
        p = DiffPolynomial({((vid, 1),): "2/4"})
        assert p == HALF * u(2, 1)

    def test_sorted_terms_order(self):
        rng = random.Random(211)
        for _ in range(30):
            p = (
                random_y_poly(rng)
                + c(3, 1) * random_poly(rng, max_weight=4)
                + rand_rational(rng) * c(4, 2) ** 2 * y(2, 1) * c(3, 1)
                + rand_rational(rng)
            )
            expected = [
                (list(mono), coeff.numerator, coeff.denominator)
                for mono, coeff in sorted(p.items(), key=lambda t: mono_sort_key(t[0]))
            ]
            assert p.sorted_terms(lambda vid, exp: (vid, exp)) == expected

    def test_sorted_terms_renders_each_factor_once(self):
        p = u(2) * u(2, 1) + 3 * u(2) ** 2 - c(4, 1) * u(2) ** 2 + c(4, 1) * u(2) + 5
        calls = []

        def factor_str(vid, exp):
            calls.append((vid, exp))
            return [vid, exp]

        terms = p.sorted_terms(factor_str)
        assert sorted(calls) == [(u_id(2), 1), (u_id(2), 2), (u_id(2, 1), 1), (c_id(4, 1), 1)]
        assert [[tuple(f) for f in factors] for factors, _, _ in terms] == [
            list(mono) for mono in sorted((m for m, _ in p.items()), key=mono_sort_key)
        ]
        # terms that share a factor share its rendered value
        squares = [factors for factors, _, _ in terms if [u_id(2), 2] in factors]
        assert len(squares) == 2 and squares[0][0] is squares[1][0]

    def test_varid_ordering(self):
        assert u_id(2, 1) < u_id(2, 2) < u_id(3, 0)
        assert u_id(5, 9) < VarId(1, 2, 0)  # any u before any y
        assert VarId(1, 9, 4) < VarId(2, (2, 1), 0)  # any y before any c


# -- the integer kernel against a plain-Fraction reference ------------------


def ref_mono_mul(m1, m2):
    exps = dict(m1)
    for vid, exp in m2:
        exps[vid] = exps.get(vid, 0) + exp
    return tuple(sorted(exps.items()))


def ref_add(a, b, sign=1):
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, Fraction(0)) + sign * coeff
    return {m: v for m, v in out.items() if v}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            out = ref_add(out, {ref_mono_mul(ma, mb): ca * cb})
    return out


def ref_derive(a):
    out = {}
    for mono, coeff in a.items():
        for vid, exp in mono:
            if vid[0] == C_FAMILY:
                continue
            rest = tuple((v, e - (v == vid)) for v, e in mono if e - (v == vid))
            up = ((VarId(vid[0], vid[1], vid[2] + 1), 1),)
            out = ref_add(out, {ref_mono_mul(rest, up): coeff * exp})
    return out


def ref_substitute(a, assignments):
    out = {}
    for mono, coeff in a.items():
        term = {tuple(f for f in mono if f[0][0] != Y_FAMILY): coeff}
        for vid, exp in mono:
            if vid[0] == Y_FAMILY:
                q = assignments[vid[1]]
                for _ in range(vid[2]):
                    q = ref_derive(q)
                for _ in range(exp):
                    term = ref_mul(term, q)
        out = ref_add(out, term)
    return out


def assert_normal_form(p):
    nums, den = p._nums, p._den
    assert isinstance(den, int) and den >= 1
    assert all(isinstance(v, int) and v for v in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    if not nums:
        assert den == 1


def assert_matches(p, ref):
    assert_normal_form(p)
    assert dict(p.items()) == ref


def random_y_poly(rng):
    """A polynomial linear in the y-variables: u-polynomials times one
    y-factor each, with derivatives, plus a y-free part."""
    return (
        random_homogeneous(rng, 4) * y(2)
        + y(3, 1) * random_homogeneous(rng, 3)
        + rand_rational(rng) * u(2) * y(2, 2)
        + random_poly(rng, max_weight=5)
    )


class TestIntegerKernel:
    """Each operation agrees term by term with Fraction arithmetic and
    leaves its result in normal form."""

    def test_int_ranks_order_like_elimination_rank(self):
        # u, y and c variables, indices >= 10 and orders >= 16
        for l in (2, 3, 10, 11, 4_000_000):
            for k in (0, 1, 15, 16, 17, 300):
                u(l, k), y(l, k)
        c(3, 1), c(12, 10)
        slots = [s for s, vid in enumerate(polynomials._VARS) if vid is not None]
        by_rank = sorted(slots, key=polynomials._RANKS.__getitem__)
        by_tuple = sorted(slots, key=lambda s: polynomials.elimination_rank(polynomials._VARS[s]))
        assert by_rank == by_tuple
        # equal tuples (every c) have equal ranks, and only they
        for a, b in zip(by_rank, by_rank[1:]):
            ta, tb = (polynomials.elimination_rank(polynomials._VARS[s]) for s in (a, b))
            assert (polynomials._RANKS[a] == polynomials._RANKS[b]) == (ta == tb)

    def test_ring_operations(self):
        rng = random.Random(601)
        for _ in range(40):
            p = random_homogeneous(rng, rng.randint(2, 6), indices=(2, 3, 4), max_terms=6)
            q = random_homogeneous(rng, rng.randint(2, 6), indices=(2, 3, 4), max_terms=6)
            rp, rq = dict(p.items()), dict(q.items())
            assert_matches(p, rp)
            assert_matches(p + q, ref_add(rp, rq))
            assert_matches(p - q, ref_add(rp, rq, -1))
            assert_matches(p - p, {})
            assert_matches(-p, {m: -v for m, v in rp.items()})
            assert_matches(p * q, ref_mul(rp, rq))
            assert_matches(p.derive(), ref_derive(rp))
            assert_matches(p.derive(2), ref_derive(ref_derive(rp)))

    def test_scalars(self):
        rng = random.Random(602)
        for _ in range(40):
            p = random_homogeneous(rng, rng.randint(2, 6), indices=(2, 3), max_terms=6)
            rp = dict(p.items())
            s = rand_rational(rng)
            k = s.numerator
            assert_matches(p * s, {m: v * s for m, v in rp.items()} if s else {})
            assert_matches(s * p, {m: v * s for m, v in rp.items()} if s else {})
            assert_matches(p * k, {m: v * k for m, v in rp.items()} if k else {})
            if s:
                assert_matches(p / s, {m: v / s for m, v in rp.items()})
                assert_matches(p / -3, {m: v / -3 for m, v in rp.items()})
        with pytest.raises(ZeroDivisionError):
            u(2) / 0

    def test_substitute(self):
        rng = random.Random(603)
        for _ in range(20):
            p = random_y_poly(rng)
            z = {
                2: random_homogeneous(rng, 2, max_terms=3) + rand_rational(rng) * u(2) * u(3),
                3: random_homogeneous(rng, 3, max_terms=3) + rand_rational(rng),
            }
            ref = ref_substitute(dict(p.items()), {l: dict(q.items()) for l, q in z.items()})
            assert_matches(p.evaluate(z), ref)

    def test_substitute_many_shares_one_table(self):
        rng = random.Random(604)
        polys = [random_y_poly(rng) for _ in range(5)] + [y(2, 4), u(2), u(2) * y(3, 3)]
        z = {2: Fraction(1, 3) * u(2) ** 2 + Fraction(5, 7) * u(3), 3: Fraction(-2, 9) * u(2, 1)}
        ref_z = {l: dict(q.items()) for l, q in z.items()}
        got = DiffOperator.from_coeffs(polys).evaluate(z).coefficients()
        for p, result in zip(polys, got):
            assert_matches(result, ref_substitute(dict(p.items()), ref_z))

    def test_constructors_normalise(self):
        mono = ((u_id(2, 1), 1),)
        assert DiffPolynomial({mono: Fraction(2, 4)}) == DiffPolynomial({mono: "1/2"})
        for p in (
            DiffPolynomial({mono: Fraction(2, 4), (): Fraction(-3, 6)}),
            DiffPolynomial({mono: Fraction(0)}),
            DiffPolynomial({mono: "6/4", (): 3}),
            DiffPolynomial.constant(Fraction(-10, 4)),
            DiffPolynomial.zero(),
            (Fraction(1, 2) * u(2)) * 2,
            (Fraction(1, 2) * u(2) ** 2).derive(),
        ):
            assert_normal_form(p)
        assert (Fraction(1, 2) * u(2) ** 2).derive() == u(2) * u(2, 1)
        assert DiffPolynomial.constant(Fraction(-10, 4)) == Fraction(-5, 2)
        assert dict(DiffPolynomial({mono: Fraction(2, 4)}).items()) == {mono: HALF}


# -- exponent fields and the slot table ----------------------------------------


def c_mono(j, exp):
    return ((VarId(C_FAMILY, (3, j), 0), exp),)


def u_mono(*factors):
    return tuple(sorted((u_id(l, k), exp) for l, k, exp in factors))


class TestExponentField:
    """A monomial key holds each exponent in a fixed-width field.  An
    exponent above the field either gives the reference result or raises
    OverflowError; it never wraps into a neighbouring field.  Each case
    also goes past 255, where an unguarded field would carry, except
    substitution: it multiplies each y-free part by one q_l^{(k)}, so it
    adds two exponents of at most 127 each, and only a product of several
    y-factors, which substitution refuses, could pass 255."""

    @staticmethod
    def reference_or_raise(compute, reference):
        try:
            got = compute()
        except OverflowError:
            return
        assert dict(got.items()) == reference

    def test_power_products(self):
        self.reference_or_raise(
            lambda: u(2) ** 200 * u(2) ** 100,
            ref_mul({u_mono((2, 0, 200)): 1}, {u_mono((2, 0, 100)): 1}),
        )
        self.reference_or_raise(
            lambda: u(2) ** 120 * u(2) ** 8, {u_mono((2, 0, 128)): 1}
        )

    def test_derivatives(self):
        self.reference_or_raise(lambda: (u(2) ** 255).derive(), ref_derive({u_mono((2, 0, 255)): 1}))
        # the derivative pushes the exponent of u_2' past the field
        for exp in (MAX_EXPONENT, 255):
            self.reference_or_raise(
                lambda: (u(2, 1) ** exp * u(2)).derive(),
                ref_derive({u_mono((2, 1, exp), (2, 0, 1)): 1}),
            )

    def test_constants(self):
        # c_{3,1} and c_{3,2} hold neighbouring fields: a carry out of the
        # first would show as a higher power of the second
        c1, c2 = c(3, 1), c(3, 2)
        self.reference_or_raise(
            lambda: c1 ** 150 * c1 ** 150, ref_mul({c_mono(1, 150): 1}, {c_mono(1, 150): 1})
        )
        self.reference_or_raise(
            lambda: (c1 ** 127 * c2) * (c1 ** 127 * c2),
            ref_mul({c_mono(1, 127) + c_mono(2, 1): 1}, {c_mono(1, 127) + c_mono(2, 1): 1}),
        )

    def test_substitution_and_operator_products(self):
        self.reference_or_raise(
            lambda: (u(2) ** 100 * y(2)).evaluate({2: u(2) ** 100}), {u_mono((2, 0, 200)): 1}
        )
        big = DiffOperator.from_coeffs([u(2) ** 100])
        self.reference_or_raise(
            lambda: (big * big * big).coefficient_at(0), {u_mono((2, 0, 300)): 1}
        )

    def test_construction(self):
        self.reference_or_raise(
            lambda: DiffPolynomial({u_mono((2, 0, 300)): Fraction(1)}), {u_mono((2, 0, 300)): 1}
        )
        self.reference_or_raise(
            lambda: DiffPolynomial({((u_id(2), 100), (u_id(2), 100)): 1}),
            {u_mono((2, 0, 200)): 1},
        )
        # a cache entry holding such an exponent is refused, not wrapped
        with pytest.raises(ValueError):
            poly_from_json([{"coeff": "1", "monomial": [["u", 2, 0, 300]]}])

    def test_largest_exponent_is_exact(self):
        top = u(2) ** MAX_EXPONENT
        assert dict(top.items()) == {u_mono((2, 0, MAX_EXPONENT)): 1}
        assert dict(top.derive().items()) == ref_derive({u_mono((2, 0, MAX_EXPONENT)): 1})
        assert dict((c(3, 1) ** MAX_EXPONENT * c(3, 2)).items()) == {
            c_mono(1, MAX_EXPONENT) + c_mono(2, 1): 1
        }


PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)

SLOTS_REVERSED = textwrap.dedent(
    """
    import hashlib, json, sys, tempfile
    from pathlib import Path
    from diffops import almost_commuting, cli
    from diffops.formats import canonical_json_bytes, result_to_json
    from diffops.polynomials import c, u, y

    # give every variable its slot in reverse canonical order first:
    # constants, then y_20^(10) down to y_2, then u_7^(25) down to u_2
    for m in range(12, 0, -1):
        for j in range(m, 0, -1):
            c(m, j)
    for l in range(20, 1, -1):
        for k in range(10, -1, -1):
            y(l, k)
    for l in range(7, 1, -1):
        for k in range(25, -1, -1):
            u(l, k)
    digests = {}
    for n, m in ((3, 8), (7, 9)):
        data = canonical_json_bytes(result_to_json(almost_commuting(n, m)))
        digests[f"{n},{m}"] = hashlib.sha256(data).hexdigest()
    out = Path(tempfile.mkdtemp())
    argv = ["hierarchy", "--n", "5", "--m", "9", "--with-constants", "--out", str(out), "--quiet"]
    for fmt in ("json", "latex", "text"):
        cli.main(argv + ["--format", fmt])
    for path in out.iterdir():
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(digests))
    """
)


def test_output_is_independent_of_slot_order(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), DIFFOPS_CACHE_DIR=str(tmp_path))
    run = subprocess.run(
        [sys.executable, "-c", SLOTS_REVERSED], env=env, capture_output=True, text=True, check=True
    )
    digests = json.loads(run.stdout)
    for key in ("3,8", "7,9"):
        assert digests.pop(key) == PINNED["results"][key]["sha256"], key
    # the level-9 flows of n = 5 are built from almost_commuting(5, 1..9)
    assert len(digests) == 12
    for name, digest in digests.items():
        assert digest == PINNED["cli_files"][name], name


def test_pickle_carries_canonical_monomials():
    # a fresh process numbers its slots in another order
    p = Fraction(3, 4) * u(2, 5) * u(3) ** 2 - c(4, 1) * u(4, 1) + 7
    script = textwrap.dedent(
        """
        import pickle, sys
        from diffops.polynomials import c, u
        for l in range(9, 1, -1):
            u(l, 9)
        c(4, 2)
        print(pickle.loads(bytes.fromhex(sys.stdin.read())))
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(p).hex(),
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == str(p)
    assert pickle.loads(pickle.dumps(p)) == p
