"""Shared generators for randomized property tests (always seeded)."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

from diffops.basis import BracketSystem
from diffops.integration import antiderivative, euler
from diffops.operators import _ONE_POLY, DiffOperator
from diffops.polynomials import DiffPolynomial, u_id
from diffops.pseudo import TruncatedPDO


def mono_sort_key(mono: tuple):
    """The reference canonical order of monomials, as (VarId, exp) tuples:
    weight descending, ties broken lexicographically."""
    weight = sum(vid.weight() * exp for vid, exp in mono)
    return (-weight, mono)


def D(power: int = 1) -> DiffOperator:
    """The operator d^power."""
    return DiffOperator.from_dict({power: 1})


def reference_nth_root(op: DiffOperator, depth: int) -> TruncatedPDO:
    """``nth_root`` by direct recursion on whole powers: at each step t the
    n-th power of the known part of the root, truncated at d^(n-1-t), is
    formed anew and misses exactly n * q_{-t} there.  Argument checks are
    left to ``nth_root``."""
    n = op.order
    found: dict = {1: _ONE_POLY}
    for t in range(1, depth + 1):
        target = n - 1 - t
        # q_{-t} is not found yet, so ``known`` holds 0 at d^-t; depth t is
        # what power(n, t + 1 - n) needs (tail + exponent - 1 = t).  In Q^n,
        # q_{-t} reaches the target only as q_{-t} d^-t times the leading
        # d of the other n - 1 factors, once per position, so the power
        # misses exactly n * q_{-t} at the target.
        known = TruncatedPDO(found, top=1, low=-t)
        acc = known.power(n, t + 1 - n)
        mismatch = op.coefficient_at(target) - acc.coefficient_at(target)
        q_t = mismatch / n
        if q_t:
            found[-t] = q_t
    return TruncatedPDO(found, top=1, low=-depth)


def with_equation(system: BracketSystem, index: int, extra) -> BracketSystem:
    """``system`` with ``extra`` added to the equation for y_index."""
    equations = list(system.equations)
    equations[index - 2] = equations[index - 2] + extra
    return dataclasses.replace(system, equations=tuple(equations))


def rand_rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 6))


def check_total_derivative(f: DiffPolynomial, indices) -> DiffPolynomial:
    """Assert that f is a total derivative by a witness independent of the
    reduction, and return A = antiderivative(f): d(A) = f, the monomial 1
    is not in A, and E_{u_l}(f) = 0 for every l in ``indices``."""
    a = antiderivative(f)
    assert a.derive() == f
    assert () not in dict(a.items())
    for l in indices:
        assert not euler(f, l), l
    return a


@functools.cache  # the random generators ask for the same few sets thousands of times
def brute_force_weighted_monomials(weight: int, indices: tuple) -> frozenset:
    """All monomials in {u_l^{(k)} : l in indices} of exact weight >= 1:
    combinations with repetition of the variables, each of weight >= 2."""
    variables = [
        u_id(l, k) for l in indices for k in range(0, weight - l + 1) if l <= weight
    ]
    found = set()
    max_degree = weight // 2
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, degree):
            if sum(v.weight() for v in combo) == weight:
                mono = {}
                for v in combo:
                    mono[v] = mono.get(v, 0) + 1
                found.add(tuple(sorted(mono.items())))
    return frozenset(found)


def random_homogeneous(
    rng: random.Random,
    weight: int,
    indices=(2, 3),
    max_terms: int = 4,
    nonzero: bool = False,
) -> DiffPolynomial:
    monos = sorted(brute_force_weighted_monomials(weight, tuple(sorted(indices))), key=mono_sort_key)
    if not monos:
        return DiffPolynomial.zero()
    count = min(len(monos), rng.randint(1, max_terms))
    terms = {}
    for mono in rng.sample(monos, k=count):
        coeff = rand_rational(rng)
        if coeff:
            terms[mono] = coeff
    p = DiffPolynomial(terms)
    if nonzero and not p:
        mono = rng.choice(monos)
        return DiffPolynomial({mono: Fraction(rng.randint(1, 9))})
    return p


def random_poly(
    rng: random.Random,
    indices=(2, 3),
    min_weight: int = 2,
    max_weight: int = 7,
    max_terms: int = 3,
) -> DiffPolynomial:
    total = DiffPolynomial.zero()
    for w in range(min_weight, max_weight + 1):
        if rng.random() < 0.6:
            total = total + random_homogeneous(rng, w, indices, max_terms)
    return total


def random_normal_form(
    rng: random.Random, order: int, indices=(2, 3)
) -> DiffOperator:
    """Monic operator with zero subleading term and weight-homogeneous
    coefficients (weight of the d^i coefficient is order - i)."""
    coeffs = {order: DiffPolynomial.one()}
    for i in range(0, max(order - 1, 0)):
        if rng.random() < 0.85:
            poly = random_homogeneous(rng, order - i, indices)
            if poly:
                coeffs[i] = poly
    return DiffOperator.from_dict(coeffs)


def random_operator(rng: random.Random, max_order: int = 4, indices=(2, 3)) -> DiffOperator:
    order = rng.randint(0, max_order)
    coeffs = {}
    for i in range(order + 1):
        if i == order or rng.random() < 0.7:
            poly = random_poly(rng, indices, max_weight=5)
            if poly:
                coeffs[i] = poly
    if order not in coeffs or not coeffs[order]:
        coeffs[order] = DiffPolynomial.one()
    return DiffOperator.from_dict(coeffs)


def flip_u_sign(p: DiffPolynomial) -> DiffPolynomial:
    """The substitution u_l^{(k)} -> -u_l^{(k)} on every variable."""
    terms = {}
    for mono, coeff in p.items():
        degree = sum(exp for _, exp in mono)
        terms[mono] = coeff if degree % 2 == 0 else -coeff
    return DiffPolynomial(terms)
