"""Ordinary differential operators over differential polynomials.

Elements of R[d] where R is the differential-polynomial ring: finite sums
sum_i a_i d^i with composition as multiplication, governed by the rule
d r = r d + r'.  ``leibniz_product`` expands powers of d against a
coefficient, d^i r = sum_s C(i,s) r^{(s)} d^{i-s}; it is the one product
of this ring and of the truncated pseudo-differential operators, where
i < 0 and C(i,s) is the generalized binomial; ``apply`` reads an
operator's action on f off the d^0 coefficient of its product with f.

An operator is a sparse ``{power: nonzero coefficient}`` map in ascending
power order.  The order is not cosmetic: ``leibniz_product`` walks both
maps in order, which fixes the order in which every product's monomials
are first met, and with it how much memory a long computation holds at
its peak.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Mapping

from .polynomials import (
    DiffPolynomial,
    NotHomogeneousError,
    _acc,
    _derivatives,
    _mul_into,
    binary_power,
    join_signed,
    substitute,
)

NEG_INFINITY = float("-inf")

_ZERO_POLY = DiffPolynomial.zero()
_ONE_POLY = DiffPolynomial.one()


class DiffOperator:
    """A differential operator sum_i a_i d^i, held as ``{i: a_i}``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, DiffPolynomial] | None = None):
        # trusted: powers >= 0 in ascending order, nonzero coefficients
        self._coeffs = {} if coeffs is None else coeffs

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffOperator":
        return cls()

    @classmethod
    def one(cls) -> "DiffOperator":
        return cls({0: _ONE_POLY})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "DiffOperator":
        return cls.from_dict(dict(enumerate(coeffs)))

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, DiffPolynomial]) -> "DiffOperator":
        """sum_i coeffs[i] d^i over powers in any order, each a plain int >= 0."""
        for power in coeffs:
            if type(power) is not int or power < 0:
                raise ValueError(
                    f"negative power in differential operator, or not an int: {power!r}"
                )
        return cls(_ascending({p: _as_poly(c) for p, c in coeffs.items()}))

    # -- queries ---------------------------------------------------------

    @property
    def order(self):
        """Order of the operator; -inf for the zero operator."""
        return next(reversed(self._coeffs)) if self._coeffs else NEG_INFINITY

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coefficient_at(self, power: int) -> DiffPolynomial:
        return self._coeffs.get(power, _ZERO_POLY)

    def coefficients(self) -> tuple:
        """(a_0, ..., a_order), zero coefficients included."""
        return tuple(map(self.coefficient_at, range(self.order + 1))) if self._coeffs else ()

    def is_normal_form(self) -> bool:
        """Monic with zero coefficient in degree order-1."""
        return (
            bool(self._coeffs)
            and self._coeffs[self.order] == _ONE_POLY
            and self.order - 1 not in self._coeffs
        )

    def weight(self) -> int | None:
        """``operator_weight`` of the coefficients; None for the zero operator."""
        return operator_weight(self._coeffs)

    def monomials_total(self) -> int:
        """Total monomial count across all coefficients."""
        return sum(len(c) for c in self._coeffs.values())

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other) -> "DiffOperator":
        if not isinstance(other, DiffOperator):
            return NotImplemented
        out = dict(self._coeffs)
        for p, coeff in other._coeffs.items():
            out[p] = out[p] + coeff if p in out else coeff
        return DiffOperator(_ascending(out))

    def __sub__(self, other) -> "DiffOperator":
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({i: -c for i, c in self._coeffs.items()})

    def __mul__(self, other) -> "DiffOperator":
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return DiffOperator(_ascending(leibniz_product(self._coeffs, other._coeffs, 0)))

    def __pow__(self, exponent: int) -> "DiffOperator":
        return binary_power(self, exponent, DiffOperator.one())

    def apply(self, f: DiffPolynomial) -> DiffPolynomial:
        """Act on a differential polynomial: sum_i a_i * f^{(i)}, the d^0
        coefficient of self * f.  The product derives a copy of ``f`` over
        the same numerators, so no derivative chain is left on ``f``."""
        copy = DiffPolynomial.from_nums(f._nums, f._den)
        return leibniz_product(self._coeffs, {0: copy}, 0, 0).get(0, _ZERO_POLY)

    def evaluate(self, assignments: Mapping) -> "DiffOperator":
        """Coefficient-wise differential substitution of y-variables.

        Accepts coefficients linear in the y-variables.  All of them run
        as one stream through ``substitute``, so each q_l^{(k)} is derived
        once for the whole operator.
        """
        polys = substitute(list(self._coeffs.values()), assignments)
        return DiffOperator({i: c for i, c in zip(self._coeffs, polys) if c})

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"DiffOperator({self})"

    def __str__(self) -> str:
        return render_terms(self._coeffs, str, _d_text, "*", ("(", ")"))


def _ascending(terms: Mapping[int, DiffPolynomial]) -> dict:
    """``terms`` in ascending power order, zero coefficients dropped."""
    return {p: terms[p] for p in sorted(terms) if terms[p]}


def _as_poly(value) -> DiffPolynomial:
    return value if isinstance(value, DiffPolynomial) else DiffPolynomial.constant(value)


def _d_text(power: int) -> str:
    return "D" if power == 1 else f"D^{power}"


def render_terms(
    terms: Mapping[int, DiffPolynomial],
    poly_str: Callable[[DiffPolynomial], str],
    dpart: Callable[[int], str],
    times: str,
    parens: tuple,
) -> str:
    """The signed sum of ``{power: nonzero coefficient}``, highest power first.

    Unit coefficients of d-powers are elided and multi-term ones wrapped in
    ``parens``.
    """
    parts = []
    for power in sorted(terms, reverse=True):
        coeff = terms[power]
        if power == 0:
            body = poly_str(coeff)
        elif coeff == _ONE_POLY:
            body = dpart(power)
        elif len(coeff) == 1:
            body = f"{poly_str(coeff)}{times}{dpart(power)}"
        else:
            body = f"{parens[0]}{poly_str(coeff)}{parens[1]}{times}{dpart(power)}"
        parts.append(body)
    return join_signed(parts) if parts else "0"


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - ba."""
    return a * b - b * a


def leibniz_product(
    a: Mapping[int, DiffPolynomial],
    b: Mapping[int, DiffPolynomial],
    keep_low: int,
    top: int | None = None,
    kept: dict | None = None,
) -> dict:
    """The coefficients of (sum_i a[i] d^i)(sum_j b[j] d^j) on powers >= keep_low.

    ``a`` and ``b`` map powers of d, negative ones allowed, to nonzero
    coefficients.  Each d^i b[j] expands as sum_s C(i,s) b[j]^{(s)} d^{i-s};
    C(i,s) is the generalized binomial, an integer for every integer i, so
    for i >= 0 the sum stops after s = i and for i < 0 it is cut at
    keep_low.  Returns ``{power: coefficient}``, on powers <= ``top`` only
    when it is given; a coefficient may be zero.

    a[i] multiplies ``_right_sums(b, db, i, ...)`` once per output power.
    ``kept``, a dict the caller keeps with ``b`` (and passes with ``top``
    None), keeps those sums per left power i on the powers p > keep_low: a
    sum at p >= keep_low does not depend on keep_low, so a later call at a
    higher cut, as each product Q^(m-1) Q of a root's powers is, finds all
    it needs there, and a call at a cut as low or lower forms only the
    powers below the kept ones.  Entries are replaced, never mutated, so
    callers in several threads need no lock.
    """
    # every product coefficient is a numerator dict over da * db
    da = lcm(*(ai._den for ai in a.values()))
    db = lcm(*(bj._den for bj in b.values()))
    out: dict = {}
    for i, ai in a.items():
        cut, sums = kept.get(i, (None, None)) if kept is not None else (None, None)
        if cut is None:
            sums = _right_sums(b, db, i, keep_low, top)
        elif cut > keep_low:
            sums = {**_right_sums(b, db, i, keep_low, cut - 1), **sums}
        if kept is not None:
            kept[i] = (keep_low + 1, {p: part for p, part in sums.items() if p > keep_low})
        scale = da // ai._den
        for p, (nums, coef) in sums.items():
            if p >= keep_low:
                _mul_into(out.setdefault(p, {}), ai._nums, nums, coef * scale)
    return {p: DiffPolynomial.from_nums(nums, da * db) for p, nums in out.items()}


def _right_sums(
    b: Mapping[int, DiffPolynomial], db: int, i: int, low: int, high: int | None = None
) -> dict:
    """The part of d^i (sum_j b[j] d^j) at each power p in [low, high].

    Returns ``{p: (nums, coef)}`` with nonzero ``nums * coef / db`` equal
    to S(i,p) = sum_{j,s: i+j-s=p} C(i,s) b[j]^{(s)}; ``db`` is a multiple
    of every b[j]'s denominator.  In a homogeneous operator the terms of
    one S(i,p) all have one weight, so their monomials overlap and the sum
    is much shorter than its parts; a single term is passed on unsummed.
    The chain b[j], b[j]', b[j]'', ... comes from
    ``polynomials._derivatives``, which keeps it on the polynomial b[j]: a
    right factor used again is derived only past the depth reached before.
    """
    # p -> [(b[j]^{(s)}, C(i,s) * db / den_j)] over all j and s
    parts: dict = {}
    for j, bj in b.items():
        smax = i + j - low
        if smax < 0:
            continue
        if 0 <= i < smax:
            smax = i  # C(i, s) = 0 for s > i
        derivs = _derivatives(bj, smax)
        scale = db // bj._den
        coef = 1  # C(i, s)
        for s in range(min(smax, len(derivs) - 1) + 1):
            if s:
                coef = coef * (i - s + 1) // s
            if derivs[s] and (high is None or i + j - s <= high):
                parts.setdefault(i + j - s, []).append((derivs[s], coef * scale))
    sums: dict = {}
    for p, terms in parts.items():
        if len(terms) == 1:
            sums[p] = terms[0]
            continue
        nums: dict = {}
        for deriv, c in terms:
            for mono, num in deriv.items():
                _acc(nums, mono, num * c)
        if nums:
            sums[p] = (nums, 1)
    return sums


def operator_weight(terms: Mapping[int, DiffPolynomial]) -> int | None:
    """Weight r such that the coefficient of d^i has weight r - i.

    ``terms`` maps powers of d to nonzero coefficients.  None when it is
    empty; NotHomogeneousError when no single r works.
    """
    r = None
    for i, coeff in terms.items():
        w = coeff.weight() + i
        if r is None:
            r = w
        elif w != r:
            raise NotHomogeneousError(
                f"operator not weight-homogeneous: weight {w} at d^{i}, {r} before"
            )
    return r
