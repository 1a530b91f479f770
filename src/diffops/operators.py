"""Ordinary differential operators over differential polynomials.

Elements of R[d] where R is the differential-polynomial ring: finite sums
sum_i a_i d^i with composition as multiplication, governed by the rule
d r = r d + r'.  ``leibniz_product`` expands powers of d against a
coefficient, d^i r = sum_s C(i,s) r^{(s)} d^{i-s}; it is the one product
of this ring and of the truncated pseudo-differential operators, where
i < 0 and C(i,s) is the generalized binomial.

An operator is a sparse ``{power: nonzero coefficient}`` map in ascending
power order.  The order is not cosmetic: ``leibniz_product`` walks both
maps in order, which decides which of two equal monomial tuples a product
keeps, and so how much memory a long computation holds.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Mapping

from ._ratio import Rational
from .polynomials import (
    DiffPolynomial,
    NotHomogeneousError,
    _acc,
    _derive_raw,
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
    def d(cls, power: int = 1) -> "DiffOperator":
        if power < 0:
            raise ValueError("negative powers of d are not operators")
        return cls({power: _ONE_POLY})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "DiffOperator":
        return cls.from_dict(dict(enumerate(coeffs)))

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, DiffPolynomial]) -> "DiffOperator":
        """sum_i coeffs[i] d^i over powers in any order."""
        if any(power < 0 for power in coeffs):
            raise ValueError("negative power in differential operator")
        return cls(_ascending({p: _as_poly(c) for p, c in coeffs.items()}))

    # -- queries ---------------------------------------------------------

    @property
    def order(self):
        """Order of the operator; -inf for the zero operator."""
        return next(reversed(self._coeffs)) if self._coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coefficient_at(self, power: int) -> DiffPolynomial:
        return self._coeffs.get(power, _ZERO_POLY)

    def coefficients(self) -> tuple:
        """(a_0, ..., a_order), zero coefficients included."""
        return tuple(map(self.coefficient_at, range(self.order + 1))) if self._coeffs else ()

    def leading_coefficient(self) -> DiffPolynomial:
        if not self._coeffs:
            raise ValueError("the zero operator has no leading coefficient")
        return self._coeffs[self.order]

    def is_monic(self) -> bool:
        return bool(self._coeffs) and self.leading_coefficient() == _ONE_POLY

    def is_normal_form(self) -> bool:
        """Monic with zero coefficient in degree order-1."""
        return self.is_monic() and self.order - 1 not in self._coeffs

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
        return DiffOperator(_add_coeffs(self._coeffs, other._coeffs))

    def __sub__(self, other) -> "DiffOperator":
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({i: -c for i, c in self._coeffs.items()})

    def scale(self, scalar) -> "DiffOperator":
        cc = Rational(scalar)
        if not cc:
            return DiffOperator.zero()
        return DiffOperator({i: c * cc for i, c in self._coeffs.items()})

    def __mul__(self, other) -> "DiffOperator":
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return DiffOperator(_ascending(leibniz_product(self._coeffs, other._coeffs, 0)))

    def __pow__(self, exponent: int) -> "DiffOperator":
        return binary_power(self, exponent, DiffOperator.one())

    def apply(self, f: DiffPolynomial) -> DiffPolynomial:
        """Act on a differential polynomial: sum_i a_i * f^{(i)}."""
        out = DiffPolynomial.zero()
        df, derived = f, 0
        for i, coeff in self._coeffs.items():
            for _ in range(i - derived):
                df = df.derive()
            derived = i
            out = out + coeff * df
        return out

    def evaluate(self, assignments: Mapping) -> "DiffOperator":
        """Coefficient-wise differential substitution of y-variables.

        All coefficients share one derivative table (see ``substitute``).
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


def _add_coeffs(a: Mapping[int, DiffPolynomial], b: Mapping[int, DiffPolynomial]) -> dict:
    """The sum of two ``{power: coefficient}`` maps, ``_ascending``."""
    out = dict(a)
    for p, coeff in b.items():
        out[p] = out[p] + coeff if p in out else coeff
    return _ascending(out)


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
    """The signed sum of ``{power: coefficient}``, highest power first.

    Zero coefficients are skipped, unit coefficients of d-powers elided and
    multi-term ones wrapped in ``parens``.
    """
    parts = []
    for power in sorted(terms, reverse=True):
        coeff = terms[power]
        if not coeff:
            continue
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
    a: Mapping[int, DiffPolynomial], b: Mapping[int, DiffPolynomial], keep_low: int
) -> dict:
    """The coefficients of (sum_i a[i] d^i)(sum_j b[j] d^j) on powers >= keep_low.

    ``a`` and ``b`` map powers of d, negative ones allowed, to nonzero
    coefficients.  Each d^i b[j] expands as sum_s C(i,s) b[j]^{(s)} d^{i-s};
    C(i,s) is the generalized binomial, an integer for every integer i, so
    for i >= 0 the sum stops after s = i and for i < 0 it is cut at
    keep_low.  Returns ``{power: coefficient}``; a coefficient may be zero.

    For each left power i, the terms C(i,s) b[j]^{(s)} that land on one
    output power p = i + j - s are summed first, and a[i] multiplies that
    sum once.  In a homogeneous operator they all have one weight, so
    their monomials overlap and the sum is much shorter than its parts.
    The integers are only reassociated, so the result is unchanged.  The
    chain b[j], b[j]', b[j]'', ... comes from ``_derivatives``, which
    keeps it on the polynomial b[j] for as long as that polynomial lives:
    a right factor used again (the root in every product Q^m, the known
    root coefficients in every ``nth_root`` step) is derived only past
    the depth an earlier product reached.
    """
    # every product coefficient is a numerator dict over da * db
    da = lcm(*(ai._den for ai in a.values()))
    db = lcm(*(bj._den for bj in b.values()))
    out: dict = {}
    for i, ai in a.items():
        # p -> [(b[j]^{(s)}, C(i,s) * db / den_j)] over all j and s
        parts: dict = {}
        for j, bj in b.items():
            smax = i + j - keep_low
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
                if derivs[s]:
                    parts.setdefault(i + j - s, []).append((derivs[s], coef * scale))
        scale = da // ai._den
        for p, terms in parts.items():
            if len(terms) == 1:
                nums, coef = terms[0]
            else:
                nums, coef = {}, 1
                for deriv, c in terms:
                    for mono, num in deriv.items():
                        _acc(nums, mono, num * c)
            if nums:
                _mul_into(out.setdefault(p, {}), ai._nums, nums, coef * scale)
    return {p: DiffPolynomial.from_nums(nums, da * db) for p, nums in out.items()}


def _derivatives(poly: DiffPolynomial, top: int) -> list:
    """[poly, poly', ..., poly^{(top)}] as numerator dicts, shorter when a
    derivative is zero (it then ends with that empty dict).

    The chain is kept in ``poly._derivs``.  A longer chain replaces the
    stored list instead of extending it, and the dicts are never mutated,
    so a list once stored never changes and callers in several threads
    need no lock: at worst two of them derive the same step.
    """
    derivs = poly._derivs or [poly._nums]
    if len(derivs) <= top and derivs[-1]:
        derivs = list(derivs)
        while len(derivs) <= top and derivs[-1]:
            derivs.append(_derive_raw(derivs[-1]))
        poly._derivs = derivs
    return derivs


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
