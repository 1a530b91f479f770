"""Truncated pseudo-differential operators.

Laurent-style operators sum_{i <= top} a_i d^i known on the powers top
down to ``low`` and on nothing below.  Products go through
``operators.leibniz_product``, whose generalized binomial expansion also
moves negative powers of d past coefficients.

One depth rule governs every product: a b is known on the powers
>= max(a.low + b.top, a.top + b.low), one above the highest power that
the unknown tail of either factor can reach.  A product truncated at a
caller-chosen power at or above that bound equals the untruncated
product there; below it the multiplication refuses to proceed.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .operators import (
    _ONE_POLY,
    _ZERO_POLY,
    DiffOperator,
    _d_text,
    leibniz_product,
    operator_weight,
    render_terms,
)
from .polynomials import DiffPolynomial


class InsufficientDepthError(ValueError):
    """The inputs do not carry enough tail depth for an exact truncation."""


class TruncatedPDO:
    """A pseudo-differential operator known on the powers [low, top].

    Coefficients below ``low`` are unknown, also when they would be zero:
    asking for one raises InsufficientDepthError, and a product is known
    only as far as the module's depth rule allows.
    """

    __slots__ = ("_top", "_low", "_coeffs")

    def __init__(self, coeffs: Mapping[int, DiffPolynomial], top: int, low: int):
        if low > top:
            raise ValueError("low power exceeds top power")
        self._coeffs = {p: c for p, c in coeffs.items() if c}
        if any(p < low or p > top for p in self._coeffs):
            raise ValueError("coefficient outside the retained range")
        self._top = top
        self._low = low

    # -- construction ------------------------------------------------------

    @classmethod
    def from_operator(cls, op: DiffOperator) -> "TruncatedPDO":
        """``op`` known on the powers [0, op.order]; the zero operator, of
        order -inf, is refused."""
        return cls(op._coeffs, top=op.order, low=0)

    # -- queries ------------------------------------------------------------

    @property
    def top(self) -> int:
        return self._top

    @property
    def low(self) -> int:
        return self._low

    @property
    def depth(self) -> int:
        return max(0, -self._low)

    def coefficient_at(self, power: int) -> DiffPolynomial:
        if power > self._top:
            return _ZERO_POLY
        if power < self._low:
            raise InsufficientDepthError(
                f"coefficient of d^{power} was discarded (retained down to d^{self._low})"
            )
        return self._coeffs.get(power, _ZERO_POLY)

    def weight(self) -> int | None:
        """Weight r such that the coefficient of d^i has weight r - i."""
        return operator_weight(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPDO):
            return NotImplemented
        return (
            self._coeffs == other._coeffs
            and self._top == other._top
            and self._low == other._low
        )

    # -- arithmetic ------------------------------------------------------------

    def mul_keep_low(self, other: "TruncatedPDO", keep_low: int) -> "TruncatedPDO":
        """Product truncated at ``keep_low``; retained coefficients exact.

        Raises InsufficientDepthError when the unknown tail of either
        factor could contribute at or above ``keep_low``.
        """
        if keep_low < self._low + other._top:
            raise InsufficientDepthError(
                f"left factor retained to d^{self._low}: product coefficients below "
                f"d^{self._low + other._top} are not exact (requested d^{keep_low})"
            )
        if keep_low < self._top + other._low:
            raise InsufficientDepthError(
                f"right factor retained to d^{other._low}: product coefficients below "
                f"d^{self._top + other._low} are not exact (requested d^{keep_low})"
            )
        coeffs = leibniz_product(self._coeffs, other._coeffs, keep_low)
        top = self._top + other._top
        return TruncatedPDO(coeffs, top=top, low=min(keep_low, top))

    def powers(self, exponent: int, tail_depth: int = 0) -> Iterator["TruncatedPDO"]:
        """Yield self, self^2, ..., self^exponent.

        The j-th power is truncated at -(tail_depth + exponent - j), just
        deep enough for the last one to be exact on powers >= -tail_depth
        (tail_depth may be negative).  For a factor of top 1 (an n-th
        root) the factor must carry depth at least
        tail_depth + exponent - 1.
        """
        if exponent < 1:
            raise ValueError("exponent must be positive")
        acc = self
        yield acc
        for j in range(2, exponent + 1):
            acc = acc.mul_keep_low(self, -(tail_depth + exponent - j))
            yield acc

    def power(self, exponent: int, tail_depth: int = 0) -> "TruncatedPDO":
        """The last of ``powers(exponent, tail_depth)``, exact on powers >= -tail_depth."""
        for acc in self.powers(exponent, tail_depth):
            pass
        return acc

    def positive_part(self) -> DiffOperator:
        """The nonnegative-power part as a differential operator."""
        if self._low > 0:
            raise InsufficientDepthError("positive part not fully retained")
        return DiffOperator.from_dict(
            {p: c for p, c in self._coeffs.items() if p >= 0}
        )

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"TruncatedPDO({self})"

    def __str__(self) -> str:
        body = render_terms(self._coeffs, str, _d_text, "*", ("(", ")"))
        if not self._coeffs:
            return body
        return f"{body} + O(D^{self._low - 1})"


def nth_root(op: DiffOperator, depth: int) -> TruncatedPDO:
    """The monic n-th root Q = d + q_{-1} d^{-1} + ... of a normal-form L.

    Coefficients are found by matching Q^n against L: the coefficient
    equation at d^{n-1-t} is linear in q_{-t} with constant factor n, so
    the system is triangular and solved by direct recursion.  Q is again
    in normal form (zero d^0 term) and each q_{-t} is homogeneous of
    weight t + 1.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = op.order
    if not isinstance(n, int) or n < 2:
        raise ValueError("operator order must be at least 2")
    if not op.is_normal_form():
        raise ValueError("operator must be monic and in normal form")
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
