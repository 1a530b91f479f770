"""Truncated pseudo-differential operators.

Laurent-style operators sum_{i <= top} a_i d^i with finitely many retained
coefficients (powers top down to ``low``).  Products go through
``operators.leibniz_product``, whose generalized binomial expansion also
moves negative powers of d past coefficients.

Every product is truncated at a caller-chosen depth; depth bookkeeping
guarantees that each retained coefficient of a truncated product equals
the corresponding coefficient of the untruncated product, or the
multiplication refuses to proceed.
"""

from __future__ import annotations

from typing import Mapping

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
    """A pseudo-differential operator retained on powers [low, top].

    ``exact_tail`` records whether coefficients below ``low`` are known to
    be exactly zero (False means they were discarded by truncation and are
    unknown).
    """

    __slots__ = ("_top", "_low", "_coeffs", "_exact_tail")

    def __init__(
        self,
        coeffs: Mapping[int, DiffPolynomial],
        top: int,
        low: int,
        exact_tail: bool = False,
    ):
        if low > top:
            raise ValueError("low power exceeds top power")
        self._coeffs = {p: c for p, c in coeffs.items() if c}
        if any(p < low or p > top for p in self._coeffs):
            raise ValueError("coefficient outside the retained range")
        self._top = top
        self._low = low
        self._exact_tail = exact_tail

    # -- construction ------------------------------------------------------

    @classmethod
    def from_operator(cls, op: DiffOperator) -> "TruncatedPDO":
        if not op:
            return cls({}, top=0, low=0, exact_tail=True)
        return cls(op._coeffs, top=op.order, low=0, exact_tail=True)

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

    @property
    def exact_tail(self) -> bool:
        return self._exact_tail

    def coefficient_at(self, power: int) -> DiffPolynomial:
        if power > self._top:
            return _ZERO_POLY
        if power < self._low and not self._exact_tail:
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
            and self._exact_tail == other._exact_tail
        )

    # -- arithmetic ------------------------------------------------------------

    def mul_keep_low(self, other: "TruncatedPDO", keep_low: int) -> "TruncatedPDO":
        """Product truncated at ``keep_low``; retained coefficients exact.

        Raises InsufficientDepthError when a discarded tail of either
        factor could contribute at or above ``keep_low``.
        """
        if not self._exact_tail and keep_low < self._low + other._top:
            raise InsufficientDepthError(
                f"left factor retained to d^{self._low}: product coefficients below "
                f"d^{self._low + other._top} are not exact (requested d^{keep_low})"
            )
        if not other._exact_tail and keep_low < self._top + other._low:
            raise InsufficientDepthError(
                f"right factor retained to d^{other._low}: product coefficients below "
                f"d^{self._top + other._low} are not exact (requested d^{keep_low})"
            )
        coeffs = leibniz_product(self._coeffs, other._coeffs, keep_low)
        top = self._top + other._top
        # Negative left powers expand to infinite tails against non-constant
        # coefficients, so the product tail is known-zero only when the left
        # factor is purely differential, or the right coefficients are all
        # constants.
        exact = False
        if self._exact_tail and other._exact_tail:
            if self._low >= 0:
                exact = keep_low <= other._low
            elif keep_low <= self._low + other._low:
                exact = not any(c.derive() for c in other._coeffs.values())
        return TruncatedPDO(coeffs, top=top, low=min(keep_low, top), exact_tail=exact)

    def power(self, exponent: int, tail_depth: int = 0) -> "TruncatedPDO":
        """exponent-th power with per-product depth bookkeeping.

        The result is exact on powers >= -tail_depth (tail_depth may be
        negative); each intermediate product keeps just enough extra depth
        for that.  For a truncated factor of top 1 (an n-th root) the
        factor must carry depth at least tail_depth + exponent - 1.
        """
        if exponent < 1:
            raise ValueError("exponent must be positive")
        acc = self
        for j in range(2, exponent + 1):
            acc = acc.mul_keep_low(self, -(tail_depth + exponent - j))
        return acc

    def positive_part(self) -> DiffOperator:
        """The nonnegative-power part as a differential operator."""
        if self._low > 0 and not self._exact_tail:
            raise InsufficientDepthError(
                "positive part not fully retained"
            )
        return DiffOperator.from_dict(
            {p: c for p, c in self._coeffs.items() if p >= 0}
        )

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"TruncatedPDO({self})"

    def __str__(self) -> str:
        body = render_terms(self._coeffs, str, _d_text, "*", ("(", ")"))
        if self._exact_tail or not self._coeffs:
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
        known = TruncatedPDO(found, top=1, low=1 - t, exact_tail=True)
        # exact on powers >= target: the j-th factor keeps powers >= j - t - 1
        acc = known.power(n, t + 1 - n)
        mismatch = op.coefficient_at(target) - acc.coefficient_at(target)
        q_t = mismatch / n
        if q_t:
            found[-t] = q_t
    return TruncatedPDO(found, top=1, low=-depth, exact_tail=False)
