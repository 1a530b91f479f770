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

Neither the root nor its powers repeat work: ``nth_root`` forms each
coefficient of Q^2, ..., Q^n once, and a right factor keeps the sums of
d^i times itself that its products formed, so every product Q^(m-1) Q
after the first reuses those of the products before it.
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
    only as far as the module's depth rule allows.  As a right factor it
    keeps the sums ``leibniz_product`` forms for it (``kept``), so the
    products Q^(m-1) Q of a root reuse them; they live with the operator
    and take no part in ``==`` or rendering.
    """

    __slots__ = ("_top", "_low", "_coeffs", "_sums")

    def __init__(self, coeffs: Mapping[int, DiffPolynomial], top: int, low: int):
        if low > top:
            raise ValueError("low power exceeds top power")
        self._coeffs = {p: c for p, c in coeffs.items() if c}
        if any(p < low or p > top for p in self._coeffs):
            raise ValueError("coefficient outside the retained range")
        self._top = top
        self._low = low
        self._sums: dict = {}

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
        coeffs = leibniz_product(self._coeffs, other._coeffs, keep_low, kept=other._sums)
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

    Coefficients are found one at a time by matching Q^n against L.  The
    coefficient of Q^j at d^{j-1-t} is c_j + j q_{-t}, where c_j depends on
    q_{-1}, ..., q_{1-t} only: q_{-t} d^{-t} reaches that power only times
    the leading d of the other j - 1 factors, once per position.  Step t
    forms c_2, ..., c_n in turn, c_j as the coefficient of Q^{j-1} Q at
    d^{j-1-t} with q_{-t} still 0, which reads Q^{j-1} down to the entry
    c_{j-1} just formed.  Then q_{-t} = (L_{n-1-t} - c_n) / n, and
    Q^2, ..., Q^{n-1} keep c_j + j q_{-t}.  So each coefficient of every
    power is formed once, and the n - 2 power tables end with the call.
    Q is again in normal form (zero d^0 term) and each q_{-t} is
    homogeneous of weight t + 1.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = op.order
    if not isinstance(n, int) or n < 2:
        raise ValueError("operator order must be at least 2")
    if not op.is_normal_form():
        raise ValueError("operator must be monic and in normal form")
    found: dict = {1: _ONE_POLY}
    # the coefficients of Q, Q^2, ..., Q^(n-1) known so far
    tables = [found] + [{j: _ONE_POLY} for j in range(2, n)]
    for t in range(1, depth + 1):
        formed = []
        for j in range(2, n + 1):
            p = j - 1 - t
            c = leibniz_product(tables[j - 2], found, p, p).get(p, _ZERO_POLY)
            formed.append(c)
            if j < n and c:
                tables[j - 1][p] = c
        q_t = (op.coefficient_at(n - 1 - t) - c) / n
        if q_t:
            found[-t] = q_t
            for j, c in enumerate(formed[:-1], 2):
                tables[j - 1][j - 1 - t] = c + q_t * j
    return TruncatedPDO(found, top=1, low=-depth)
