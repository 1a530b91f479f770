"""Exact rational coefficient type.

All coefficient arithmetic in this package is exact.  gmpy2's mpq is used
when available (roughly 10x faster than fractions.Fraction on the small
rationals that dominate these computations); the stdlib Fraction is a
drop-in fallback.
"""

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

ZERO = Rational(0)
ONE = Rational(1)

