"""The exact rational type of the package boundary.

Polynomials compute on integer numerators over one denominator; rationals
are what the API reads and returns (coefficients, scalar arguments) and
what the independent ansatz integrator eliminates over.
"""

from fractions import Fraction as Rational

ZERO = Rational(0)
ONE = Rational(1)
