"""The exact rational type of the package boundary.

Polynomials compute on integer numerators over one denominator; rationals
are what the API reads and returns (coefficients and scalar arguments).
"""

from fractions import Fraction as Rational
