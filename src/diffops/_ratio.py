"""``Rational = fractions.Fraction``, an alias that only perfbench imports
(it records ``Rational`` as the rational type of its runs); the package
names ``fractions.Fraction`` itself.  ROADMAP item 1b deletes this module."""

from fractions import Fraction as Rational
