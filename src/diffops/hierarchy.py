"""Gelfand-Dickey hierarchy equations and the KdV recursion cross-check.

The level-m flows of the order-n generic operator are

    u_{i,t} = H_{m,n-i} + sum_{j=1}^{m-1} c_{m,j} H_{j,n-i},   i = 2..n,

with the H polynomials produced by the almost-commuting machinery and
c_{m,j} formal constants (weight-transparent, killed by the derivation).
Setting every constant to zero recovers the pure level-m flow; equating
the right-hand sides to zero gives the stationary hierarchy.

For n = 2 the nonlocal recursion operator
R = -1/4 d^2 + u_2 + 1/2 u_2' d^{-1}, iterated from u_2', is a second
generator of KdV flows.  R is the recursion operator of d^2 - u_2,
not of the generic d^2 + u_2, so its flows are the bracket flows with
the sign of u_2 flipped: kdv_j = (-1)^(j+1) H_(2j+1,0)|u_2->-u_2.  The
d^{-1} step is closed-form integration and is required to succeed; a
failure aborts loudly with the failing index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basis import almost_commuting
from .integration import NotTotalDerivativeError, antiderivative
from .operators import DiffOperator
from .polynomials import DiffPolynomial, c, u


@dataclass(frozen=True)
class FlowEquation:
    """One equation u_{i,t} = rhs of a hierarchy level."""

    variable_index: int
    lhs_label: str
    rhs: DiffPolynomial


@dataclass(frozen=True)
class RecursionOperator:
    """A nonlocal operator: local part plus cofactor * d^{-1}.

    Defined only on total derivatives (the d^{-1} step integrates in
    closed form).
    """

    local_part: DiffOperator
    nonlocal_cofactor: DiffPolynomial

    def apply(self, f: DiffPolynomial) -> DiffPolynomial:
        return self.local_part.apply(f) + self.nonlocal_cofactor * antiderivative(f)


def kdv_recursion_operator() -> RecursionOperator:
    """R = -1/4 d^2 + u_2 + 1/2 u_2' d^{-1}, the recursion operator of d^2 - u_2.

    Iterated from u_2' it generates kdv_j = (-1)^(j+1) H_(2j+1,0)|u_2->-u_2,
    where H_(2j+1,0) is the bracket flow [P_(2j+1), L] of L = d^2 + u_2.
    """
    local = DiffOperator.from_dict({2: Fraction(-1, 4), 0: u(2)})
    return RecursionOperator(local_part=local, nonlocal_cofactor=u(2, 1) * Fraction(1, 2))


def gd_equations(n: int, m: int, with_constants: bool = True, cache=None) -> list:
    """The n-1 flow equations of the level-m hierarchy.

    with_constants=False sets every c_{m,j} to zero and computes only
    P_m.  Reuses cached almost-commuting results when a cache is supplied.
    """
    if n < 2 or m < 2:
        raise ValueError("hierarchy levels need n >= 2 and m >= 2")
    levels = range(1, m + 1) if with_constants else [m]
    results = [almost_commuting(n, level, cache=cache) for level in levels]
    equations = []
    for i in range(2, n + 1):
        rhs = results[-1].H[n - i]
        if with_constants:
            for j in range(1, m):
                rhs = rhs + c(m, j) * results[j - 1].H[n - i]
        equations.append(
            FlowEquation(variable_index=i, lhs_label=f"u_{{{i},t}}", rhs=rhs)
        )
    return equations


def kdv_sequence(count: int) -> list:
    """[kdv_0 .. kdv_count] with kdv_0 = u_2' and kdv_k = R(kdv_{k-1}).

    Each step needs the previous flow to be a total derivative; when the
    integration fails the error names the failing index.
    """
    if count < 0:
        raise ValueError("the sequence length must be non-negative")
    sequence = [u(2, 1)]
    op = kdv_recursion_operator()
    for k in range(1, count + 1):
        try:
            sequence.append(op.apply(sequence[-1]))
        except NotTotalDerivativeError as exc:
            raise NotTotalDerivativeError(
                exc.obstruction, context=f"kdv recursion aborted at index {k}"
            ) from exc
    return sequence
