"""Homogeneous almost-commuting bases of differential operators.

For the generic normal-form operator

    L = d^n + u_2 d^{n-2} + ... + u_{n-1} d + u_n

an operator A almost commutes with L when ord([L, A]) <= n - 2.  The space
of such operators has a unique basis {P_m} of monic normal-form operators,
P_m homogeneous of weight m.  P_m is found entirely inside the operator
ring: bracket L against the ansatz

    P~_m = d^m + y_2 d^{m-2} + ... + y_m,

extract the coefficients of d^{n+m-3} down to d^{n-1} as equations on the
y's.  The system is triangular: the equation at d^{n+m-i} reads
n*y_{i-1}' + (terms in earlier y's), so each y is recovered by one
substitution and one closed-form integration.  The solution y_l = q_l
gives P_m = d^m + q_2 d^{m-2} + ... + q_m directly; substituting it into
the low band of the bracket yields the hierarchy polynomials H_{m,i}
defined by [P_m, L] = H_{m,0} + H_{m,1} d + ... + H_{m,n-2} d^{n-2}.

All these substitutions, the m - 1 solve steps and then the low band, run
as one ``substitute`` stream per ``almost_commuting`` call, so every
q_l^{(k)} is derived once per call.  The step that solves y_l already
holds q_l' = rest / -n, so it seeds q_l's derivative chain with it and
q_l' is never derived.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from .integration import NotTotalDerivativeError, antiderivative
from .operators import DiffOperator, commutator
from .polynomials import DiffPolynomial, IncompleteSolutionError, _derivatives, substitute, u, y

# The version of the algorithm behind every result: bump it whenever the
# solve or the substitution changes any output, so that the result cache
# never serves what an earlier version computed (tests/test_cache.py pins
# the results of each version).
ALGORITHM_VERSION = 1


def generic_L(n: int) -> DiffOperator:
    """The generic normal-form operator of order n over u_2..u_n."""
    if n < 2:
        raise ValueError("the operator order must be at least 2")
    coeffs = {n: DiffPolynomial.one()}
    for l in range(2, n + 1):
        coeffs[n - l] = u(l)
    return DiffOperator.from_dict(coeffs)


def generic_P(m: int) -> DiffOperator:
    """The order-m ansatz d^m + y_2 d^{m-2} + ... + y_m (P~_1 = d)."""
    if m < 1:
        raise ValueError("the ansatz order must be at least 1")
    coeffs = {m: DiffPolynomial.one()}
    for l in range(2, m + 1):
        coeffs[m - l] = y(l)
    return DiffOperator.from_dict(coeffs)


class NotTriangularError(ValueError):
    """An equation of the bracket system holds a y that is not yet solved."""


@dataclass(frozen=True)
class BracketSystem:
    """[L, P~_m] together with the equations that force almost commuting.

    ``equations[k]`` is the coefficient of d^{n+m-3-k}, i.e. the equation
    whose leading part is n * y_{k+2}'; there are m - 1 of them, covering
    the powers n+m-3 down to n-1 (none at m = 1).
    """

    n: int
    m: int
    full_bracket: DiffOperator
    equations: tuple


@dataclass(frozen=True)
class AlmostCommutingResult:
    """P_m plus the n-1 hierarchy polynomials H_i of [P_m, L] at d^i."""

    n: int
    m: int
    P: DiffOperator
    H: tuple


def bracket_system(n: int, m: int) -> BracketSystem:
    """Build [L, P~_m] and extract the triangular system."""
    if n < 2 or m < 1:
        raise ValueError("bracket systems need n >= 2 and m >= 1")
    full = commutator(generic_L(n), generic_P(m))
    equations = tuple(
        full.coefficient_at(power) for power in range(n + m - 3, n - 2, -1)
    )
    return BracketSystem(n=n, m=m, full_bracket=full, equations=equations)


def solve_triangular(
    system: BracketSystem,
    on_step: Callable[[int, DiffPolynomial, DiffPolynomial], None] | None = None,
) -> tuple:
    """``(solution, H)``: the unique weighted solution {i: q_i} of the
    bracket system, and the hierarchy polynomials (H_0, ..., H_{n-2}).

    Equations are consumed in ascending order of the solved variable
    (y_2 first); each step strips the n*y_i' head, substitutes the
    solution found so far and integrates the remainder in closed form.
    The remainder is guaranteed to be free of y's and a total derivative;
    a y left over (NotTriangularError) or a failing integration
    (NotTotalDerivativeError) therefore signals an internal inconsistency,
    and the error names the equation, n and m.  ``on_step(i, rest, q_i)``
    sees each step's integrand and solved value.

    One ``substitute`` stream serves the whole solve: the m - 1 integrands,
    then the low band d^0..d^(n-2) of [L, P~_m], negated, since
    [P_m, L] = -[L, P_m]; the band is negated rather than H because the
    band is small and H is large.  Each q_l's chain is seeded with
    q_l' = rest / -n, which the step already holds, so each q_l^(k) is
    derived at most once per call and q_l' never; the stream drops every
    chain when it ends, and the solve closes it on every error, so no q_l
    keeps its derivatives after the call.
    """
    n = system.n
    assignments: dict = {}
    stream = substitute(
        [equation - n * y(index, 1) for index, equation in enumerate(system.equations, 2)]
        + [-system.full_bracket.coefficient_at(i) for i in range(n - 1)],
        assignments,
    )
    try:
        for index in range(2, system.m + 1):
            try:
                rest = next(stream)
            except IncompleteSolutionError as exc:
                raise NotTriangularError(
                    f"equation for y_{index} is not triangular "
                    f"(n={n}, m={system.m}): it holds y_{exc.index}"
                ) from exc
            try:
                integral = antiderivative(rest)
            except NotTotalDerivativeError as exc:
                raise NotTotalDerivativeError(
                    exc.obstruction,
                    context=(
                        f"triangular solve failed integrating the equation for "
                        f"y_{index} (n={system.n}, m={system.m})"
                    ),
                ) from exc
            q_index = integral / -n
            if on_step is not None:
                on_step(index, rest, q_index)
            assignments[index] = q_index
            # seed q' = rest / -n over q's denominator; exact, as d(q) = rest / -n
            scale = -n * rest._den
            _derivatives(q_index, 0, {k: c * q_index._den // scale for k, c in rest._nums.items()})
        return assignments, tuple(stream)
    finally:
        stream.close()  # drops the chains on the assignments, also on an error


def almost_commuting(n: int, m: int, cache=None) -> AlmostCommutingResult:
    """P_m and the hierarchy polynomials for the order-n generic operator.

    At m = 1 the system is empty and P_1 = d.  When n divides m the
    computation degenerates gracefully: P_m = L^{m/n} and every H vanishes.

    A ``cache`` put that raises OSError is reported on stderr, not raised:
    like an unreadable cache, an unwritable one costs only the reuse.
    """
    if n < 2:
        raise ValueError("the operator order must be at least 2")
    if m < 1:
        raise ValueError("the basis index must be at least 1")
    if cache is not None:
        hit = cache.get(n, m)
        if hit is not None:
            return hit
    solution, H = solve_triangular(bracket_system(n, m))
    result = AlmostCommutingResult(
        n=n,
        m=m,
        P=DiffOperator.from_dict(
            {m: DiffPolynomial.one(), **{m - l: q for l, q in solution.items()}}
        ),
        H=H,
    )
    if cache is not None:
        try:
            cache.put(n, m, result)
        except OSError as exc:
            path = cache.entry_path(n, m)
            print(f"diffops: cache entry {path} not written: {exc}", file=sys.stderr)
    return result
