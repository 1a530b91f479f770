"""Closed-form antiderivatives of differential polynomials.

A differential polynomial F in the u-variables decomposes uniquely as
F = d(A) + B where B is the canonical obstruction: no monomial of B is
linear in its leading derivative, so B = 0 exactly when F is a total
derivative.

The reduction works under the elimination ranking u_2 > u_3 > ... > u_n
(any derivative of an earlier variable beats every derivative of a later
one; within one variable, higher derivative order wins).  A monomial whose
leader v = u_l^{(k)}, k >= 1, appears linearly is rewritten through

    v * w^d * W = d(w^{d+1} W / (d+1)) - w^{d+1} W' / (d+1),   w = u_l^{(k-1)},

which strictly lowers the leader, so the loop terminates with the
irreducible remainder B.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable

from ._ratio import ONE, ZERO
from .polynomials import (
    C_FAMILY,
    DiffPolynomial,
    U_FAMILY,
    VarId,
    Y_FAMILY,
    _acc,
    _derive_raw,
    _exponent_of,
    _lower_factor,
    _mono_leader,
    _pack,
    homogeneous_monomials,
)


class NotTotalDerivativeError(ValueError):
    """The polynomial is not in the image of the derivation."""

    def __init__(self, obstruction: DiffPolynomial | None = None, context: str | None = None):
        message = "not a total derivative"
        if context:
            message = f"{context}: {message}"
        if obstruction is not None:
            message = f"{message}; obstruction: {obstruction}"
        super().__init__(message)
        self.obstruction = obstruction
        self.context = context


@dataclass(frozen=True)
class Decomposition:
    """F = d(antiderivative) + obstruction."""

    antiderivative: DiffPolynomial
    obstruction: DiffPolynomial


def _require_u_only(p: DiffPolynomial) -> None:
    if p.has_family(Y_FAMILY) or p.has_family(C_FAMILY):
        raise ValueError("integration is defined on polynomials in the u-variables only")


def _rank(vid) -> tuple:
    # larger tuple = higher rank under the elimination ranking
    return (-vid[1], vid[2])


def _reducible_leader(key: int):
    """The leader v = u_l^{(k)} of a monomial key when k >= 1 and v is
    linear, so that the rewriting applies; None otherwise."""
    lead = _mono_leader(key)
    return lead[0] if lead is not None and lead[0].order and lead[1] == 1 else None


def is_reduced_monomial(mono) -> bool:
    """True when the monomial belongs to the canonical obstruction space:
    either its leader carries no derivative, or the leader is nonlinear."""
    return _reducible_leader(_pack(mono)) is None


def _file(monos, buckets: dict, filed: set) -> None:
    """Put each monomial not yet in ``filed`` there, and each reducible one
    also into the bucket of its leader."""
    for mono in monos:
        if mono not in filed:
            filed.add(mono)
            lead = _reducible_leader(mono)
            if lead is not None:
                buckets.setdefault(lead, []).append(mono)


def decompose(f: DiffPolynomial) -> Decomposition:
    """Canonical decomposition f = d(A) + B.

    Deterministic under the fixed ranking; exact.  B consists precisely of
    the monomials irreducible under the integration-by-parts rewriting.
    Each round reduces the highest-ranked bucket, and every monomial it
    adds ranks lower; each distinct monomial that enters the work is
    bucketed once, when it first enters.
    """
    _require_u_only(f)
    # work and anti are numerator dicts over the common denominator den
    work = dict(f._nums)
    anti: dict = {}
    den = f._den
    buckets: dict = {}
    filed: set = set()
    _file(work, buckets, filed)
    while buckets:
        v = max(buckets, key=_rank)
        w_var = VarId(U_FAMILY, v.index, v.order - 1)
        # the bucket's monomials still in work, grouped by their w-degree
        groups: dict = {}
        for mono in buckets.pop(v):
            coeff = work.get(mono)
            if coeff is not None:
                groups.setdefault(_exponent_of(mono, w_var), {})[mono] = coeff
        # rescale den so that every 1/(d+1) * coefficient is an integer
        scale = lcm(*((d + 1) // gcd(d + 1, *monos.values()) for d, monos in groups.items()))
        if scale != 1:
            work = {mono: coeff * scale for mono, coeff in work.items()}
            anti = {mono: coeff * scale for mono, coeff in anti.items()}
            den *= scale
        for d, monos in groups.items():
            # v w^d W = d(w^(d+1) W / (d+1)) - w^(d+1) W' / (d+1)
            increment = {
                _lower_factor(mono, v): coeff * scale // (d + 1) for mono, coeff in monos.items()
            }
            for mono, coeff in increment.items():
                _acc(anti, mono, coeff)
            derived = _derive_raw(increment)
            for mono, coeff in derived.items():
                _acc(work, mono, -coeff)
            _file(derived, buckets, filed)
    return Decomposition(DiffPolynomial.from_nums(anti, den), DiffPolynomial.from_nums(work, den))


def antiderivative(f: DiffPolynomial) -> DiffPolynomial:
    """A with d(A) = f, via the canonical decomposition.

    Raises NotTotalDerivativeError (carrying the obstruction) when f is
    not in the image of the derivation.  For weight-homogeneous f the
    result is the unique homogeneous antiderivative.
    """
    dec = decompose(f)
    if not dec.obstruction.is_zero():
        raise NotTotalDerivativeError(dec.obstruction)
    return dec.antiderivative


def antiderivative_by_ansatz(
    f: DiffPolynomial, indices: Iterable[int] | None = None
) -> DiffPolynomial:
    """Independent integrator: solve d(sum l_i M_i) = f linearly.

    The ansatz runs over all homogeneous monomials M_i of weight w - 1 in
    the given u-variable indices (defaults to the indices appearing in f).
    Exact rational elimination; an inconsistent system means f is not a
    total derivative.
    """
    _require_u_only(f)
    if f.is_zero():
        return DiffPolynomial.zero()
    w = f.weight()
    if indices is None:
        indices = f.u_indices()
    candidates = [m for m in homogeneous_monomials(w - 1, indices) if m]
    derived = [dict(DiffPolynomial({m: ONE}).derive().items()) for m in candidates]
    row_index: dict = {}
    for terms in derived:
        for mono in terms:
            row_index.setdefault(mono, len(row_index))
    rhs = [ZERO] * len(row_index)
    for mono, coeff in f.items():
        if mono not in row_index:
            # no candidate derivative produces this monomial
            raise NotTotalDerivativeError(DiffPolynomial({mono: coeff}))
        rhs[row_index[mono]] = coeff
    matrix = [[ZERO] * len(candidates) for _ in range(len(row_index))]
    for col, terms in enumerate(derived):
        for mono, coeff in terms.items():
            matrix[row_index[mono]][col] = coeff
    solution = _solve_exact(matrix, rhs)
    if solution is None:
        raise NotTotalDerivativeError()
    out: dict = {}
    for mono, value in zip(candidates, solution):
        if value:
            out[mono] = value
    return DiffPolynomial(out)


def _solve_exact(matrix: list, rhs: list):
    """Gaussian elimination over exact rationals.

    Returns a solution vector, or None when the system is inconsistent.
    Free columns (which cannot occur for the graded systems built above,
    since the derivation is injective on positive weights) are set to 0.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols]:
            return None
    solution = [ZERO] * n_cols
    for row, col in enumerate(pivots):
        solution[col] = aug[row][n_cols]
    return solution
