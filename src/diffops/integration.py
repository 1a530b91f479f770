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
    DiffPolynomial,
    U_FAMILY,
    _acc,
    _derive_raw,
    _mono_mul,
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
    for mono in p._nums:
        for vid, _ in mono:
            if vid[0] != U_FAMILY:
                raise ValueError(
                    "integration is defined on polynomials in the u-variables only"
                )


def _rank(vid) -> tuple:
    # larger tuple = higher rank under the elimination ranking
    return (-vid[1], vid[2])


def _mono_leader(mono):
    """Highest-ranked derivative present; None for the constant monomial.

    Monomials are sorted by (family, index, order) ascending, so the
    leader is the last entry of the lowest-index group.
    """
    if not mono:
        return None
    lead = mono[0][0]
    for vid, _ in mono[1:]:
        if vid[1] != lead[1]:
            break
        lead = vid
    return lead


def _exponent_of(mono, vid) -> int:
    for v, e in mono:
        if v == vid:
            return e
    return 0


def _mono_without(mono, drop_vid):
    return tuple(pair for pair in mono if pair[0] != drop_vid)


def is_reduced_monomial(mono) -> bool:
    """True when the monomial belongs to the canonical obstruction space:
    either its leader carries no derivative, or the leader is nonlinear."""
    lead = _mono_leader(mono)
    if lead is None or lead[2] == 0:
        return True
    return _exponent_of(mono, lead) != 1


def decompose(f: DiffPolynomial) -> Decomposition:
    """Canonical decomposition f = d(A) + B.

    Deterministic under the fixed ranking; exact.  B consists precisely of
    the monomials irreducible under the integration-by-parts rewriting.
    """
    _require_u_only(f)
    # work and anti are numerator dicts over the common denominator den
    work = dict(f._nums)
    anti: dict = {}
    den = f._den
    while True:
        # the reducible monomials (leader v = u_l^{(k)}, k >= 1, linear),
        # bucketed by v; the highest-ranked bucket is reduced this round
        buckets: dict = {}
        for mono, coeff in work.items():
            lead = _mono_leader(mono)
            if lead is None or lead[2] == 0 or _exponent_of(mono, lead) != 1:
                continue
            buckets.setdefault(lead, []).append((mono, coeff))
        if not buckets:
            break
        v = max(buckets, key=_rank)
        w_var = (U_FAMILY, v[1], v[2] - 1)
        # group them by their w-degree
        groups: dict = {}
        for mono, coeff in buckets[v]:
            rest = _mono_without(mono, v)
            d = _exponent_of(rest, w_var)
            groups.setdefault(d, {})[_mono_without(rest, w_var)] = coeff
        # rescale den so that every 1/(d+1) * cofactor is an integer
        scale = lcm(*((d + 1) // gcd(d + 1, *cof.values()) for d, cof in groups.items()))
        if scale != 1:
            work = {mono: coeff * scale for mono, coeff in work.items()}
            anti = {mono: coeff * scale for mono, coeff in anti.items()}
            den *= scale
        for d, cofactors in groups.items():
            w_power = ((w_var, d + 1),)
            increment = {
                _mono_mul(w_power, mono): coeff * scale // (d + 1)
                for mono, coeff in cofactors.items()
            }
            for mono, coeff in increment.items():
                _acc(anti, mono, coeff)
            for mono, coeff in _derive_raw(increment).items():
                _acc(work, mono, -coeff)
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
    derived = [_derive_raw({m: ONE}) for m in candidates]
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
