"""Closed-form antiderivatives of differential polynomials, and the Euler
operator that witnesses total derivatives independently of them.

A differential polynomial F in the u-variables decomposes uniquely as
F = d(A) + B where B is the canonical obstruction: no monomial of B is
linear in its leading derivative, so B = 0 exactly when F is a total
derivative.

The reduction works under the elimination ranking u_2 > u_3 > ... > u_n
(any derivative of an earlier variable beats every derivative of a later
one; within one variable, higher derivative order wins), which
``polynomials.elimination_rank`` defines.  A monomial whose leader
v = u_l^{(k)}, k >= 1, appears linearly is rewritten through

    v * w^d * W = d(w^{d+1} W / (d+1)) - w^{d+1} W' / (d+1),   w = u_l^{(k-1)},

which strictly lowers the leader, so the loop terminates with the
irreducible remainder B.

``euler`` shares no code with that reduction: for F without a constant
term, every E_{u_l}(F) vanishes exactly when F is a total derivative
(Olver, Applications of Lie Groups to Differential Equations, Thm 4.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

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
    elimination_rank,
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


def _reducible_leader(key: int):
    """The leader v = u_l^{(k)} of a monomial key when k >= 1 and v is
    linear, so that the rewriting applies; None otherwise."""
    lead = _mono_leader(key)
    return lead[0] if lead is not None and lead[0].order and lead[1] == 1 else None


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
        v = max(buckets, key=elimination_rank)
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
    if dec.obstruction:
        raise NotTotalDerivativeError(dec.obstruction)
    return dec.antiderivative


def euler(f: DiffPolynomial, l: int) -> DiffPolynomial:
    """The Euler operator E_{u_l}(f) = sum_k (-d)^k df/du_l^{(k)}.

    It kills every total derivative; for f without a constant term, f is
    a total derivative exactly when E_{u_l}(f) = 0 for every l.  Built on
    ``items()``, the rational constructor and ``derive`` only.
    """
    _require_u_only(f)
    partials: dict = {}  # k -> {monomial: coefficient} of df/du_l^{(k)}
    for mono, coeff in f.items():
        for i, (vid, exp) in enumerate(mono):
            if vid.index == l:
                rest = mono[:i] + (((vid, exp - 1),) if exp > 1 else ()) + mono[i + 1 :]
                partials.setdefault(vid.order, {})[rest] = exp * coeff
    # sum_k (-d)^k P_k = P_0 - d(P_1 - d(P_2 - ...))
    total = DiffPolynomial.zero()
    for k in range(max(partials, default=-1), -1, -1):
        total = DiffPolynomial(partials.get(k, {})) - total.derive()
    return total
