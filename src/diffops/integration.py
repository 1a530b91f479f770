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

Each monomial is bucketed by the slot of its leader once, when it first
enters the work: ``polynomials._reducible_slot`` finds the leader in one
pass over the packed key, comparing the int ranks ``_RANKS`` (ordered as
``elimination_rank``).  A round takes the bucket of the highest-ranked v
and asks ``polynomials._lowering`` once for the key step of v -> w and
the bit shift of w's field.  Then each monomial is grouped by its
w-degree d = ``mono >> shift & _FIELD`` and lowered to w^{d+1} W by
``mono - step``; each group runs one overflow check, and the terms are
accumulated into A and the work in place.

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
    Y_FAMILY,
    _FIELD,
    _RANKS,
    _check_exponents,
    _derive_raw,
    _lowering,
    _reducible_slot,
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


def _file(monos, buckets: dict, filed: set) -> None:
    """Put each monomial not yet in ``filed`` there, and each reducible one
    also into the bucket of its leader's slot."""
    for mono in monos:
        if mono not in filed:
            filed.add(mono)
            lead = _reducible_slot(mono)
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
    buckets: dict = {}  # slot of a leader v -> the monomials it leads
    filed: set = set()
    _file(work, buckets, filed)
    while buckets:
        v = max(buckets, key=_RANKS.__getitem__)
        step, shift = _lowering(v)
        # the bucket's monomials still in work, grouped by their w-degree
        groups: dict = {}
        for mono in buckets.pop(v):
            coeff = work.get(mono)
            if coeff is not None:
                groups.setdefault(mono >> shift & _FIELD, {})[mono] = coeff
        # rescale den so that every 1/(d+1) * coefficient is an integer
        scale = lcm(*((d + 1) // gcd(d + 1, *monos.values()) for d, monos in groups.items()))
        if scale != 1:
            work = {mono: coeff * scale for mono, coeff in work.items()}
            anti = {mono: coeff * scale for mono, coeff in anti.items()}
            den *= scale
        for d, monos in groups.items():
            # v w^d W = d(w^(d+1) W / (d+1)) - w^(d+1) W' / (d+1)
            increment = {mono - step: coeff * scale // (d + 1) for mono, coeff in monos.items()}
            _check_exponents(increment)
            get = anti.get
            for mono, coeff in increment.items():
                prev = get(mono)
                if prev is None:
                    anti[mono] = coeff
                else:
                    s = prev + coeff
                    if s:
                        anti[mono] = s
                    else:
                        del anti[mono]
            get = work.get
            fresh = []  # a monomial in work was filed when it entered
            for mono, coeff in _derive_raw(increment).items():
                prev = get(mono)
                if prev is None:
                    work[mono] = -coeff
                    fresh.append(mono)
                else:
                    s = prev - coeff
                    if s:
                        work[mono] = s
                    else:
                        del work[mono]
            _file(fresh, buckets, filed)
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
