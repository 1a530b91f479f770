"""Differential polynomials with exact rational coefficients.

The ring is Q{u_2,...,u_n}{y_2,...,y_m}[c_...]: differential variables
u_l, y_l (l >= 2) with derivatives u_l^{(k)}, y_l^{(k)}, plus formal
constants c_{m,j} that the derivation kills.  A single derivation acts by
bumping derivative orders and the Leibniz rule.

Variables carry the grading w(u_l^{(k)}) = w(y_l^{(k)}) = l + k; constants
are weight-transparent.  Monomials are kept canonical: sorted by variable
id, no zero exponents.

A polynomial is stored as integer numerators over one denominator,
``{mono: num}`` and ``den``, meaning sum (num/den) * mono.  The form is
normal: ``den >= 1``, ``gcd(den, *nums) == 1``, no numerator is zero, and
the zero polynomial has ``den == 1``.  So two polynomials are equal
exactly when their numerator dicts and denominators are, and every hot
loop (products, derivation, substitution) runs on Python ints.  Rationals
(``fractions.Fraction``) appear only at the boundary: ``items()``,
``coefficient()``, ``from_dict``, the rational constructor and scalar
arguments.

A polynomial may also carry ``_derivs``, its derivative chain
``[nums, nums', nums'', ...]`` as numerator dicts.  It is None until
``operators.leibniz_product`` first needs a derivative of the polynomial
as a right coefficient; only that function sets it, and the chain lives
as long as the polynomial, so a right factor multiplied again is not
derived again.
``substitute`` keeps its own per-call table instead: its ``q_l`` are the
long-lived solution polynomials, and chains kept on them would hold
every ``q_l^{(k)}`` of a call alive after the call, where the table drops
each one after the last polynomial that uses it.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._ratio import Rational

U_FAMILY = 0
Y_FAMILY = 1
C_FAMILY = 2

FAMILY_LETTERS = ("u", "y", "c")


class NotHomogeneousError(ValueError):
    """Raised when a weight is requested for a mixed-weight polynomial."""


class IncompleteSolutionError(KeyError):
    """Raised when evaluation meets a y-variable with no assigned value."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index

    def __str__(self) -> str:
        return f"incomplete solution: no assignment for y_{self.index}"


class VarId(NamedTuple):
    """A differential variable u_l^{(k)}, y_l^{(k)} or constant c_{m,j}.

    Ordering is the canonical one used everywhere: family u < y < c,
    then index ascending, then derivative order ascending.  ``index`` is
    an int (>= 2) for the u/y families and an (m, j) pair for constants.
    """

    family: int
    index: object
    order: int

    def weight(self) -> int:
        if self.family == C_FAMILY:
            return 0
        return self.index + self.order

    def __str__(self) -> str:
        return _var_text(self)


def u_id(l: int, k: int = 0) -> VarId:
    if l < 2 or k < 0:
        raise ValueError(f"invalid u-variable u_{l}^({k})")
    return VarId(U_FAMILY, l, k)


def y_id(l: int, k: int = 0) -> VarId:
    if l < 2 or k < 0:
        raise ValueError(f"invalid y-variable y_{l}^({k})")
    return VarId(Y_FAMILY, l, k)


def c_id(m: int, j: int) -> VarId:
    return VarId(C_FAMILY, (m, j), 0)


# A monomial is a tuple of (VarId, exponent) pairs, sorted by VarId,
# exponents > 0.  The empty tuple is the constant monomial 1.
Mono = tuple


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_weight(mono: Mono) -> int:
    w = 0
    for vid, exp in mono:
        if vid[0] != C_FAMILY:
            w += (vid[1] + vid[2]) * exp
    return w


def _mono_degree(mono: Mono) -> int:
    return sum(exp for _, exp in mono)


def mono_sort_key(mono: Mono):
    """Graded by weight (descending), ties broken lexicographically."""
    return (-_mono_weight(mono), mono)


def _acc(out: dict, mono: Mono, coeff) -> None:
    prev = out.get(mono)
    if prev is None:
        out[mono] = coeff
    else:
        s = prev + coeff
        if s:
            out[mono] = s
        else:
            del out[mono]


def _mul_raw(a: dict, b: dict) -> dict:
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            prev = get(m)
            if prev is None:
                out[m] = c
            else:
                out[m] = prev + c
    return {m: c for m, c in out.items() if c}


def _mul_into(dst: dict, a: dict, b: dict, scale: int) -> None:
    """dst += scale * a * b on numerator dicts."""
    for ma, ca in a.items():
        cs = ca * scale
        for mb, cb in b.items():
            _acc(dst, _mono_mul(ma, mb), cs * cb)


def _derive_raw(terms: dict) -> dict:
    """The derivative of a numerator dict (the denominator is unchanged)."""
    out: dict = {}
    for mono, coeff in terms.items():
        for i in range(len(mono)):
            vid, exp = mono[i]
            if vid[0] == C_FAMILY:
                continue
            up = (vid[0], vid[1], vid[2] + 1)
            # replace one factor vid by its derivative; keep sorted order
            head = list(mono[:i])
            if exp > 1:
                head.append((vid, exp - 1))
            tail = mono[i + 1 :]
            if tail and tail[0][0] == up:
                head.append((up, tail[0][1] + 1))
                head.extend(tail[1:])
            else:
                head.append((up, 1))
                head.extend(tail)
            _acc(out, tuple(head), coeff * exp if exp != 1 else coeff)
    return out


def _ratio_of(value) -> tuple:
    """(numerator, denominator > 0) of a rational scalar, in lowest terms."""
    if not isinstance(value, int):
        value = Rational(value)
    return value.numerator, value.denominator


def ratio_text(num: int, den: int) -> str:
    """Canonical text of num/den in lowest terms: ``-3/4``, ``5``."""
    return str(num) if den == 1 else f"{num}/{den}"


class DiffPolynomial:
    """Sparse differential polynomial over exact rationals.

    Stored as integer numerators over one denominator in normal form (see
    the module docstring).
    """

    __slots__ = ("_nums", "_den", "_derivs")

    def __init__(self, terms: Mapping | None = None):
        """sum c * mono over ``terms``, which maps canonical monomials to
        ints or Fractions; zero coefficients are dropped."""
        terms = terms or {}
        den = lcm(*(c.denominator for c in terms.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}
        self._nums, self._den = _normal_form(nums, den)
        self._derivs = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_nums(cls, nums: dict, den: int) -> "DiffPolynomial":
        """nums/den, brought to normal form.

        ``nums`` maps canonical monomials to nonzero ints and is taken
        over, not copied; ``den`` is a positive int.
        """
        p = cls.__new__(cls)
        p._nums, p._den = _normal_form(nums, den)
        p._derivs = None
        return p

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return cls.from_nums({}, 1)

    @classmethod
    def one(cls) -> "DiffPolynomial":
        return cls.from_nums({(): 1}, 1)

    @classmethod
    def constant(cls, value) -> "DiffPolynomial":
        num, den = _ratio_of(value)
        return cls.from_nums({(): num} if num else {}, den)

    @classmethod
    def variable(cls, vid: VarId) -> "DiffPolynomial":
        return cls.from_nums({((vid, 1),): 1}, 1)

    @classmethod
    def from_dict(cls, terms: Mapping) -> "DiffPolynomial":
        """Monomials in any order, coefficients as anything ``Rational``
        accepts; repeated monomials add up."""
        out: dict = {}
        for mono, coeff in terms.items():
            c = Rational(coeff)
            if c:
                _acc(out, tuple(sorted(mono)), c)
        return cls(out)

    # -- queries ------------------------------------------------------

    def items(self) -> Iterator:
        den = self._den
        return ((m, Rational(c, den)) for m, c in self._nums.items())

    def sorted_num_den(self) -> list:
        """[(mono, num, den)] in canonical order, each num/den in lowest terms."""
        den = self._den
        out = []
        for mono, num in sorted(self._nums.items(), key=lambda t: mono_sort_key(t[0])):
            g = gcd(num, den)
            out.append((mono, num // g, den // g))
        return out

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def coefficient(self, mono: Mono):
        return Rational(self._nums.get(tuple(sorted(mono)), 0), self._den)

    def total_degree(self) -> int:
        if not self._nums:
            return 0
        return max(_mono_degree(m) for m in self._nums)

    def variables(self) -> set:
        out = set()
        for mono in self._nums:
            for vid, _ in mono:
                out.add(VarId(*vid))
        return out

    def u_indices(self) -> set:
        return {
            vid[1]
            for mono in self._nums
            for vid, _ in mono
            if vid[0] == U_FAMILY
        }

    def has_family(self, family: int) -> bool:
        return any(
            vid[0] == family for mono in self._nums for vid, _ in mono
        )

    def weight(self) -> int | None:
        """Common weight of all monomials; None for the zero polynomial.

        Constants c_{m,j} are weight-transparent.  Raises
        NotHomogeneousError when monomial weights differ.
        """
        if not self._nums:
            return None
        it = iter(self._nums)
        w = _mono_weight(next(it))
        for mono in it:
            if _mono_weight(mono) != w:
                raise NotHomogeneousError(f"mixed weights in {self!r}")
        return w

    def is_homogeneous(self, weight: int | None = None) -> bool:
        try:
            w = self.weight()
        except NotHomogeneousError:
            return False
        return w is None or weight is None or w == weight

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):
            other = DiffPolynomial.constant(other)
        if isinstance(other, DiffPolynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def _plus(self, other, sign: int) -> "DiffPolynomial":
        """self + sign * other over the least common denominator."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = dict(self._nums) if fa == 1 else {m: c * fa for m, c in self._nums.items()}
        fb *= sign
        for mono, coeff in other._nums.items():
            _acc(out, mono, coeff * fb)
        return DiffPolynomial.from_nums(out, da * fa)

    def __add__(self, other) -> "DiffPolynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "DiffPolynomial":
        return DiffPolynomial.from_nums({m: -c for m, c in self._nums.items()}, self._den)

    def __sub__(self, other) -> "DiffPolynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "DiffPolynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "DiffPolynomial":
        if isinstance(other, DiffPolynomial):
            return DiffPolynomial.from_nums(
                _mul_raw(self._nums, other._nums), self._den * other._den
            )
        try:
            num, den = _ratio_of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._scaled(num, den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "DiffPolynomial":
        num, den = _ratio_of(scalar)
        if not num:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)

    def _scaled(self, num: int, den: int) -> "DiffPolynomial":
        """self * num/den for ints num and den > 0."""
        if not num:
            return DiffPolynomial.zero()
        return DiffPolynomial.from_nums(
            {m: c * num for m, c in self._nums.items()}, self._den * den
        )

    def __pow__(self, exponent: int) -> "DiffPolynomial":
        return binary_power(self, exponent, DiffPolynomial.one())

    # -- differential structure ----------------------------------------

    def derive(self, times: int = 1) -> "DiffPolynomial":
        if times < 0:
            raise ValueError("derivative count must be non-negative")
        nums = self._nums
        for _ in range(times):
            nums = _derive_raw(nums)
        return self if nums is self._nums else DiffPolynomial.from_nums(nums, self._den)

    def evaluate(self, assignments: Mapping) -> "DiffPolynomial":
        """Differential substitution y_l^{(k)} -> derive(assignments[l], k).

        u- and c-variables pass through unchanged.  ``assignments`` maps
        the integer index l of each y-variable to a DiffPolynomial, as
        ``solve_triangular`` returns it.  The one-polynomial case of
        ``substitute``.
        """
        return substitute((self,), assignments)[0]

    # -- rendering ------------------------------------------------------

    def __repr__(self) -> str:
        return f"DiffPolynomial({render_text(self)})"

    def __str__(self) -> str:
        return render_text(self)


def binary_power(base, exponent: int, one):
    """base ** exponent by repeated squaring; ``one`` is the unit of its ring."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _normal_form(nums: dict, den: int) -> tuple:
    """(nums, den) divided by gcd(den, *nums); den is 1 when nums is empty."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return nums, den


def substitute(polys: Sequence[DiffPolynomial], assignments: Mapping) -> list:
    """``p.evaluate(assignments)`` for every p of ``polys``, in one pass.

    All polynomials share one derivative table that builds q_l^{(k)} from
    q_l^{(k-1)}, so each (l, k) is derived at most once.  After each
    polynomial the table keeps q_l^{(k)} only up to the highest order of
    y_l that a later polynomial uses, and drops l when none does; it
    lives for this call only.
    """
    # keep[i]: l -> highest order of y_l in the polynomials after polys[i]
    keep: list = []
    later: dict = {}
    for poly in reversed(polys):
        keep.append(dict(later))
        for mono in poly._nums:
            for vid, _ in mono:
                if vid[0] == Y_FAMILY and later.get(vid[1], -1) < vid[2]:
                    later[vid[1]] = vid[2]
    keep.reverse()
    table: dict = {}  # l -> [q_l, q_l', q_l'', ...] as numerator dicts

    def replacement(vid) -> tuple:
        derivs = table.get(vid[1])
        if derivs is None:
            if vid[1] not in assignments:
                raise IncompleteSolutionError(vid[1])
            derivs = table[vid[1]] = [assignments[vid[1]]._nums]
        while len(derivs) <= vid[2]:
            derivs.append(_derive_raw(derivs[-1]))
        return derivs[vid[2]], assignments[vid[1]]._den

    results = []
    for i, poly in enumerate(polys):
        # each monomial's factors, and the product of their denominators
        rows = []
        for mono, coeff in poly._nums.items():
            factors = [replacement(v) for v, e in mono if v[0] == Y_FAMILY for _ in range(e)]
            rows.append((mono, coeff, factors, prod(den for _, den in factors)))
        common = lcm(*(row[3] for row in rows))
        out: dict = {}
        for mono, coeff, factors, den in rows:
            head = {tuple(f for f in mono if f[0][0] != Y_FAMILY): coeff * (common // den)}
            for q, _ in factors[:-1]:
                head = _mul_raw(head, q)
            # the last factor goes straight into ``out``
            _mul_into(out, head, factors[-1][0] if factors else {(): 1}, 1)
        results.append(DiffPolynomial.from_nums(out, poly._den * common))
        for l in list(table):
            if l in keep[i]:
                del table[l][keep[i][l] + 1 :]
            else:
                del table[l]
    return results


def _coerce(value) -> "DiffPolynomial":
    if isinstance(value, DiffPolynomial):
        return value
    try:
        return DiffPolynomial.constant(value)
    except (TypeError, ValueError):
        return NotImplemented


# -- variable atoms ----------------------------------------------------


def u(l: int, k: int = 0) -> DiffPolynomial:
    """The polynomial u_l^{(k)}."""
    return DiffPolynomial.variable(u_id(l, k))


def y(l: int, k: int = 0) -> DiffPolynomial:
    """The polynomial y_l^{(k)}."""
    return DiffPolynomial.variable(y_id(l, k))


def c(m: int, j: int) -> DiffPolynomial:
    """The formal constant c_{m,j}."""
    return DiffPolynomial.variable(c_id(m, j))


# -- weighted monomial enumeration --------------------------------------


def homogeneous_monomials(weight: int, indices: Iterable[int]) -> list:
    """All monomials in {u_l^{(k)} : l in indices} of exact weight.

    Complete and duplicate-free; every u-variable has weight >= 2, so the
    list is finite.  Returned in the canonical monomial order.
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0:
        return [()]
    inds = sorted(set(indices))
    if any(l < 2 for l in inds):
        raise ValueError("u-variable indices start at 2")
    variables = [
        (U_FAMILY, l, k) for l in inds for k in range(weight - l + 1) if l <= weight
    ]
    variables.sort()
    out: list = []
    acc: list = []

    def extend(pos: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if pos == len(variables):
            return
        vid = variables[pos]
        extend(pos + 1, remaining)
        w = vid[1] + vid[2]
        e = 1
        while e * w <= remaining:
            acc.append((vid, e))
            extend(pos + 1, remaining - e * w)
            acc.pop()
            e += 1

    extend(0, weight)
    out.sort(key=mono_sort_key)
    return out


# -- plain-text rendering ------------------------------------------------


def _var_text(vid) -> str:
    fam, index, order = vid
    if fam == C_FAMILY:
        return f"c[{index[0]},{index[1]}]"
    name = f"{FAMILY_LETTERS[fam]}{index}"
    if order == 0:
        return name
    if order <= 3:
        return name + "'" * order
    return f"{name}^({order})"


def mono_text(mono: Mono) -> str:
    if not mono:
        return "1"
    parts = []
    for vid, exp in mono:
        base = _var_text(vid)
        parts.append(base if exp == 1 else f"{base}^{exp}")
    return "*".join(parts)


def join_signed(parts: Sequence[str]) -> str:
    """Join rendered summands, folding leading minus signs into the glue."""
    out = []
    for part in parts:
        if not out:
            out.append(part)
        elif part.startswith("-"):
            out.append(f"- {part[1:]}")
        else:
            out.append(f"+ {part}")
    return " ".join(out)


def render_sum(
    p: DiffPolynomial,
    coeff_str: Callable,
    mono_str: Callable[[Mono], str],
    times: str,
) -> str:
    """p as signed terms ``|c|{times}monomial``; unit coefficients are elided.

    ``coeff_str(num, den)`` renders a positive coefficient in lowest terms.
    """
    if p.is_zero():
        return "0"
    parts = []
    for mono, num, den in p.sorted_num_den():
        mag = abs(num)
        if not mono:
            body = coeff_str(mag, den)
        elif mag == 1 and den == 1:
            body = mono_str(mono)
        else:
            body = f"{coeff_str(mag, den)}{times}{mono_str(mono)}"
        parts.append(f"-{body}" if num < 0 else body)
    return join_signed(parts)


def render_text(p: DiffPolynomial) -> str:
    return render_sum(p, ratio_text, mono_text, "*")
