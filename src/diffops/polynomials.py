"""Differential polynomials with exact rational coefficients.

The ring is Q{u_2,...,u_n}{y_2,...,y_m}[c_...]: differential variables
u_l, y_l (l >= 2) with derivatives u_l^{(k)}, y_l^{(k)}, plus formal
constants c_{m,j} that the derivation kills.  A single derivation acts by
bumping derivative orders and the Leibniz rule.

Variables carry the grading w(u_l^{(k)}) = w(y_l^{(k)}) = l + k; constants
are weight-transparent.

A polynomial is stored as integer numerators over one denominator,
``{key: num}`` and ``den``, meaning sum (num/den) * monomial(key).  The
form is normal: ``den >= 1``, ``gcd(den, *nums) == 1``, no numerator is
zero, and the zero polynomial has ``den == 1``.  So two polynomials are
equal exactly when their numerator dicts and denominators are, and every
hot loop (products, derivation, substitution) runs on Python ints.
Rationals (``fractions.Fraction``) appear only at the boundary:
``items()``, the rational constructor and scalar arguments.

Monomial keys.  A key is a monomial's packed exponent vector, one int.  A
process-wide slot table gives each variable, the first time any monomial
uses it, a fixed 8-bit field: the monomial prod v^(e_v) has the key
sum e_v << (8 * slot(v)), and the monomial 1 has the key 0.  So a
monomial product is one int addition, and replacing one factor v by its
derivative v' adds the per-slot step (1 << 8*slot(v')) - (1 << 8*slot(v)),
computed once.  An exponent is at most ``MAX_EXPONENT`` = 127: the top
bit of every field is a guard, so adding two keys never carries into the
next field, and a product, derivative or construction that would make an
exponent larger raises OverflowError instead of wrapping.

Slots come in blocks of 256.  The u- and c-variables fill block 0 and the
y-variables, which live only while a bracket system is solved, take
blocks of their own, so the keys of the long-lived u-monomials stay short
(an int's size is that of its highest field).  The table only grows, by
one slot per distinct variable; it is the one state of this module that
outlives a call.  Only this module builds or takes keys apart (the one
exception, ``integration.decompose``, shifts and steps keys by amounts
``_lowering`` gives it): ``items()``, ``sorted_terms()``, the
constructors and pickles speak the canonical form of a monomial, a
tuple of ``(VarId, exp)`` pairs sorted by VarId, with no zero exponent
(``()`` is the monomial 1).  So
slot numbers never reach an output, and no result depends on the order
in which variables were first met.

A polynomial may also carry ``_derivs``, its derivative chain
``[nums, nums', nums'', ...]`` as numerator dicts, or None.  Only
``_derivatives`` grows a chain, and no other module touches ``_derivs``.
A caller that already holds poly' may hand it to ``_derivatives`` as
``first``, which seeds the chain ``[nums, first]`` instead of deriving.
``operators.leibniz_product`` grows the chains of its right factors and
leaves them on the polynomial, so a right factor multiplied again is not
derived again.  ``substitute`` takes polynomials linear in the y's,
``const + sum A_(l,k) y_l^{(k)}`` (ValueError otherwise).  It grows the
chain of each assigned q_l, or extends the seeded one, cuts it after each
polynomial of its stream to the orders of y_l that later ones use, and
drops it (None) after the last one or when the stream stops early, so no
q_l^{(k)} outlives the stream.

A polynomial may also carry ``_rows``, or None: each term's factor ids
in the order of a canonical JSON term list, whose numerators ``_nums``
holds in that order.  Only ``formats._poly_from_json`` sets them, and
only ``sorted_terms`` reads them: its first call takes them and drops
them, so they are a hand-off from the parse to one render, not a memo.
No computed polynomial has rows.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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


# -- packed monomial keys (see the module docstring) --------------------------

_W = 8  # bits per exponent field
MAX_EXPONENT = (1 << (_W - 1)) - 1
_FIELD = (1 << _W) - 1
# Slots come in blocks of _BLOCK, each holding the variables of one group:
# the u- and c-variables (block 0 first), or the y-variables
_BLOCK = 256

_SLOTS: dict = {}  # VarId -> slot
_VARS: list = [None] * _BLOCK  # slot -> VarId (None for a free slot)
_WEIGHTS: list = [None] * _BLOCK  # slot -> weight of its variable
_RANKS: list = [None] * _BLOCK  # slot -> ``_int_rank`` of its variable
_RANK_LIMIT = 1 << 32  # every index and order of a u or y is below it
# slot -> key step of replacing the variable by its derivative: 0 for a
# constant, None until the first derivation that needs it
_STEPS: list = [None] * _BLOCK
_NEXT = [0, 0]  # group (1 for y) -> next free slot of its current block
_END = [_BLOCK, 0]  # group -> end of its current block
_GUARD = 0  # the top bit of every allocated field
_HALF = 0  # the 64 bit of every allocated field: two exponents below it add below the guard
_FAMILY_FIELDS = [0, 0, 0]  # family -> every bit of its variables' fields
_SLOT_LOCK = threading.Lock()


def _slot(vid) -> int:
    """The slot of a variable, allocated on first use."""
    slot = _SLOTS.get(vid)
    return _new_slot(VarId(*vid)) if slot is None else slot


def _is_variable(vid: VarId) -> bool:
    """Whether ``vid`` is a u or y of plain int index >= 2 and order >= 0,
    both below 2^32, or a c of order 0 indexed by a pair of plain ints (not
    ``True``, ``2.0``)."""
    family, index, order = vid
    if type(family) is not int or type(order) is not int or order < 0:
        return False
    if family == C_FAMILY:
        return order == 0 and type(index) is tuple and len(index) == 2 and all(
            type(i) is int for i in index
        )
    return (
        family in (U_FAMILY, Y_FAMILY)
        and type(index) is int
        and 2 <= index < _RANK_LIMIT
        and order < _RANK_LIMIT
    )


def _new_slot(vid: VarId) -> int:
    global _GUARD, _HALF
    with _SLOT_LOCK:
        slot = _SLOTS.get(vid)
        if slot is None:
            if not _is_variable(vid):
                raise ValueError(f"invalid variable {vid!r}")
            group = int(vid.family == Y_FAMILY)
            if _NEXT[group] == _END[group]:
                _NEXT[group] = len(_VARS)
                _END[group] = len(_VARS) + _BLOCK
                for table in (_VARS, _WEIGHTS, _RANKS, _STEPS):
                    table.extend([None] * _BLOCK)
            slot = _NEXT[group]
            _NEXT[group] += 1
            shift = _W * slot
            _VARS[slot] = vid
            _WEIGHTS[slot] = vid.weight()
            _RANKS[slot] = _int_rank(vid)
            if vid.family == C_FAMILY:
                _STEPS[slot] = 0
            _GUARD |= 1 << (shift + _W - 1)
            _HALF |= 1 << (shift + _W - 2)
            _FAMILY_FIELDS[vid.family] |= _FIELD << shift
            _SLOTS[vid] = slot  # published last: a slot is complete once found
    return slot


def elimination_rank(vid) -> tuple:
    """The place of a variable in the elimination ranking, as a tuple that
    is larger for a higher rank: u before y before c, then the lower index,
    then the higher derivative order.  ``_RANKS`` holds it as an int."""
    if vid[0] == C_FAMILY:
        return (-C_FAMILY, 0, 0)
    return (-vid[0], -vid[1], vid[2])


def _int_rank(vid) -> int:
    """``elimination_rank(vid)`` packed into one int that orders the same
    way: each entry, shifted to be >= 0, takes a field _RANK_LIMIT wide,
    which holds it because ``_is_variable`` keeps index and order below."""
    family, index, order = elimination_rank(vid)
    return ((family + C_FAMILY) * _RANK_LIMIT + index + _RANK_LIMIT - 1) * _RANK_LIMIT + order


def _derivative_step(slot: int) -> int:
    """``_STEPS[slot]`` of a u- or y-variable, set on first use."""
    family, index, order = _VARS[slot]
    step = (1 << _W * _slot(VarId(family, index, order + 1))) - (1 << _W * slot)
    _STEPS[slot] = step
    return step


def _check_exponents(keys) -> None:
    """Raise OverflowError when a key has an exponent above MAX_EXPONENT.

    Valid only for sums of two valid keys, or a valid key plus a step:
    those stay below 256 per field, so their guard bit shows the overflow.
    """
    if reduce(or_, keys, 0) & _GUARD:
        raise OverflowError(f"a monomial exponent exceeds {MAX_EXPONENT}")


def _below_half(keys) -> bool:
    """True when every exponent of ``keys`` is below 64, so that no sum of
    two such keys and no derivative of one can overflow."""
    return not reduce(or_, keys, 0) & _HALF


def _factor_key(vid, exp: int) -> int:
    """The key of the monomial vid^exp (exp >= 0)."""
    if exp < 0:
        raise ValueError(f"negative exponent {exp}")
    if exp > MAX_EXPONENT:
        raise OverflowError(f"exponent {exp} exceeds {MAX_EXPONENT}")
    return exp << _W * _slot(vid)


def _pack(mono) -> int:
    """The key of a monomial given as (VarId, exp) pairs in any order; the
    exponents of a repeated variable add up."""
    key = 0
    for vid, exp in mono:
        key += _factor_key(vid, exp)
        _check_exponents((key,))
    return key


def _unpack(key: int) -> list:
    """[(slot, exp)] of the factors of a key, in slot order."""
    out = []
    slot = 0
    while key:
        skip = ((key & -key).bit_length() - 1) // _W
        key >>= skip * _W
        slot += skip
        out.append((slot, key & _FIELD))
        key >>= _W
        slot += 1
    return out


def _mono(key: int) -> tuple:
    """The canonical tuple of a key."""
    return tuple(sorted([(_VARS[slot], exp) for slot, exp in _unpack(key)]))


def _key_weight(key: int) -> int:
    return sum(_WEIGHTS[slot] * exp for slot, exp in _unpack(key))


def _sorted_rows(nums: dict) -> tuple:
    """The rows ``sorted_terms`` renders, for a numerator dict: a lookup
    from factor id to ``(VarId, exp)``, then each term's factor ids and its
    numerator in canonical order.  The id of v^e is rank(v) << _W | e,
    which orders as (v, e) does; rank(v) is v's place among the variables
    of ``nums`` in canonical order."""
    used = sorted((_VARS[slot], slot) for slot, _ in _unpack(reduce(or_, nums, 0)))
    base = [0] * len(_VARS)  # slot -> rank << _W
    for i, (_, slot) in enumerate(used):
        base[slot] = i << _W
    weights, width, field = _WEIGHTS, _W, _FIELD
    rows = []
    for key, num in nums.items():
        # _unpack, inlined: this decodes every monomial of every output
        ids = []
        weight = 0
        slot = 0
        while key:
            skip = ((key & -key).bit_length() - 1) // width
            key >>= skip * width
            slot += skip
            exp = key & field
            ids.append(base[slot] | exp)
            weight += weights[slot] * exp
            key >>= width
            slot += 1
        ids.sort()
        rows.append((-weight, ids, num))
    rows.sort()  # (-weight, ids) is unique, so no num is compared
    return lambda i: (used[i >> width][0], i & field), [r[1] for r in rows], [r[2] for r in rows]


def _reducible_slot(key: int):
    """The slot of the leader v of a key, its factor of highest rank, when
    v = u_l^{(k)} with k >= 1 appears linearly, so that integration by
    parts lowers it; None otherwise.  One pass over the key."""
    ranks, width, field = _RANKS, _W, _FIELD
    best = best_rank = -1
    best_exp = 0
    slot = 0
    while key:
        skip = ((key & -key).bit_length() - 1) // width
        key >>= skip * width
        slot += skip
        rank = ranks[slot]
        if rank > best_rank:
            best, best_rank, best_exp = slot, rank, key & field
        key >>= width
        slot += 1
    return best if best_exp == 1 and _VARS[best].order else None


def _lowering(slot: int) -> tuple:
    """(step, shift) for the variable v = u_l^{(k)}, k >= 1, of ``slot`` and
    w = u_l^{(k-1)}: ``key - step`` replaces one factor v of a key by w, and
    ``key >> shift & _FIELD`` is the exponent of w in the key."""
    family, index, order = _VARS[slot]
    lower = _slot(VarId(family, index, order - 1))
    step = _STEPS[lower]
    if step is None:
        step = _derivative_step(lower)
    return step, _W * lower


def _acc(out: dict, mono: int, coeff) -> None:
    prev = out.get(mono)
    if prev is None:
        out[mono] = coeff
    else:
        s = prev + coeff
        if s:
            out[mono] = s
        else:
            del out[mono]


def _mul_into(dst: dict, a: dict, b: dict, scale: int) -> None:
    """dst += scale * a * b on numerator dicts; OverflowError when an
    exponent of dst would exceed MAX_EXPONENT."""
    get = dst.get
    for ma, ca in a.items():
        cs = ca * scale
        for mb, cb in b.items():
            m = ma + mb
            prev = get(m)
            if prev is None:
                dst[m] = cs * cb
            else:
                s = prev + cs * cb
                if s:
                    dst[m] = s
                else:
                    del dst[m]
    if not (_below_half(a) and _below_half(b)):
        _check_exponents(dst)


def _derive_raw(terms: dict) -> dict:
    """The derivative of a numerator dict (the denominator is unchanged):
    each factor v^e of a monomial M adds e * M v'/v, one step per factor."""
    out: dict = {}
    get = out.get
    steps = _STEPS
    width = _W
    field = _FIELD
    for mono, coeff in terms.items():
        rest = mono
        slot = 0
        while rest:
            skip = ((rest & -rest).bit_length() - 1) // width
            rest >>= skip * width
            slot += skip
            step = steps[slot]
            if step is None:
                step = _derivative_step(slot)
            if step:
                m = mono + step
                c = coeff * (rest & field)
                prev = get(m)
                if prev is None:
                    out[m] = c
                else:
                    s = prev + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
            rest >>= width
            slot += 1
    if not _below_half(terms):
        _check_exponents(out)
    return out


def _derivatives(poly: DiffPolynomial, top: int, first: dict | None = None) -> list:
    """[poly, poly', ..., poly^{(top)}] as numerator dicts, shorter when a
    derivative is zero (it then ends with that empty dict).

    The chain is kept in ``poly._derivs``.  A longer chain replaces the
    stored list instead of extending it, and the dicts are never mutated,
    so a list once stored never changes and callers in several threads
    need no lock: at worst two of them derive the same step.

    ``first``, when given, is poly' as a numerator dict over poly's
    denominator, which the caller already holds: a poly without a chain
    stores ``[poly._nums, first]``, even for top = 0, so poly' is never
    derived.  A poly with a chain ignores it.
    """
    derivs = poly._derivs
    if derivs is None:
        derivs = [poly._nums]
        if first is not None:
            derivs.append(first)
            poly._derivs = derivs
    if len(derivs) <= top and derivs[-1]:
        derivs = list(derivs)
        while len(derivs) <= top and derivs[-1]:
            derivs.append(_derive_raw(derivs[-1]))
        poly._derivs = derivs
    return derivs


def _ratio_of(value) -> tuple:
    """(numerator, denominator > 0) of a rational scalar, in lowest terms."""
    if not isinstance(value, int):
        value = Fraction(value)
    return value.numerator, value.denominator


def ratio_text(num: int, den: int) -> str:
    """Canonical text of num/den in lowest terms: ``-3/4``, ``5``."""
    return str(num) if den == 1 else f"{num}/{den}"


class DiffPolynomial:
    """Sparse differential polynomial over exact rationals.

    Stored as integer numerators over one denominator in normal form (see
    the module docstring).
    """

    __slots__ = ("_nums", "_den", "_derivs", "_rows")

    def __init__(self, terms: Mapping | None = None):
        """sum c * mono over ``terms``, which maps monomials, as (VarId,
        exp) pairs in any order, to anything ``Fraction`` accepts; zero
        coefficients are dropped and monomials that are equal add up."""
        terms = {mono: Fraction(c) for mono, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in terms.values()))
        nums: dict = {}
        for mono, c in terms.items():
            if c:
                _acc(nums, _pack(mono), c.numerator * (den // c.denominator))
        self._nums, self._den = _normal_form(nums, den)
        self._derivs = self._rows = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_nums(cls, nums: dict, den: int) -> "DiffPolynomial":
        """nums/den, brought to normal form.

        ``nums`` maps monomial keys to nonzero ints and is taken
        over, not copied; ``den`` is a positive int.
        """
        p = cls.__new__(cls)
        p._nums, p._den = _normal_form(nums, den)
        p._derivs = p._rows = None
        return p

    @classmethod
    def zero(cls) -> "DiffPolynomial":
        return cls.from_nums({}, 1)

    @classmethod
    def one(cls) -> "DiffPolynomial":
        return cls.from_nums({0: 1}, 1)

    @classmethod
    def constant(cls, value) -> "DiffPolynomial":
        num, den = _ratio_of(value)
        return cls.from_nums({0: num} if num else {}, den)

    @classmethod
    def variable(cls, vid: VarId) -> "DiffPolynomial":
        return cls.from_nums({_factor_key(vid, 1): 1}, 1)

    # -- queries ------------------------------------------------------

    def items(self) -> Iterator:
        """(canonical monomial, Fraction) pairs."""
        den = self._den
        return ((_mono(m), Fraction(c, den)) for m, c in self._nums.items())

    def sorted_terms(self, factor_str: Callable) -> list:
        """[(factors, num, den)] in canonical order (weight descending, then
        the canonical monomials ascending), each num/den in lowest terms;
        ``factors`` lists ``factor_str(vid, exp)`` of the monomial's factors.
        ``factor_str`` is called once per distinct factor, so terms that
        share a factor share its value.

        One tail renders rows: each term's factor ids and numerator, in
        canonical order.  The first call takes the rows of a parse,
        ``_rows``, ``(table, factor_rows)`` with the numerators in ``_nums``
        order; every later call, and a polynomial without rows, sorts them
        out of ``_nums`` (``_sorted_rows``).
        """
        rows, self._rows = self._rows, None
        if rows is None:
            lookup, factor_rows, nums = _sorted_rows(self._nums)
        else:
            table, factor_rows = rows
            lookup, nums = table.__getitem__, self._nums.values()
        rendered = {i: factor_str(*lookup(i)) for i in set(chain.from_iterable(factor_rows))}
        text, den = rendered.__getitem__, self._den
        return [
            (list(map(text, ids)), num // g, den // g)
            for ids, num in zip(factor_rows, nums)
            for g in (gcd(num, den),)
        ]

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def has_family(self, family: int) -> bool:
        return bool(reduce(or_, self._nums, 0) & _FAMILY_FIELDS[family])

    def weight(self) -> int | None:
        """Common weight of all monomials; None for the zero polynomial.

        Constants c_{m,j} are weight-transparent.  Raises
        NotHomogeneousError when monomial weights differ.
        """
        if not self._nums:
            return None
        it = iter(self._nums)
        w = _key_weight(next(it))
        for key in it:
            if _key_weight(key) != w:
                raise NotHomogeneousError(f"mixed weights in {self!r}")
        return w

    # -- ring operations ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
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
            nums: dict = {}
            _mul_into(nums, self._nums, other._nums, 1)
            return DiffPolynomial.from_nums(nums, self._den * other._den)
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

        Accepts polynomials linear in the y-variables (see ``substitute``);
        u- and c-variables pass through unchanged.  ``assignments`` maps
        the integer index l of each y-variable to a DiffPolynomial, as the
        solution of ``solve_triangular``.  A stream of one polynomial
        through ``substitute``, so the derivative chains it grows on the
        assignments are dropped before it returns.
        """
        return next(substitute((self,), assignments))

    def __reduce__(self):
        # a key means something only with this process's slot table, so a
        # pickle holds the canonical monomials
        return _unpickle, ([(_mono(key), num) for key, num in self._nums.items()], self._den)

    # -- rendering ------------------------------------------------------

    def __repr__(self) -> str:
        return f"DiffPolynomial({render_text(self)})"

    def __str__(self) -> str:
        return render_text(self)


def _unpickle(terms: list, den: int) -> DiffPolynomial:
    return DiffPolynomial.from_nums({_pack(mono): num for mono, num in terms}, den)


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
    """(nums, den) divided by gcd(den, *nums); den is 1 when nums is empty.

    An empty ``nums`` becomes a fresh ``{}``: a dict emptied by
    cancellation keeps its grown table, which a zero result would hold.
    """
    if not nums:
        return {}, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return nums, den


def substitute(polys: Sequence[DiffPolynomial], assignments: Mapping) -> Iterator[DiffPolynomial]:
    """Yield ``p.evaluate(assignments)`` for each p of ``polys`` in turn.

    Each p must be linear in the y-variables, as the bracket system is:
    read once as ``(const + sum A_(l,k) y_l^{(k)}) / den``, it becomes
    const plus one product A_(l,k) * q_l^{(k)} per (l, k).  A monomial
    with two y-factors or a squared one raises ValueError before any
    assignment is read.

    Each q_l^{(k)} comes from the chain ``_derivatives`` keeps on q_l, so
    each (l, k) is derived at most once per stream.  The stream owns the
    chains of all assignments, read or not: after each polynomial it cuts
    q_l's chain to the highest order of y_l that a later polynomial uses,
    and drops it when none does or when the stream ends or stops early (an
    ``IncompleteSolutionError``, or a consumer that stops iterating).  So
    a chain a caller seeds on an assignment (the triangular solve seeds
    q_l' = rest / -n) lives no longer than the stream's need for it.

    ``assignments[l]`` is read only when a polynomial first needs y_l, so
    the caller may add assignments between yields, as the triangular solve
    does.
    """
    y_fields = _FAMILY_FIELDS[Y_FAMILY]
    # pending, last polynomial first: (const, table, den, keep) for the
    # polynomial (const + sum table[v] * v) / den over y-variables v, and
    # keep maps l to the highest order of y_l in the later polynomials
    pending: list = []
    later: dict = {}
    for poly in reversed(polys):
        keep = dict(later)
        const: dict = {}
        table: dict = {}
        for key, coeff in poly._nums.items():
            ys = key & y_fields
            if not ys:
                const[key] = coeff
                continue
            shift = ys.bit_length() - 1
            if ys != 1 << shift or shift % _W:
                monomial = DiffPolynomial.from_nums({key: 1}, 1)
                raise ValueError(f"substitution is linear in the y's; it cannot take {monomial}")
            table.setdefault(_VARS[shift // _W], {})[key - ys] = coeff
        for _, l, k in table:
            if later.get(l, -1) < k:
                later[l] = k
        pending.append((const, table, poly._den, keep))
    del polys  # the stream may be the only holder of the input list

    def replacement(vid) -> tuple:
        if vid.index not in assignments:
            raise IncompleteSolutionError(vid.index)
        q = assignments[vid.index]
        derivs = _derivatives(q, vid.order)
        return derivs[min(vid.order, len(derivs) - 1)], q._den

    try:
        while pending:
            const, table, poly_den, keep = pending.pop()
            # (A_(l,k), q_l^(k), q_l's denominator) per y-variable y_l^(k)
            terms = [(a, *replacement(vid)) for vid, a in table.items()]
            common = lcm(*(den for _, _, den in terms))
            out = {key: coeff * common for key, coeff in const.items()}
            for a, q_k, den in terms:
                _mul_into(out, a, q_k, common // den)
            # else they hold the derivatives cut below while the stream waits
            terms = a = q_k = den = None
            for l, q in assignments.items():
                if q._derivs is not None:
                    q._derivs = q._derivs[: keep[l] + 1] if l in keep else None
            yield DiffPolynomial.from_nums(out, poly_den * common)
    finally:
        for q in assignments.values():
            q._derivs = None


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


def factor_text(vid, exp: int) -> str:
    base = _var_text(vid)
    return base if exp == 1 else f"{base}^{exp}"


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
    factor_str: Callable,
    sep: str,
    times: str,
) -> str:
    """p as signed terms ``|c|{times}monomial``; unit coefficients are elided.

    ``coeff_str(num, den)`` renders a positive coefficient in lowest terms,
    ``factor_str(vid, exp)`` one factor of a monomial (once per distinct
    factor, through ``sorted_terms``), and ``sep`` joins the factors.
    """
    if not p:
        return "0"
    parts = []
    for texts, num, den in p.sorted_terms(factor_str):
        mag = abs(num)
        if not texts:
            body = coeff_str(mag, den)
        elif mag == 1 and den == 1:
            body = sep.join(texts)
        else:
            body = f"{coeff_str(mag, den)}{times}{sep.join(texts)}"
        parts.append(f"-{body}" if num < 0 else body)
    return join_signed(parts)


def render_text(p: DiffPolynomial) -> str:
    return render_sum(p, ratio_text, factor_text, "*", "*")
